"""Spans for the traced benchmark run, recorded from outside the package.

`install` wraps each function named in SPANS wherever a `spherejoin.*`
module binds it (the defining module, every module that imported it, and
the package namespace), and each method on `SimplicialComplex`.  Every call
records one span: name, start, end, parent span and instance id.  Spans
stay in memory, in flat arrays, until the run writes them out.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, attribute, span name, field-suffixed?, work measure).  A measure
# maps (args, result) to two integers stored on the span: `work` and `size`.
SPANS = (
    ("cli", "main", "cli.main", False, None),
    ("geometry", "incidence_from_hv", "geometry.incidence_from_hv", False, None),
    ("geometry", "dual_boundary_complex", "geometry.dual_boundary_complex", False, None),
    ("geometry", "dihedral_nonobtuse_check", "geometry.dihedral_nonobtuse_check", False, None),
    (
        "complexes", "SimplicialComplex.minimal_non_faces", "complexes.minimal_non_faces", False,
        lambda args, out: (len(out), args[0].vertex_count),
    ),
    (
        "complexes", "reconstruct_from_non_faces", "complexes.reconstruct_from_non_faces", False,
        lambda args, out: (len(out.maximal_faces), 0),
    ),
    ("complexes", "double", "complexes.double", False, None),
    (
        "complexes", "SimplicialComplex.faces_by_dim", "complexes.faces_by_dim", False,
        lambda args, out: (sum(len(faces) for faces in out), 0),
    ),
    ("complexes", "is_pseudomanifold", "complexes.is_pseudomanifold", False, None),
    ("complexes", "SimplicialComplex.link", "complexes.link", False, None),
    ("complexes", "build_complex", "complexes.build_complex", False, None),
    ("recognition", "decompose_by_non_faces", "recognition.decompose_by_non_faces", False, None),
    ("recognition", "check_simplex_link", "recognition.check_simplex_link", False, None),
    ("recognition", "check_two_face", "recognition.check_two_face", False, None),
    ("recognition", "recognize_recursive", "recognition.recognize_recursive", False, None),
    ("recognition", "check_double", "recognition.check_double", False, None),
    ("recognition", "recognize_all", "recognition.recognize_all", False, None),
    # defined in homology, but it is the criterion recognition calls
    ("homology", "hochster_rank_criterion", "recognition.hochster_rank_criterion", True, None),
    (
        "homology", "hochster_total_rank", "homology.hochster_total_rank", True,
        lambda args, out: (1 << args[0].vertex_count, 0),
    ),
    (
        "homology", "hochster_rank_via_double", "homology.hochster_rank_via_double", True,
        lambda args, out: (1 << (2 * args[0].vertex_count), 0),
    ),
    ("linalg", "gf2_rank", "linalg.gf2_rank", False, lambda args, out: (len(args[0]), 0)),
    (
        "linalg", "integer_rank", "linalg.integer_rank", False,
        lambda args, out: (len(args[0]) * len(args[0][0]) if args[0] else 0, 0),
    ),
)

# How a per-layer metric's last component reads the spans it names.
STATS = {
    "s": "total",
    "self_s": "self",
    "calls": "calls",
    "out": "work",
    "cells": "work",
    "subsets_requested": "work",
    "max_rows": "max_work",
    "max_cells": "max_work",
    "max_m": "max_size",
}


class Tracer:
    """In-memory span store; one open-span stack, as the worker is single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance = array("i")
        self.work = array("q")
        self.size = array("q")
        self._stack = [-1]
        self.instance_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.instance.append(self.instance_id)
        self.work.append(0)
        self.size.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        """Header line (JSON) followed by the raw span arrays."""
        fields = ("name", "start", "end", "parent", "instance", "work", "size")
        header = {
            "names": self.names,
            "count": len(self.start),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """Inverse of `Tracer.write`: (span names, field arrays)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for field, code in header["fields"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            columns[field] = col
    return header["names"], columns


def _wrapper(tracer: Tracer, fn, name: str, by_field: bool, measure):
    if by_field:
        ids = {}

        def span_id(args, kwargs):
            field = args[1] if len(args) > 1 else kwargs["field"]
            if field not in ids:
                ids[field] = tracer.name_id(f"{name}.{field.value}")
            return ids[field]
    else:
        fixed = tracer.name_id(name)

        def span_id(args, kwargs):
            return fixed

    def traced(*args, **kwargs):
        idx = tracer.open(span_id(args, kwargs))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if measure is not None:
            tracer.work[idx], tracer.size[idx] = measure(args, out)
        return out

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every SPANS entry wherever a loaded spherejoin module binds it.

    Raises AttributeError when a declared function no longer exists, so a
    rename cannot silently drop a layer.
    """
    modules = [
        mod for key, mod in list(sys.modules.items())
        if key == "spherejoin" or key.startswith("spherejoin.")
    ]
    for module_name, attr, name, by_field, measure in SPANS:
        home = sys.modules[f"spherejoin.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = getattr(cls, meth)
            setattr(cls, meth, _wrapper(tracer, original, name, by_field, measure))
            continue
        original = getattr(home, attr)
        traced = _wrapper(tracer, original, name, by_field, measure)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


# -- aggregation (pure) ------------------------------------------------------------


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the time covered by its direct children.

    Spans come from one thread, so children of one parent never overlap.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out


def aggregate(names, columns) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, summed and max work/size."""
    selfs = self_times(columns["start"], columns["end"], columns["parent"])
    out: dict[str, dict[str, float]] = {
        n: {"calls": 0, "total": 0.0, "self": 0.0, "work": 0, "max_work": 0, "max_size": 0}
        for n in names
    }
    start, end = columns["start"], columns["end"]
    for i, nid in enumerate(columns["name"]):
        agg = out[names[nid]]
        agg["calls"] += 1
        agg["total"] += end[i] - start[i]
        agg["self"] += selfs[i]
        agg["work"] += columns["work"][i]
        agg["max_work"] = max(agg["max_work"], columns["work"][i])
        agg["max_size"] = max(agg["max_size"], columns["size"][i])
    return out


def metric(agg: dict[str, dict[str, float]], metric_name: str) -> float:
    """Value of a per-layer metric `<span or layer>.<stat>`.

    A prefix naming a whole layer (`homology.self_s`) sums over every span
    of that layer; maxima take the maximum instead.
    """
    prefix, _, stat = metric_name.rpartition(".")
    key = STATS[stat]
    matched = [v for n, v in agg.items() if n == prefix or n.startswith(prefix + ".")]
    values = [v[key] for v in matched]
    if key.startswith("max_"):
        return max(values, default=0)
    return sum(values)
