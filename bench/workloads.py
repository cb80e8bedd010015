"""Seeded benchmark workloads: instance lists, their expected answers, and
the operation each instance runs.

An instance is described by how it was built (a *construction*), and its
expected answer comes from that description alone, never from the criteria
under test:

- a product of simplices, a join of such products, and any relabelling of
  them is positive, with known part sizes;
- a k-gon and a prism over a k-gon are positive iff k <= 4;
- a truncation of a polytope P is positive iff P is a simplex; a chain of
  two or more truncations is therefore negative.

Constructions are nested tuples:

    ("product", (d1, d2, ...))      product of simplices of dimensions d_i
    ("polygon", k)                  the fixed rational k-gon
    ("prism", k)                    k-gon times a segment
    ("truncation", base, t)         t vertex truncations of `base`
    ("join", a, b)                  join of two dual complexes

The seed picks truncation vertices, relabelling permutations and which
family member of a slot's (m, dim) is drawn.  It never changes a workload's
mix of m, dim and family, so runs on different seeds stay comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 1609

# A slot is (family, m, dim, count): `count` instances of the family whose
# dual complex has m vertices and dimension dim.  "simplex-truncation" is a
# simplex truncated once (positive); "truncation" is every negative chain.
# "catalog-polygon" keeps the generator's labelling, as `crosscheck` sees it:
# a hexagon's doubled sweep over Q costs 7-12 s depending on the labelling,
# which would swamp the comparison between seeds.
# Each mix puts its median and its tail instance inside a group of instances
# of similar cost, not in the gap between two groups, where noise would make
# them jump: recognize-double's m=8 dim-4 products and m=8 dim-2
# truncations, recognize-wide's 13-cycles and m=12 dim-3 truncations,
# crosscheck-q's prisms.
WORKLOADS = {
    # check_double dominates: the MNF self-check on the 2m-vertex double.
    "recognize-double": [
        ("product", 7, 3, 2),
        ("product", 7, 4, 2),
        ("join", 7, 3, 2),
        ("polygon", 7, 1, 2),
        ("prism", 7, 2, 2),
        ("simplex-truncation", 7, 4, 2),
        ("truncation", 7, 2, 2),
        ("truncation", 7, 3, 2),
        ("product", 8, 5, 2),
        ("simplex-truncation", 8, 5, 2),
        ("product", 8, 4, 16),
        ("product", 8, 3, 2),
        ("truncation", 8, 3, 2),
        ("join", 8, 3, 2),
        ("prism", 8, 2, 2),
        ("truncation", 8, 2, 10),
        ("polygon", 8, 1, 2),
        ("product", 9, 5, 3),
    ],
    # 2m > cap, so Double is skipped and the subset sweep is nearly all work.
    "recognize-wide": [
        ("cycle", 12, 1, 6),
        ("cycle", 13, 1, 15),
        ("truncation", 12, 2, 9),
        ("truncation", 12, 3, 6),
        ("truncation", 13, 2, 3),
        ("cycle", 14, 1, 1),
        ("cycle", 15, 1, 1),
    ],
    # Doubled sweeps over Q: few non-cone subsets, large dense matrices.
    "crosscheck-q": [
        ("polygon", 5, 1, 5),
        ("cycle", 5, 1, 3),
        ("product", 5, 2, 5),
        ("simplex-truncation", 5, 2, 4),
        ("product", 5, 3, 1),
        ("catalog-polygon", 6, 1, 1),
    ],
}

# Seconds one round takes on a 2-core Xeon with a quiet host (up to 1.7 times
# that when the host is busy).  A run makes round(--seconds / ROUND_S)
# rounds, a count fixed by --seconds alone, so every run of a workload pools
# the same number of samples.  crosscheck-q has run out of distinct m=5
# complexes, so it repeats a short list instead of running a longer one.
ROUND_S = {"recognize-double": 20, "recognize-wide": 20, "crosscheck-q": 10}

# Spans the traced run must see at least once on each workload; a rename or
# rebinding that silently bypasses a layer then fails the run.
MUST_FIRE = {
    "recognize-double": (
        "cli.main",
        "geometry.incidence_from_hv",
        "geometry.dual_boundary_complex",
        "complexes.build_complex",
        "complexes.minimal_non_faces",
        "complexes.reconstruct_from_non_faces",
        "complexes.double",
        "complexes.link",
        "recognition.check_double",
        "recognition.recognize_all",
        "homology.hochster_total_rank.gf2",
        "homology.hochster_total_rank.q",
        "linalg.gf2_rank",
        "linalg.integer_rank",
    ),
    "recognize-wide": (
        "cli.main",
        "complexes.minimal_non_faces",
        "complexes.faces_by_dim",
        "recognition.recognize_all",
        "recognition.hochster_rank_criterion.gf2",
        "recognition.hochster_rank_criterion.q",
        "homology.hochster_total_rank.gf2",
        "homology.hochster_total_rank.q",
        "linalg.gf2_rank",
        "linalg.integer_rank",
    ),
    "crosscheck-q": (
        "geometry.dual_boundary_complex",
        "geometry.dihedral_nonobtuse_check",
        "complexes.minimal_non_faces",
        "complexes.double",
        "recognition.recognize_all",
        "homology.hochster_total_rank.q",
        "homology.hochster_rank_via_double.q",
        "linalg.integer_rank",
    ),
}


# -- expected answers ------------------------------------------------------------


def label(construction) -> tuple[bool, tuple[int, ...] | None]:
    """(positive, sorted part sizes) of a construction, from how it was built."""
    kind = construction[0]
    if kind == "product":
        return True, tuple(sorted(d + 1 for d in construction[1]))
    if kind == "polygon":
        k = construction[1]
        return k <= 4, {3: (3,), 4: (2, 2)}.get(k)
    if kind == "prism":
        k = construction[1]
        return k <= 4, {3: (2, 3), 4: (2, 2, 2)}.get(k)
    if kind == "truncation":
        _, base, t = construction
        if t == 0:
            return label(base)
        if t == 1 and base[0] == "product" and len(base[1]) == 1:
            n = base[1][0]
            return True, tuple(sorted((2, n)))
        return False, None
    if kind == "join":
        pos_a, parts_a = label(construction[1])
        pos_b, parts_b = label(construction[2])
        if pos_a and pos_b:
            return True, tuple(sorted(parts_a + parts_b))
        raise ValueError("joins with a negative side have no expected answer here")
    raise ValueError(f"unknown construction {construction!r}")


def _partitions(total: int, parts: int, smallest: int = 2):
    """Non-decreasing tuples of `parts` integers >= smallest summing to total."""
    if parts == 1:
        if total >= smallest:
            yield (total,)
        return
    for first in range(smallest, total // parts + 1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


# Products of simplices a truncation chain may start from, by dual-complex
# dimension.
_TRUNCATION_BASES = {
    2: [("product", (3,)), ("product", (1, 2)), ("product", (1, 1, 1))],
    3: [
        ("product", (4,)),
        ("product", (1, 3)),
        ("product", (2, 2)),
        ("product", (1, 1, 2)),
        ("product", (1, 1, 1, 1)),
    ],
}


def members(family: str, m: int, dim: int) -> list:
    """Every construction of a family whose dual complex has m vertices and
    dimension dim; the seed draws among them."""
    if family == "product":
        return [
            ("product", tuple(s - 1 for s in sizes))
            for sizes in _partitions(m, m - dim - 1)
        ]
    if family in ("polygon", "catalog-polygon") and dim == 1:
        return [("polygon", m)]
    if family == "prism" and dim == 2:
        return [("prism", m - 2)]
    if family == "cycle" and dim == 1:
        return [("truncation", ("product", (2,)), m - 3)]
    if family == "simplex-truncation":
        return [("truncation", ("product", (dim + 1,)), 1)] if m == dim + 3 else []
    if family == "truncation":
        out = []
        for base in _TRUNCATION_BASES.get(dim, []):
            t = m - sum(d + 1 for d in base[1])
            if t >= 2 or (t == 1 and len(base[1]) > 1):
                out.append(("truncation", base, t))
        return out
    if family == "join":
        # square or triangle boundary joined with a product of the rest
        out = []
        for left in (("polygon", 3), ("polygon", 4)):
            rest = m - left[1]
            for right in members("product", rest, dim - 2):
                out.append(("join", left, right))
        return out
    return []


# -- building instances ------------------------------------------------------------


@dataclass
class Instance:
    name: str
    positive: bool
    part_sizes: tuple[int, ...] | None
    complex: object
    incidence: object = None
    hrep: object = None


def _geometric(sj, construction):
    kind = construction[0]
    if kind == "product":
        return sj.gen_product_of_simplices(*construction[1])
    if kind == "polygon":
        return sj.gen_polygon(construction[1])
    if kind == "prism":
        hk, vk = sj.gen_polygon(construction[1])
        h1, v1 = sj.gen_simplex(1)
        return sj.product_polytope(hk, vk, h1, v1)
    raise ValueError(f"{construction!r} has no realization")


def _build(sj, construction, rng):
    """(complex, incidence | None, hrep | None) before relabelling."""
    kind = construction[0]
    if kind in ("product", "polygon", "prism"):
        hrep, vrep = _geometric(sj, construction)
        inc = sj.incidence_from_hv(hrep, vrep)
        return sj.dual_boundary_complex(inc), inc, hrep
    if kind == "truncation":
        _, base, t = construction
        _, inc, _ = _build(sj, base, rng)
        for _ in range(t):
            inc = sj.gen_truncated(inc, rng.randrange(len(inc.vertex_facets)))
        return sj.dual_boundary_complex(inc), inc, None
    if kind == "join":
        ka, _, _ = _build(sj, construction[1], rng)
        kb, _, _ = _build(sj, construction[2], rng)
        offset = ka.vertex_count
        kb = kb.relabel({v: v + offset for v in kb.vertices})
        return ka.join(kb), None, None
    raise ValueError(f"unknown construction {construction!r}")


def _relabelled(sj, built, perm):
    complex_, inc, hrep = built
    if inc is None:
        return complex_.relabel(dict(zip(complex_.vertices, perm))), None, None
    inc = sj.VertexFacetIncidence(
        dim=inc.dim,
        facet_count=inc.facet_count,
        vertex_facets=tuple(frozenset(perm[f] for f in vf) for vf in inc.vertex_facets),
    )
    if hrep is not None:
        rows = [None] * hrep.facet_count
        for i, row in enumerate(hrep.inequalities):
            rows[perm[i]] = row
        hrep = sj.PolytopeHRep(dim=hrep.dim, inequalities=tuple(rows))
    return sj.dual_boundary_complex(inc), inc, hrep


def _spec(construction) -> str:
    kind = construction[0]
    if kind == "product":
        return "product:" + ",".join(map(str, construction[1]))
    if kind in ("polygon", "prism"):
        return f"{kind}:{construction[1]}"
    if kind == "truncation":
        return f"truncate^{construction[2]}({_spec(construction[1])})"
    return f"join({_spec(construction[1])},{_spec(construction[2])})"


def build_instances(sj, workload: str, seed: int) -> list[Instance]:
    """The workload's instance list for this seed, validated.

    Every instance is relabelled by a seeded permutation and redrawn until
    its complex differs from all earlier ones, so no sweep cache or memo
    can serve one instance from another.
    """
    rng = random.Random(f"{workload}:{seed}")
    drawn = []
    seen: set = set()
    for family, m, dim, count in WORKLOADS[workload]:
        choices = members(family, m, dim)
        if not choices:
            raise ValueError(f"no {family} member with m={m}, dim={dim}")
        # cycle through a seeded order of the members, so a slot with many
        # instances draws each member about equally often on every seed
        order = rng.sample(choices, len(choices))
        for j in range(count):
            construction = order[j % len(order)]
            built = _build(sj, construction, rng)
            if (built[0].vertex_count, built[0].dim) != (m, dim):
                raise ValueError(
                    f"{_spec(construction)} gave m={built[0].vertex_count}, "
                    f"dim={built[0].dim}; slot wants m={m}, dim={dim}"
                )
            perm = list(range(m))
            for _attempt in range(1000):
                if family != "catalog-polygon":
                    rng.shuffle(perm)
                relabelled = _relabelled(sj, built, perm)
                if relabelled[0] not in seen:
                    break
            else:
                raise ValueError(f"cannot draw a new {family} with m={m}, dim={dim}")
            seen.add(relabelled[0])
            drawn.append((family, construction, relabelled))
    # spread the costly instances through the run, so per-instance times
    # sample the whole run rather than one stretch of it
    rng.shuffle(drawn)
    out = []
    for i, (family, construction, (complex_, inc, hrep)) in enumerate(drawn):
        positive, parts = label(construction)
        out.append(
            Instance(
                name=f"{family}/{_spec(construction)}#{i}",
                positive=positive,
                part_sizes=parts,
                complex=complex_,
                incidence=inc,
                hrep=hrep,
            )
        )
    return out


def duplicate_share(instances: list[Instance]) -> float:
    """Share of instances whose complex equals an earlier instance's."""
    distinct = len(set(inst.complex for inst in instances))
    return (len(instances) - distinct) / len(instances)


def summary(instances: list[Instance]) -> str:
    counts: dict[tuple, int] = {}
    for inst in instances:
        key = (inst.name.split("/")[0], inst.complex.vertex_count, inst.complex.dim)
        counts[key] = counts.get(key, 0) + 1
    by_size = sorted(counts.items(), key=lambda kv: (kv[0][1], kv[0][0], kv[0][2]))
    parts = [f"{fam} m={m} dim={d} x{c}" for (fam, m, d), c in by_size]
    positives = sum(inst.positive for inst in instances)
    return f"{len(instances)} instances ({positives} positive): " + "; ".join(parts)


# -- operations ----------------------------------------------------------------------


def prepare(sj, workload: str, instances: list[Instance], workdir) -> list:
    """Per-instance operation inputs; recognize workloads read complex JSON files."""
    if workload == "crosscheck-q":
        return [None] * len(instances)
    paths = []
    for i, inst in enumerate(instances):
        path = workdir / f"{i:03d}.json"
        path.write_text(json.dumps(inst.complex.to_json_dict()))
        paths.append(str(path))
    return paths


def run_one(sj, workload: str, inst: Instance, prepared) -> tuple[str, str | None]:
    """Run one instance; returns (output text, failure reason or None)."""
    if workload == "crosscheck-q":
        return _crosscheck_q(sj, inst)
    out, err = io.StringIO(), io.StringIO()
    argv = ["recognize", "--in", prepared, "--field", "both", "--assert"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sj.cli.main(argv)
    text = f"exit {rc}\n{out.getvalue()}"
    if rc in (2, 3):
        return text, f"exit {rc}: {err.getvalue().strip()}"
    if rc != (0 if inst.positive else 1):
        return text, f"verdict exit {rc}, expected {'positive' if inst.positive else 'negative'}"
    if inst.positive:
        dec = json.loads(out.getvalue())["decomposition"]
        sizes = tuple(sorted(len(p) for p in dec["parts"])) if dec else None
        if sizes != inst.part_sizes:
            return text, f"part sizes {sizes}, expected {inst.part_sizes}"
    return text, None


def _crosscheck_q(sj, inst: Instance) -> tuple[str, str | None]:
    """The checks one `crosscheck --field q` row makes, through exported functions."""
    q = sj.Field.RATIONAL
    cap = sj.homology.DEFAULT_CAP
    complex_ = inst.complex
    m = complex_.vertex_count
    report = sj.recognize_all(complex_, fields=frozenset({q}), cap=cap)
    ran = [r.verdict for r in report.reports if not r.skipped]
    verdict = bool(ran) and all(ran)
    row = {
        "m": m,
        "dim": complex_.dim,
        "report": report.to_json_dict(),
        "hrk": sj.hochster_total_rank(complex_, q, cap),
    }
    problems = []
    if not report.agreement:
        problems.append("criteria disagree")
    if verdict != inst.positive:
        problems.append(f"verdict {verdict}, expected {inst.positive}")
    if inst.positive and report.decomposition is not None:
        sizes = tuple(sorted(len(p) for p in report.decomposition.parts))
        if sizes != inst.part_sizes:
            problems.append(f"part sizes {sizes}, expected {inst.part_sizes}")
    if inst.incidence is not None:
        chi = sj.gluing_euler_characteristic(inst.incidence)
        graded = sj.hochster_graded_ranks(complex_, q, cap)
        alt = sum((-1) ** d * b for d, b in graded.items())
        row["euler"] = chi
        if chi != alt:
            problems.append(f"Euler {chi} != alternating sweep sum {alt}")
    row["via_double"] = sj.hochster_rank_via_double(complex_, q, cap=2 * m)
    if row["via_double"] != row["hrk"]:
        problems.append(f"double identity {row['via_double']} != {row['hrk']}")
    if inst.hrep is not None:
        dihedral = sj.dihedral_nonobtuse_check(inst.hrep, inst.incidence)
        row["dihedral"] = dihedral.to_json_dict()
        if dihedral.verdict and not inst.positive:
            problems.append("non-obtuse realization of a negative")
    text = json.dumps(row, sort_keys=True)
    return text, "; ".join(problems) or None
