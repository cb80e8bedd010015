"""Command-line interface.

Subcommands: recognize, hrk, betti, double, gen, dihedral, euler,
crosscheck.  Inputs come from JSON files (--in) or from generator specs
(--gen); all numeric output is exact (integers and rational strings), and
identical invocations produce byte-identical output.

Exit codes: 0 on success, 2 on input/validation errors (including cap
refusals), 4 when an internal invariant fails (a library defect, reported
on stderr with nothing on stdout).  With --assert, recognize exits 0 on a
positive verdict with criterion agreement, 1 on an agreed negative, 3 on
disagreement.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .catalog import build_catalog, incidence_bundle, polytope_bundle
from .complexes import SimplicialComplex, double, json_object
from .errors import InternalInvariantError, InvalidParameterError, SphereJoinError
from .geometry import (
    dihedral_nonobtuse_check,
    gen_truncated,
    polytope_from_json_dict,
    polytope_from_spec,
    polytope_to_json_dict,
    VertexFacetIncidence,
)
from .homology import (
    DEFAULT_CAP,
    Field,
    bigraded_betti,
    gluing_euler_characteristic,
    hochster_graded_ranks,
    hochster_rank_via_double,
    hochster_total_rank,
    reduced_betti,
)
from .recognition import recognize_all

# Doubling squares the sweep, so crosscheck never attempts it past this
# many doubled vertices even when --cap would allow a single sweep that big.
CROSSCHECK_DOUBLE_LIMIT = 16

FIELD_CHOICES = {"gf2": (Field.GF2,), "q": (Field.RATIONAL,), "both": (Field.GF2, Field.RATIONAL)}


def _dump(data: dict, path: str | None) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        # primary output goes to stdout when no file was requested,
        # regardless of --quiet
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _bundle_from_json(data: dict) -> dict:
    """Detect the payload kind by its keys and derive what follows from it."""
    json_object(data, "input")
    if "maximal_faces" in data:
        return {"complex": SimplicialComplex.from_json_dict(data)}
    if "inequalities" in data and "vertices" in data:
        return polytope_bundle(*polytope_from_json_dict(data))
    if "vertex_facets" in data:
        return incidence_bundle(VertexFacetIncidence.from_json_dict(data))
    raise InvalidParameterError(
        "unrecognized input: expected complex, polytope, or incidence JSON"
    )


def _bundle_from_generator(spec: str) -> dict:
    """The bundle a --gen spec names: truncate, double and join read input
    files; every other spec is a polytope (`polytope_from_spec`)."""
    kind, _, arg = spec.partition(":")
    if kind == "truncate":
        path, _, vertex = arg.rpartition(",")
        if not path:
            raise InvalidParameterError("truncate spec needs <input>,<vertex>")
        try:
            vertex_id = int(vertex)
        except ValueError:
            raise InvalidParameterError(
                f"truncate vertex is not an integer in spec {spec!r}"
            ) from None
        bundle = _bundle_from_json(_load_json(path))
        if "incidence" not in bundle:
            raise InvalidParameterError("truncate input must carry incidence data")
        return incidence_bundle(gen_truncated(bundle["incidence"], vertex_id))
    if kind == "double":
        bundle = _bundle_from_json(_load_json(arg))
        return {"complex": double(bundle["complex"])}
    if kind == "join":
        pa, _, pb = arg.partition(",")
        if not pb:
            raise InvalidParameterError("join spec needs two input paths")
        ka = _bundle_from_json(_load_json(pa))["complex"]
        kb = _bundle_from_json(_load_json(pb))["complex"]
        offset = max(ka.vertices) + 1 if ka.vertices else 0
        kb = kb.relabel({v: v + offset for v in kb.vertices})
        return {"complex": ka.join(kb)}
    return polytope_bundle(*polytope_from_spec(spec))


def _resolve_input(args) -> dict:
    if getattr(args, "gen", None):
        return _bundle_from_generator(args.gen)
    if getattr(args, "infile", None):
        return _bundle_from_json(_load_json(args.infile))
    raise InvalidParameterError("need --in PATH or --gen SPEC")


# -- subcommands -----------------------------------------------------------------


def _cmd_recognize(args) -> int:
    bundle = _resolve_input(args)
    complex_ = bundle["complex"]
    report = recognize_all(
        complex_, fields=frozenset(FIELD_CHOICES[args.field]), cap=args.cap
    )
    payload = report.to_json_dict()
    payload["m"] = complex_.vertex_count
    payload["dim"] = complex_.dim
    _dump(payload, args.json)
    if args.assert_mode:
        if not report.agreement:
            return 3
        return 0 if report.positive else 1
    return 0


def _cmd_hrk(args) -> int:
    complex_ = _resolve_input(args)["complex"]
    expected = 1 << (complex_.vertex_count - complex_.dim - 1)
    payload = {
        "m": complex_.vertex_count,
        "dim": complex_.dim,
        "expected_for_sphere_join": expected,
        "fields": {},
    }
    for fld in FIELD_CHOICES[args.field]:
        total = hochster_total_rank(complex_, fld, args.cap)
        payload["fields"][fld.value] = {"total": total, "matches": total == expected}
    _dump(payload, args.json)
    return 0


def _cmd_betti(args) -> int:
    complex_ = _resolve_input(args)["complex"]
    payload = {"m": complex_.vertex_count, "dim": complex_.dim, "fields": {}}
    for fld in FIELD_CHOICES[args.field]:
        table = bigraded_betti(complex_, fld, args.cap)
        payload["fields"][fld.value] = {
            "reduced": {str(d): b for d, b in sorted(reduced_betti(complex_, fld).reduced.items())},
            "bigraded": table.to_json_dict(),
            "total": table.total,
        }
    _dump(payload, args.json)
    return 0


def _cmd_double(args) -> int:
    complex_ = _resolve_input(args)["complex"]
    _dump(double(complex_).to_json_dict(), args.json)
    return 0


def _cmd_gen(args) -> int:
    bundle = _bundle_from_generator(args.spec)
    pieces: dict[str, dict] = {}
    if "hrep" in bundle:
        pieces["polytope"] = polytope_to_json_dict(bundle["hrep"], bundle["vrep"])
    if "incidence" in bundle:
        pieces["incidence"] = bundle["incidence"].to_json_dict()
    pieces["complex"] = bundle["complex"].to_json_dict()
    if args.json:
        for kind, data in sorted(pieces.items()):
            path = f"{args.json}.{kind}.json"
            _dump(data, path)
            if not args.quiet:
                print(path)
    else:
        _dump(pieces, None)
    return 0


def _cmd_dihedral(args) -> int:
    bundle = _resolve_input(args)
    if "hrep" not in bundle or "incidence" not in bundle:
        raise InvalidParameterError("dihedral needs inequality data (polytope JSON or geometric generator)")
    report = dihedral_nonobtuse_check(bundle["hrep"], bundle["incidence"])
    _dump(report.to_json_dict(), args.json)
    return 0


def _cmd_euler(args) -> int:
    bundle = _resolve_input(args)
    if "incidence" not in bundle:
        raise InvalidParameterError("euler needs incidence data")
    chi = gluing_euler_characteristic(bundle["incidence"])
    _dump({"euler_characteristic": chi}, args.json)
    return 0


def _crosscheck_row(entry, fields, cap) -> dict:
    complex_ = entry.complex
    m = complex_.vertex_count
    row: dict = {"name": entry.name, "m": m, "dim": complex_.dim}
    if m > cap:
        row["status"] = "skipped"
        row["reason"] = f"m={m} exceeds cap {cap}"
        row["ok"] = True
        return row
    report = recognize_all(complex_, fields=frozenset(fields), cap=cap)
    ran = [r.verdict for r in report.reports if not r.skipped]
    verdict = bool(ran) and all(ran)
    row["verdict"] = verdict
    row["agreement"] = report.agreement
    row["skipped_criteria"] = sorted(r.criterion for r in report.reports if r.skipped)
    row["expected"] = entry.is_sphere_join
    row["hrk"] = hochster_total_rank(complex_, fields[0], cap)
    ok = report.agreement and verdict == entry.is_sphere_join
    if entry.part_sizes is not None and report.decomposition is not None:
        sizes = tuple(sorted(len(p) for p in report.decomposition.parts))
        row["part_sizes"] = list(sizes)
        ok = ok and sizes == entry.part_sizes
    if entry.incidence is not None:
        chi = gluing_euler_characteristic(entry.incidence)
        graded = hochster_graded_ranks(complex_, fields[0], cap)
        alt = sum((-1) ** d * b for d, b in graded.items())
        row["euler"] = chi
        row["euler_matches_sweep"] = chi == alt
        ok = ok and chi == alt
    if 2 * m <= min(cap, CROSSCHECK_DOUBLE_LIMIT):
        via = hochster_rank_via_double(complex_, fields[0], cap=2 * m)
        row["double_identity"] = via == row["hrk"]
        ok = ok and row["double_identity"]
    else:
        row["double_identity"] = "skipped"
    if entry.hrep is not None:
        dihedral = dihedral_nonobtuse_check(entry.hrep, entry.incidence)
        row["dihedral"] = dihedral.verdict
        # non-obtuse realization must be recognized as a product
        if dihedral.verdict:
            ok = ok and verdict
    row["ok"] = ok
    return row


def _cmd_crosscheck(args) -> int:
    fields = FIELD_CHOICES[args.field]
    rows = [_crosscheck_row(entry, fields, args.cap) for entry in build_catalog()]
    if args.json:
        _dump({"rows": rows}, args.json)
    if not args.quiet:
        for row in rows:
            if row.get("status") == "skipped":
                print(f"{row['name']:24s} skipped ({row['reason']})")
                continue
            bits = [
                f"{row['name']:24s}",
                f"m={row['m']:2d}",
                f"verdict={'join' if row['verdict'] else 'no':4s}",
                f"agree={row['agreement']}",
                f"hrk={row['hrk']:<5d}",
                f"euler={row.get('euler', '-')!s:>4s}",
                f"double={row['double_identity']!s:>7s}",
                f"dihedral={row.get('dihedral', '-')!s:>5s}",
                f"ok={row['ok']}",
            ]
            print("  ".join(bits))
    bad = [row for row in rows if not row["ok"]]
    if not args.quiet:
        print(f"{len(rows) - len(bad)}/{len(rows)} rows consistent")
    return 0 if not bad else 1


# -- parser ----------------------------------------------------------------------


def _add_common(sub, *, gen=True, field=True, cap=True, assert_flag=False):
    if gen:
        sub.add_argument("--in", dest="infile", metavar="PATH", help="input JSON file")
        sub.add_argument("--gen", metavar="SPEC", help="generator spec, e.g. product:2,1")
    if field:
        sub.add_argument(
            "--field", choices=sorted(FIELD_CHOICES), default="gf2",
            help="coefficient field(s) (default gf2)",
        )
    if cap:
        sub.add_argument(
            "--cap", type=int, default=DEFAULT_CAP,
            help=f"vertex cap for subset sweeps (default {DEFAULT_CAP}); sweeps cost 2^m",
        )
    if assert_flag:
        sub.add_argument(
            "--assert", dest="assert_mode", action="store_true",
            help="exit 0 iff positive with agreement, 1 iff negative with agreement, 3 on disagreement",
        )
    sub.add_argument("--json", metavar="PATH", help="write JSON output here instead of stdout")
    sub.add_argument("--quiet", action="store_true", help="suppress non-essential output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="spherejoin",
        description="Decide whether a simple convex polytope is combinatorially a product of simplices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("recognize", help="run all criteria and report their agreement")
    _add_common(p, assert_flag=True)
    p.set_defaults(func=_cmd_recognize)

    p = subs.add_parser("hrk", help="total subset-sweep rank and the 2^(m-n) test")
    _add_common(p)
    p.set_defaults(func=_cmd_hrk)

    p = subs.add_parser("betti", help="reduced and bigraded Betti tables")
    _add_common(p)
    p.set_defaults(func=_cmd_betti)

    p = subs.add_parser("double", help="emit the doubled complex")
    _add_common(p, field=False, cap=False)
    p.set_defaults(func=_cmd_double)

    p = subs.add_parser("gen", help="write generated polytope/incidence/complex files")
    p.add_argument("spec", help="simplex:n | polygon:k | product:n1,n2,... | prism:k | truncate:PATH,V | double:PATH | join:A,B")
    p.add_argument("--json", metavar="PREFIX", help="file prefix; writes PREFIX.<kind>.json")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = subs.add_parser("dihedral", help="exact non-obtuse dihedral-angle check")
    _add_common(p, field=False, cap=False)
    p.set_defaults(func=_cmd_dihedral)

    p = subs.add_parser("euler", help="Euler characteristic of the glued manifold")
    _add_common(p, field=False, cap=False)
    p.set_defaults(func=_cmd_euler)

    p = subs.add_parser("crosscheck", help="run the built-in catalog through every cross-check")
    _add_common(p, gen=False)
    p.set_defaults(func=_cmd_crosscheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SphereJoinError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
