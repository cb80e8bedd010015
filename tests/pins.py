"""The pinned outputs: one function per step, one digest per step.

Usage: PYTHONPATH=src python tests/pins.py STEP   (prints the step's text)

Each step runs the CLI in this process, through `cli.main` with stdout and
stderr captured, and returns a text whose sha256 is the step's line in
`pins.sha256`; `test_pins.py` checks every line.  A step also asserts the
exit codes and answers it expects, so a failure says which one broke.  A
change that alters a step's text on purpose rewrites that step's line with
the output of `python tests/pins.py STEP | sha256sum`.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time

from spherejoin import (
    build_complex, cli, dual_boundary_complex, gen_simplex, gen_truncated, incidence_from_hv,
)
from spherejoin.catalog import build_catalog
from spherejoin.geometry import polytope_from_spec
from spherejoin.homology import _is_sphere

STEPS = {}


def step(name):
    def register(fn):
        STEPS[name] = fn
        return fn
    return register


def call(*argv):
    """(exit code, stdout, stderr) of `cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def output(*argv, code=0):
    """The stdout of `cli.main(argv)`, which must exit with `code`."""
    got, out, err = call(*argv)
    if got != code:
        raise AssertionError(f"{' '.join(argv)}: expected exit {code}, got {got}\n{err}")
    return out


def refusal(name, *argv):
    """`name`, then the stderr and exit code of `cli.main(argv)`."""
    code, _, err = call(*argv)
    return f"{name}\n{err}exit {code}\n"


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def over_catalog(wanted, *command):
    """Each catalog entry whose vertex count m has `wanted(m)`: its name, then
    the output of `command` on its complex, read from a JSON file ("{}" in
    `command` is the file's path)."""
    text = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "complex.json")
        for entry in build_catalog():
            if wanted(entry.complex.vertex_count):
                write_json(path, entry.complex.to_json_dict())
                text += [entry.name + "\n", output(*(arg.format(path) for arg in command))]
    return "".join(text)


@step("crosscheck")
def crosscheck():
    """The JSON report of the full crosscheck at the default cap: agreement,
    the doubled-sweep identity and the Euler identity on every catalog entry
    (the other tests run crosscheck only at caps 10 and 12)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "crosscheck.json")
        output("crosscheck", "--field", "both", "--quiet", "--json", path)
        with open(path) as fh:
            return fh.read()


@step("betti")
def betti():
    """Reduced and bigraded Betti numbers over both fields of every catalog
    complex."""
    return over_catalog(lambda m: True, "betti", "--in", "{}", "--field", "both")


@step("double")
def double():
    """The double of every catalog complex."""
    return over_catalog(lambda m: True, "double", "--in", "{}")


@step("double-hrk")
def double_hrk():
    """hrk over both fields on the double of every catalog complex with
    2m <= 16: the totals behind crosscheck's doubled identity, which its
    report keeps only as a boolean."""
    return over_catalog(lambda m: 2 * m <= 16, "hrk", "--gen", "double:{}", "--field", "both")


@step("double-hrk-wide")
def double_hrk_wide():
    """hrk over both fields on the double of every catalog complex with
    16 < 2m <= 20 (product:2,1,1,1, product:1,1,1,1,1 and prism:7): crosscheck
    skips these doubles."""
    return over_catalog(lambda m: 16 < 2 * m <= 20, "hrk", "--gen", "double:{}", "--field", "both")


@step("recognize")
def recognize():
    """Every criterion's verdict and witness over both fields, for every
    catalog complex."""
    return over_catalog(lambda m: True, "recognize", "--in", "{}", "--field", "both")


@step("joins")
def joins():
    """recognize, hrk and betti over both fields on joins of two catalog
    entries (m = 8-13), each after its pair and command: the sweep splits
    them into join factors that are not simplex boundaries."""
    entries = {e.name: e.complex for e in build_catalog()}
    pairs = [("polygon:5", "polygon:6"), ("prism:5", "polygon:5"),
             ("truncated:simplex3", "product:2,1"), ("polygon:5", "polygon:3")]
    text = []
    with tempfile.TemporaryDirectory() as tmp:
        for a, b in pairs:
            paths = [write_json(os.path.join(tmp, f"{i}.json"), entries[name].to_json_dict())
                     for i, name in enumerate((a, b))]
            for command in ("recognize", "hrk", "betti"):
                text += [f"{a} * {b}: {command}\n",
                         output(command, "--gen", f"join:{paths[0]},{paths[1]}", "--field", "both")]
    return "".join(text)


@step("10-cube-dual")
def cube_dual():
    """recognize on the 10-cube dual, which must exit 0: m = 20 in ten
    two-vertex join components, at the vertex cap.  A sweep that stops
    factoring over them takes several times as long."""
    return output("recognize", "--gen", "product:" + ",".join(["1"] * 10), "--field", "both", "--assert")


@step("cap-positives")
def cap_positives():
    """recognize on products of dimension 10-14 near the vertex cap, where
    Recursive walks the most links: each must be recognized (exit 0)."""
    specs = ["product:4,4,4", "product:6,6,2", "product:2,2,2,2,2"]
    return "".join(spec + "\n" + output("recognize", "--gen", spec, "--field", "both", "--assert")
                   for spec in specs)


@step("20-cycle")
def cycle20():
    """recognize on the 20-cycle, a connected negative at the vertex cap,
    which must exit 1 (agreed negative): the Euler floor decides both
    Hochster criteria without ranking a restriction."""
    faces = [[i, (i + 1) % 20] for i in range(20)]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_json(os.path.join(tmp, "cycle20.json"), {"m": 20, "maximal_faces": faces})
        return output("recognize", "--in", path, "--field", "both", "--assert", code=1)


MALFORMED = [
    ("vertex-past-m", '{"m": 3, "maximal_faces": [[0, 1], [1, 2], [0, 3]]}'),
    ("negative-vertex", '{"m": 3, "maximal_faces": [[0, -1], [1, 2]]}'),
    ("boolean-vertex", '{"m": 3, "maximal_faces": [[true, 0], [1, 2]]}'),
    ("repeated-boolean", '{"m": 2, "maximal_faces": [[0, 1], [1, true]]}'),
    ("repeated-float", '{"m": 2, "maximal_faces": [[0, 1], [1, 1.0]]}'),
    ("negative-m", '{"m": -1, "maximal_faces": [[0]]}'),
    ("ten-uncovered", '{"m": 11, "maximal_faces": [[0]]}'),
    ("eleven-uncovered", '{"m": 13, "maximal_faces": [[0, 5]]}'),
    ("label-count", '{"m": 2, "maximal_faces": [[0, 1]], "labels": ["a"]}'),
    ("huge-m", '{"m": 1000000000, "maximal_faces": [[999999999]]}'),
]


def refusals(cases, *command):
    """Each case's file name, then the stderr and exit code of `command` on
    the file ("{}" in `command` is its path).  Each must fail fast."""
    text = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in cases:
            path = os.path.join(tmp, name + ".json")
            with open(path, "w") as fh:
                fh.write(data + "\n")
            start = time.perf_counter()
            text.append(refusal(name + ".json", *(arg.format(path) for arg in command)))
            if time.perf_counter() - start > 60:
                raise AssertionError(f"{name}: took more than 60 s to refuse")
    return "".join(text)


@step("malformed")
def malformed():
    """recognize --in on complex JSON with one fault each: every file must be
    refused with exit 2 and the message of its typed error.  The last file
    declares 10^9 vertices and covers one: it must fail fast, without
    building that many bits."""
    return refusals(MALFORMED, "recognize", "--in", "{}")


@step("malformed-incidence")
def malformed_incidence():
    """recognize --in on incidence and polytope JSON that no simple polytope
    has: each must be refused with exit 2 and a message naming the fault.  A
    set alone would read the row [2, 0, 0] as the two facets {0, 2}, which
    passes as simple; a dimension below 1 must be refused before the dual
    complex is built, not by the pseudomanifold test inside it."""
    return refusals([
        ("repeated-facet", '{"n": 2, "facets": 3, "vertex_facets": [[0, 1], [1, 2], [2, 0, 0]]}'),
        ("zero-dim-incidence", '{"n": 0, "facets": 0, "vertex_facets": [[]]}'),
        ("negative-dim-incidence", '{"n": -1, "facets": 0, "vertex_facets": []}'),
        ("zero-dim-polytope", '{"dim": 0, "inequalities": [], "vertices": [[]]}'),
    ], "recognize", "--in", "{}")


@step("gen")
def gen():
    """gen on one spec of each polytope family, each followed by the sha256
    of its stdout, then specs that must be refused: each must exit 2 with
    the message of its typed error."""
    text = [f"{spec}\n{hashlib.sha256(output('gen', spec).encode()).hexdigest()}\n"
            for spec in ["simplex:3", "polygon:5", "product:2,1", "prism:5"]]
    refused = ["simplex:1,2", "simplex:", "polygon:9", "prism:x", "prism:2", "product:",
               "product:a", "cube:3", "truncate:noComma", "product:1,,2", "simplex:3,",
               "truncate:missing.json,x"]
    return "".join(text + [refusal(spec, "gen", spec) for spec in refused])


@step("wide")
def wide():
    """recognize on the 12- to 16-cycles, truncated step by step from a
    triangle, and on the m = 12-14 truncation chains of the tetrahedron:
    connected negatives past the Double's cap, decided by the minimal
    non-faces and the Euler floor.  Each must exit 1 (agreed negative)."""
    text = []
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "p")
        for start, m0, wanted in (("simplex:2", 3, range(12, 17)), ("simplex:3", 4, range(12, 15))):
            output("gen", start, "--json", prefix, "--quiet")
            for m in range(m0 + 1, max(wanted) + 1):
                output("gen", f"truncate:{prefix}.incidence.json,0", "--json", prefix, "--quiet")
                if m in wanted:
                    text += [f"{start} truncated to m={m}\n",
                             output("recognize", "--in", f"{prefix}.incidence.json",
                                    "--field", "both", "--assert", code=1)]
    return "".join(text)


@step("sphere-certificates")
def sphere_certificates():
    """The homology-sphere certificate on five complexes, without timings.

    The certificate only licenses Alexander duality and the Euler floor's
    halving, so a certificate that wrongly says False changes no output, and
    no pinned digest can catch it.  It must hold on the 10-cube dual,
    product:4,4,4, prism:7 and the m = 14 truncation chain of the
    tetrahedron, and fail on the 6-vertex RP^2.
    """
    def dual(spec):
        return dual_boundary_complex(incidence_from_hv(*polytope_from_spec(spec)))

    chain = incidence_from_hv(*gen_simplex(3))
    while chain.facet_count < 14:
        chain = gen_truncated(chain, 0)
    rp2 = build_complex(
        [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
         [1, 2, 4], [2, 4, 5], [2, 3, 5], [1, 3, 5], [1, 3, 4]],
        6,
    )
    cases = [
        ("10-cube dual", dual("product:" + ",".join(["1"] * 10)), True),
        ("product:4,4,4", dual("product:4,4,4"), True),
        ("prism:7", dual("prism:7"), True),
        ("simplex:3 truncated to m=14", dual_boundary_complex(chain), True),
        ("RP^2 on 6 vertices", rp2, False),
    ]
    text = []
    for name, k, expected in cases:
        got = _is_sphere(k)
        if got is not expected:
            raise AssertionError(f"{name}: sphere {got}, expected {expected}")
        text.append(f"{name}: m={k.vertex_count}, sphere {got}\n")
    return "".join(text)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=STEPS)
    sys.stdout.write(STEPS[parser.parse_args().step]())
