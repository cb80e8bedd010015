"""Print one pinned CLI output over the built-in catalog.

Usage: PYTHONPATH=src python tests/catalog_pins.py STEP

For every catalog entry the step covers, prints the entry's name and then
the output of the step's command on the entry's complex, read from a JSON
file.  The CI workflow pins the sha256 of the whole output, one digest per
step.  Exits 1 when a command fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from spherejoin import cli
from spherejoin.catalog import build_catalog

DOUBLE_HRK = ["hrk", "--gen", "double:{}", "--field", "both"]

# step -> (which entries, by vertex count m; the command, "{}" the JSON path)
STEPS = {
    "betti": (lambda m: True, ["betti", "--in", "{}", "--field", "both"]),
    "double": (lambda m: True, ["double", "--in", "{}"]),
    # the doubles crosscheck ranks, and those past its limit of 16 vertices
    "double-hrk": (lambda m: 2 * m <= 16, DOUBLE_HRK),
    "double-hrk-wide": (lambda m: 16 < 2 * m <= 20, DOUBLE_HRK),
    "recognize": (lambda m: True, ["recognize", "--in", "{}", "--field", "both"]),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=STEPS)
    wanted, command = STEPS[parser.parse_args(argv).step]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "complex.json")
        for entry in build_catalog():
            if not wanted(entry.complex.vertex_count):
                continue
            with open(path, "w") as fh:
                json.dump(entry.complex.to_json_dict(), fh)
            print(entry.name, flush=True)
            if cli.main([arg.format(path) for arg in command]):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
