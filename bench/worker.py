"""One benchmark round in a fresh interpreter.

Imports spherejoin from the checkout's `src/`, builds and validates the
seeded instance list (set-up), prints a `ready` line, then runs every
instance in order, one at a time, and prints one JSON result line.
Started by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="trace this round and write its spans here")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import spherejoin as sj
    import spherejoin.cli  # noqa: F401  (binds sj.cli)

    if Path(sj.__file__).resolve().parent != ROOT / "src" / "spherejoin":
        raise ImportError(f"spherejoin imported from {sj.__file__}, not from this checkout")

    import tracing
    import workloads

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    instances = workloads.build_instances(sj, args.workload, args.seed)
    workdir = ROOT / ".bench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        prepared = workloads.prepare(sj, args.workload, instances, workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        op_s, failures = [], []
        digest = hashlib.sha256()
        start = time.perf_counter()
        for i, (inst, arg) in enumerate(zip(instances, prepared)):
            if tracer is not None:
                tracer.instance_id = i
            t = time.perf_counter()
            try:
                text, problem = workloads.run_one(sj, args.workload, inst, arg)
            except Exception as exc:  # an exception is one failed instance
                text = problem = f"exception {type(exc).__name__}: {exc}"
            op_s.append(time.perf_counter() - t)
            digest.update(text.encode() + b"\0")
            if problem:
                failures.append(f"{inst.name}: {problem}")
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "summary": workloads.summary(instances),
        "duplicate_share": workloads.duplicate_share(instances),
        "wall_s": wall,
        "op_s": op_s,
        "failures": failures,
        "digest": digest.hexdigest(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.instance_id = -1
        columns = {f: getattr(tracer, f) for f in ("name", "start", "end", "parent", "work", "size")}
        result["layers"] = tracing.aggregate(tracer.names, columns)
        result["spans"] = len(tracer.start)
        tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
