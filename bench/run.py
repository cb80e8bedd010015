"""Benchmark for spherejoin.

Run from the repository root:

    python3 bench/run.py --workload recognize-double --seed 1609 --seconds 20 --trace 0

Workloads (see workloads.py for the instance mixes):

- recognize-double: `recognize --field both --assert` on m = 7..9; the
  Double criterion's minimal-non-face work dominates.
- recognize-wide: the same command on low-dimensional negatives with
  m = 12..15; Double is skipped and the subset sweep dominates.
- crosscheck-q: the checks of one `crosscheck --field q` row on m = 5..6;
  rational ranks of the doubled sweep dominate.

The load is one closed loop: one worker process with one thread runs the
seeded instance list, each instance starting when the previous one has
finished.  Each round is a fresh interpreter, so no cache or memo carries
over between rounds.  A run makes round(--seconds / ROUND_S) rounds
(ROUND_S is per workload, in workloads.py), at least one, and pools their
per-instance times.

--trace 0 prints the end-to-end metrics: wall_s (time to finish the
instance list, median over rounds), op_p50_ms and op_tail_ms (median and
tail of the pooled per-instance times), setup_s (interpreter start, import, and
building and validating the inputs; median over several fresh workers)
and peak_rss_mb (the worker's ru_maxrss).

--trace 1 runs untraced and traced rounds in pairs and prints the
per-layer metrics listed in BENCHMARK.json, from spans recorded around the
package's functions (tracing.py), plus trace.overhead_s, the traced minus
the untraced wall_s.  It fails when a span the workload must exercise
never fires.

Every instance's answer is checked against how it was built; the last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 4
# a round that takes five times its usual length is stuck; this keeps a
# whole run under 180 s
WORKER_TIMEOUT_S = 100


class BenchError(Exception):
    pass


def tail_percentile(n: int, beyond: int = 10) -> int | None:
    """Highest whole percentile with at least `beyond` of n samples above it."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p
    return None


def percentile(values, p: int) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def run_worker(workload: str, seed: int, setup_only: bool = False, spans: Path | None = None):
    """Start one fresh worker; returns (set-up seconds, result dict or None)."""
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def round_count(workload: str, seconds: float, per_round: int = 1) -> int:
    """Rounds that fill --seconds; `per_round` workers share one round's time."""
    return max(1, round(seconds / (per_round * workloads.ROUND_S[workload])))


def _report_rounds(workload: str, seed: int, results: list[dict]) -> tuple[int, int, bool]:
    first = results[0]
    digests = {r["digest"] for r in results}
    attempted = sum(len(r["op_s"]) for r in results)
    failures = [f for r in results for f in r["failures"]]
    print(f"workload {workload}, seed {seed}: {first['summary']}")
    print(f"duplicate complexes: {first['duplicate_share']:.3f} of instances")
    print(f"rounds: {len(results)}; output digest sha256:{' '.join(sorted(digests))}")
    print(f"fail_frac: {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    correct = not failures and len(digests) == 1
    return attempted, len(failures), correct


def plain_run(workload: str, seed: int, seconds: float, units: dict) -> dict:
    setups = [run_worker(workload, seed, setup_only=True)[0] for _ in range(SETUP_PROBES)]
    rounds = [run_worker(workload, seed) for _ in range(round_count(workload, seconds))]
    setups += [s for s, _ in rounds]
    results = [r for _, r in rounds]
    attempted, failed, correct = _report_rounds(workload, seed, results)
    ops = [t for r in results for t in r["op_s"]]
    p = tail_percentile(len(ops))
    if p is None:
        raise BenchError(f"{len(ops)} instance runs leave no tail percentile")
    print(f"op_tail_ms is p{p} of {len(ops)} instance runs; setup_s is the median of {len(setups)} set-ups")
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "op_p50_ms": 1000 * statistics.median(ops),
        "op_tail_ms": 1000 * percentile(ops, p),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in results) / 1024,
    }
    return _result(correct, attempted, failed, values, units)


def traced_run(workload: str, seed: int, seconds: float, units: dict) -> dict:
    OUT.mkdir(exist_ok=True)

    def pair(i: int):
        spans = OUT / f"{workload}-seed{seed}-{i}.spans"
        return run_worker(workload, seed)[1], run_worker(workload, seed, spans=spans)[1]

    pairs = [pair(i) for i in range(round_count(workload, seconds, per_round=2))]
    plain = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    attempted, failed, correct = _report_rounds(workload, seed, plain + traced)
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    print(f"spans per traced round: {', '.join(str(r['spans']) for r in traced)}; written to {OUT.name}/")

    missing = [
        span for span in workloads.MUST_FIRE[workload]
        if any(tracing.metric(r["layers"], f"{span}.calls") == 0 for r in traced)
    ]
    if missing:
        raise BenchError(f"declared spans never fired on {workload}: {', '.join(missing)}")

    values = {}
    for name in units:
        if name == "trace.overhead_s":
            values[name] = traced_wall - untraced_wall
        else:
            values[name] = statistics.median(tracing.metric(r["layers"], name) for r in traced)
    linalg = values["linalg.gf2_rank.s"] + values["linalg.integer_rank.s"]
    shares = {
        "recognition.check_double.s": values["recognition.check_double.s"],
        "homology.self_s + linalg": values["homology.self_s"] + linalg,
        "complexes.minimal_non_faces.s": values["complexes.minimal_non_faces.s"],
        "linalg.integer_rank.s": values["linalg.integer_rank.s"],
    }
    print(f"traced wall_s {traced_wall:.3f}, untraced {untraced_wall:.3f}")
    for label, v in shares.items():
        print(f"share of traced wall_s: {label} = {v / traced_wall:.3f}")
    return _result(correct, attempted, failed, values, units)


def _result(correct, attempted, failed, values, units) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spherejoin" / "__init__.py").is_file():
        print(f"error: no spherejoin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    try:
        if args.trace:
            out = traced_run(args.workload, args.seed, args.seconds, units)
        else:
            out = plain_run(args.workload, args.seed, args.seconds, units)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
