"""exrep benchmark: one workload per invocation, in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; exrep is imported from `src/` there and
nowhere else.  Workloads: ces-a4, ext-nakayama, bricks-fp, reproduce-paper
(see workloads.py).  Every output is checked against an oracle after timing.

--trace 0 runs the worker untraced and reports the end-to-end metrics.
--trace 1 spends half the time untraced and half traced, in two processes,
checks that both produced the same outputs, and reports the per-layer
metrics of tracing.py plus the tracing overhead.  Spans are written to
perfbench/out/trace-<workload>.bin.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it repeat the figures for a
reader.  The exit code is 0 when every output was correct, 1 otherwise, and
2 when exrep's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ces-a4", "ext-nakayama", "bricks-fp", "reproduce-paper")
SETUP_REPEATS = 7  # set-ups per untraced run; setup_s is their median
MIN_PASSES = 3  # untraced passes per run, whatever --seconds says
DEADLINE_S = 170  # a run must end within 180 s


def worker(args, seconds: float, setups: int, min_passes: int, trace_out: Path | None, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
        "--setups", str(setups), "--min-passes", str(min_passes), "--src", str(ROOT / "src"),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "exrep" / "__init__.py").is_file():
        print(f"no exrep sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    if args.trace == 0:
        runs = [worker(args, args.seconds, SETUP_REPEATS, MIN_PASSES, None, deadline)]
        r = runs[0]
        lat = r["latency_s"]
        metrics = {
            "wall_s": (statistics.median(r["pass_s"]), "s"),
            "setup_s": (statistics.median(r["setup_s"]), "s"),
            "peak_rss_mib": (r["peak_rss_kib"] / 1024, "MiB"),
            "query_ms_p50": (1000 * statistics.median(lat), "ms"),
            "query_ms_p95": (1000 * p95(lat), "ms"),
        }
        print(f"{args.workload}: {len(r['pass_s'])} passes, {len(lat)} queries; unscaled medians:"
              f" pass {statistics.median(r['pass_raw_s']):.6g} s, set-up {statistics.median(r['setup_raw_s']):.6g} s")
    else:
        import tracing

        half = args.seconds / 2
        plain = worker(args, half, 1, 1, None, deadline)
        out = HERE / "out" / f"trace-{args.workload}.bin"
        traced = worker(args, half, 1, 1, out, deadline)
        runs = [plain, traced]
        common = min(len(plain["digests"]), len(traced["digests"]))
        if plain["digests"][:common] != traced["digests"][:common]:
            traced["failed"] += 1
            traced["messages"].append("traced outputs differ from untraced outputs")
        layers = dict(traced["per_layer"])
        layers["trace.overhead_s"] = statistics.median(traced["pass_s"]) - statistics.median(plain["pass_s"])
        metrics = {name: (layers[name], unit) for name, (unit, _) in tracing.PER_LAYER.items()}
        print(f"{args.workload}: {len(plain['pass_s'])} untraced and {len(traced['pass_s'])} traced passes; spans in {out}")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    uncertified = sum(r["uncertified"] for r in runs)
    certifiable = sum(r["certifiable"] for r in runs)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed}/{attempted} operations)")
    if certifiable:
        print(f"  uncertified_ratio {uncertified / certifiable:.6g} ({uncertified}/{certifiable} answers)")
    else:
        print("  uncertified_ratio n/a (no certified answers in this workload)")
    for r in runs:
        for msg in r["messages"]:
            print(f"  MISMATCH {msg}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
