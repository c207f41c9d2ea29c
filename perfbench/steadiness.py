"""Run the benchmark over several seeds and record how much each end-to-end
metric spreads.

    python3 perfbench/steadiness.py --sets 2 --seeds 10 --out perfbench/steadiness.json

Each set runs every workload of BENCHMARK.json once per seed (seeds
1..--seeds for the first set, the next --seeds for the second, and so on),
untraced, with the benchmark's own run_seconds.  For every metric it records
the values, their median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, and, from the
second set on, how far the median moved from the first set's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_set(bench: dict, seeds: range) -> dict:
    out = {}
    for wl in bench["workloads"]:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            cmd = bench["command"] + ["--workload", wl["name"], "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True)
            result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{wl['name']} seed {seed}: incorrect output")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(wl["name"], seed, {k: round(v[-1], 5) for k, v in values.items()}, flush=True)
        out[wl["name"]] = {
            name: {"values": v, "median": statistics.median(v),
                   "iqr_share": (lambda q: (q[2] - q[0]) / statistics.median(v))(statistics.quantiles(v, n=4))}
            for name, v in values.items()
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.processor() or platform.machine(),
        "run_seconds": bench["run_seconds"],
        "sets": [],
    }
    for k in range(args.sets):
        started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        seeds = range(1 + k * args.seeds, 1 + (k + 1) * args.seeds)
        record["sets"].append({"started": started, "seeds": [seeds.start, seeds.stop - 1],
                               "workloads": run_set(bench, seeds)})
    first = record["sets"][0]["workloads"]
    for s in record["sets"][1:]:
        s["median_shift_from_first"] = {
            wl: {m: s["workloads"][wl][m]["median"] / first[wl][m]["median"] - 1 for m in ms}
            for wl, ms in first.items()
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
