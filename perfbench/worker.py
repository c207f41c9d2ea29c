"""One workload in one single-threaded process; started by run.py.

Sets up `--setups` times (each time a fresh import of exrep, then generation,
parsing, algebra builds and input modules), runs timed passes until
`--seconds` of pass time have elapsed, checks every pass's outputs against
the oracles, and prints one JSON line.  With `--trace-out` the spans and
counters of tracing.py are recorded around the set-up's input building and
the passes, and removed again before the oracles run.

Times are scaled to a reference machine speed measured while the work runs
(see Speedometer); the unscaled times are reported alongside.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads


def fresh_exrep(src: Path, modules: tuple[str, ...]):
    """Import exrep (and the named submodules) anew from the checkout,
    dropping any earlier import."""
    for name in [n for n in sys.modules if n == "exrep" or n.startswith("exrep.")]:
        del sys.modules[name]
    for name in modules:
        importlib.import_module(name)
    exrep = sys.modules["exrep"]
    if Path(exrep.__file__).resolve().parent.parent != src:
        raise SystemExit(f"exrep was imported from {exrep.__file__}, not from {src}")
    return exrep


def probe() -> float:
    """Seconds for a fixed sliver of the interpreter work exrep does:
    Fraction arithmetic, list and dict traffic.  The garbage collector is
    held off meanwhile, so collections owed to exrep's heap land in exrep's
    time.  Never change it: times scaled by another probe do not compare."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, row, counts = Fraction(0), [], {}
        for i in range(1, 120):
            acc += Fraction(i % 7 - 3, i % 5 + 1)
            row.append(acc.numerator % 7)
        for x in row:
            counts[x] = counts.get(x, 0) + 1
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Samples this process's speed while it works.

    On a shared machine the same pass can take 30% longer when neighbours
    are busy, for seconds to minutes at a time.  Every INTERVAL_S of wall time
    a SIGALRM handler times `probe()`; a phase's time is then scaled by
    REFERENCE_S / (mean probe time during the phase), which cancels the drift
    while keeping any change in exrep's own work.  `clock()` excludes the
    time spent in the handler, so the sampling does not count as work.
    """

    INTERVAL_S = 0.05
    REFERENCE_S = 0.00025  # probe time in the handler on an idle 2-core Xeon, Python 3.11
    MIN_SAMPLES = 5

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """REFERENCE_S over the mean probe time since `mark`, topped up with
        probes taken now when the phase was too short to collect enough."""
        while len(self.samples) - mark < self.MIN_SAMPLES:
            self._sample()
        return self.REFERENCE_S / statistics.fmean(self.samples[mark:])


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--setups", type=int, default=1)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--trace-out", type=Path)
    ap.add_argument("--src", type=Path, required=True)
    args = ap.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    wl = workloads.WORKLOADS[args.workload]()
    meter = Speedometer()
    wl.clock = meter.clock
    tracer = tracing.Tracer(meter.clock) if args.trace_out else None
    if tracer is not None and args.setups != 1:
        raise SystemExit("a traced run sets up once")

    setup_raw_s, setup_scale = [], []
    pass_raw_s, pass_scale, latencies, digests, outputs, layers = [], [], [], [], [], []
    uncertified = certifiable = 0
    errors: list[str] = []
    with meter:
        for _ in range(args.setups):
            mark = meter.mark()
            t0 = meter.clock()
            exrep = fresh_exrep(src, wl.modules)
            if tracer is not None:
                tracer.install()
                first = tracer.mark()
            state = wl.setup(exrep, args.seed)
            setup_raw_s.append(meter.clock() - t0)
            setup_scale.append(meter.scale(mark))
        setup_layers = tracer.phase_metrics(first) if tracer is not None else {}

        while len(pass_raw_s) < args.min_passes or sum(pass_raw_s) < args.seconds:
            first = tracer.mark() if tracer is not None else 0
            mark = meter.mark()
            try:
                res = wl.run_pass(state, len(pass_raw_s))
            except Exception as exc:  # a failed operation: count it and stop
                errors.append(f"{args.workload} pass {len(pass_raw_s)}: {type(exc).__name__}: {exc}")
                break
            scale = meter.scale(mark)
            if tracer is not None:
                layers.append(tracer.phase_metrics(first))
            pass_scale.append(scale)
            pass_raw_s.append(sum(res.latencies))
            latencies += [scale * x for x in res.latencies]
            digests.append(res.digest)
            outputs += res.outputs
            uncertified += res.uncertified
            certifiable += res.certifiable

    per_layer = {}
    if tracer is not None:
        tracer.uninstall()
        per_layer = tracing.finish_metrics(setup_layers, setup_scale[0], layers, pass_scale)
        tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed, "passes": len(pass_raw_s)})

    chk = workloads.Check()
    wl.check(state, outputs, chk)
    for message in errors:
        chk.expect(False, message)
    print(json.dumps({
        "setup_s": [x * k for x, k in zip(setup_raw_s, setup_scale)],
        "setup_raw_s": setup_raw_s,
        "pass_s": [x * k for x, k in zip(pass_raw_s, pass_scale)],
        "pass_raw_s": pass_raw_s,
        "latency_s": latencies,
        "digests": digests,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "messages": chk.messages,
        "uncertified": uncertified,
        "certifiable": certifiable,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "per_layer": per_layer,
    }))


if __name__ == "__main__":
    main()
