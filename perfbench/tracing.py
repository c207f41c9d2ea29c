"""Spans and counters around exrep's public entry points, installed from
outside the package.

`Tracer.install` replaces each traced function or method with a wrapper in
every loaded `exrep.*` namespace that binds it (and in `goldens.ALL_CRITERIA`),
and `Tracer.uninstall` puts the originals back.  A wrapper appends one span
(name, start, end, parent) to flat in-memory arrays and may update counters
from the call's arguments and result.  Spans are written out once, at the end.

A layer's self time is its span's duration minus the durations of its direct
child spans; the process is single-threaded, so children never overlap.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
from array import array
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute path); metric names are "<span name>.<field>"
TRACED = (
    ("linalg.rref", "exrep.linalg", "rref"),
    ("linalg.Matrix.mul", "exrep.linalg", "Matrix.mul"),
    ("linalg.Matrix.det", "exrep.linalg", "Matrix.det"),
    ("linalg.solve_right", "exrep.linalg", "solve_right"),
    ("modules.hom_basis", "exrep.modules", "hom_basis"),
    ("modules.top_and_cover", "exrep.modules", "top_and_cover"),
    ("modules.kernel_of", "exrep.modules", "kernel_of"),
    ("modules.projective_module", "exrep.modules", "projective_module"),
    ("modules.iso_test", "exrep.modules", "iso_test"),
    ("modules.ext_dims", "exrep.modules", "ext_dims"),
    ("modules.RightModule.violations", "exrep.modules", "RightModule.violations"),
    ("modules.ModuleMap.commutes", "exrep.modules", "ModuleMap.commutes"),
    ("exceptional.enumerate_bricks", "exrep.exceptional", "enumerate_bricks"),
    ("exceptional.is_exceptional", "exrep.exceptional", "is_exceptional"),
    ("exceptional.is_exceptional_sequence", "exrep.exceptional", "is_exceptional_sequence"),
    ("exceptional.enumerate_ces", "exrep.exceptional", "enumerate_ces"),
    ("bimodules.tensor_with_bimodule", "exrep.bimodules", "tensor_with_bimodule"),
    ("bimodules.hom_from_bimodule", "exrep.bimodules", "hom_from_bimodule"),
    ("split_extensions.build_split_extension", "exrep.split_extensions", "build_split_extension"),
    ("split_extensions.SplitExtension.apply", "exrep.split_extensions", "SplitExtension.apply"),
    ("recollements.build_recollement", "exrep.recollements", "build_recollement"),
    ("recollements.verify_recollement_laws", "exrep.recollements", "verify_recollement_laws"),
    ("fileio.parse_algebra_file", "exrep.fileio", "parse_algebra_file"),
    ("algebra.build_algebra", "exrep.algebra", "build_algebra"),
    ("algebra.verify_algebra_axioms", "exrep.algebra", "verify_algebra_axioms"),
)

GOLDEN_KEYS = (
    "ces-enumeration-quotient-algebra",
    "ces-enumeration-path-algebra",
    "split-theorem-positive-rows",
    "tensor-image-goldens",
    "ext3-counterexample",
    "periodic-resolution",
    "projective-extension-decomposition",
    "functor-law-property-suite",
    "recollement-corner-theorem",
)

# layers whose work moves setup_s: reported over one set-up plus one pass
SETUP_LAYERS = ("fileio.parse_algebra_file", "algebra.build_algebra", "algebra.verify_algebra_axioms")

# metric name -> (unit, better); the order is the report order
PER_LAYER: dict[str, tuple[str, str]] = {}


def _metric(name: str, unit: str, better: str = "lower") -> None:
    PER_LAYER[name] = (unit, better)


for _span, _fields in (
    ("linalg.rref", ("calls", "cells_q", "cells_fp", "self_s")),
    ("linalg.Matrix.mul", ("calls", "self_s")),
    ("linalg.Matrix.det", ("calls", "self_s")),
    ("linalg.solve_right", ("calls", "self_s")),
    ("modules.hom_basis", ("calls", "unknowns", "self_s")),
    ("modules.top_and_cover", ("calls", "self_s")),
    ("modules.kernel_of", ("calls", "self_s")),
    ("modules.projective_module", ("calls", "self_s")),
    ("modules.iso_test", ("calls", "inconclusive", "self_s")),
    ("modules.ext_dims", ("calls", "self_s")),
    ("modules.RightModule.violations", ("calls", "self_s")),
    ("modules.ModuleMap.commutes", ("calls", "self_s")),
    ("exceptional.enumerate_bricks", ("self_s",)),
    ("exceptional.is_exceptional", ("calls", "self_s")),
    ("exceptional.is_exceptional_sequence", ("calls", "self_s")),
    ("exceptional.enumerate_ces", ("self_s",)),
    ("bimodules.tensor_with_bimodule", ("calls", "self_s")),
    ("bimodules.hom_from_bimodule", ("calls", "self_s")),
    ("split_extensions.build_split_extension", ("self_s",)),
    ("split_extensions.SplitExtension.apply", ("calls", "self_s")),
    ("recollements.build_recollement", ("self_s",)),
    ("recollements.verify_recollement_laws", ("self_s",)),
    ("fileio.parse_algebra_file", ("self_s",)),
    ("algebra.build_algebra", ("self_s",)),
    ("algebra.verify_algebra_axioms", ("self_s",)),
):
    for _f in _fields:
        _metric(f"{_span}.{_f}", "s" if _f == "self_s" else "count")
for _key in GOLDEN_KEYS:
    _metric(f"goldens.{_key}.s", "s")
# property shares of the workload, and the cost of tracing itself
_metric("modules.ext_dims.repeat_share", "ratio", "higher")
_metric("linalg.rref.q_cell_share", "ratio")
_metric("modules.iso_test.inconclusive_share", "ratio")
_metric("exceptional.enumerate_bricks.bricks_per_candidate", "ratio", "higher")
_metric("trace.overhead_s", "s")


def _candidates(algebra, cfg) -> int:
    """Candidate representations enumerate_bricks draws: for each dimension
    vector up to the bound, p ** (number of matrix entries); capped by the
    budget, where enumeration stops."""
    total = 0
    for dims in itertools.product(range(cfg.dim_bound + 1), repeat=algebra.n_vertices):
        if sum(dims):
            slots = sum(dims[algebra.basis[i].source] * dims[algebra.basis[i].target] for i in algebra.radical_indices)
            total += cfg.field.p ** slots
    return min(total, cfg.budget)


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.seen_sources: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- hooks: counters measured where the work happens --------------------

    def _on_rref(self, args, kwargs, result, dur) -> None:
        m = args[0]
        self.counters["linalg.rref.cells_q" if m.field.is_rational else "linalg.rref.cells_fp"] += m.nrows * m.ncols

    def _on_hom_basis(self, args, kwargs, result, dur) -> None:
        m, n = args[0], args[1]
        self.counters["modules.hom_basis.unknowns"] += sum(a * b for a, b in zip(m.dims, n.dims))

    def _on_iso_test(self, args, kwargs, result, dur) -> None:
        if result.map is None and not result.conclusive:
            self.counters["modules.iso_test.inconclusive"] += 1

    def _on_ext_dims(self, args, kwargs, result, dur) -> None:
        fp = args[0].fingerprint
        if fp in self.seen_sources:
            self.counters["modules.ext_dims.repeats"] += 1
        self.seen_sources.add(fp)

    def _on_enumerate_bricks(self, args, kwargs, result, dur) -> None:
        algebra = args[0]
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        self.counters["exceptional.enumerate_bricks.candidates"] += _candidates(algebra, cfg)
        self.counters["exceptional.enumerate_bricks.bricks"] += len(result.items)

    def _on_criterion(self, args, kwargs, result, dur) -> None:
        self.counters[f"goldens.{result.key}.s"] += dur

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        stack = self.stack
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, ends[idx] - starts[idx])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced entry point in every loaded exrep namespace."""
        hooks = {
            "linalg.rref": self._on_rref,
            "modules.hom_basis": self._on_hom_basis,
            "modules.iso_test": self._on_iso_test,
            "modules.ext_dims": self._on_ext_dims,
            "exceptional.enumerate_bricks": self._on_enumerate_bricks,
        }
        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "exrep" or n.startswith("exrep.")]
        for span, module_name, path in TRACED:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original, hooks.get(span))
            if cls_path:  # a method: the class attribute is the only binding
                self._patch(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, wrapped)
        goldens = sys.modules.get("exrep.goldens")
        if goldens is not None:
            criteria = goldens.ALL_CRITERIA
            for k, fn in enumerate(list(criteria)):
                wrapped = self._wrap(f"goldens.{fn.__name__}", fn, self._on_criterion)
                self._patches.append((criteria, k, fn))
                criteria[k] = wrapped
                if getattr(goldens, fn.__name__, None) is fn:
                    self._patch(goldens, fn.__name__, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, list):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- phases and metrics --------------------------------------------------

    def mark(self) -> int:
        """Start a phase: clears the counters; returns the first span index."""
        self.counters.clear()
        self.seen_sources.clear()
        return len(self.span_start)

    def phase_metrics(self, first: int) -> dict[str, float]:
        """Per-span-name calls and self time for spans first.. plus counters."""
        last = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(first, last)]
        self_time = list(dur)
        for i in range(first, last):
            p = parents[i]
            if p >= first:
                self_time[p - first] -= dur[i - first]
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        for i in range(first, last):
            name = self.names[names[i]]
            calls[name] += 1
            self_s[name] += self_time[i - first]
        out: dict[str, float] = dict(self.counters)
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Header (JSON, one line) then the four span arrays, native order:
        name index int32, parent int32 (-1 for a root), start and end float64
        seconds of the tracer's clock."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = dict(meta, names=self.names, spans=len(self.span_start), byteorder=sys.byteorder)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def finish_metrics(setup: dict[str, float], setup_scale: float, passes: list[dict[str, float]],
                   pass_scales: list[float]) -> dict[str, float]:
    """Median over traced passes of each per-layer value (0 where a layer did
    no work), plus the set-up for the set-up layers, and the derived shares.
    Times are multiplied by the calibration scale of their set-up or pass."""
    def scaled(values: dict[str, float], scale: float) -> dict[str, float]:
        return {k: v * scale if k.endswith("_s") or k.endswith(".s") else v for k, v in values.items()}

    setup = scaled(setup, setup_scale)
    passes = [scaled(p, k) for p, k in zip(passes, pass_scales)]

    def med(key: str) -> float:
        return statistics.median(p.get(key, 0.0) for p in passes)

    out: dict[str, float] = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        out[name] = med(name)
        if name.rsplit(".", 1)[0] in SETUP_LAYERS:
            out[name] += setup.get(name, 0.0)

    def share(num: str, den: str) -> float:
        vals = [p.get(num, 0.0) / p[den] for p in passes if p.get(den)]
        return statistics.median(vals) if vals else 0.0

    for p in passes:
        p["linalg.rref.cells"] = p.get("linalg.rref.cells_q", 0.0) + p.get("linalg.rref.cells_fp", 0.0)
    out["modules.ext_dims.repeat_share"] = share("modules.ext_dims.repeats", "modules.ext_dims.calls")
    out["linalg.rref.q_cell_share"] = share("linalg.rref.cells_q", "linalg.rref.cells")
    out["modules.iso_test.inconclusive_share"] = share("modules.iso_test.inconclusive", "modules.iso_test.calls")
    out["exceptional.enumerate_bricks.bricks_per_candidate"] = share(
        "exceptional.enumerate_bricks.bricks", "exceptional.enumerate_bricks.candidates"
    )
    return out
