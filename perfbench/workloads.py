"""The four workloads: set-up, one timed pass, and the output oracles.

A workload receives the freshly imported `exrep` package and the seed.  Its
pass returns per-query latencies and a JSON-ready summary of the outputs;
`check` runs after timing and compares every summary with an oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import gen


@dataclass
class PassResult:
    latencies: list[float]  # seconds, one per query
    outputs: list  # JSON-ready, one entry per checked operation
    uncertified: int = 0  # answers certified only up to a bound
    certifiable: int = 0  # answers that carry a certainty at all

    @property
    def digest(self) -> str:
        return hashlib.sha256(repr(self.outputs).encode()).hexdigest()


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message)


def build(exrep, pres: gen.Presentation):
    name, quiver, relations, fld = exrep.parse_algebra_file(pres.text)
    return exrep.build_algebra(quiver, relations, fld, name=name)


def intervals(n: int, skip=()) -> set[tuple[int, ...]]:
    """Dimension vectors of the interval modules [i, j] of linear A_n."""
    out = set()
    for i in range(n):
        for j in range(i, n):
            if (i, j) not in skip:
                out.add(tuple(int(i <= v <= j) for v in range(n)))
    return out


# ---------------------------------------------------------------------------


class Workload:
    modules = ("exrep",)  # imported during set-up
    clock = staticmethod(time.perf_counter)  # the worker substitutes its own

    def timed(self, fn, *args):
        t0 = self.clock()
        out = fn(*args)
        return self.clock() - t0, out


class CesA4(Workload):
    """enumerate_ces on linear A4 over Q with the default configuration:
    bricks and pair graph over F2, then re-verification of every sequence
    over Q, which makes 1350 ext_dims calls on only 10 distinct modules."""

    n = 4

    def setup(self, exrep, seed: int):
        pres = gen.linear_a(self.n, random.Random(seed))
        return exrep, build(exrep, pres)

    def run_pass(self, state, k: int) -> PassResult:
        exrep, algebra = state
        dt, res = self.timed(exrep.enumerate_ces, algebra, exrep.EnumerationConfig())
        seqs = [[list(m.dims) for m in seq] for seq in res.items]
        # enumerate_ces raises unless every sequence re-verifies certified over Q
        return PassResult([dt], [{"complete": res.complete, "sequences": seqs}], 0, len(seqs))

    def check(self, state, out: list, chk: Check) -> None:
        n = self.n
        expected = (n + 1) ** (n - 1)  # Seidel 2001: complete sequences for A_n
        bricks = intervals(n)
        for o in out:
            seqs = o["sequences"]
            members = {tuple(d) for s in seqs for d in s}
            ok = (
                o["complete"]
                and len(seqs) == expected
                and len({tuple(map(tuple, s)) for s in seqs}) == expected
                and all(len(s) == n for s in seqs)
                and members == bricks
            )
            chk.expect(ok, f"ces-a4: {len(seqs)} sequences over {len(members)} modules, expected {expected} over {len(bricks)}")


class BricksFp(Workload):
    """enumerate_bricks with dim_bound=2 on A3 over F2 and on A3 bound by
    alpha*beta over F3: module-axiom filter, hom_basis and iso_test over a
    prime field, with no resolutions and no rational arithmetic."""

    def setup(self, exrep, seed: int):
        rng = random.Random(seed)
        a3 = build(exrep, gen.linear_a(3, rng, name="a3"))
        a3_ab = build(exrep, gen.linear_a(3, rng, zero_paths=[(0, 1)], name="a3_ab"))
        cases = [
            (a3, exrep.EnumerationConfig(field=exrep.F2, dim_bound=2), intervals(3)),
            (a3_ab, exrep.EnumerationConfig(field=exrep.FieldSpec(3), dim_bound=2), intervals(3, skip={(0, 2)})),
        ]
        return exrep, cases

    def run_pass(self, state, k: int) -> PassResult:
        exrep, cases = state
        dt, results = self.timed(lambda: [exrep.enumerate_bricks(algebra, cfg) for algebra, cfg, _ in cases])
        outs = [{"complete": res.complete, "dims": [list(m.dims) for m in res.items]} for res in results]
        return PassResult([dt], outs)

    def check(self, state, out: list, chk: Check) -> None:
        _, cases = state
        for k, o in enumerate(out):
            algebra, _, expected = cases[k % len(cases)]
            got = [tuple(d) for d in o["dims"]]
            ok = o["complete"] and len(got) == len(expected) and set(got) == expected
            chk.expect(ok, f"bricks-fp over {algebra.name}: got {sorted(got)}, expected {sorted(expected)}")


class ExtNakayama(Workload):
    """A stream of ext_dims(M, N, 10) queries, alternating between a 5-cycle
    with one zero relation (finite global dimension) and the self-injective
    4-cycle with all length-3 paths zero (periodic certificates through
    iso_test over Q).  M and N are direct sums of 1-3 simples, projectives and
    injectives, conjugated at each vertex by a random invertible integer
    matrix; no M repeats within a run, so a memo keyed on M never hits."""

    # queries per pass on nak5-1rel and on nak4-si3, one per shape: with this
    # many shapes the latency quantiles fall inside a smooth mixture, not in a
    # gap between the narrow spreads of two shapes
    per_algebra = (26, 25)
    n_max = 10
    redraws = 100  # conjugations tried before a repeated M counts as a failure

    def setup(self, exrep, seed: int):
        rng = random.Random(seed)
        state = {"exrep": exrep, "algebras": [], "seen": set()}
        for pres, count in zip((gen.nak5_1rel(rng), gen.nak4_si3(rng)), self.per_algebra):
            algebra = build(exrep, pres)
            summands = {}
            for kind in gen.SUMMAND_KINDS:
                for v in pres.vertices:
                    summands[f"{kind}:{v}"] = exrep.make_module(algebra, f"{kind}:{v}")
            stream = gen.ModuleStream(pres, seed, lambda spec, summands=summands: summands[spec].dims, count)
            state["algebras"].append((pres, algebra, summands, stream))
        state["next"] = self.prepare(state)
        return state

    def _realize(self, exrep, pres, algebra, summands, spec: gen.ModuleSpec):
        """The conjugated module, and a key identifying it exactly."""
        base = exrep.direct_sum([summands[s] for s in spec.summands])
        n = len(pres.vertices)
        maps, key = {}, []
        for k, arrow in enumerate(pres.arrows):
            s, t = k, (k + 1) % n
            ds, dt = base.dims[s], base.dims[t]
            if not ds or not dt:
                continue
            rho = base.action[algebra.arrow_basis_index(arrow)].rows
            g_s = [[Fraction(x) for x in row] for row in spec.conj[s]]
            g_t_inv = gen.inverse([[Fraction(x) for x in row] for row in spec.conj[t]])
            mat = gen.matmul(gen.matmul(g_s, rho, ds, dt), g_t_inv, dt, dt)
            maps[arrow] = exrep.Matrix(algebra.field, mat, ds, dt)
            key.append(tuple(tuple(r) for r in mat))
        module = exrep.module_from_arrow_maps(algebra, base.dims, maps)
        return module, (pres.name, base.dims, tuple(key))

    def prepare(self, state) -> list:
        """Realize the modules of the next pass (outside the timed region)."""
        exrep = state["exrep"]
        queries = []
        for pres, algebra, summands, stream in state["algebras"]:
            chosen = []
            for (m_shape, _), (m_spec, n_spec) in zip(stream.shapes, stream.next_pass()):
                m, key = self._realize(exrep, pres, algebra, summands, m_spec)
                for _ in range(self.redraws):
                    if key not in state["seen"]:
                        break
                    m_spec = stream.conjugate(m_shape)
                    m, key = self._realize(exrep, pres, algebra, summands, m_spec)
                else:
                    raise RuntimeError(f"ext-nakayama: no new conjugate of {m_spec.summands}")
                state["seen"].add(key)
                n, _ = self._realize(exrep, pres, algebra, summands, n_spec)
                chosen.append((pres, m, n, m_spec, n_spec))
            queries.append(chosen)
        return [q for pair in itertools.zip_longest(*queries) for q in pair if q is not None]

    def run_pass(self, state, k: int) -> PassResult:
        ext_dims = state["exrep"].ext_dims
        lat, outs, uncertified = [], [], 0
        batch = state["next"]
        for pres, m, n, m_spec, n_spec in batch:
            dt, res = self.timed(ext_dims, m, n, self.n_max)
            lat.append(dt)
            kind = type(res.certainty).__name__
            uncertified += kind == "ExactUpTo"
            outs.append({
                "algebra": pres.name, "dims": res.dims, "certainty": kind,
                "m": list(m_spec.summands), "n": list(n_spec.summands),
                "x": list(m.dims), "y": list(n.dims),
            })
        state["next"] = self.prepare(state)
        return PassResult(lat, outs, uncertified, len(batch))

    def check(self, state, out: list, chk: Check) -> None:
        exrep = state["exrep"]
        info = {pres.name: (pres, summands) for pres, _, summands, _ in state["algebras"]}
        table: dict = {}

        def summand_ext(name, a, b):
            if (name, a, b) not in table:
                table[name, a, b] = exrep.ext_dims(info[name][1][a], info[name][1][b], self.n_max).dims
            return table[name, a, b]

        cinv = gen.inverse([[Fraction(x) for x in r] for r in info["nak5-1rel"][0].cartan_rows()])
        for o in out:
            name = o["algebra"]
            # additivity over the unconjugated summands
            want = [0] * (self.n_max + 1)
            for a in o["m"]:
                for b in o["n"]:
                    want = [w + d for w, d in zip(want, summand_ext(name, a, b))]
            ok = o["dims"] == want
            msg = f"{name}: Ext dims {o['dims']} != sum over summands {want} for {o['m']} vs {o['n']}"
            if ok and name == "nak5-1rel":
                # Euler form: finite global dimension, so sum (-1)^n dim Ext^n = x C^-1 y^T
                c, x, y = cinv, o["x"], o["y"]
                euler = sum(x[i] * c[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))
                alt = sum((-1) ** k * d for k, d in enumerate(o["dims"]))
                ok = o["certainty"] == "AllHigherVanish" and alt == euler
                msg = f"{name}: alternating sum {alt} != Euler form {euler} ({o['certainty']})"
            chk.expect(ok, msg)


class ReproducePaper(Workload):
    """goldens.run_all(): the only workload that reaches bimodules,
    split_extensions and recollements.  Its inputs are the bundled fixtures,
    so the seed does not change them."""

    modules = ("exrep", "exrep.goldens")
    red = {"split-theorem-positive-rows", "projective-extension-decomposition"}
    n_criteria = 9

    def setup(self, exrep, seed: int):
        goldens = exrep.goldens
        for name in ("a3", "a3_ab", "a42", "cycle3", "cycle3_ab"):
            goldens.bundled_algebra(name)  # parse and build the fixtures once
        return goldens

    def run_pass(self, goldens, k: int) -> PassResult:
        dt, results = self.timed(goldens.run_all)
        return PassResult([dt], [{"key": r.key, "ok": r.ok} for r in results])

    def check(self, goldens, out: list, chk: Check) -> None:
        for start in range(0, len(out), self.n_criteria):
            rows = out[start : start + self.n_criteria]
            keys = [r["key"] for r in rows]
            chk.expect(len(rows) == self.n_criteria and len(set(keys)) == self.n_criteria,
                       f"reproduce-paper: {len(rows)} criteria {keys}")
            for r in rows:
                chk.expect(r["ok"] == (r["key"] not in self.red),
                           f"reproduce-paper: {r['key']} ok={r['ok']}")


WORKLOADS = {
    "ces-a4": CesA4,
    "ext-nakayama": ExtNakayama,
    "bricks-fp": BricksFp,
    "reproduce-paper": ReproducePaper,
}
