"""Differential tests: Ext read from one shared `Resolution` per source module
against a reference copy of the per-pair code it replaced, which resolved the
source from scratch for every (M, N, n_max).  A shared resolution is grown
for the largest n_max first and then read at smaller ones, so its status must
be replayed exactly as a fresh resolution of fewer steps reports it.  The
theorem checkers, which now hold one resolution per source module, must give
the same reports as the per-pair reference on the bundled sequences."""

import random

import pytest
from test_hom_kernel import ref_ext_from_tower
from test_modules import conjugated_sum

from exrep.exceptional import (
    _FIELD_NOTE,
    CERTIFIED,
    ExceptionalReport,
    HypothesisVerdict,
    TheoremReport,
    Witness,
    check_recollement_theorem,
    check_split_theorem,
    is_exceptional_sequence,
    up_to_bound,
)
from exrep.fileio import render_module
from exrep.goldens import bundled_algebra, bundled_sequence
from exrep.modules import (
    AllHigherVanish,
    EventuallyPeriodic,
    ExactUpTo,
    ExtResult,
    FinitePd,
    Periodic,
    Resolution,
    TruncatedAt,
    brick_report,
    ext_dims,
    hom_dim,
    iso_test,
    kernel_of,
    minimal_resolution,
    top_and_cover,
)
from exrep.recollements import I_STAR, I_UPPER_STAR, J_LOWER, J_UPPER_STAR, build_recollement
from exrep.split_extensions import TENSOR_UP, build_split_extension

# ---------------------------------------------------------------------------
# reference: one fresh resolution per Ext call, its Hom complex read map by
# map (`ref_ext_from_tower`, a copy independent of the code under test)


class RefTower:
    def __init__(self, m):
        self.module = m
        self.syzygies = [m]
        self.inclusions = [None]
        self.terms = []
        self.diffs = []

    def steps(self):
        return len(self.terms)

    def extend_once(self):
        om = self.syzygies[-1]
        _, cover, cmap = top_and_cover(om)
        incl = self.inclusions[-1]
        diff = cmap if incl is None else cmap.compose(incl)
        self.terms.append(cover)
        self.diffs.append(diff)
        ker, kincl = kernel_of(cmap)
        self.syzygies.append(ker)
        self.inclusions.append(kincl)

    def extend_to(self, steps, stop_on_zero=True):
        while self.steps() < steps:
            if stop_on_zero and self.syzygies[-1].is_zero and self.steps() > 0:
                break
            self.extend_once()


def ref_resolve(m, max_steps, stop_at_detection=False):
    tower = RefTower(m)
    status = None
    while tower.steps() < max_steps:
        tower.extend_once()
        s = len(tower.syzygies) - 1
        if tower.syzygies[-1].is_zero:
            status = FinitePd(tower.steps() - 1)
            break
        if not isinstance(status, Periodic):
            for j in range(s):
                if tower.syzygies[j].dims != tower.syzygies[s].dims:
                    continue
                if iso_test(tower.syzygies[j], tower.syzygies[s]).isomorphic:
                    status = Periodic(j, s - j)
                    break
        if stop_at_detection and status is not None:
            break
    if status is None:
        status = TruncatedAt(max_steps)
    return tower, status


def ref_ext_dims(m, n, n_max):
    if m.is_zero:
        return ExtResult([0] * (n_max + 1), AllHigherVanish(-1))
    tower, status = ref_resolve(m, max(1, n_max + 2), stop_at_detection=True)
    if isinstance(status, FinitePd):
        limit = min(n_max, status.pd)
        certainty = AllHigherVanish(status.pd)
    elif isinstance(status, Periodic):
        limit = min(n_max, status.lead + status.period)
        tower.extend_to(limit + 2, stop_on_zero=False)
        certainty = EventuallyPeriodic(status.lead, status.period)
    else:
        limit = n_max
        certainty = ExactUpTo(n_max)
    dims = ref_ext_from_tower(tower, n, limit)
    while len(dims) <= n_max:
        k = len(dims)
        if isinstance(status, FinitePd):
            dims.append(0)
        elif isinstance(status, Periodic):
            j, q = status.lead, status.period
            dims.append(dims[j + 1 + (k - j - 1) % q])
        else:
            break
    return ExtResult(dims, certainty)


def ref_is_exceptional(m, n_max):
    end_dim, brick = brick_report(m)
    witnesses = [Witness("E1", None, None, None, end_dim)]
    res = ref_ext_dims(m, m, n_max)
    ext_wit = [Witness("E2", None, None, n, d) for n, d in enumerate(res.dims) if n >= 1 and d != 0]
    witnesses += ext_wit
    verdict = brick and not ext_wit
    if not verdict:
        certainty = CERTIFIED if (not brick or ext_wit) else up_to_bound(n_max)
    else:
        certainty = CERTIFIED if res.all_higher_vanish_certified(1) else up_to_bound(n_max)
    rep = ExceptionalReport("module", verdict, certainty, None, witnesses)
    if m.field.is_rational:
        rep.notes.append(_FIELD_NOTE)
    return rep


def ref_cross_vanishes(later, earlier, n_max, i, j):
    witnesses = []
    h = hom_dim(later, earlier)
    if h != 0:
        witnesses.append(Witness("E1'", i, j, None, h))
    res = ref_ext_dims(later, earlier, n_max)
    for n, d in enumerate(res.dims):
        if n >= 1 and d != 0:
            witnesses.append(Witness("E2'", i, j, n, d))
    return not witnesses, res.all_higher_vanish_certified(1), witnesses


def ref_is_exceptional_sequence(mods, n_max=24):
    if not mods:
        return ExceptionalReport("sequence", True, CERTIFIED, None, [])
    a = mods[0].algebra
    verdict = True
    all_certified = True
    witnesses = []
    for k, m in enumerate(mods):
        rep = ref_is_exceptional(m, n_max)
        if not rep.verdict:
            verdict = False
            witnesses += [Witness(w.condition, k + 1, k + 1, w.n, w.dim) for w in rep.witnesses if w.condition != "E1" or w.dim != 1]
        if rep.certainty != CERTIFIED:
            all_certified = False
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            ok, certified, wit = ref_cross_vanishes(mods[j], mods[i], n_max, i + 1, j + 1)
            if not ok:
                verdict = False
                witnesses += wit
            if not certified:
                all_certified = False
    complete = len(mods) == a.n_vertices
    certainty = CERTIFIED if (all_certified or not verdict) else up_to_bound(n_max)
    rep = ExceptionalReport("sequence", verdict, certainty, complete, witnesses)
    if a.field.is_rational:
        rep.notes.append(_FIELD_NOTE)
    return rep


def ref_check_split_theorem(se, mods, n_max=24):
    hyp1_rep = ref_is_exceptional_sequence(mods, n_max)
    hyp1 = HypothesisVerdict("sequence exceptional over A", hyp1_rep.verdict, hyp1_rep.certainty == CERTIFIED, hyp1_rep.witnesses)
    hyp2 = HypothesisVerdict("R projective as left A-module", se.is_projective_left, True)
    tq = [se.tensor_with_Q(m) for m in mods]
    hom_wit, ext_wit, ext_certified = [], [], True
    for i in range(len(mods)):
        for j in range(i, len(mods)):
            d = hom_dim(mods[j], tq[i])
            if d != 0:
                hom_wit.append(Witness("T3", i + 1, j + 1, None, d))
            res = ref_ext_dims(mods[j], tq[i], n_max)
            for n, dd in enumerate(res.dims):
                if n >= 1 and dd != 0:
                    ext_wit.append(Witness("T4", i + 1, j + 1, n, dd))
            if not res.all_higher_vanish_certified(1):
                ext_certified = False
    hyp3 = HypothesisVerdict("Hom(M_j, M_i x Q) = 0 (i <= j)", not hom_wit, True, hom_wit)
    hyp4 = HypothesisVerdict("Ext^n(M_j, M_i x Q) = 0 (i <= j, n >= 1)", not ext_wit, ext_certified, ext_wit)
    images = [se.apply(TENSOR_UP, m) for m in mods]
    conclusion = ref_is_exceptional_sequence(images, n_max)
    conclusion.images = [render_module(im, name=f"image_{k + 1}") for k, im in enumerate(images)]
    rep = TheoremReport("split-extension theorem", [hyp1, hyp2, hyp3, hyp4], conclusion, image_dims=[im.dims for im in images])
    if rep.implication_violated:
        rep.notes.append("implication violated: certified hypotheses with failing image sequence")
    return rep


def ref_check_recollement_theorem(rec, seq_bar, seq_til, n_max=24, identity_n_max=6):
    in_i = ref_is_exceptional_sequence(seq_bar, n_max)
    in_j = ref_is_exceptional_sequence(seq_til, n_max)
    hyps = [
        HypothesisVerdict("sequence exceptional over the quotient", in_i.verdict, in_i.certainty == CERTIFIED, in_i.witnesses),
        HypothesisVerdict("sequence exceptional over the corner", in_j.verdict, in_j.certainty == CERTIFIED, in_j.witnesses),
        HypothesisVerdict("i^* exact (Abar projective as left A-module)", rec.istar_exact, True),
        HypothesisVerdict("i^! exact (Abar projective as right A-module)", rec.ishriek_exact, True),
    ]
    images_i = [rec.apply(I_STAR, x) for x in seq_bar]
    images_j = [rec.apply(J_LOWER, y) for y in seq_til]
    rep_i = ref_is_exceptional_sequence(images_i, n_max)
    rep_i.images = [render_module(im, name=f"i_star_{k + 1}") for k, im in enumerate(images_i)]
    rep_j = ref_is_exceptional_sequence(images_j, n_max)
    rep_j.images = [render_module(im, name=f"j_lower_{k + 1}") for k, im in enumerate(images_j)]
    rep = TheoremReport("recollement theorem", hyps, None, conclusions=[rep_i, rep_j], image_dims=[m.dims for m in images_i + images_j])
    for label, pairs in (("i_*", zip(seq_bar, images_i)), ("j_!", zip(seq_til, images_j))):
        for k, (x, fx) in enumerate(pairs):
            lhs = ref_ext_dims(fx, fx, identity_n_max).dims
            rhs = ref_ext_dims(x, x, identity_n_max).dims
            if lhs != rhs:
                rep.notes.append(f"dimension identity fails for {label} at position {k + 1}: {lhs} vs {rhs}")
    if rep.implication_violated:
        rep.notes.append("implication violated: exact certificates with failing image sequence")
    if not rep.hypotheses_hold:
        rep.notes.append("hypotheses not met; conclusion evaluated but not asserted")
    return rep


# ---------------------------------------------------------------------------
# Ext from one shared resolution

ALGEBRAS = ("a3", "a3_ab", "cycle3", "cycle3_ab", "a42")
# read largest first, then smaller and larger again: a shared resolution only grows
N_MAX_ORDER = (10, 0, 4, 1, 7, 2)


def random_sum(alg, rng):
    kinds = [f"{k}:{v}" for k in ("simple", "proj", "inj") for v in alg.vertices]
    return conjugated_sum(alg, rng.choices(kinds, k=rng.randint(1, 3)), rng)


@pytest.mark.parametrize("name", ALGEBRAS)
@pytest.mark.parametrize("seed", [0, 1])
def test_shared_ext_equals_fresh_per_pair(name, seed):
    alg = bundled_algebra(name)
    rng = random.Random(f"{name}-{seed}")
    m = random_sum(alg, rng)
    targets = [random_sum(alg, rng) for _ in range(3)] + [m]
    shared = Resolution(m)
    for k, n_max in enumerate(N_MAX_ORDER):
        for n in targets[k % 2 :] + targets[: k % 2]:
            got = shared.ext(n, n_max)
            want = ref_ext_dims(m, n, n_max)
            assert (got.dims, got.certainty) == (want.dims, want.certainty)
            assert ext_dims(m, n, n_max) == want


@pytest.mark.parametrize(
    "name, spec, kind",
    [
        ("a3", "simple:1", AllHigherVanish),
        ("a3_ab", "simple:1", AllHigherVanish),
        ("cycle3", "simple:1", EventuallyPeriodic),
        ("cycle3_ab", "simple:1", AllHigherVanish),
    ],
)
def test_shared_status_replay_covers_every_certificate(name, spec, kind):
    """S(1) over cycle3 has syzygies S(2), S(3), S(1): a fresh resolution sees
    the period only from n_max = 1 on, so n_max = 0 must stay truncated even
    after the shared one has found the period."""
    alg = bundled_algebra(name)
    m = conjugated_sum(alg, [spec, spec], random.Random(name))
    shared = Resolution(m)
    assert isinstance(shared.ext(m, 12).certainty, kind)
    seen = set()
    for n_max in (0, 1, 5, 2, 12):
        got = shared.ext(m, n_max)
        want = ref_ext_dims(m, m, n_max)
        assert (got.dims, got.certainty) == (want.dims, want.certainty)
        seen.add(type(got.certainty))
    if name == "cycle3":
        assert seen == {ExactUpTo, EventuallyPeriodic}


def same_prefix(p, q):
    return (
        p.status == q.status
        and p.module is q.module
        and [t.fingerprint for t in p.terms] == [t.fingerprint for t in q.terms]
        and [s.fingerprint for s in p.syzygies] == [s.fingerprint for s in q.syzygies]
        and [d.mats for d in p.diffs] == [d.mats for d in q.diffs]
    )


@pytest.mark.parametrize("name", ALGEBRAS)
def test_prefix_after_a_longer_resolution_equals_fresh(name):
    alg = bundled_algebra(name)
    m = random_sum(alg, random.Random(name))
    shared = Resolution(m)
    shared.ext(m, 10)
    for k in (8, 1, 3, 2, 5):
        fresh = minimal_resolution(m, k)
        assert same_prefix(shared.prefix(k), fresh)
        tower, status = ref_resolve(m, k)
        assert fresh.status == status
        assert [t.fingerprint for t in fresh.terms] == [t.fingerprint for t in tower.terms]
        assert [d.mats for d in fresh.diffs] == [d.mats for d in tower.diffs]


# ---------------------------------------------------------------------------
# theorem checkers on the bundled sequences


@pytest.fixture(scope="module")
def se_a3():
    return build_split_extension(bundled_algebra("a3"), ["alpha"])


@pytest.mark.parametrize("row", "abcdefghi")
def test_sequence_and_split_reports_equal_reference(row, se_a3):
    mods = bundled_sequence(row, se_a3.A)
    assert is_exceptional_sequence(mods).to_json_dict() == ref_is_exceptional_sequence(mods).to_json_dict()
    assert check_split_theorem(se_a3, mods).to_json_dict() == ref_check_split_theorem(se_a3, mods).to_json_dict()


@pytest.mark.parametrize("row", "abcdefghi")
def test_recollement_reports_equal_reference(row, se_a3):
    """Inputs over the quotient and the corner are the nonzero i^* and j^*
    images of the row's image under - (x)_A R, over a3."""
    images = [se_a3.apply(TENSOR_UP, m) for m in bundled_sequence(row, se_a3.A)]
    for eps in (["1"], ["3"]):
        rec = build_recollement(se_a3.R, eps)
        seq_bar = [x for x in (rec.apply(I_UPPER_STAR, m) for m in images) if not x.is_zero]
        seq_til = [y for y in (rec.apply(J_UPPER_STAR, m) for m in images) if not y.is_zero]
        got = check_recollement_theorem(rec, seq_bar, seq_til)
        want = ref_check_recollement_theorem(rec, seq_bar, seq_til)
        assert got.to_json_dict() == want.to_json_dict()
