"""Exceptionality predicates, theorem checkers and enumeration.

A module is exceptional when its endomorphism ring is one-dimensional and all
its positive self-extensions vanish; a sequence is exceptional when every
member is and, for i < j, both Hom and all positive Ext from the j-th to the
i-th member vanish.  "For all n" claims are only ever asserted when the Ext
computation carries a finite-projective-dimension or syzygy-periodicity
certificate; otherwise reports downgrade to an explicit bound and the
theorem checkers refuse to claim hypothesis satisfaction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .algebra import Algebra
from .fields import F2, FieldSpec
from .fileio import render_module
from .linalg import Matrix
from .modules import (
    ExtResult,
    ModuleError,
    Resolution,
    RightModule,
    brick_report,
    hom_dim,
    iso_test,
    module_from_generators,
)
from .recollements import I_STAR, J_LOWER, Recollement
from .split_extensions import TENSOR_UP, SplitExtension

CERTIFIED = "certified"


def up_to_bound(n: int) -> str:
    return f"up-to-bound:{n}"


@dataclass(frozen=True)
class Witness:
    condition: str
    i: int | None
    j: int | None
    n: int | None
    dim: int

    def to_json_dict(self) -> dict:
        return {"condition": self.condition, "i": self.i, "j": self.j, "n": self.n, "dim": self.dim}

    def __str__(self) -> str:
        """'T3 i=1 j=2 dim 1': the condition, then the positions that are set."""
        at = [f"{k}={v}" for k, v in (("i", self.i), ("j", self.j), ("n", self.n)) if v is not None]
        return " ".join([self.condition, *at, f"dim {self.dim}"])


@dataclass
class ExceptionalReport:
    subject: str  # "module" | "pair" | "sequence"
    verdict: bool
    certainty: str
    complete: bool | None
    witnesses: list[Witness] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    images: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject,
            "verdict": self.verdict,
            "certainty": self.certainty,
            "complete": self.complete,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "images": list(self.images),
            "notes": list(self.notes),
        }


_FIELD_NOTE = (
    "verdicts computed over the configured ground field; a one-dimensional "
    "endomorphism ring over Q is taken as the brick certificate"
)


def _self_ext_check(src: Resolution, n_max: int) -> tuple[bool, bool, list[Witness], ExtResult]:
    """(all positive self-exts vanish?, certified?, witnesses, raw result)."""
    res = src.ext(src.module, n_max)
    wit = [
        Witness("E2", None, None, n, d)
        for n, d in enumerate(res.dims)
        if n >= 1 and d != 0
    ]
    vanish = not wit
    return vanish, res.all_higher_vanish_certified(1), wit, res


def is_exceptional(m: RightModule, n_max: int = 24) -> ExceptionalReport:
    """Brick plus certified vanishing of all positive self-extensions."""
    return _module_report(Resolution.of(m), n_max)


def _module_report(src: Resolution, n_max: int) -> ExceptionalReport:
    """`is_exceptional` of src.module, reading self-Ext from src."""
    m = src.module
    end_dim, brick = brick_report(m)
    witnesses = [Witness("E1", None, None, None, end_dim)]
    vanish, certified, ext_wit, _ = _self_ext_check(src, n_max)
    witnesses += ext_wit
    verdict = brick and vanish
    if not verdict:
        certainty = CERTIFIED if (not brick or ext_wit) else up_to_bound(n_max)
    else:
        certainty = CERTIFIED if certified else up_to_bound(n_max)
    rep = ExceptionalReport("module", verdict, certainty, None, witnesses)
    if m.field.is_rational:
        rep.notes.append(_FIELD_NOTE)
    return rep


def _cross_vanishes(later: Resolution, earlier: RightModule, n_max: int, i: int, j: int):
    """Hom(later, earlier) = 0 and certified Ext^n(later, earlier) = 0, n >= 1,
    with Ext read from the resolution of the later module."""
    witnesses = []
    h = hom_dim(later.module, earlier)
    if h != 0:
        witnesses.append(Witness("E1'", i, j, None, h))
    res = later.ext(earlier, n_max)
    for n, d in enumerate(res.dims):
        if n >= 1 and d != 0:
            witnesses.append(Witness("E2'", i, j, n, d))
    ok = not witnesses
    certified = res.all_higher_vanish_certified(1)
    return ok, certified, witnesses


def is_exceptional_sequence(mods: list[RightModule], n_max: int = 24) -> ExceptionalReport:
    """Every member exceptional; for i < j the pair (M_i, M_j) has
    Hom(M_j, M_i) = 0 and certified Ext^n(M_j, M_i) = 0 for n >= 1."""
    return _sequence_report([Resolution.of(m) for m in mods], n_max)


def _sequence_report(resolutions: list[Resolution], n_max: int) -> ExceptionalReport:
    """`is_exceptional_sequence` of the resolved modules: member j's
    resolution serves its self-Ext and every pair (M_i, M_j) with i < j."""
    mods = [r.module for r in resolutions]
    if not mods:
        return ExceptionalReport("sequence", True, CERTIFIED, None, [])
    a = mods[0].algebra
    for m in mods[1:]:
        if not a.same_as(m.algebra):
            raise ModuleError("sequence members live over different algebras")
    verdict = True
    all_certified = True
    witnesses: list[Witness] = []
    for k, src in enumerate(resolutions):
        rep = _module_report(src, n_max)
        if not rep.verdict:
            verdict = False
            witnesses += [Witness(w.condition, k + 1, k + 1, w.n, w.dim) for w in rep.witnesses if w.condition != "E1" or w.dim != 1]
        if rep.certainty != CERTIFIED:
            all_certified = False
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            ok, certified, wit = _cross_vanishes(resolutions[j], mods[i], n_max, i + 1, j + 1)
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


def semibrick_report(mods: list[RightModule]) -> ExceptionalReport:
    """Semibrick verdict with cross-hom witness dimensions."""
    witnesses = []
    verdict = True
    for k, m in enumerate(mods):
        end_dim, brick = brick_report(m)
        witnesses.append(Witness("brick", k + 1, k + 1, None, end_dim))
        if not brick:
            verdict = False
    for i, m in enumerate(mods):
        for j, n in enumerate(mods):
            if i == j:
                continue
            d = hom_dim(m, n)
            if d != 0:
                witnesses.append(Witness("cross-hom", i + 1, j + 1, None, d))
                verdict = False
    return ExceptionalReport("semibrick", verdict, CERTIFIED, None, witnesses)


# ---------------------------------------------------------------------------
# theorem checkers


@dataclass
class HypothesisVerdict:
    name: str
    holds: bool
    certified: bool
    witnesses: list[Witness] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "certified": self.certified,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


@dataclass
class TheoremReport:
    subject: str
    hypotheses: list[HypothesisVerdict]
    conclusion: ExceptionalReport | None
    conclusions: list[ExceptionalReport] = field(default_factory=list)
    image_dims: list[tuple[int, ...]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def hypotheses_hold(self) -> bool:
        return all(h.holds and h.certified for h in self.hypotheses)

    @property
    def conclusion_holds(self) -> bool:
        reps = [self.conclusion] if self.conclusion is not None else []
        reps += self.conclusions
        return all(r.verdict for r in reps)

    @property
    def implication_violated(self) -> bool:
        return self.hypotheses_hold and not self.conclusion_holds

    def to_json_dict(self) -> dict:
        out = {
            "subject": self.subject,
            "hypotheses": [h.to_json_dict() for h in self.hypotheses],
            "hypotheses_hold": self.hypotheses_hold,
            "conclusion_holds": self.conclusion_holds,
            "implication_violated": self.implication_violated,
            "image_dims": [list(d) for d in self.image_dims],
            "notes": list(self.notes),
        }
        if self.conclusion is not None:
            out["conclusion"] = self.conclusion.to_json_dict()
        if self.conclusions:
            out["conclusions"] = [c.to_json_dict() for c in self.conclusions]
        return out


def check_split_theorem(se: SplitExtension, mods: list[RightModule], n_max: int = 24) -> TheoremReport:
    """Hypotheses and conclusion of the tensor-functor exceptionality theorem.

    (1) the sequence is exceptional over A; (2) R is projective as a left
    A-module; (3) Hom(M_k, M_k (x) Q) = 0 for all k and Hom(M_j, M_i (x) Q) = 0
    for i < j; (4) the same with certified Ext^n for all n >= 1.  The image
    sequence (M_i (x) R) is then checked independently; if all hypotheses hold
    certified and the image fails, the report flags a violated implication.
    """
    a = se.A
    for m in mods:
        if not m.algebra.same_as(a):
            raise ModuleError("sequence must live over the quotient algebra of the extension")
    resolutions = [Resolution.of(m) for m in mods]
    hyp1_rep = _sequence_report(resolutions, n_max)
    hyp1 = HypothesisVerdict("sequence exceptional over A", hyp1_rep.verdict, hyp1_rep.certainty == CERTIFIED, hyp1_rep.witnesses)
    hyp2 = HypothesisVerdict("R projective as left A-module", se.is_projective_left, True)
    tq = [se.tensor_with_Q(m) for m in mods]
    hom_wit: list[Witness] = []
    ext_wit: list[Witness] = []
    ext_certified = True
    for i in range(len(mods)):
        for j in range(i, len(mods)):
            d = hom_dim(mods[j], tq[i])
            if d != 0:
                hom_wit.append(Witness("T3", i + 1, j + 1, None, d))
            res = resolutions[j].ext(tq[i], n_max)
            for n, dd in enumerate(res.dims):
                if n >= 1 and dd != 0:
                    ext_wit.append(Witness("T4", i + 1, j + 1, n, dd))
            if not res.all_higher_vanish_certified(1):
                ext_certified = False
    hyp3 = HypothesisVerdict("Hom(M_j, M_i x Q) = 0 (i <= j)", not hom_wit, True, hom_wit)
    hyp4 = HypothesisVerdict("Ext^n(M_j, M_i x Q) = 0 (i <= j, n >= 1)", not ext_wit, ext_certified, ext_wit)
    images = [se.apply(TENSOR_UP, m) for m in mods]
    conclusion = is_exceptional_sequence(images, n_max)
    conclusion.images = [render_module(im, name=f"image_{k + 1}") for k, im in enumerate(images)]
    rep = TheoremReport(
        "split-extension theorem",
        [hyp1, hyp2, hyp3, hyp4],
        conclusion,
        image_dims=[im.dims for im in images],
    )
    if rep.implication_violated:
        rep.notes.append("implication violated: certified hypotheses with failing image sequence")
    return rep


def check_recollement_theorem(
    rec: Recollement,
    seq_over_quotient: list[RightModule],
    seq_over_corner: list[RightModule],
    n_max: int = 24,
    identity_n_max: int = 6,
) -> TheoremReport:
    """Input exceptionality plus the exactness certificates; images i_*(X_k)
    and j_!(Y_k); dimension identities Ext^n(F M, F M) = Ext^n(M, M) for
    n <= identity_n_max."""
    res_x = [Resolution.of(x) for x in seq_over_quotient]
    res_y = [Resolution.of(y) for y in seq_over_corner]
    in_i = _sequence_report(res_x, n_max)
    in_j = _sequence_report(res_y, n_max)
    hyp_xi = HypothesisVerdict(
        "sequence exceptional over the quotient", in_i.verdict, in_i.certainty == CERTIFIED, in_i.witnesses
    )
    hyp_yj = HypothesisVerdict(
        "sequence exceptional over the corner", in_j.verdict, in_j.certainty == CERTIFIED, in_j.witnesses
    )
    hyp_i = HypothesisVerdict("i^* exact (Abar projective as left A-module)", rec.istar_exact, True)
    hyp_s = HypothesisVerdict("i^! exact (Abar projective as right A-module)", rec.ishriek_exact, True)
    images_i = [rec.apply(I_STAR, x) for x in seq_over_quotient]
    images_j = [rec.apply(J_LOWER, y) for y in seq_over_corner]
    res_fx = [Resolution.of(fx) for fx in images_i]
    res_fy = [Resolution.of(fy) for fy in images_j]
    rep_i = _sequence_report(res_fx, n_max)
    rep_i.images = [render_module(im, name=f"i_star_{k + 1}") for k, im in enumerate(images_i)]
    rep_j = _sequence_report(res_fy, n_max)
    rep_j.images = [render_module(im, name=f"j_lower_{k + 1}") for k, im in enumerate(images_j)]
    rep = TheoremReport(
        "recollement theorem",
        [hyp_xi, hyp_yj, hyp_i, hyp_s],
        None,
        conclusions=[rep_i, rep_j],
        image_dims=[m.dims for m in images_i + images_j],
    )
    for functor, sources, images in ((I_STAR, res_x, res_fx), (J_LOWER, res_y, res_fy)):
        for k, (x, fx) in enumerate(zip(sources, images)):
            lhs = fx.ext(fx.module, identity_n_max).dims
            rhs = x.ext(x.module, identity_n_max).dims
            if lhs != rhs:
                rep.notes.append(f"dimension identity fails for {functor} at position {k + 1}: {lhs} vs {rhs}")
    if rep.implication_violated:
        rep.notes.append("implication violated: exact certificates with failing image sequence")
    if not rep.hypotheses_hold:
        rep.notes.append("hypotheses not met; conclusion evaluated but not asserted")
    return rep


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class EnumerationConfig:
    field: FieldSpec = F2
    dim_bound: int = 1
    budget: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if self.dim_bound < 0:
            raise ValueError("dim_bound must be >= 0")


@dataclass
class EnumerationResult:
    items: list
    complete: bool
    notes: list[str] = field(default_factory=list)
    candidates: int = 0  # candidates drawn by enumerate_bricks, at most the budget


class BudgetExceeded(Exception):
    pass


def _refield(algebra: Algebra, fld: FieldSpec) -> Algebra:
    """The same structure constants over another field, same basis order.

    Fails if a table entry has a denominator divisible by the target
    characteristic; the bundled presentations all have integral tables.
    """
    if algebra.field == fld:
        return algebra
    table = []
    for row in algebra.table:
        new_row = []
        for cell in row:
            new_cell = {}
            for k, c in cell.items():
                v = _coerce_scalar(algebra.field, fld, c)
                if v != 0:
                    new_cell[k] = v
            new_row.append(new_cell)
        table.append(new_row)
    return Algebra(
        fld,
        algebra.vertices,
        algebra.basis,
        table,
        name=f"{algebra.name}@{fld.name()}",
        quiver=algebra.quiver,
        relations=None,
    )


def _coerce_scalar(src: FieldSpec, dst: FieldSpec, c):
    if src.is_rational:
        return dst.div(dst.from_int(c.numerator), dst.from_int(c.denominator))
    return dst.from_int(c)


def _lift_module(m: RightModule, target: Algebra) -> RightModule:
    """Transport a module along matching basis orderings, entrywise by
    integer representatives (used to re-verify prime-field verdicts over Q)."""
    src_f, dst_f = m.field, target.field
    action = {}
    for i in target.radical_indices:
        src_mat = m.action[i]
        action[i] = Matrix(
            dst_f,
            [[_coerce_scalar(src_f, dst_f, x) for x in row] for row in src_mat.rows],
            src_mat.nrows,
            src_mat.ncols,
        )
    return RightModule(target, m.dims, action)


def _rank_normal_forms(f: FieldSpec, rows: int, cols: int) -> list[Matrix]:
    """N_0, N_1, ...: the rank-r matrix that is zero except for an
    anti-diagonal identity in its bottom-right r x r block.  N_r is the
    lex-least (row-major, 0 < 1 < ... < p-1) matrix of rank r, so it is the
    first point of its GL(rows) x GL(cols) orbit in entry order."""
    out = []
    for r in range(min(rows, cols) + 1):
        m = Matrix.zeros(f, rows, cols)
        for k in range(r):
            m.rows[rows - r + k][cols - 1 - k] = f.one()
        out.append(m)
    return out


def _entry_key(m: RightModule) -> tuple:
    """All action entries in radical-basis order, row-major: the order in
    which a search over every radical matrix would meet the module."""
    return tuple(x for i in m.algebra.radical_indices for row in m.action[i].rows for x in row)


def _tits_form(algebra: Algebra, dims) -> int:
    """t(d) = sum_v d_v^2 - sum_g d_s(g) d_t(g), g over the radical generators.

    For every module M of dimension vector d, dim End M >= t(d): End M is the
    kernel of the intertwining system `_hom_kernel` writes for (M, M), which
    has sum_v d_v^2 unknowns and d_s(g) d_t(g) equations per generator g.
    """
    b = algebra.basis
    return sum(d * d for d in dims) - sum(dims[b[g].source] * dims[b[g].target] for g in algebra.radical_generators)


def enumerate_bricks(algebra: Algebra, cfg: EnumerationConfig) -> EnumerationResult:
    """All bricks with vertex dimensions <= dim_bound, up to isomorphism.

    Candidates are points of a slice of the representation space over the
    configured prime field: one matrix per radical generator, every other
    radical element acting through its generator words.  When the first
    radical basis element is a generator between distinct vertices, its
    matrix is fixed to each rank normal form N_r; every isomorphism class
    meets that slice, because GL at the two end vertices moves the matrix to
    N_r.  Each candidate is checked in four steps: the module axioms; the
    Tits bound, which rejects it without a Hom solve when t(d) >= 2
    (`_tits_form`: dim End M >= t(d), so M is no brick); the brick test, a
    solve of End M; and deduplication with iso_test.  Each class is represented by its point
    with the least `_entry_key`, which has N_r as first matrix and so lies
    in the slice.  Output is ordered by dimension vector, then matrix
    entries.  The budget counts candidates, whatever step rejects them.
    """
    if cfg.field.is_rational:
        raise ModuleError("enumeration needs a prime field; use e.g. F2 and re-verify over Q")
    work = _refield(algebra, cfg.field)
    if work.is_zero:
        return EnumerationResult([], True)
    f = cfg.field
    elements = [f.from_int(k) for k in range(f.p)]
    gens = work.radical_generators
    first = work.radical_indices[0] if work.radical_indices else None
    pinned = first if first in gens and work.basis[first].source != work.basis[first].target else None
    free = [g for g in gens if g != pinned]
    bricks: list[RightModule] = []
    notes: list[str] = []
    count = 0
    complete = True
    try:
        for dims in itertools.product(range(cfg.dim_bound + 1), repeat=work.n_vertices):
            if sum(dims) == 0:
                continue
            shapes = [(g, dims[work.basis[g].source], dims[work.basis[g].target]) for g in free]
            tits = _tits_form(work, dims)
            entry_slots = sum(r * c for _, r, c in shapes)
            pins = [{}]
            if pinned is not None:
                b = work.basis[pinned]
                pins = [{pinned: n} for n in _rank_normal_forms(f, dims[b.source], dims[b.target])]
            for pin, assignment in itertools.product(pins, itertools.product(elements, repeat=entry_slots)):
                count += 1
                if count > cfg.budget:
                    raise BudgetExceeded
                action = dict(pin)
                pos = 0
                for g, r, c in shapes:
                    action[g] = Matrix(f, [assignment[pos + k * c : pos + (k + 1) * c] for k in range(r)], r, c)
                    pos += r * c
                try:
                    m = module_from_generators(work, dims, action)
                except ModuleError:
                    continue
                if tits >= 2 or not brick_report(m)[1]:
                    continue
                twin = next(
                    (
                        k
                        for k, rep in enumerate(bricks)
                        if rep.dims == m.dims and iso_test(rep, m, budget=cfg.budget).isomorphic
                    ),
                    None,
                )
                if twin is None:
                    bricks.append(m)
                elif _entry_key(m) < _entry_key(bricks[twin]):
                    bricks[twin] = m
    except BudgetExceeded:
        complete = False
        notes.append(f"candidate budget {cfg.budget} exceeded; result is a partial list")
    bricks.sort(key=_canonical_module_key)
    return EnumerationResult(bricks, complete, notes, candidates=min(count, cfg.budget))


def _canonical_module_key(m: RightModule):
    entries = []
    for i in m.algebra.radical_indices:
        for row in m.action[i].rows:
            entries.extend(m.field.fmt(x) for x in row)
    return (m.dims, tuple(entries))


def enumerate_ces(algebra: Algebra, cfg: EnumerationConfig, n_max: int = 24) -> EnumerationResult:
    """All complete exceptional sequences assembled from the enumerated bricks.

    Only bricks certified exceptional are used (a verdict up to a bound is
    not enough).  The pair compatibility digraph is built first (Y may follow X iff
    Hom(Y, X) = 0 and Ext^n(Y, X) = 0 for all n >= 1, certified), then all
    length-r sequences satisfying every pair constraint are collected by
    backtracking.  When the input algebra is rational, enumeration runs over
    the configured prime field and each emitted sequence is re-verified over
    the original algebra.
    """
    if algebra.is_zero:
        return EnumerationResult([()], True, ["zero algebra: the empty sequence is complete"])
    brick_result = enumerate_bricks(algebra, cfg)
    work_bricks: list[RightModule] = brick_result.items
    notes = list(brick_result.notes)
    # each brick is resolved once; its resolution serves its own check and all its pairs
    admitted = []
    for src in map(Resolution.of, work_bricks):
        rep = _module_report(src, n_max)
        if rep.verdict and rep.certainty == CERTIFIED:
            admitted.append(src)
    exceptional = [src.module for src in admitted]
    r = algebra.n_vertices
    k = len(exceptional)
    may_follow = [[False] * k for _ in range(k)]
    for x in range(k):
        for y in range(k):
            if x == y:
                continue
            ok, certified, _ = _cross_vanishes(admitted[y], exceptional[x], n_max, 1, 2)
            may_follow[x][y] = ok and certified
    sequences: list[tuple[int, ...]] = []

    def backtrack(prefix: list[int]) -> None:
        if len(prefix) == r:
            sequences.append(tuple(prefix))
            return
        for cand in range(k):
            if cand in prefix:
                continue
            if all(may_follow[p][cand] for p in prefix):
                prefix.append(cand)
                backtrack(prefix)
                prefix.pop()

    backtrack([])
    out_sequences: list[tuple[RightModule, ...]] = []
    lift_needed = algebra.field != cfg.field
    for seq in sequences:
        mods = tuple(exceptional[i] for i in seq)
        if lift_needed:
            mods = tuple(_lift_module(m, algebra) for m in mods)
            recheck = is_exceptional_sequence(list(mods), n_max)
            if not recheck.verdict or recheck.certainty != CERTIFIED:
                raise ModuleError(
                    "sequence verified over the enumeration field failed re-verification "
                    f"over {algebra.field.name()}: dims {[m.dims for m in mods]}"
                )
        out_sequences.append(mods)
    out_sequences.sort(key=lambda mods: tuple(_canonical_module_key(m) for m in mods))
    if lift_needed:
        notes.append(f"enumerated over {cfg.field.name()}, re-verified over {algebra.field.name()}")
    return EnumerationResult(out_sequences, brick_result.complete, notes, brick_result.candidates)
