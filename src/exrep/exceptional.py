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
    RightModule,
    brick_report,
    ext_dims,
    hom_dim,
    is_semibrick,
    iso_test,
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


def _self_ext_check(m: RightModule, n_max: int) -> tuple[bool, bool, list[Witness], ExtResult]:
    """(all positive self-exts vanish?, certified?, witnesses, raw result)."""
    res = ext_dims(m, m, n_max)
    wit = [
        Witness("E2", None, None, n, d)
        for n, d in enumerate(res.dims)
        if n >= 1 and d != 0
    ]
    vanish = not wit
    return vanish, res.all_higher_vanish_certified(1), wit, res


def is_exceptional(m: RightModule, n_max: int = 24) -> ExceptionalReport:
    """Brick plus certified vanishing of all positive self-extensions."""
    end_dim, brick = brick_report(m)
    witnesses = [Witness("E1", None, None, None, end_dim)]
    vanish, certified, ext_wit, _ = _self_ext_check(m, n_max)
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


def _cross_vanishes(later: RightModule, earlier: RightModule, n_max: int, i: int, j: int):
    """Hom(later, earlier) = 0 and certified Ext^n(later, earlier) = 0, n >= 1."""
    witnesses = []
    h = hom_dim(later, earlier)
    if h != 0:
        witnesses.append(Witness("E1'", i, j, None, h))
    res = ext_dims(later, earlier, n_max)
    for n, d in enumerate(res.dims):
        if n >= 1 and d != 0:
            witnesses.append(Witness("E2'", i, j, n, d))
    ok = not witnesses
    certified = res.all_higher_vanish_certified(1)
    return ok, certified, witnesses


def is_exceptional_sequence(mods: list[RightModule], n_max: int = 24) -> ExceptionalReport:
    """Every member exceptional; for i < j the pair (M_i, M_j) has
    Hom(M_j, M_i) = 0 and certified Ext^n(M_j, M_i) = 0 for n >= 1."""
    if not mods:
        return ExceptionalReport("sequence", True, CERTIFIED, None, [])
    a = mods[0].algebra
    for m in mods[1:]:
        if not a.same_as(m.algebra):
            raise ModuleError("sequence members live over different algebras")
    verdict = True
    all_certified = True
    witnesses: list[Witness] = []
    for k, m in enumerate(mods):
        rep = is_exceptional(m, n_max)
        if not rep.verdict:
            verdict = False
            witnesses += [Witness(w.condition, k + 1, k + 1, w.n, w.dim) for w in rep.witnesses if w.condition != "E1" or w.dim != 1]
        if rep.certainty != CERTIFIED:
            all_certified = False
    for i in range(len(mods)):
        for j in range(i + 1, len(mods)):
            ok, certified, wit = _cross_vanishes(mods[j], mods[i], n_max, i + 1, j + 1)
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
    assert verdict == is_semibrick(mods) or not mods
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
    hyp1_rep = is_exceptional_sequence(mods, n_max)
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
            res = ext_dims(mods[j], tq[i], n_max)
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
    in_i = is_exceptional_sequence(seq_over_quotient, n_max)
    in_j = is_exceptional_sequence(seq_over_corner, n_max)
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
    rep_i = is_exceptional_sequence(images_i, n_max)
    rep_i.images = [render_module(im, name=f"i_star_{k + 1}") for k, im in enumerate(images_i)]
    rep_j = is_exceptional_sequence(images_j, n_max)
    rep_j.images = [render_module(im, name=f"j_lower_{k + 1}") for k, im in enumerate(images_j)]
    rep = TheoremReport(
        "recollement theorem",
        [hyp_xi, hyp_yj, hyp_i, hyp_s],
        None,
        conclusions=[rep_i, rep_j],
        image_dims=[m.dims for m in images_i + images_j],
    )
    for k, (x, fx) in enumerate(zip(seq_over_quotient, images_i)):
        lhs = ext_dims(fx, fx, identity_n_max).dims
        rhs = ext_dims(x, x, identity_n_max).dims
        if lhs != rhs:
            rep.notes.append(f"dimension identity fails for i_* at position {k + 1}: {lhs} vs {rhs}")
    for k, (y, fy) in enumerate(zip(seq_over_corner, images_j)):
        lhs = ext_dims(fy, fy, identity_n_max).dims
        rhs = ext_dims(y, y, identity_n_max).dims
        if lhs != rhs:
            rep.notes.append(f"dimension identity fails for j_! at position {k + 1}: {lhs} vs {rhs}")
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
    from fractions import Fraction

    if src.is_rational:
        fr = Fraction(c)
        return dst.div(dst.from_int(fr.numerator), dst.from_int(fr.denominator))
    return dst.from_int(int(c))


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


def enumerate_bricks(algebra: Algebra, cfg: EnumerationConfig) -> EnumerationResult:
    """All bricks with vertex dimensions <= dim_bound, up to isomorphism.

    Candidates are explicit representations with entries in the configured
    prime field (one matrix per radical basis element), filtered by the
    module axioms, then by the brick test, then deduplicated with iso_test.
    Output is ordered by dimension vector, then matrix entries.
    """
    if cfg.field.is_rational:
        raise ModuleError("enumeration needs a prime field; use e.g. F2 and re-verify over Q")
    work = _refield(algebra, cfg.field)
    if work.is_zero:
        return EnumerationResult([], True)
    f = cfg.field
    p = f.p
    elements = [f.from_int(k) for k in range(p)]
    bricks: list[RightModule] = []
    notes: list[str] = []
    count = 0
    complete = True
    try:
        for dims in itertools.product(range(cfg.dim_bound + 1), repeat=work.n_vertices):
            if sum(dims) == 0:
                continue
            shapes = []
            for i in work.radical_indices:
                b = work.basis[i]
                shapes.append((i, dims[b.source], dims[b.target]))
            entry_slots = sum(r * c for _, r, c in shapes)
            for assignment in itertools.product(elements, repeat=entry_slots):
                count += 1
                if count > cfg.budget:
                    raise BudgetExceeded
                action = {}
                pos = 0
                for i, r, c in shapes:
                    action[i] = Matrix(f, [list(assignment[pos + k * c : pos + (k + 1) * c]) for k in range(r)], r, c)
                    pos += r * c
                try:
                    m = RightModule(work, dims, action)
                except ModuleError:
                    continue
                if not brick_report(m)[1]:
                    continue
                if any(
                    rep.dims == m.dims and iso_test(rep, m, budget=cfg.budget).isomorphic
                    for rep in bricks
                ):
                    continue
                bricks.append(m)
    except BudgetExceeded:
        complete = False
        notes.append(f"candidate budget {cfg.budget} exceeded; result is a partial list")
    bricks.sort(key=_canonical_module_key)
    return EnumerationResult(bricks, complete, notes)


def _canonical_module_key(m: RightModule):
    entries = []
    for i in m.algebra.radical_indices:
        for row in m.action[i].rows:
            entries.extend(m.field.fmt(x) for x in row)
    return (m.dims, tuple(entries))


def enumerate_ces(algebra: Algebra, cfg: EnumerationConfig, n_max: int = 24) -> EnumerationResult:
    """All complete exceptional sequences assembled from the enumerated bricks.

    The pair compatibility digraph is built first (Y may follow X iff
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
    exceptional = [m for m in work_bricks if is_exceptional(m, n_max).verdict]
    r = algebra.n_vertices
    k = len(exceptional)
    may_follow = [[False] * k for _ in range(k)]
    for x in range(k):
        for y in range(k):
            if x == y:
                continue
            ok, certified, _ = _cross_vanishes(exceptional[y], exceptional[x], n_max, 1, 2)
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
    return EnumerationResult(out_sequences, brick_result.complete, notes)
