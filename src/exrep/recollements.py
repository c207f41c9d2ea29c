"""Idempotent recollements of module categories.

From a vertex subset eps of an algebra A we form Abar = A/A.eps.A and
Atilde = eps.A.eps and the six functors between their module categories:

    i_*      restriction along A ->> Abar          (embedding)
    i^*      - (x)_A Abar                          (left adjoint)
    i^!      Hom_A(Abar, -)                        (right adjoint)
    j^*      restriction along Atilde -> A         (the corner inclusion: (-)eps)
    j_!      - (x)_Atilde eps.A                    (left adjoint)
    j_*      Hom_Atilde(A.eps, -)                  (right adjoint)

j_* is realized through A.eps as an (A, Atilde)-bimodule: that is the
bimodule forced by the (j^*, j_*) adjunction, which the law checker verifies
numerically on samples.  Exactness certificates for i^* and i^! are decided
by one-sided projectivity of Abar over A (finite-dimensional flat =
projective).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from .algebra import Algebra, corner_algebra, quotient_by_idempotent_ideal
from .bimodules import (
    Bimodule,
    TensorQuotient,
    algebra_as_bimodule,
    hom_from_bimodule,
    left_module_over_op,
    restrict_along_surjection,
    right_module_of,
    tensor_quotient,
    tensor_with_bimodule,
    tensor_with_bimodule_map,
)
from .linalg import Matrix, Subspace, left_kernel
from .modules import (
    RightModule,
    generated_submodule,
    hom_dim,
    is_projective_module,
    iso_test,
    quotient_module,
    simple_module,
    submodule,
)
from .scope import computation_scope, scoped

I_STAR = "i_*"
I_UPPER_STAR = "i^*"
I_SHRIEK = "i^!"
J_LOWER = "j_!"
J_UPPER_STAR = "j^*"
J_STAR = "j_*"
RECOLLEMENT_FUNCTORS = (I_STAR, I_UPPER_STAR, I_SHRIEK, J_LOWER, J_UPPER_STAR, J_STAR)


class RecollementError(ValueError):
    pass


class Recollement:
    def __init__(self, algebra: Algebra, eps_vertices):
        self.A = algebra
        eps = _eps_indices(algebra, eps_vertices)
        if not eps:
            raise RecollementError("empty idempotent vertex set")
        self.eps = eps
        self.eps_labels = tuple(algebra.vertices[v] for v in eps)
        self.Abar, self.pi = quotient_by_idempotent_ideal(algebra, self.eps_labels)
        self.Atilde, self.corner_incl = corner_algebra(algebra, self.eps_labels)
        # Abar as (A, Abar)- and (Abar, A)-bimodule, acting through pi on the A side
        self.abar_A_Abar = algebra_as_bimodule(
            self.Abar, algebra, self.Abar, left_transport=self.pi, name="Abar as (A,Abar)"
        )
        self.abar_Abar_A = algebra_as_bimodule(
            self.Abar, self.Abar, algebra, right_transport=self.pi, name="Abar as (Abar,A)"
        )
        self.istar_exact = is_projective_module(left_module_over_op(self.abar_A_Abar))
        self.ishriek_exact = is_projective_module(right_module_of(self.abar_Abar_A))
        self._memo: dict = {}

    @cached_property
    def eps_A(self) -> Bimodule:
        """eps.A as an (Atilde, A)-bimodule, behind j_!."""
        return algebra_as_bimodule(
            self.A, self.Atilde, self.A, left_transport=self.corner_incl, name="epsA as (Atilde,A)"
        )

    @cached_property
    def A_eps(self) -> Bimodule:
        """A.eps as an (A, Atilde)-bimodule, behind j_*."""
        return algebra_as_bimodule(
            self.A, self.A, self.Atilde, right_transport=self.corner_incl, name="Aeps as (A,Atilde)"
        )

    # -- functors ----------------------------------------------------------

    def apply(self, kind: str, m: RightModule) -> RightModule:
        key = (kind, m.memo_key)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if kind == I_STAR:
            out = restrict_along_surjection(m, self.pi)
        elif kind == I_UPPER_STAR:
            out = tensor_with_bimodule(m, self.abar_A_Abar)
        elif kind == I_SHRIEK:
            out = hom_from_bimodule(self.abar_Abar_A, m)
        elif kind == J_LOWER:
            out = self.j_lower_quotient(m).module
        elif kind == J_UPPER_STAR:
            out = restrict_along_surjection(m, self.corner_incl)
        elif kind == J_STAR:
            out = hom_from_bimodule(self.A_eps, m)
        else:
            raise RecollementError(f"unknown recollement functor {kind!r}")
        self._memo[key] = out
        return out

    def j_lower_quotient(self, m: RightModule) -> TensorQuotient:
        """The tensor quotient behind j_!(m), kept in the functor memo: the
        maps j_! induces are read off the same quotient."""
        key = ("j_! quotient", m.memo_key)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = tensor_quotient(m, self.eps_A)
        return hit

    def __repr__(self):
        return (
            f"Recollement({self.A.name}; eps={{{','.join(self.eps_labels)}}}, "
            f"i^* exact={self.istar_exact}, i^! exact={self.ishriek_exact})"
        )


def _eps_indices(algebra: Algebra, eps_vertices) -> tuple[int, ...]:
    return tuple(sorted({algebra.vertex_index(v) if isinstance(v, str) else int(v) for v in eps_vertices}))


def build_recollement(algebra: Algebra, eps_vertices) -> Recollement:
    """The recollement of the vertex set eps; in an open scope each
    (algebra, eps) is built once, and its functor memos serve every caller."""
    return scoped(
        "builds",
        lambda: (Recollement, algebra, _eps_indices(algebra, eps_vertices)),
        lambda: Recollement(algebra, eps_vertices),
    )


# ---------------------------------------------------------------------------
# the law checker


@dataclass
class LawFailure:
    law: str
    detail: str


@dataclass
class LawReport:
    checked: list[str] = field(default_factory=list)
    failures: list[LawFailure] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_stable_submodule(m: RightModule, rng: random.Random) -> list[Subspace]:
    seeds: dict[int, list[list]] = {}
    f = m.field
    for v in range(m.algebra.n_vertices):
        if m.dims[v] and rng.random() < 0.7:
            vec = [f.from_int(rng.randint(-2, 2)) for _ in range(m.dims[v])]
            if any(x != 0 for x in vec):
                seeds.setdefault(v, []).append(vec)
    return generated_submodule(m, seeds)


def _exactness_preserved(seq_small, seq_mid, seq_big, incl_mats, proj_mats) -> bool:
    """dim additivity plus image=kernel at the middle term, per vertex."""
    nv = len(seq_mid.dims)
    for v in range(nv):
        if seq_small.dims[v] + seq_big.dims[v] != seq_mid.dims[v]:
            return False
        img = Subspace.from_rows(incl_mats[v].field, incl_mats[v].ncols, incl_mats[v].rows)
        if img.dim != seq_small.dims[v]:
            return False
        if img != left_kernel(proj_mats[v]):
            return False
    return True


@computation_scope()
def verify_recollement_laws(rec: Recollement, samples: list[RightModule], seed: int = 0) -> LawReport:
    """Check the recollement identities on the given sample modules over A.

    Samples over Abar and Atilde are derived through i^* and j^*.  Checked:
    vanishing compositions, the four unit/counit comparisons, adjunction
    dimension identities, full faithfulness, Im(i_*) <= Ker(j^*), exactness
    of i_* and j^* on short exact sequences cut from random submodules, and
    the conditional vanishing i^! j_! = 0 / i^* j_* = 0 under the exactness
    certificates.  Runs in a computation scope (its own, or the caller's),
    so each Hom pair the laws meet is solved once.
    """
    report = LawReport()
    rng = random.Random(seed)
    samples_bar = [rec.apply(I_UPPER_STAR, m) for m in samples]
    samples_bar += [simple_module(rec.Abar, v) for v in rec.Abar.vertices]
    samples_til = [rec.apply(J_UPPER_STAR, m) for m in samples]
    samples_til += [simple_module(rec.Atilde, v) for v in rec.Atilde.vertices]

    def check(law: str, cond: bool, detail: str) -> None:
        report.checked.append(law)
        if not cond:
            report.failures.append(LawFailure(law, detail))

    # (1) vanishing compositions
    for k, n in enumerate(samples_til):
        img = rec.apply(I_UPPER_STAR, rec.apply(J_LOWER, n))
        check("i^* j_! = 0", img.is_zero, f"sample {k}: dims {img.dims}")
        img2 = rec.apply(I_SHRIEK, rec.apply(J_STAR, n))
        check("i^! j_* = 0", img2.is_zero, f"sample {k}: dims {img2.dims}")
    # (3) unit/counit comparisons
    for k, x in enumerate(samples_bar):
        back = rec.apply(I_UPPER_STAR, rec.apply(I_STAR, x))
        check("i^* i_* = 1", iso_test(back, x).isomorphic, f"sample {k}: dims {back.dims} vs {x.dims}")
        back2 = rec.apply(I_SHRIEK, rec.apply(I_STAR, x))
        check("1 = i^! i_*", iso_test(back2, x).isomorphic, f"sample {k}: dims {back2.dims} vs {x.dims}")
    for k, n in enumerate(samples_til):
        back = rec.apply(J_UPPER_STAR, rec.apply(J_LOWER, n))
        check("1 = j^* j_!", iso_test(back, n).isomorphic, f"sample {k}: dims {back.dims} vs {n.dims}")
        back2 = rec.apply(J_UPPER_STAR, rec.apply(J_STAR, n))
        check("j^* j_* = 1", iso_test(back2, n).isomorphic, f"sample {k}: dims {back2.dims} vs {n.dims}")
    # (R1) adjunction dimension identities
    for k, (m, x) in enumerate(zip(samples, samples_bar)):
        lhs = hom_dim(rec.apply(I_UPPER_STAR, m), x)
        rhs = hom_dim(m, rec.apply(I_STAR, x))
        check("adjunction (i^*, i_*)", lhs == rhs, f"pair {k}: {lhs} != {rhs}")
        lhs = hom_dim(rec.apply(I_STAR, x), m)
        rhs = hom_dim(x, rec.apply(I_SHRIEK, m))
        check("adjunction (i_*, i^!)", lhs == rhs, f"pair {k}: {lhs} != {rhs}")
    for k, (m, n) in enumerate(zip(samples, samples_til)):
        lhs = hom_dim(rec.apply(J_LOWER, n), m)
        rhs = hom_dim(n, rec.apply(J_UPPER_STAR, m))
        check("adjunction (j_!, j^*)", lhs == rhs, f"pair {k}: {lhs} != {rhs}")
        lhs = hom_dim(rec.apply(J_UPPER_STAR, m), n)
        rhs = hom_dim(m, rec.apply(J_STAR, n))
        check("adjunction (j^*, j_*)", lhs == rhs, f"pair {k}: {lhs} != {rhs}")
    report.notes.append(
        "j_* realized as Hom over the corner of A.eps (the right-Atilde-module form "
        "forced by the (j^*, j_*) adjunction); the adjunction identities above certify it"
    )
    # (R2) full faithfulness as hom-dimension equalities
    for k, x in enumerate(samples_bar):
        for l, y in enumerate(samples_bar):
            lhs = hom_dim(x, y)
            rhs = hom_dim(rec.apply(I_STAR, x), rec.apply(I_STAR, y))
            check("i_* fully faithful", lhs == rhs, f"pair ({k},{l}): {lhs} != {rhs}")
    for k, n in enumerate(samples_til):
        for l, n2 in enumerate(samples_til):
            lhs = hom_dim(n, n2)
            check(
                "j_! fully faithful",
                hom_dim(rec.apply(J_LOWER, n), rec.apply(J_LOWER, n2)) == lhs,
                f"pair ({k},{l})",
            )
            check(
                "j_* fully faithful",
                hom_dim(rec.apply(J_STAR, n), rec.apply(J_STAR, n2)) == lhs,
                f"pair ({k},{l})",
            )
    # (R3) j^* i_* = 0
    for k, x in enumerate(samples_bar):
        img = rec.apply(J_UPPER_STAR, rec.apply(I_STAR, x))
        check("j^* i_* = 0", img.is_zero, f"sample {k}: dims {img.dims}")
    # (2) exactness of i_* and j^* on sampled short exact sequences
    for k, x in enumerate(samples_bar):
        if x.is_zero:
            continue
        spaces = _random_stable_submodule(x, rng)
        sub, incl = submodule(x, spaces)
        quot, proj = quotient_module(x, spaces)
        fs, fm, fq = rec.apply(I_STAR, sub), rec.apply(I_STAR, x), rec.apply(I_STAR, quot)
        # i_* keeps underlying spaces; transport the maps blockwise
        tgt_index = {v: i for i, v in enumerate(rec.Abar.vertices)}
        inc_mats = []
        prj_mats = []
        for v in rec.A.vertices:
            if v in tgt_index:
                inc_mats.append(incl.mats[tgt_index[v]])
                prj_mats.append(proj.mats[tgt_index[v]])
            else:
                inc_mats.append(Matrix.zeros(rec.A.field, 0, 0))
                prj_mats.append(Matrix.zeros(rec.A.field, 0, 0))
        check("i_* exact", _exactness_preserved(fs, fm, fq, inc_mats, prj_mats), f"sample {k}")
    for k, m in enumerate(samples):
        if m.is_zero:
            continue
        spaces = _random_stable_submodule(m, rng)
        sub, incl = submodule(m, spaces)
        quot, proj = quotient_module(m, spaces)
        fs, fm, fq = rec.apply(J_UPPER_STAR, sub), rec.apply(J_UPPER_STAR, m), rec.apply(J_UPPER_STAR, quot)
        idx = [rec.A.vertex_index(v) for v in rec.Atilde.vertices]
        inc_mats = [incl.mats[i] for i in idx]
        prj_mats = [proj.mats[i] for i in idx]
        check("j^* exact", _exactness_preserved(fs, fm, fq, inc_mats, prj_mats), f"sample {k}")
    # (4) conditional vanishing under the certificates
    if rec.istar_exact:
        for k, n in enumerate(samples_til):
            img = rec.apply(I_SHRIEK, rec.apply(J_LOWER, n))
            check("i^! j_! = 0 (i^* exact)", img.is_zero, f"sample {k}")
    if rec.ishriek_exact:
        for k, n in enumerate(samples_til):
            img = rec.apply(I_UPPER_STAR, rec.apply(J_STAR, n))
            check("i^* j_* = 0 (i^! exact)", img.is_zero, f"sample {k}")
    # certificate soundness: under the i^* certificate j_! must carry short
    # exact sequences to short exact sequences
    if rec.istar_exact:
        # tensor quotients come from the functor memo: j_!(n) above built the
        # middle term's, which the inclusion and the projection share
        quotient = rec.j_lower_quotient
        for k, n in enumerate(samples_til):
            if n.is_zero:
                continue
            spaces = _random_stable_submodule(n, rng)
            sub, incl = submodule(n, spaces)
            quot, proj = quotient_module(n, spaces)
            f_incl = tensor_with_bimodule_map(incl, rec.eps_A, quotient(sub), quotient(n))
            f_proj = tensor_with_bimodule_map(proj, rec.eps_A, quotient(n), quotient(quot))
            check(
                "j_! exact (i^* exact)",
                _exactness_preserved(
                    f_incl.source, f_incl.target, f_proj.target, f_incl.mats, f_proj.mats
                ),
                f"sample {k}",
            )
    return report
