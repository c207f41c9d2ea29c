"""Split-by-nilpotent extensions cut out of a bound quiver algebra.

Given an algebra R and a set of kernel arrows, the quotient A is carried by
the kernel-arrow-free normal forms; the extension splits precisely when that
complement is multiplicatively closed, which is verified (with a witness
product on failure) rather than assumed.  The four functors between mod(A)
and mod(R) are realized by R and A carrying bimodule structures on both
sides.
"""

from __future__ import annotations

from functools import cached_property

from .algebra import Algebra, AlgebraMorphismData, BasisElement, verify_algebra_axioms
from .bimodules import (
    Bimodule,
    algebra_as_bimodule,
    hom_from_bimodule,
    left_module_over_op,
    restrict_along_surjection,
    tensor_with_bimodule,
)
from .linalg import Matrix, Subspace
from .modules import RightModule, is_projective_module
from .scope import scoped


class SplitExtensionError(ValueError):
    pass


TENSOR_UP = "tensor-up"      # - (x)_A R : mod(A) -> mod(R)
TENSOR_DOWN = "tensor-down"  # - (x)_R A : mod(R) -> mod(A)
HOM_UP = "hom-up"            # Hom_A(R, -) : mod(A) -> mod(R)
HOM_DOWN = "hom-down"        # Hom_R(A, -) : mod(R) -> mod(A)
SPLIT_FUNCTORS = (TENSOR_UP, TENSOR_DOWN, HOM_UP, HOM_DOWN)


class SplitExtension:
    def __init__(self, r: Algebra, kernel_arrows: tuple[str, ...], a: Algebra,
                 section_indices: list[int], q_indices: list[int],
                 xi: AlgebraMorphismData):
        self.R = r
        self.kernel_arrows = tuple(kernel_arrows)
        self.A = a
        self.section_indices = section_indices  # A basis index -> R basis index
        self.q_indices = q_indices
        self.xi = xi  # R -> A
        self._memo: dict = {}
        a_into_r = Matrix.zeros(r.field, a.dim, r.dim)
        for ai, ri in enumerate(section_indices):
            a_into_r.rows[ai][ri] = r.field.one()
        self._section_transport = AlgebraMorphismData("corner", a, r, a_into_r)
        self.R_as_A_R = algebra_as_bimodule(r, a, r, left_transport=self._section_transport, name="R as (A,R)")
        self.Q = algebra_as_bimodule(r, a, a, self._section_transport, self._section_transport,
                                     span=q_indices, name="Q")
        self.is_projective_left = is_projective_module(self.left_module_R())

    # built on first use; R as (A,R) and Q stay eager, since the constructor's
    # projectivity certificate and ideal checks need them
    @cached_property
    def R_as_R_A(self) -> Bimodule:
        return algebra_as_bimodule(self.R, self.R, self.A, right_transport=self._section_transport, name="R as (R,A)")

    @cached_property
    def A_as_R_A(self) -> Bimodule:
        return algebra_as_bimodule(self.A, self.R, self.A, left_transport=self.xi, name="A as (R,A)")

    @cached_property
    def A_as_A_R(self) -> Bimodule:
        return algebra_as_bimodule(self.A, self.A, self.R, right_transport=self.xi, name="A as (A,R)")

    @property
    def dim_q(self) -> int:
        return len(self.q_indices)

    def left_module_R(self) -> RightModule:
        """R as a left A-module, realized as a right module over A^op."""
        return left_module_over_op(self.R_as_A_R)

    def apply(self, kind: str, m: RightModule) -> RightModule:
        """One of the four functors; memoized per (functor, module memo_key)."""
        key = (kind, m.memo_key)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if kind == TENSOR_UP:
            out = tensor_with_bimodule(m, self.R_as_A_R)
        elif kind == TENSOR_DOWN:
            out = tensor_with_bimodule(m, self.A_as_R_A)
        elif kind == HOM_UP:
            out = hom_from_bimodule(self.R_as_R_A, m)
        elif kind == HOM_DOWN:
            out = hom_from_bimodule(self.A_as_A_R, m)
        else:
            raise SplitExtensionError(f"unknown split-extension functor {kind!r}")
        self._memo[key] = out
        return out

    def restrict_to_R(self, m: RightModule) -> RightModule:
        """A-module pulled back along xi (the kernel acts as zero)."""
        return restrict_along_surjection(m, self.xi)

    def tensor_with_Q(self, m: RightModule) -> RightModule:
        key = ("tensor-q", m.memo_key)
        hit = self._memo.get(key)
        if hit is None:
            hit = tensor_with_bimodule(m, self.Q)
            self._memo[key] = hit
        return hit

    def __repr__(self):
        return (
            f"SplitExtension(R={self.R.name}, kernel={','.join(self.kernel_arrows)}, "
            f"dim Q={self.dim_q}, projective_left={self.is_projective_left})"
        )


def build_split_extension(r: Algebra, kernel_arrows) -> SplitExtension:
    """Split R off along the two-sided ideal of the given arrows.

    A is carried by the normal forms avoiding every kernel arrow, Q by the
    rest.  Fails with a witness if the kernel-arrow span is not the ideal it
    generates or the complement is not closed under multiplication (then xi
    does not split for this basis).  In an open scope each (R, kernel
    arrows) is built once, and its functor memos serve every caller.
    """
    kernel_arrows = tuple(kernel_arrows)
    return scoped(
        "builds", lambda: (SplitExtension, r, kernel_arrows), lambda: _build_split_extension(r, kernel_arrows)
    )


def _build_split_extension(r: Algebra, kernel_arrows: tuple[str, ...]) -> SplitExtension:
    if r.quiver is None:
        raise SplitExtensionError("split extensions need an algebra with quiver provenance")
    arrow_idx = set()
    for name in kernel_arrows:
        arrow_idx.add(r.quiver.arrow_index(name))  # raises on unknown arrows
    f = r.field
    q_indices = [i for i, b in enumerate(r.basis) if b.path and set(b.path) & arrow_idx]
    c_indices = [i for i in range(r.dim) if i not in set(q_indices)]
    q_set = set(q_indices)
    # the complement must be multiplicatively closed (splitting witness)
    for i in c_indices:
        for j in c_indices:
            for k in r.mult(i, j):
                if k in q_set:
                    raise SplitExtensionError(
                        "complement not multiplicatively closed - xi does not split for this basis "
                        f"(witness product {r.basis_label(i)} * {r.basis_label(j)})"
                    )
    # the kernel span must be the two-sided ideal generated by the arrows
    ideal_rows = []
    for name in kernel_arrows:
        g = r.arrow_basis_index(name)
        for i in range(r.dim):
            for j in range(r.dim):
                vec = r.mult_vec({i: f.one()}, r.mult_vec({g: f.one()}, {j: f.one()}))
                if vec:
                    row = [f.zero()] * r.dim
                    for k, c in vec.items():
                        row[k] = c
                    ideal_rows.append(row)
    ideal = Subspace.from_rows(f, r.dim, ideal_rows)
    span_rows = []
    for t in q_indices:
        row = [f.zero()] * r.dim
        row[t] = f.one()
        span_rows.append(row)
    if ideal != Subspace.from_rows(f, r.dim, span_rows):
        raise SplitExtensionError(
            "kernel-arrow span differs from the ideal it generates - xi does not split for this basis"
        )
    # A: the corner-style algebra on the complement
    reindex = {old: new for new, old in enumerate(c_indices)}
    basis = tuple(
        BasisElement(r.basis[i].source, r.basis[i].target, r.basis[i].degree, r.basis[i].path)
        for i in c_indices
    )
    table = [
        [{reindex[k]: c for k, c in r.mult(i, j).items()} for j in c_indices]
        for i in c_indices
    ]
    a = Algebra(f, r.vertices, basis, table, name=f"{r.name}.mod({','.join(kernel_arrows)})",
                quiver=r.quiver, relations=r.relations)
    diags = verify_algebra_axioms(a)
    if diags:
        raise SplitExtensionError("quotient table violates axioms: " + "; ".join(diags))
    xi_matrix = Matrix.zeros(f, r.dim, a.dim)
    for new, old in enumerate(c_indices):
        xi_matrix.rows[old][new] = f.one()
    xi = AlgebraMorphismData("quotient", r, a, xi_matrix)
    bad = xi.verify()
    if bad:
        raise SplitExtensionError("projection along the kernel is not an algebra map: " + bad[0])
    return SplitExtension(r, kernel_arrows, a, c_indices, q_indices, xi)
