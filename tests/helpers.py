"""Small helpers only the tests use, kept out of the library."""

from exrep.algebra import Algebra, AlgebraError
from exrep.bimodules import left_module_over_op
from exrep.linalg import Matrix, Subspace
from exrep.modules import ModuleMap, RightModule, padded_resolution


def flatten(h: ModuleMap) -> list:
    """The entries of a map, vertex block by vertex block, row-major."""
    return [x for m in h.mats for r in m.rows for x in r]


def contains(s: Subspace, other: Subspace) -> bool:
    return all(s.contains_vector(r) for r in other.basis.rows)


def int_matrix(field, rows) -> Matrix:
    """A matrix over field from integer rows."""
    return Matrix(field, [[field.from_int(x) for x in r] for r in rows])


def left_module_Q(se) -> RightModule:
    """The kernel Q of a split extension as a left A-module (a right module over A^op)."""
    return left_module_over_op(se.Q)


def radical_power_zero_exponent(a: Algebra) -> int:
    """Smallest m with rad^m = 0, by iterated products of degree->=1 elements."""
    f = a.field
    current = [{i: f.one()} for i in a.radical_indices]
    m = 1
    while current:
        nxt = []
        for x in current:
            for r in a.radical_indices:
                prod = a.mult_vec(x, {r: f.one()})
                if prod:
                    nxt.append(prod)
        if nxt and m > a.dim + 1:
            raise AlgebraError("radical is not nilpotent")
        current = nxt
        m += 1
    return m


def ext_dims_from_tower_padded(m: RightModule, n: RightModule, n_max: int, pad_vertex: str) -> list[int]:
    """Ext dimensions from `padded_resolution(m, pad_vertex)`."""
    if m.is_zero:
        return [0] * (n_max + 1)
    return padded_resolution(m, pad_vertex).tower_dims(n, n_max)
