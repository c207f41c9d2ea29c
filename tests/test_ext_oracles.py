"""Independent oracles for Ext.

- Euler form: over an algebra of finite global dimension,
  sum_n (-1)^n dim Ext^n(M, N) = x C^-1 y^T, with x, y the dimension vectors
  of M and N and row v of the Cartan matrix C the dimension vector of e_v A.
  C is counted here from the nonzero paths of monomial presentations (linear
  A_n and Nakayama cycles with one zero relation), with no linear algebra.
- Duality: Ext^n_A(M, N) = Ext^n_{A^op}(DN, DM), DM the vector-space dual of
  M as a right module over the opposite algebra.
"""

import itertools
from fractions import Fraction

import pytest

from exrep.algebra import build_algebra, opposite_algebra
from exrep.fileio import parse_algebra_file
from exrep.goldens import bundled_algebra
from exrep.modules import AllHigherVanish, ModuleError, Resolution, RightModule, iso_test, make_module

N_MAX = 14


def monomial_algebra(n: int, cyclic: bool, zero_path: tuple[int, ...] = ()):
    """Arrow k goes from vertex k to k + 1 (mod n when cyclic); zero_path
    lists the arrows of the one zero relation, in path order."""
    lines = [f"algebra {'nak' if cyclic else 'lin'}{n}", "field Q", "vertices " + " ".join(f"v{k}" for k in range(n))]
    for k in range(n if cyclic else n - 1):
        lines.append(f"arrow a{k} v{k} v{(k + 1) % n}")
    if zero_path:
        lines.append("relation " + "*".join(f"a{k}" for k in zero_path))
    lines.append("end")
    name, quiver, relations, fld = parse_algebra_file("\n".join(lines))
    return build_algebra(quiver, relations, fld, name=name)


def path_cartan(n: int, cyclic: bool, zero_path: tuple[int, ...] = ()) -> list[list[int]]:
    """Row v: how many nonzero paths start at v and end at each vertex."""
    rows = []
    for v in range(n):
        row = [0] * n
        arrows: list[int] = []
        cur = v
        while True:
            row[cur] += 1
            if not cyclic and cur == n - 1:
                break
            arrows.append(cur)
            tail = tuple(arrows[-len(zero_path):]) if zero_path else None
            if tail == zero_path:
                break
            cur = (cur + 1) % n
        rows.append(row)
    return rows


def inverse(c: list[list[int]]) -> list[list[Fraction]]:
    """C^-1 by Gauss-Jordan on Fractions, apart from exrep.linalg."""
    n = len(c)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(c)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col])
        work[col], work[piv] = work[piv], work[col]
        lead = work[col][col]
        work[col] = [x / lead for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def test_path_cartan_counts_paths():
    # linear A3: e_0 A has the paths e_0, a0, a0*a1
    assert path_cartan(3, False) == [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    # 3-cycle with a0*a1 = 0: e_0 A = <e_0, a0>, e_1 A = <e_1, a1, a1*a2,
    # a1*a2*a0>, e_2 A = <e_2, a2, a2*a0>
    assert path_cartan(3, True, (0, 1)) == [[1, 1, 0], [1, 2, 1], [1, 1, 1]]


EULER_CASES = [(n, False, ()) for n in range(3, 7)] + [
    (n, True, tuple(k % n for k in range(start, start + length)))
    for n in range(3, 7)
    for start, length in ((0, 2), (1, n))
]


def thin_modules(algebra, n: int) -> list[RightModule]:
    """The interval modules on v_i..v_j that satisfy the relations."""
    out = []
    for i, j in itertools.combinations(range(n), 2):
        try:
            out.append(make_module(algebra, "thin:" + ",".join(f"v{k}" for k in range(i, j + 1))))
        except ModuleError:
            pass
    return out


@pytest.mark.parametrize("n,cyclic,zero_path", EULER_CASES)
def test_euler_form_on_monomial_algebras(n, cyclic, zero_path):
    algebra = monomial_algebra(n, cyclic, zero_path)
    cartan = path_cartan(n, cyclic, zero_path)
    assert [list(make_module(algebra, f"proj:v{v}").dims) for v in range(n)] == cartan
    cinv = inverse(cartan)
    mods = [make_module(algebra, f"{kind}:v{v}") for kind in ("simple", "proj", "inj") for v in range(n)]
    mods += thin_modules(algebra, n)
    for m in mods:
        res = Resolution(m)
        for target in mods:
            ext = res.ext(target, N_MAX)
            assert isinstance(ext.certainty, AllHigherVanish)
            alt = sum((-1) ** k * d for k, d in enumerate(ext.dims))
            x, y = m.dims, target.dims
            assert alt == sum(x[i] * cinv[i][j] * y[j] for i in range(n) for j in range(n))


def dual(m: RightModule, opp) -> RightModule:
    """DM over the opposite algebra: the same spaces, transposed actions."""
    return RightModule(opp, m.dims, {i: mat.transpose() for i, mat in m.action.items()})


@pytest.mark.parametrize("name", ["a3", "a3_ab", "a42", "cycle3", "cycle3_ab"])
def test_ext_duality_through_the_opposite_algebra(name):
    algebra = bundled_algebra(name)
    opp, _ = opposite_algebra(algebra)
    mods = [make_module(algebra, f"{kind}:{v}") for kind in ("simple", "proj", "inj") for v in algebra.vertices]
    duals = [dual(m, opp) for m in mods]
    n_max = 6
    left, right = {}, {}
    for i, m in enumerate(mods):
        res = Resolution(m)
        for j, n in enumerate(mods):
            left[i, j] = res.ext(n, n_max).dims
    for j, dn in enumerate(duals):
        res = Resolution(dn)
        for i, dm in enumerate(duals):
            right[i, j] = res.ext(dm, n_max).dims
    assert left == right
    assert any(any(d[1:]) for d in left.values())


@pytest.mark.parametrize("name", ["a3_ab", "cycle3_ab"])
def test_duality_swaps_projectives_and_injectives(name):
    algebra = bundled_algebra(name)
    opp, _ = opposite_algebra(algebra)
    for v in algebra.vertices:
        assert iso_test(dual(make_module(algebra, f"proj:{v}"), opp), make_module(opp, f"inj:{v}")).isomorphic
        assert iso_test(dual(make_module(algebra, f"inj:{v}"), opp), make_module(opp, f"proj:{v}")).isomorphic
