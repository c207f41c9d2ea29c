"""One computation scope shares resolutions, Hom kernels, covers, syzygies,
and split extension and recollement builds among the calls made inside it
(`test_scope_tables` checks the kernel tables entry by entry).

- `run_all`, each CLI command and each law check run in one scope, and
  `run_all` gives exactly the criteria's unscoped results.
- The scope is gone after `run_all` and after an exception; a nested scope
  joins the open one.
- Shared entries never leak: an Ext read hands out its own dims, and a
  module over an equal but distinct algebra gets no entry of another's.
- Scoped `hom_dim` and `Resolution.ext` equal fresh, unscoped calls.
"""

from collections import Counter
from pathlib import Path

import pytest
from test_memo_keys import FIXTURES, modules, rebuilt

from exrep import cli, goldens, recollements
from exrep.algebra import Algebra
from exrep.goldens import bundled_algebra
from exrep.modules import Resolution, ext_dims, hom_dim, make_module
from exrep.recollements import build_recollement
from exrep.scope import computation_scope, current_scope
from exrep.split_extensions import build_split_extension


def rows(results):
    return [(r.key, r.ok, r.detail) for r in results]


def test_run_all_equals_each_criterion_unscoped():
    unscoped = []
    for criterion in goldens.ALL_CRITERIA:
        assert current_scope() is None
        unscoped.append(criterion())
    assert rows(goldens.run_all()) == rows(unscoped)


def test_run_all_and_each_cli_command_open_one_scope(monkeypatch):
    seen = []

    def probe():
        seen.append(current_scope())
        return goldens.CriterionResult("probe", True, "")

    monkeypatch.setattr(goldens, "ALL_CRITERIA", [probe, probe])
    goldens.run_all()
    assert seen[0] is not None and seen[0] is seen[1]
    monkeypatch.setattr(cli, "cmd_hom", lambda args: seen.append(current_scope()) or 0)
    fixture = str(Path(goldens.__file__).parent / "fixtures" / "a3.alg")
    for _ in range(2):
        assert cli.main(["hom", fixture, "simple:1", "simple:1"]) == 0
    assert None not in seen[2:] and seen[2] is not seen[3] and seen[2] is not seen[0]
    assert current_scope() is None


def test_law_checks_open_their_own_scope(a3, monkeypatch):
    seen = []

    def probe(m, n):
        seen.append(current_scope())
        return hom_dim(m, n)

    monkeypatch.setattr(recollements, "hom_dim", probe)
    for _ in range(2):
        assert recollements.verify_recollement_laws(build_recollement(a3, ["2"]), modules(a3)[:3]).ok
    assert seen[0] is not None and seen[0] is not seen[-1]
    assert {id(s) for s in seen} == {id(seen[0]), id(seen[-1])}
    assert current_scope() is None


def test_no_scope_survives_run_all_or_an_exception():
    goldens.run_all()
    assert current_scope() is None
    with pytest.raises(RuntimeError):
        with computation_scope():
            s = make_module(bundled_algebra("a3"), "simple:1")
            hom_dim(s, s)
            assert current_scope() is not None
            raise RuntimeError("inside")
    assert current_scope() is None


def test_nested_scope_joins_the_outer_one(a3):
    with computation_scope() as outer:
        s = make_module(a3, "simple:1")
        hom_dim(s, s)
        with computation_scope() as inner:
            assert inner is outer
            assert Resolution.of(s) is Resolution.of(s)
        assert current_scope() is outer
        assert (s.memo_key, s.memo_key) in outer.hom and s.memo_key in outer.resolutions
    assert current_scope() is None


def test_ext_reads_hand_out_their_own_dims(a3):
    m, n = make_module(a3, "simple:1"), make_module(a3, "simple:2")
    with computation_scope():
        first = ext_dims(m, n, 4)
        want = list(first.dims)
        first.dims[1] = 99
        first.dims.append(7)
        again = Resolution.of(m).ext(n, 4)
        assert again.dims == want and again.certainty == first.certainty
        assert again.dims is not first.dims
        assert ext_dims(m, n, 2).dims == want[:3]  # a read at a lower bound too


def test_an_equal_but_distinct_algebra_shares_no_entry():
    a3, twin = bundled_algebra("a3"), rebuilt("a3")
    with computation_scope() as scope:
        m, m2 = make_module(a3, "proj:1"), make_module(twin, "proj:1")
        n, n2 = make_module(a3, "simple:2"), make_module(twin, "simple:2")
        assert m.fingerprint == m2.fingerprint
        assert hom_dim(m, n) == hom_dim(m2, n2)
        assert Resolution.of(m) is not Resolution.of(m2)
        assert ext_dims(m, n, 3) == ext_dims(m2, n2, 3)
        assert build_split_extension(a3, ["alpha"]) is not build_split_extension(twin, ["alpha"])
        assert build_recollement(a3, ["2"]) is not build_recollement(twin, ["2"])
        assert len(scope.resolutions) == 2 and len(scope.builds) == 4
        # every kernel entry names one algebra, and each algebra the twins
        # build (the twins themselves, opposites, quotients) comes as two
        # distinct objects holding equally many entries
        for table in (scope.hom, scope.covers, scope.syzygies):
            per_name = {}
            for key in table:
                (alg,) = algebras_in(key)
                per_name.setdefault(alg.name, Counter())[alg] += 1
            assert set(per_name["a3"]) == {a3, twin}
            assert all(len(c) == 2 and len(set(c.values())) == 1 for c in per_name.values()), per_name


def algebras_in(key) -> frozenset:
    """The algebras named by a table key: one per `memo_key` in it."""
    if isinstance(key[0], Algebra):
        return frozenset([key[0]])
    return frozenset().union(*map(algebras_in, key))


@pytest.mark.parametrize("name", FIXTURES)
def test_scoped_reads_equal_fresh_calls(name):
    alg = bundled_algebra(name)
    mods = modules(alg)
    fresh_hom = {(i, j): hom_dim(m, n) for i, m in enumerate(mods) for j, n in enumerate(mods)}
    fresh_ext = {(i, j): Resolution(m).ext(n, 4) for i, m in enumerate(mods) for j, n in enumerate(mods)}
    with computation_scope() as scope:
        for _ in range(2):  # the second round reads the tables
            for i, m in enumerate(mods):
                for j, n in enumerate(mods):
                    assert hom_dim(m, n) == fresh_hom[i, j], (name, i, j)
                    assert Resolution.of(m).ext(n, 4) == fresh_ext[i, j], (name, i, j)
        assert scope.hom and scope.covers and scope.syzygies and scope.resolutions


def test_one_recollement_per_idempotent_set(a3):
    with computation_scope():
        rec = build_recollement(a3, ["3", "2"])
        assert build_recollement(a3, ["2", "3"]) is rec
        assert build_recollement(a3, [1, 2]) is rec
    assert build_recollement(a3, ["2", "3"]) is not build_recollement(a3, ["2", "3"])
