"""One computation scope: tables that every call inside it shares.

Each table is filled on first use and keyed through `RightModule.memo_key`
(a module over an equal but distinct algebra never shares an entry):

    resolutions   one minimal `Resolution` per module
    hom           one verified `_hom_kernel` (offsets, rows) per (source, target)
    covers        one `top_and_cover` per module
    syzygies      one `kernel_of` the cover map per module
    ranks         one Hom-complex (dim, rank) per (step n, step n+1, target),
                  a step named by the syzygy it covers; Ext sums them at any bound
    builds        one split extension or recollement per construction input

Shared entries are read-only; `top_and_cover` and `Resolution.ext` hand out
their own top and dims.  The padded first step of `padded_resolution` enters
no table.  The scope lives in a `ContextVar` and dies with the `with` block
(or the decorated call) that opened it.  `goldens.run_all`, each CLI command
and `verify_recollement_laws` open one; a scope opened inside another joins
it.  Plain library calls (`ext_dims`, `enumerate_ces`, `enumerate_bricks`,
...) stay unscoped: outside a scope `scoped` runs `build()` directly
without computing a key.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar


class Scope:
    __slots__ = ("resolutions", "hom", "covers", "syzygies", "ranks", "builds")

    def __init__(self):
        self.resolutions: dict = {}
        self.hom: dict = {}
        self.covers: dict = {}
        self.syzygies: dict = {}
        self.ranks: dict = {}
        self.builds: dict = {}


_current: ContextVar[Scope | None] = ContextVar("exrep_scope", default=None)
_MISS = object()


def current_scope() -> Scope | None:
    return _current.get()


@contextmanager
def computation_scope():
    """Open a scope for the `with` block (or the decorated function), or
    join the one already open."""
    outer = _current.get()
    if outer is not None:
        yield outer
        return
    scope = Scope()
    token = _current.set(scope)
    try:
        yield scope
    finally:
        _current.reset(token)


def scoped(table: str, key, build):
    """build(), once per key() in the open scope's table; outside a scope,
    build() with no key computed."""
    scope = _current.get()
    if scope is None:
        return build()
    memo = getattr(scope, table)
    k = key()
    got = memo.get(k, _MISS)
    if got is _MISS:
        got = memo[k] = build()
    return got
