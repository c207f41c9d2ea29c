"""Seeded input generators: algebra presentations as `.alg` text and the
conjugated module stream of the ext-nakayama workload.

Everything here depends only on the seed, so one seed gives byte-identical
`.alg` text and identical module matrices.  Arithmetic on the generator side
uses `fractions.Fraction`, independently of exrep's linalg.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction


def _names(rng: random.Random, count: int) -> list[str]:
    """`count` distinct identifiers that exrep's parser accepts as labels."""
    out: list[str] = []
    while len(out) < count:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(3)) + str(len(out))
        if name not in out:
            out.append(name)
    return out


@dataclass(frozen=True)
class Presentation:
    """A generated bound quiver presentation.

    `vertices` and `arrows` are listed, and declared in the `.alg` text, in
    path order: arrow k goes from vertex k to vertex k+1, cyclically for
    Nakayama cycles.  Only the labels depend on the seed, since declaration
    order fixes exrep's basis order and with it the cost of every query.
    `zero_paths` holds arrow positions.
    """

    text: str
    name: str
    vertices: tuple[str, ...]
    arrows: tuple[str, ...]
    cyclic: bool
    zero_paths: tuple[tuple[int, ...], ...]

    def path_is_zero(self, path: tuple[int, ...]) -> bool:
        k = len(path)
        return any(
            path[s : s + len(z)] == z for z in self.zero_paths for s in range(k - len(z) + 1)
        )

    def cartan_rows(self) -> list[list[int]]:
        """Row v: dimension vector of e_v A, counted from nonzero monomial
        paths (the relations are monomial, so no linear algebra is needed)."""
        n = len(self.vertices)
        rows = []
        for v in range(n):
            row = [0] * n
            row[v] = 1
            path: tuple[int, ...] = ()
            cur = v
            while True:
                if not self.cyclic and cur == n - 1:
                    break
                path = path + (cur,)
                if self.path_is_zero(path):
                    break
                cur = (cur + 1) % n
                row[cur] += 1
            rows.append(row)
        return rows


def _present(name: str, vertices, arrows, cyclic, zero_paths) -> Presentation:
    n = len(vertices)
    lines = [f"# generated {name}", f"algebra {name}", "field Q", "vertices " + " ".join(vertices)]
    for k in range(len(arrows)):
        lines.append(f"arrow {arrows[k]} {vertices[k]} {vertices[(k + 1) % n]}")
    for z in zero_paths:
        lines.append("relation " + "*".join(arrows[k] for k in z))
    lines.append("end")
    return Presentation("\n".join(lines) + "\n", name, tuple(vertices), tuple(arrows), cyclic, tuple(zero_paths))


def linear_a(n: int, rng: random.Random, zero_paths=(), name: str | None = None) -> Presentation:
    """Linearly oriented A_n, optionally bound by monomial zero relations."""
    labels = _names(rng, 2 * n - 1)
    return _present(name or f"a{n}", labels[:n], labels[n:], False, tuple(zero_paths))


def nakayama_cycle(n: int, zero_paths, rng: random.Random, name: str) -> Presentation:
    """Oriented n-cycle bound by monomial zero relations (arrow positions)."""
    labels = _names(rng, 2 * n)
    return _present(name, labels[:n], labels[n:], True, tuple(zero_paths))


def nak5_1rel(rng: random.Random) -> Presentation:
    """5-cycle with the single zero relation a1*a2*a3: finite global dimension."""
    return nakayama_cycle(5, [(0, 1, 2)], rng, "nak5-1rel")


def nak4_si3(rng: random.Random) -> Presentation:
    """4-cycle with every length-3 path zero: self-injective, Loewy length 3."""
    return nakayama_cycle(4, [tuple((s + t) % 4 for t in range(3)) for s in range(4)], rng, "nak4-si3")


# ---------------------------------------------------------------------------
# exact helpers on lists of Fractions


def det(rows: list[list[Fraction]]) -> Fraction:
    work = [list(r) for r in rows]
    n = len(work)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if work[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            out = -out
        out *= work[c][c]
        for r in range(c + 1, n):
            f = work[r][c] / work[c][c]
            if f:
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return out


def inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(rows)
    work = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if work[r][c] != 0)
        work[c], work[piv] = work[piv], work[c]
        inv = 1 / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [r[n:] for r in work]


def matmul(a: list[list[Fraction]], b: list[list[Fraction]], inner: int, cols: int) -> list[list[Fraction]]:
    return [[sum((r[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)] for r in a]


def random_invertible(rng: random.Random, d: int) -> tuple[tuple[int, ...], ...]:
    """Uniform integer entries in [-3, 3], redrawn until invertible."""
    while True:
        g = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d))
        if det([[Fraction(x) for x in row] for row in g]) != 0:
            return g


# ---------------------------------------------------------------------------
# the ext-nakayama module stream

SUMMAND_KINDS = ("simple", "proj", "inj")


@dataclass(frozen=True)
class ModuleSpec:
    """A direct sum of named indecomposables, to be conjugated vertexwise by
    the integer matrices in `conj` (one per vertex, row convention)."""

    summands: tuple[str, ...]  # exrep constructor specs, e.g. "proj:abc1"
    conj: tuple[tuple[tuple[int, ...], ...], ...]


class ModuleStream:
    """Endless (M, N) specs for one algebra, one pass of `per_pass` pairs at
    a time.

    Every pass uses the same `per_pass` (M, N) shapes, each a direct sum of
    1-3 indecomposables (a simple, projective or injective at some vertex),
    drawn once with a fixed generator so that every pass and every seed does
    the same mix of small and large queries.  M is never a sum of simples
    only, since conjugation leaves those unchanged.  The seed draws the names
    (through the presentation) and the conjugating matrices.
    """

    def __init__(self, pres: Presentation, seed: int, dims_of, per_pass: int):
        shapes = random.Random(f"shapes/{pres.name}")
        nv = len(pres.vertices)

        def draw(allow_semisimple: bool):
            while True:
                combo = tuple(
                    (shapes.choice(SUMMAND_KINDS), shapes.randrange(nv)) for _ in range(shapes.randint(1, 3))
                )
                if allow_semisimple or any(kind != "simple" for kind, _ in combo):
                    return combo

        self.shapes = [(draw(False), draw(True)) for _ in range(per_pass)]
        self.pres = pres
        self.dims_of = dims_of
        self.rng = random.Random(f"{seed}/{pres.name}")

    def conjugate(self, combo) -> ModuleSpec:
        """The sum of the indecomposables in `combo`, with fresh matrices."""
        summands = tuple(f"{kind}:{self.pres.vertices[v]}" for kind, v in combo)
        dims = [sum(self.dims_of(s)[v] for s in summands) for v in range(len(self.pres.vertices))]
        return ModuleSpec(summands, tuple(random_invertible(self.rng, d) for d in dims))

    def next_pass(self) -> list[tuple[ModuleSpec, ModuleSpec]]:
        return [(self.conjugate(m), self.conjugate(n)) for m, n in self.shapes]
