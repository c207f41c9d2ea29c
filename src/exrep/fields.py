"""Ground fields for all computations: the rationals or a prime field F_p.

Everything downstream is exact; there is no floating point anywhere in the
package.  Each rational has exactly one form: a plain int when it is
integral, a `fractions.Fraction` with denominator > 1 (in lowest terms)
otherwise.  `==`, `hash` and `str` agree between the two types, so keys and
printed text do not depend on it; the int form keeps integral work off
`Fraction` arithmetic.  Prime-field entries are plain ints in 0..p-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def q_canon(x):
    """The canonical form of a rational value: int when integral."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


def q_inv(a):
    """1/a for a nonzero canonical rational, canonical (1 / int is a float)."""
    if type(a) is int:
        return a if a == 1 or a == -1 else Fraction(1, a)
    return q_canon(1 / a)


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (p is None) or the prime field F_p."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None and not _is_prime(self.p):
            raise FieldError(f"{self.p} is not prime")

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return int(n) if self.p is None else n % self.p

    def add(self, a, b):
        return q_canon(a + b) if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return q_canon(a - b) if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return q_canon(a * b) if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return q_inv(a) if self.p is None else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, text: str):
        """Parse a rational literal "a" or "a/b" into a field element."""
        text = text.strip()
        try:
            if "/" in text:
                num_s, den_s = text.split("/", 1)
                num, den = int(num_s), int(den_s)
            else:
                num, den = int(text), 1
        except ValueError:
            raise FieldError(f"bad rational literal {text!r}") from None
        if den == 0:
            raise FieldError(f"zero denominator in {text!r}")
        if self.p is None:
            return q_canon(Fraction(num, den))
        return self.mul(self.from_int(num), self.inv(self.from_int(den)))

    def fmt(self, a) -> str:
        """Render in the literal syntax: "a" or "a/b" with b > 0, lowest terms."""
        if self.p is None:
            return str(a)
        return str(a % self.p)

    def name(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


RATIONALS = FieldSpec(None)
F2 = FieldSpec(2)


def field_from_name(name: str) -> FieldSpec:
    name = name.strip()
    if name in ("Q", "q"):
        return RATIONALS
    if name and name[0] in ("F", "f"):
        try:
            return FieldSpec(int(name[1:]))
        except ValueError:
            pass
    raise FieldError(f"unknown field {name!r} (expected Q or F<p>)")
