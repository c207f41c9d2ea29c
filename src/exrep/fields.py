"""Ground fields for all computations: the rationals or a prime field F_p.

Everything downstream is exact; there is no floating point anywhere in the
package.  Rational entries are `fractions.Fraction` (always in lowest terms),
prime-field entries are plain ints in the range 0..p-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# Fractions are immutable, so one instance of each constant serves every caller
Q_ZERO = Fraction(0)
Q_ONE = Fraction(1)


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
        return Q_ZERO if self.p is None else 0

    def one(self):
        return Q_ONE if self.p is None else 1

    def from_int(self, n: int):
        return Fraction(n) if self.p is None else n % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.p is None else pow(a, -1, self.p)

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
            return Fraction(num, den)
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
