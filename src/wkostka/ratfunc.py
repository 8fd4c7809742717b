"""The fraction field Q(t), in reduced canonical form.

It holds the Lambda and Lambda' diagonals of a solved factorization, and
the test oracles compute in it; nothing on the path of Omega or of the
Green inner products loads it.  The gcd and the exact divisions are
exact.poly_gcd and exact.exact_div, looked up in exact on every call,
so that a wrapper put on either name there sees every call from here.
"""
from __future__ import annotations

import re

from . import exact
from .exact import ExactError, LaurentPoly, _ratio, _scalar


class RationalFunction:
    """An element of Q(t), kept in reduced canonical form.

    The denominator is a true polynomial (minimal exponent 0) with leading
    coefficient 1 and no common factor with the polynomial part of the
    numerator; any monomial unit is folded into the numerator, which may
    therefore carry negative exponents.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.const(num)
        if den is None:
            den = LaurentPoly.one()
        elif not isinstance(den, LaurentPoly):
            den = LaurentPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            return
        shift = num.min_exp - den.min_exp
        p = num.shift(-num.min_exp)
        q = den.shift(-den.min_exp)
        g = exact.poly_gcd(p, q)
        if not g.is_one:
            p = exact.exact_div(p, g)
            q = exact.exact_div(q, g)
        lead = q.coeffs[-1]
        if lead != 1:
            inv = _ratio(1, lead)
            p = p * inv
            q = q * inv
        self.num = p.shift(shift)
        self.den = q

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(LaurentPoly.zero())

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(LaurentPoly.one())

    @staticmethod
    def t_power(k: int, coeff=1) -> "RationalFunction":
        return RationalFunction(LaurentPoly.t_power(k, coeff))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def try_to_laurent(self) -> LaurentPoly:
        if not self.den.is_one:
            raise ExactError(
                f"denominator {self.den} is not a unit; value is a true rational function")
        return self.num

    def __add__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return other
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RationalFunction.__new__(RationalFunction)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return other
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return other
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce_rf(other)
        return other if other is NotImplemented else other / self

    def __eq__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return other
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def eval_at(self, q):
        d = self.den.eval_at(q)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {q}")
        return self.num.eval_at(q) / d

    def to_string(self) -> str:
        if self.den.is_one:
            return self.num.to_string()
        return f"({self.num.to_string()})/({self.den.to_string()})"

    def to_latex(self) -> str:
        if self.den.is_one:
            return self.num.to_latex()
        return (r"\frac{" + self.num.to_latex() + "}{"
                + self.den.to_latex() + "}")

    @staticmethod
    def parse(text: str) -> "RationalFunction":
        m = re.fullmatch(r"\((.*)\)/\((.*)\)", text.strip())
        if m:
            return RationalFunction(LaurentPoly.parse(m.group(1)),
                                    LaurentPoly.parse(m.group(2)))
        return RationalFunction(LaurentPoly.parse(text))

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"RationalFunction({self.to_string()!r})"


def _coerce_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, LaurentPoly) or _scalar(x) is not NotImplemented:
        return RationalFunction(x)
    return NotImplemented
