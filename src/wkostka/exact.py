"""Exact scalar and polynomial arithmetic.

Everything in this module is exact: Laurent polynomials in a single
variable t over the rationals (fractions.Fraction), the fraction field Q(t),
and elements of the cyclotomic field Q(zeta_r).  The production path computes
in the Laurent ring; Q(t) only holds the Lambda and Lambda' diagonals of a
solved factorization, the transcribed fixtures and the test oracles.  Values
are immutable; all operations return new objects and are safe to share
between threads.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

class ExactError(ValueError):
    """Raised on impossible exact conversions (e.g. a true rational function
    asked to become a Laurent polynomial)."""


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class LaurentPoly:
    """A Laurent polynomial sum c_k t^k with exact rational coefficients.

    Exponents may be negative.  The representation is canonical: no zero
    coefficient is ever stored, so equal values compare and hash equal.

    >>> p = LaurentPoly.parse("t^2 - t^-1")
    >>> str(p * p)
    't^4 - 2t + t^-2'
    """

    __slots__ = ("_c", "_key")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _as_fraction(v)
                if v:
                    c[int(e)] = v
        self._c = c
        self._key = tuple(sorted(c.items(), reverse=True))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def t_power(k: int, coeff=1) -> "LaurentPoly":
        return LaurentPoly({k: coeff})

    @staticmethod
    def const(v) -> "LaurentPoly":
        return LaurentPoly({0: v})

    # -- structure ----------------------------------------------------

    def items(self):
        """Terms as (exponent, coefficient), highest exponent first."""
        return self._key

    def coeff(self, e: int) -> Fraction:
        return self._c.get(e, _ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def is_one(self) -> bool:
        return self._key == ((0, _ONE),)

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ExactError("the zero polynomial has no exponents")
        return self._key[-1][0]

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ExactError("the zero polynomial has no exponents")
        return self._key[0][0]

    def is_monomial(self) -> bool:
        return len(self._c) == 1

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, _ZERO) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._key = tuple(sorted(c.items(), reverse=True))
        return out

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            if not f:
                return LaurentPoly.zero()
            return LaurentPoly({e: v * f for e, v in self._c.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                w = c.get(e, _ZERO) + v1 * v2
                if w:
                    c[e] = w
                else:
                    c.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._key = tuple(sorted(c.items(), reverse=True))
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.is_monomial():
                raise ExactError("negative power of a non-monomial")
            e, v = self._key[0]
            return LaurentPoly({e * n: v ** n})
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    # -- shifts and substitutions ---------------------------------------

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly({e + k: v for e, v in self._c.items()})

    def scale_exponents(self, k: int) -> "LaurentPoly":
        """Substitute t -> t^k (k may be negative but not zero)."""
        if k == 0:
            raise ExactError("exponent scale factor must be nonzero")
        return LaurentPoly({e * k: v for e, v in self._c.items()})

    def substitute_tr(self, r: int) -> "LaurentPoly":
        """The polynomial f(t^r) obtained from f(t)."""
        if r < 1:
            raise ExactError("substitution power must be >= 1")
        return self.scale_exponents(r)

    def reciprocal_var(self) -> "LaurentPoly":
        """Substitute t -> t^-1."""
        return self.scale_exponents(-1)

    def eval_at(self, q) -> Fraction:
        q = _as_fraction(q)
        if q == 0 and self._c and self.min_exp < 0:
            raise ExactError("cannot evaluate negative exponents at 0")
        total = _ZERO
        for e, v in self._c.items():
            total += v * q ** e
        return total

    # -- predicates used by the IC transforms ---------------------------

    def is_poly_in_tr(self, r: int) -> bool:
        """True iff every exponent present is nonnegative and divisible by r."""
        return all(e >= 0 and e % r == 0 for e in self._c)

    def descale_exponents(self, r: int) -> "LaurentPoly":
        """Inverse of substitute_tr; requires is_poly_in_tr(r)."""
        if not self.is_poly_in_tr(r):
            raise ExactError(f"not a polynomial in t^{r}")
        return LaurentPoly({e // r: v for e, v in self._c.items()})

    def has_nonneg_int_coeffs(self) -> bool:
        return all(v.denominator == 1 and v >= 0 for _, v in self._key)

    def has_int_coeffs(self) -> bool:
        return all(v.denominator == 1 for _, v in self._key)

    # -- printing -------------------------------------------------------

    def to_string(self, var: str = "t") -> str:
        if not self._key:
            return "0"
        parts = []
        for e, v in self._key:
            mag = -v if v < 0 else v
            if e == 0:
                body = str(mag)
            else:
                tpart = var if e == 1 else f"{var}^{e}"
                if mag == 1:
                    body = tpart
                elif mag.denominator == 1:
                    body = f"{mag}{tpart}"
                else:
                    body = f"{mag}*{tpart}"
            if not parts:
                parts.append(body if v > 0 else "-" + body)
            else:
                parts.append((" + " if v > 0 else " - ") + body)
        return "".join(parts)

    def to_latex(self, var: str = "t") -> str:
        s = self.to_string(var)
        return re.sub(r"\^(-?\d+)", r"^{\1}", s)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"LaurentPoly({self.to_string()!r})"

    # -- parsing --------------------------------------------------------

    @staticmethod
    def parse(text: str, var: str = "t") -> "LaurentPoly":
        """Parse the canonical grammar, plus products of parenthesised
        factors for convenience, e.g. "t^-3*(t^9 - 1)".

        >>> str(LaurentPoly.parse("t^-3*(t^9 - 1)"))
        't^6 - t^-3'
        """
        return _PolyParser(text, var).parse()


_TOKEN_RE = re.compile(r"\s*(\d+|[()+\-*/^]|[A-Za-z]+)")


class _PolyParser:
    def __init__(self, text: str, var: str):
        self.var = var
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ExactError(f"cannot tokenize {text[pos:]!r}")
                break
            self.tokens.append(m.group(1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self) -> LaurentPoly:
        p = self.sum()
        if self.peek() is not None:
            raise ExactError(f"trailing input at token {self.peek()!r}")
        return p

    def sum(self) -> LaurentPoly:
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        total = self.product() * sign
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self.product()
            total = total + term if op == "+" else total - term
        return total

    def product(self) -> LaurentPoly:
        p = self.atomseq()
        while self.peek() == "*":
            self.take()
            p = p * self.atomseq()
        return p

    def atomseq(self) -> LaurentPoly:
        # juxtaposition binds tighter than '*': "2t^3", "t^-1(t-1)"
        p = self.atom()
        while True:
            nxt = self.peek()
            if nxt == "(" or nxt == self.var or (nxt is not None and nxt.isdigit()):
                p = p * self.atom()
            else:
                return p

    def _int(self) -> int:
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ExactError(f"expected an integer, got {tok!r}")
        return int(tok)

    def _exponent(self) -> int:
        neg = False
        if self.peek() == "-":
            self.take()
            neg = True
        k = self._int()
        return -k if neg else k

    def atom(self) -> LaurentPoly:
        tok = self.peek()
        if tok is None:
            raise ExactError("unexpected end of input")
        if tok == "(":
            self.take()
            p = self.sum()
            if self.take() != ")":
                raise ExactError("missing closing parenthesis")
            if self.peek() == "^":
                self.take()
                return p ** self._exponent()
            return p
        if tok == self.var:
            self.take()
            e = 1
            if self.peek() == "^":
                self.take()
                e = self._exponent()
            return LaurentPoly.t_power(e)
        if tok.isdigit():
            num = self._int()
            val = Fraction(num)
            if self.peek() == "/":
                self.take()
                val = Fraction(num, self._int())
            if self.peek() == "^":
                self.take()
                val = val ** self._exponent()
            return LaurentPoly.const(val)
        raise ExactError(f"unexpected token {tok!r}")


# ---------------------------------------------------------------------------
# dense nonnegative-exponent polynomial helpers (internal, used for gcd and
# exact division).  A "dense" poly is a list of Fractions, index = exponent.
# ---------------------------------------------------------------------------


def _dense(p: LaurentPoly) -> list:
    if p.is_zero:
        return []
    if p.min_exp < 0:
        raise ExactError("negative exponents in polynomial context")
    out = [_ZERO] * (p.max_exp + 1)
    for e, v in p.items():
        out[e] = v
    return out


def _from_dense(cs) -> LaurentPoly:
    return LaurentPoly({e: v for e, v in enumerate(cs) if v})


def _dense_divmod(num: list, den: list) -> tuple:
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    quot = [_ZERO] * max(len(num) - dn, 0)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if not c:
            continue
        q = c / lead
        quot[k - dn] = q
        for j in range(dn + 1):
            num[k - dn + j] -= q * den[j]
    while num and not num[-1]:
        num.pop()
    while quot and not quot[-1]:
        quot.pop()
    return quot, num


def _int_primitive(cs: list) -> list:
    g = 0
    for c in cs:
        g = gcd(g, abs(c))
        if g == 1:
            break
    if g > 1:
        cs = [c // g for c in cs]
    if cs and cs[-1] < 0:
        cs = [-c for c in cs]
    return cs


def _int_pseudo_rem(a: list, b: list) -> list:
    """Pseudo-remainder of integer polynomials (lead(b)^k * a mod b)."""
    a = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(a) - 1 >= db and a:
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - db
        c = a[-1]
        a = [v * lead for v in a]
        for j in range(db + 1):
            a[shift + j] -= c * b[j]
        while a and a[-1] == 0:
            a.pop()
    return a


def poly_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Monic gcd in Q[t] of two polynomials with nonnegative exponents.

    Computed by a primitive pseudo-remainder sequence over Z after clearing
    denominators, so coefficients never leave the integers mid-stream.
    """
    if p.is_zero:
        return _monic(q)
    if q.is_zero:
        return _monic(p)
    a = _clear_denominators(_dense(p))
    b = _clear_denominators(_dense(q))
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_pseudo_rem(a, b)
        a, b = b, _int_primitive(r)
    a = _int_primitive(a)
    lead = Fraction(a[-1])
    return _from_dense([Fraction(c) / lead for c in a])


def _clear_denominators(cs: list) -> list:
    denom = 1
    for c in cs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    return [int(c * denom) for c in cs]


def _monic(p: LaurentPoly) -> LaurentPoly:
    if p.is_zero:
        return p
    return p * (1 / p.items()[0][1])


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division of Laurent polynomials; raises if not divisible."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero:
        return num
    shift = num.min_exp - den.min_exp
    quot, rem = _dense_divmod(_dense(num.shift(-num.min_exp)),
                              _dense(den.shift(-den.min_exp)))
    if rem:
        raise ExactError("inexact polynomial division")
    return _from_dense(quot).shift(shift)


class RationalFunction:
    """An element of Q(t), kept in reduced canonical form.

    The denominator is a true polynomial (minimal exponent 0) with leading
    coefficient 1 and no common factor with the polynomial part of the
    numerator; any monomial unit is folded into the numerator, which may
    therefore carry negative exponents.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = LaurentPoly.const(num)
        if den is None:
            den = LaurentPoly.one()
        elif isinstance(den, (int, Fraction)):
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
        g = poly_gcd(p, q)
        if not g.is_one:
            p = exact_div(p, g)
            q = exact_div(q, g)
        lead = q.items()[0][1]
        if lead != 1:
            inv = 1 / lead
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
        return (-self) + other

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
        return _coerce_rf(other) / self

    def __eq__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return other
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def eval_at(self, q) -> Fraction:
        d = self.den.eval_at(q)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {q}")
        return self.num.eval_at(q) / d

    def to_string(self, var: str = "t") -> str:
        if self.den.is_one:
            return self.num.to_string(var)
        return f"({self.num.to_string(var)})/({self.den.to_string(var)})"

    def to_latex(self, var: str = "t") -> str:
        if self.den.is_one:
            return self.num.to_latex(var)
        return (r"\frac{" + self.num.to_latex(var) + "}{"
                + self.den.to_latex(var) + "}")

    @staticmethod
    def parse(text: str, var: str = "t") -> "RationalFunction":
        m = re.fullmatch(r"\((.*)\)/\((.*)\)", text.strip())
        if m:
            return RationalFunction(LaurentPoly.parse(m.group(1), var),
                                    LaurentPoly.parse(m.group(2), var))
        return RationalFunction(LaurentPoly.parse(text, var))

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"RationalFunction({self.to_string()!r})"


def _coerce_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction, LaurentPoly)):
        return RationalFunction(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# cyclotomic field Q(zeta_r) = Q[x]/(Phi_r)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple:
    """Integer coefficients of Phi_r, constant term first.

    >>> cyclotomic_polynomial(3)
    (1, 1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if r < 1:
        raise ExactError("conductor must be positive")
    coeffs = [-1] + [0] * (r - 1) + [1]  # x^r - 1
    for d in range(1, r):
        if r % d == 0:
            phi_d = cyclotomic_polynomial(d)
            quot, rem = _dense_divmod([Fraction(c) for c in coeffs],
                                      [Fraction(c) for c in phi_d])
            assert not rem
            coeffs = [int(c) for c in quot]
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _reduction_rows(r: int) -> tuple:
    """Coordinates of x^k mod Phi_r for k = 0 .. 2*(deg-1)."""
    phi = cyclotomic_polynomial(r)
    deg = len(phi) - 1
    rows = []
    cur = [_ZERO] * deg
    if deg:
        cur[0] = _ONE
    for _ in range(2 * deg - 1 if deg else 1):
        rows.append(tuple(cur))
        nxt = [_ZERO] + cur[:-1] if deg else []
        carry = cur[-1] if deg else _ZERO
        if deg:
            nxt = nxt[:deg]
            if carry:
                for j in range(deg):
                    nxt[j] -= carry * phi[j]
        cur = nxt
    return tuple(rows)


class Cyclotomic:
    """An element of Q(zeta_r) in coordinates w.r.t. 1, zeta, ..., zeta^(phi(r)-1)."""

    __slots__ = ("r", "coords")

    def __init__(self, r: int, coords):
        deg = len(cyclotomic_polynomial(r)) - 1
        coords = tuple(_as_fraction(c) for c in coords)
        if len(coords) != deg:
            raise ExactError(f"expected {deg} coordinates for conductor {r}")
        self.r = r
        self.coords = coords

    @staticmethod
    def from_rational(r: int, v) -> "Cyclotomic":
        deg = len(cyclotomic_polynomial(r)) - 1
        return Cyclotomic(r, (_as_fraction(v),) + (_ZERO,) * (deg - 1))

    @staticmethod
    def zeta(r: int, k: int = 1) -> "Cyclotomic":
        """zeta_r^k, reduced mod Phi_r."""
        rows = _reduction_rows(r)
        k %= r
        deg = len(cyclotomic_polynomial(r)) - 1
        if k < deg:
            coords = [_ZERO] * deg
            coords[k] = _ONE
            return Cyclotomic(r, coords)
        # reduce x^k by repeated squaring within the quotient ring
        result = Cyclotomic.from_rational(r, 1)
        base = Cyclotomic(r, rows[1]) if deg > 1 else Cyclotomic(r, rows[0])
        if deg == 1:
            # zeta is rational: 1 for r = 1, -1 for r = 2
            base = Cyclotomic.from_rational(r, 1 if r == 1 else -1)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _check(self, other: "Cyclotomic"):
        if self.r != other.r:
            raise ExactError("mixed cyclotomic conductors")

    @property
    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.r, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check(other)
        return Cyclotomic(self.r, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.r, tuple(-a for a in self.coords))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.r, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check(other)
        return Cyclotomic(self.r, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            return Cyclotomic(self.r, tuple(a * f for a in self.coords))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        self._check(other)
        deg = len(self.coords)
        conv = [_ZERO] * (2 * deg - 1)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    conv[i + j] += a * b
        rows = _reduction_rows(self.r)
        out = [_ZERO] * deg
        for k, c in enumerate(conv):
            if c:
                row = rows[k]
                for j in range(deg):
                    if row[j]:
                        out[j] += c * row[j]
        return Cyclotomic(self.r, out)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero cyclotomic")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.r)]
        a = list(self.coords)
        while a and not a[-1]:
            a.pop()
        # extended gcd of a and phi in Q[x]
        r0, r1 = a, phi
        s0, s1 = [_ONE], []
        while r1:
            q, rem = _dense_divmod(r0, r1)
            r0, r1 = r1, rem
            # s_new = s0 - q*s1
            prod = [_ZERO] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, qc in enumerate(q):
                if not qc:
                    continue
                for j, sc in enumerate(s1):
                    prod[i + j] += qc * sc
            ln = max(len(s0), len(prod))
            s_new = [(s0[k] if k < len(s0) else _ZERO) -
                     (prod[k] if k < len(prod) else _ZERO) for k in range(ln)]
            while s_new and not s_new[-1]:
                s_new.pop()
            s0, s1 = s1, s_new
        if len(r0) != 1:
            raise ExactError("element is a zero divisor (should not happen over a field)")
        scale = 1 / r0[0]
        deg = len(self.coords)
        inv = [c * scale for c in s0][:deg]
        inv += [_ZERO] * (deg - len(inv))
        return Cyclotomic(self.r, inv)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = _as_fraction(other)
            return Cyclotomic(self.r, tuple(a / f for a in self.coords))
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(self.r, other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.r == other.r and self.coords == other.coords

    def __hash__(self):
        return hash((self.r, self.coords))

    def is_rational(self) -> bool:
        return all(not c for c in self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ExactError(f"{self} is not rational")
        return self.coords[0]

    def approx_complex(self) -> complex:
        from cmath import exp, pi
        z = exp(2j * pi / self.r)
        return sum(complex(c) * z ** k for k, c in enumerate(self.coords))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coords):
            if not c:
                continue
            base = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
            parts.append(f"{c}*{base}" if k else str(c))
        return " + ".join(parts)

    def __repr__(self):
        return f"Cyclotomic(r={self.r}, {self})"


def from_zeta_power(k: int, r: int) -> Cyclotomic:
    """zeta_r^k as an element of Q(zeta_r)."""
    return Cyclotomic.zeta(r, k)


class ZetaPoly:
    """A polynomial in t with coefficients in Q(zeta_r).

    Only what the wreath-product fake-degree computation needs: ring
    operations, monic products, and exact division.  Coefficients are stored
    densely, constant term first.
    """

    __slots__ = ("r", "coeffs")

    def __init__(self, r: int, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.r = r
        self.coeffs = tuple(cs)

    @staticmethod
    def from_scalar(r: int, c) -> "ZetaPoly":
        if isinstance(c, (int, Fraction)):
            c = Cyclotomic.from_rational(r, c)
        return ZetaPoly(r, [c])

    @staticmethod
    def from_laurent(r: int, p: LaurentPoly) -> "ZetaPoly":
        if not p.is_zero and p.min_exp < 0:
            raise ExactError("negative exponents cannot enter ZetaPoly")
        size = 0 if p.is_zero else p.max_exp + 1
        cs = [Cyclotomic.from_rational(r, 0)] * size
        for e, v in p.items():
            cs[e] = Cyclotomic.from_rational(r, v)
        return ZetaPoly(r, cs)

    @staticmethod
    def binomial(r: int, degree: int, constant: Cyclotomic) -> "ZetaPoly":
        """t^degree + constant."""
        zero = Cyclotomic.from_rational(r, 0)
        cs = [zero] * (degree + 1)
        cs[0] = constant
        cs[degree] = Cyclotomic.from_rational(r, 1)
        return ZetaPoly(r, cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        if not isinstance(other, ZetaPoly):
            return NotImplemented
        zero = Cyclotomic.from_rational(self.r, 0)
        n = max(len(self.coeffs), len(other.coeffs))
        return ZetaPoly(self.r, [
            (self.coeffs[k] if k < len(self.coeffs) else zero) +
            (other.coeffs[k] if k < len(other.coeffs) else zero)
            for k in range(n)])

    def __neg__(self):
        return ZetaPoly(self.r, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return ZetaPoly(self.r, [c * other for c in self.coeffs])
        if not isinstance(other, ZetaPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZetaPoly(self.r, [])
        zero = Cyclotomic.from_rational(self.r, 0)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return ZetaPoly(self.r, out)

    __rmul__ = __mul__

    def divmod(self, den: "ZetaPoly") -> tuple:
        if den.is_zero:
            raise ZeroDivisionError("ZetaPoly division by zero")
        zero = Cyclotomic.from_rational(self.r, 0)
        num = list(self.coeffs)
        dn = den.degree
        lead_inv = den.coeffs[-1].inverse()
        quot = [zero] * max(len(num) - dn, 0)
        for k in range(len(num) - 1, dn - 1, -1):
            c = num[k]
            if c.is_zero:
                continue
            q = c * lead_inv
            quot[k - dn] = q
            for j in range(dn + 1):
                num[k - dn + j] = num[k - dn + j] - q * den.coeffs[j]
        return ZetaPoly(self.r, quot), ZetaPoly(self.r, num)

    def exact_div(self, den: "ZetaPoly") -> "ZetaPoly":
        quot, rem = self.divmod(den)
        if not rem.is_zero:
            raise ExactError("inexact ZetaPoly division")
        return quot

    def to_laurent(self) -> LaurentPoly:
        """Convert to a rational-coefficient polynomial; raises if any
        coefficient has a nonzero zeta component."""
        return LaurentPoly({e: c.as_rational() for e, c in enumerate(self.coeffs)
                            if not c.is_zero})

    def __eq__(self, other):
        if not isinstance(other, ZetaPoly):
            return NotImplemented
        return self.r == other.r and self.coeffs == other.coeffs

    def __repr__(self):
        return f"ZetaPoly(r={self.r}, deg={self.degree if self.coeffs else '-inf'})"


# ---------------------------------------------------------------------------
# matrices over an exact coefficient ring
# ---------------------------------------------------------------------------


class PolyMatrix:
    """A square matrix of exact entries indexed by an ordered set of
    r-partitions (anything exposing .items and .position works)."""

    __slots__ = ("index", "rows")

    def __init__(self, index, rows):
        rows = tuple(tuple(row) for row in rows)
        k = len(index.items)
        if len(rows) != k or any(len(row) != k for row in rows):
            raise ExactError("matrix shape does not match its index")
        self.index = index
        self.rows = rows

    def entry(self, lam, mu):
        return self.rows[self.index.position(lam)][self.index.position(mu)]

    @property
    def size(self) -> int:
        return len(self.rows)

    def scale_diag_right(self, diag) -> "PolyMatrix":
        """Multiply on the right by Diag(diag) (column scaling)."""
        return PolyMatrix(self.index, tuple(
            tuple(entry * diag[j] for j, entry in enumerate(row))
            for row in self.rows))

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.index.items == other.index.items and self.rows == other.rows

    def __repr__(self):
        return f"PolyMatrix({self.size}x{self.size})"
