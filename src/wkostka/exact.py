"""Exact scalar and polynomial arithmetic.

Everything in this module is exact: Laurent polynomials in a single
variable t over the rationals, the fraction field Q(t), and the cyclotomic
polynomials Phi_r.  A Laurent coefficient is stored as an int where it is
integral and as a fractions.Fraction otherwise, so the production path
(whose Omega, P+- and Lambda are integral) computes over Z.  Q(t) only holds
the Lambda and Lambda' diagonals of a solved factorization and the test
oracles.  Every polynomial is stored densely, and one dense kernel computes
in Q[t, t^-1]: Q(t)'s gcd runs Euclid's algorithm on its division, and the
wreath oracle divides by Phi_r with it.  Values are immutable; all
operations return new objects and are safe to share between threads.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache


class ExactError(ValueError):
    """Raised on impossible exact conversions (e.g. a true rational function
    asked to become a Laurent polynomial)."""


def _exact(x):
    """x as an int where it is integral and as a Fraction otherwise."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class LaurentPoly:
    """A Laurent polynomial sum c_k t^k with exact rational coefficients.

    Exponents may be negative.  The representation is canonical and dense:
    coeffs[i] is the coefficient of t^(low + i), and neither end of coeffs
    is zero (the zero polynomial is low = 0, coeffs = ()).  A coefficient is
    an int where it is integral and a Fraction otherwise, so equal values
    compare and hash equal and integral values compute over Z.  Sums,
    products and exact division run through the dense kernel below.

    >>> p = LaurentPoly.parse("t^2 - t^-1")
    >>> str(p * p)
    't^4 - 2t + t^-2'
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, coeffs=None):
        terms = {}
        for e, v in (coeffs or {}).items():
            v = _exact(v)
            if v:
                terms[int(e)] = v
        self.low = min(terms, default=0)
        dense = [0] * (max(terms, default=-1) - self.low + 1)
        for e, v in terms.items():
            dense[e - self.low] = v
        self.coeffs = tuple(dense)

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
        cs, low = self.coeffs, self.low
        return tuple((low + i, cs[i]) for i in reversed(range(len(cs))) if cs[i])

    def coeff(self, e: int):
        i = e - self.low
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.low == 0 and self.coeffs == (1,)

    @property
    def min_exp(self) -> int:
        if not self.coeffs:
            raise ExactError("the zero polynomial has no exponents")
        return self.low

    @property
    def max_exp(self) -> int:
        if not self.coeffs:
            raise ExactError("the zero polynomial has no exponents")
        return self.low + len(self.coeffs) - 1

    def is_monomial(self) -> bool:
        return len(self.coeffs) == 1

    # -- ring operations ----------------------------------------------

    # Each operator tests for a LaurentPoly operand first, as isinstance
    # against Fraction (whose metaclass is ABCMeta) is the slow test.

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        low = min(self.low, other.low)
        return _laurent(low, _dense_add(_padded(self, low), _padded(other, low)))

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.low = self.low
        out.coeffs = tuple([-v for v in self.coeffs])
        return out

    def __sub__(self, other):
        if not isinstance(other, (LaurentPoly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return _laurent(self.low + other.low,
                            _dense_mul(self.coeffs, other.coeffs))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        f = _exact(other)
        return _laurent(self.low, [v * f if v else v for v in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.is_monomial():
                raise ExactError("negative power of a non-monomial")
            return LaurentPoly({self.low * n: Fraction(self.coeffs[0]) ** n})
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(other)
        return self.low == other.low and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.items())

    # -- shifts and substitutions ---------------------------------------

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        if not k or not self.coeffs:
            return self
        out = LaurentPoly.__new__(LaurentPoly)
        out.low = self.low + k
        out.coeffs = self.coeffs
        return out

    def reciprocal_var(self) -> "LaurentPoly":
        """Substitute t -> t^-1."""
        return _laurent(1 - self.low - len(self.coeffs), self.coeffs[::-1])

    def eval_at(self, q) -> Fraction:
        q = Fraction(_exact(q))
        if q == 0 and self.coeffs and self.low < 0:
            raise ExactError("cannot evaluate negative exponents at 0")
        return sum((v * q ** e for e, v in self.items()), Fraction(0))

    # -- predicates used by the IC transforms ---------------------------

    def is_poly_in_tr(self, r: int) -> bool:
        """True iff every exponent present is nonnegative and divisible by r:
        the low exponent is, and every coefficient off the stride r is zero
        (the zeros of coeffs are the off-stride slots and the zeros on it)."""
        cs = self.coeffs
        on_stride = cs[::r]
        return self.low >= 0 and self.low % r == 0 and \
            cs.count(0) == len(cs) - len(on_stride) + on_stride.count(0)

    def root_var(self, r: int) -> "LaurentPoly":
        """Substitute t -> t^(1/r); requires is_poly_in_tr(r)."""
        if not self.is_poly_in_tr(r):
            raise ExactError(f"not a polynomial in t^{r}")
        return _laurent(self.low // r, self.coeffs[::r])

    def has_nonneg_int_coeffs(self) -> bool:
        # A Fraction coefficient is never integral (see the class docstring).
        return Fraction not in map(type, self.coeffs) and \
            min(self.coeffs, default=0) >= 0

    # -- printing -------------------------------------------------------

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, v in self.items():
            mag = -v if v < 0 else v
            if e == 0:
                body = str(mag)
            else:
                tpart = "t" if e == 1 else f"t^{e}"
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

    def to_latex(self) -> str:
        s = self.to_string()
        return re.sub(r"\^(-?\d+)", r"^{\1}", s)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"LaurentPoly({self.to_string()!r})"

    # -- parsing --------------------------------------------------------

    @staticmethod
    def parse(text: str) -> "LaurentPoly":
        """Parse the canonical grammar, plus products of parenthesised
        factors for convenience, e.g. "t^-3*(t^9 - 1)".

        >>> str(LaurentPoly.parse("t^-3*(t^9 - 1)"))
        't^6 - t^-3'
        """
        return _PolyParser(text).parse()


_TOKEN_RE = re.compile(r"\s*(\d+|[()+\-*/^]|[A-Za-z]+)")


class _PolyParser:
    def __init__(self, text: str):
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
            if nxt == "(" or nxt == "t" or (nxt is not None and nxt.isdigit()):
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
        if tok == "t":
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
# dense polynomial arithmetic (internal).  A "dense" poly is a sequence of
# coefficients, index = exponent: a LaurentPoly's coeffs, offset by its low
# exponent, or a vector of zeta powers that the wreath oracle reduces modulo
# Phi_r.  Coefficients are ints or Fractions, and on ints the helpers stay
# in Z wherever the result is integral.  Zero slots are skipped, as Laurent
# values are often sparse inside their span.
# ---------------------------------------------------------------------------


def _laurent(low: int, cs) -> LaurentPoly:
    """The LaurentPoly sum cs[i] t^(low + i), zeros trimmed from both ends
    and integral Fractions stored as ints."""
    hi = len(cs)
    while hi and not cs[hi - 1]:
        hi -= 1
    lo = 0
    while lo < hi and not cs[lo]:
        lo += 1
    cs = tuple(cs[lo:hi])
    if Fraction in map(type, cs):
        cs = tuple(map(_exact, cs))
    out = LaurentPoly.__new__(LaurentPoly)
    out.low = low + lo if hi else 0
    out.coeffs = cs
    return out


def _padded(p: LaurentPoly, low: int) -> tuple:
    """p's coefficients from t^low up (low <= p.low)."""
    return (0,) * (p.low - low) + p.coeffs


def _strip(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _dense_add(a, b) -> list:
    """a + b, trailing zeros stripped."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        if c:
            out[k] = out[k] + c
    return _strip(out)


def _dense_mul(a, b) -> list:
    """a * b."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def _dense_divmod(num, den) -> tuple:
    """Quotient and remainder of num by den (whose last coefficient is its
    nonzero leading one), both with trailing zeros stripped.

    A step whose int coefficient the int leading coefficient divides stays
    in Z; any other step multiplies by 1 / lead, a Fraction."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    int_lead = type(lead) is int
    lead_inv = Fraction(1, lead)
    lower = [(j, d) for j, d in enumerate(den[:dn]) if d]
    quot = [0] * max(len(num) - dn, 0)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if not c:
            continue
        if int_lead and type(c) is int and not c % lead:
            q = c // lead
        else:
            q = c * lead_inv
        quot[k - dn] = q
        for j, d in lower:
            num[k - dn + j] -= q * d
    # Each num[k] above would cancel to zero; none is read again.
    return _strip(quot), _strip(num[:dn])


def poly_gcd(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Monic gcd in Q[t] of two polynomials with nonnegative exponents.

    Euclid's algorithm on the dense kernel: each remainder comes from
    _dense_divmod and is scaled to be monic, so an integral divisor keeps
    the next remainder in Z.
    """
    if p.is_zero:
        return _monic(q)
    if q.is_zero:
        return _monic(p)
    if p.low < 0 or q.low < 0:
        raise ExactError("negative exponents in polynomial context")
    a, b = _padded(p, 0), _padded(q, 0)
    while b:
        if b[-1] != 1:
            inv = Fraction(1, b[-1])
            b = [_exact(c * inv) for c in b]
        a, b = b, _dense_divmod(a, b)[1]
    return _laurent(0, a)


def _monic(p: LaurentPoly) -> LaurentPoly:
    if p.is_zero:
        return p
    return p * Fraction(1, p.coeffs[-1])


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact division of Laurent polynomials; raises if not divisible."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero:
        return num
    quot, rem = _dense_divmod(num.coeffs, den.coeffs)
    if rem:
        raise ExactError("inexact polynomial division")
    return _laurent(num.low - den.low, quot)


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
        lead = q.coeffs[-1]
        if lead != 1:
            inv = Fraction(1, lead)
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
    if isinstance(x, (int, Fraction, LaurentPoly)):
        return RationalFunction(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# cyclotomic polynomials
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
            quot, rem = _dense_divmod(coeffs, cyclotomic_polynomial(d))
            assert not rem
            coeffs = [int(c) for c in quot]
    return tuple(coeffs)


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

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.index.items == other.index.items and self.rows == other.rows

    def __repr__(self):
        return f"PolyMatrix({self.size}x{self.size})"
