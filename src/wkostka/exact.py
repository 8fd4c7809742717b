"""Exact scalar and polynomial arithmetic.

Everything in this module is exact: Laurent polynomials in a single
variable t over the rationals, and matrices of them.  A Laurent coefficient
is stored as an int where it is integral and as a fractions.Fraction
otherwise, so the production path (whose Omega, P+- and Lambda are
integral) computes over Z, and Q (the fractions module) loads only when a
non-integral value appears.  Every polynomial is stored densely, and one
dense kernel computes in Q[t, t^-1]: the gcd of Q[t] runs Euclid's
algorithm on its division, and the wreath oracle divides by Phi_r with it.
One Kronecker codec (_packed, _unpacked) turns an integral Laurent
polynomial into an integer at t = 2^bits and back, for the solver and the
wreath oracle.  The fraction field Q(t) lives in ratfunc, which only the
solver and the tests load; exact.RationalFunction still names it.  Values
are immutable; all operations return new objects and are safe to share
between threads.
"""
from __future__ import annotations

import re
from functools import lru_cache


class ExactError(ValueError):
    """Raised on impossible exact conversions (e.g. a true rational function
    asked to become a Laurent polynomial)."""


def _scalar(x):
    """x as an exact scalar, an int where it is integral and a Fraction
    otherwise; NotImplemented when x is neither an int nor a Fraction."""
    if isinstance(x, int):
        return int(x)
    from fractions import Fraction
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    return NotImplemented


def _exact(x):
    """_scalar(x), or a TypeError for a value that is no exact rational."""
    v = _scalar(x)
    if v is NotImplemented:
        raise TypeError(f"expected an exact rational, got {type(x).__name__}")
    return v


def _ratio(num, den):
    """num / den, exactly: an int where it is integral, else a Fraction."""
    if type(num) is int and type(den) is int and not num % den:
        return num // den
    from fractions import Fraction
    return _exact(Fraction(num, den))


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

    # Each operator tests for a LaurentPoly operand first and _scalar for an
    # int next, as isinstance against Fraction (whose metaclass is ABCMeta)
    # is the slow test, and Q loads only for an operand that is no int.

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = _scalar(other)
            if other is NotImplemented:
                return other
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
        other = other if isinstance(other, LaurentPoly) else _scalar(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return _laurent(self.low + other.low,
                            _dense_mul(self.coeffs, other.coeffs))
        f = _scalar(other)
        if f is NotImplemented:
            return f
        return _laurent(self.low, [v * f if v else v for v in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.is_monomial():
                raise ExactError("negative power of a non-monomial")
            return LaurentPoly({self.low * n: _ratio(1, self.coeffs[0] ** -n)})
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
            other = _scalar(other)
            if other is NotImplemented:
                return other
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

    def eval_at(self, q):
        """The value at t = q, a Fraction."""
        from fractions import Fraction
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
        # A Fraction coefficient is never integral (see the class docstring);
        # one makes the sum a Fraction.
        return type(sum(self.coeffs)) is int and \
            min(self.coeffs, default=0) >= 0

    # -- printing -------------------------------------------------------

    def to_string(self) -> str:
        return _text(self.low, self.coeffs)

    def to_latex(self) -> str:
        return _text(self.low, self.coeffs, "t^{%d}")

    __str__ = to_string

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
        return _parse(text)


@lru_cache(maxsize=None)
def _text(low: int, coeffs: tuple, power: str = "t^%d") -> str:
    """The printed sum coeffs[i] t^(low + i), highest power first, with
    each power of t but t itself written as power % exponent.  Solved
    tables repeat few values, so each is formatted once per process."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        v = coeffs[i]
        if not v:
            continue
        e, mag = low + i, -v if v < 0 else v
        tpart = "" if e == 0 else "t" if e == 1 else power % e
        body = str(mag) if e == 0 else tpart if mag == 1 else \
            f"{mag}{tpart}" if mag.denominator == 1 else f"{mag}*{tpart}"
        sign = (" + " if v > 0 else " - ") if parts else "" if v > 0 else "-"
        parts.append(sign + body)
    return "".join(parts) or "0"


# A pattern, not a compiled one: re compiles it on the first parse and
# keeps it in its cache, so that a command that parses nothing never does.
_TOKEN = r"\s*(\d+|[()+\-*/^]|[A-Za-z]+)"


def _parse(text: str) -> LaurentPoly:
    """Recursive descent over three rules, where juxtaposition is "*":
    sum = [+|-] product {(+|-) product},  product = factor {[*] factor},
    factor = ("(" sum ")" | "t" | n ["/" d]) ["^" ["-"] e]."""
    junk = re.sub(_TOKEN, "", text).split()
    if junk:
        raise ExactError(f"cannot tokenize {junk[0]!r}")
    toks = re.findall(_TOKEN, text)[::-1]  # a stack: the next token is last

    def fail(tok):
        raise ExactError(f"unexpected token {tok!r}" if tok
                         else "unexpected end of input")

    def take(*wanted):
        """The next token, popped; "" at the end or when it is not wanted."""
        if toks and (not wanted or toks[-1] in wanted):
            return toks.pop()
        return ""

    def natural():
        tok = take()
        return int(tok) if tok.isdigit() else fail(tok)

    def sum_():
        total, op = LaurentPoly.zero(), take("+", "-") or "+"
        while op:
            total += product() if op == "+" else -product()
            op = take("+", "-")
        return total

    def product():
        p = factor()
        while take("*") or toks and (toks[-1] in ("(", "t")
                                     or toks[-1].isdigit()):
            p = p * factor()
        return p

    def factor():
        tok = take()
        if tok == "(":
            p = sum_()
            if not take(")"):
                fail(take())
        elif tok == "t":
            p = LaurentPoly.t_power(1)
        elif tok.isdigit():
            den = natural() if take("/") else 1
            if not den:
                raise ExactError(f"zero denominator in {text!r}")
            p = LaurentPoly.const(_ratio(int(tok), den))
        else:
            fail(tok)
        if take("^"):
            p = p ** (-natural() if take("-") else natural())
        return p

    p = sum_()
    if toks:
        fail(toks[-1])
    return p


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
    if type(sum(cs)) is not int:  # one Fraction makes it one
        cs = tuple(map(_exact, cs))
    out = LaurentPoly.__new__(LaurentPoly)
    out.low = low + lo if hi else 0
    out.coeffs = cs
    return out


# The Kronecker codec: an integral Laurent polynomial packs to an integer at
# t = 2^bits, about its own low exponent.  A zero value gets the offset
# _NO_LOW, above every real one, so that it never sets the base of a sum.
_NO_LOW = 1 << 40


def _packed(p: LaurentPoly, bits: int) -> tuple:
    """(offset, v) of p: bits times p's low exponent, and p * t^-low at
    t = 2^bits.  A zero p packs to (_NO_LOW, 0)."""
    if not p.coeffs:
        return _NO_LOW, 0
    v = 0
    for c in reversed(p.coeffs):
        v = (v << bits) + c
    return bits * p.low, v


def _unpacked(v: int, low: int, bits: int) -> LaurentPoly:
    """The Laurent polynomial t^low * sum c_i t^i whose balanced base-2^bits
    digits c_i, each in [-2^(bits-1), 2^(bits-1)), make up v."""
    half = 1 << (bits - 1)
    mask = (half << 1) - 1
    cs = []
    while v:
        c = ((v + half) & mask) - half
        cs.append(c)
        v = (v - c) >> bits
    return _laurent(low, cs)


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
    in Z; any other step multiplies by 1 / lead, formed at the first such
    step."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    int_lead = type(lead) is int
    lead_inv = None
    lower = [(j, d) for j, d in enumerate(den[:dn]) if d]
    quot = [0] * max(len(num) - dn, 0)
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if not c:
            continue
        if int_lead and type(c) is int and not c % lead:
            q = c // lead
        else:
            lead_inv = lead_inv or _ratio(1, lead)
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
            inv = _ratio(1, b[-1])
            b = [_exact(c * inv) for c in b]
        a, b = b, _dense_divmod(a, b)[1]
    return _laurent(0, a)


def _monic(p: LaurentPoly) -> LaurentPoly:
    if p.is_zero:
        return p
    return p * _ratio(1, p.coeffs[-1])


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


# ---------------------------------------------------------------------------
# matrices over an exact coefficient ring
# ---------------------------------------------------------------------------


class PolyMatrix:
    """A square matrix of exact entries indexed by an rpart.OrderedIndex,
    the one copy of its order: the solver reads n and r from it."""

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

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.index.items == other.index.items and self.rows == other.rows

    def __repr__(self):
        return f"PolyMatrix({len(self.rows)}x{len(self.rows)})"


def __getattr__(name: str):
    """RationalFunction, from ratfunc on first use (PEP 562)."""
    if name != "RationalFunction":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .ratfunc import RationalFunction
    return RationalFunction
