"""Triangular factorization of the fake-degree matrix.

Solves P- * Lambda * transpose(P+) = Omega for the unique lower-triangular
P+- with diagonal t^(a(lambda)) and diagonal Lambda, by forward elimination
in the given total order.  The entries of P+- are the modified Kostka
functions; derived rescalings produce the candidate intersection-cohomology
polynomial matrices.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import add, attrgetter, floordiv, lshift, mul, sub

from .exact import ExactError, LaurentPoly, PolyMatrix, _laurent, exact_div
from .omega import OmegaMatrix, omega_matrix
from .ratfunc import RationalFunction
from .record import FrozenRecord
from .rpart import OrderedIndex, dominance_leq


class FactorizationError(ValueError):
    pass


class IcMatrix(FrozenRecord):
    """A rescaled Kostka matrix with per-entry validity flags.

    raw holds the rescaled Laurent polynomials in t; where ok is set the
    entry lies in Z>=0[t^r] and in_s carries it rewritten in s = t^r.
    column_asserted is a tuple or None (the default).
    """

    __slots__ = ("raw", "ok", "in_s", "column_asserted")
    _defaults = {"column_asserted": None}


class FactorizationResult(FrozenRecord):
    """order is an OrderedIndex, omega an OmegaMatrix, p_minus, p_plus and
    p_plus_modified are PolyMatrix, ic_minus and ic_plus IcMatrix."""

    __slots__ = ("order", "omega", "p_minus", "p_plus",
                 "lam",               # diagonal of Lambda, as RationalFunction
                 "a_values",
                 "theta",             # diagonal of Theta, Laurent monomials
                 "lambda_prime",
                 "p_plus_modified",   # P'' = P+ Theta^-1
                 "ic_minus", "ic_plus")


def solve_factorization(om: OmegaMatrix) -> FactorizationResult:
    """Forward elimination in the total order, in the Laurent ring.

    Writing M = Lambda * transpose(P+) (upper triangular), row k of M and
    column k of P- follow from rows/columns before k; the pivot divisions
    are by the unit t^(a_k) first and then by the diagonal xi_k, which the
    uniqueness theorem guarantees to be nonzero.  When every P+- entry is
    a Laurent polynomial, so is every row of M and every xi_k, so each
    division is exact; an inexact one names the entry that leaves the ring.
    Each inner sum Omega - sum_g P-_kg M_gb is one integer sum of packed
    values (_packed_sum), decoded once.  Every result is checked against
    Omega (_verify_reconstruction) before it is returned.
    """
    order = om.order
    items = order.items
    k_total = len(items)
    a = [lam.a_value() for lam in items]
    omega = om.entries.rows
    zero = LaurentPoly.zero()
    m_upper = [[zero] * k_total for _ in range(k_total)]
    p_minus = [[zero] * k_total for _ in range(k_total)]
    p_plus = [[zero] * k_total for _ in range(k_total)]
    xi = []
    # The packed P- rows and M columns, each as the four lists of _columns;
    # at step k a P- row holds its entries g < k and an M column its rows
    # g < k (the column k also g = k, which the shorter P- row leaves out).
    pm_packed = [_columns((), _BITS) for _ in range(k_total)]
    m_packed = [_columns((), _BITS) for _ in range(k_total)]

    def divide(num, den, name, i, j):
        try:
            return exact_div(num, den)
        except ExactError as exc:
            raise FactorizationError(
                f"{name} entry ({items[i]}, {items[j]}) is not a "
                f"Laurent polynomial: {exc}")

    def inner_sum(i, j, k):
        """Omega_ij - sum_(g<k) P-_ig M_gj."""
        return _packed_sum(omega[i][j], pm_packed[i], m_packed[j], _BITS,
                           lambda: (p_minus[i][:k],
                                    [m_upper[g][j] for g in range(k)]))

    for k in range(k_total):
        for b in range(k, k_total):
            m_upper[k][b] = inner_sum(k, b, k).shift(-a[k])
            _push(m_packed[b], m_upper[k][b])
        pivot = m_upper[k][k]
        xi_k = pivot.shift(-a[k])
        if xi_k.is_zero:
            raise FactorizationError(
                f"vanishing pivot at index {k} ({items[k]}); "
                "the factorization theorem promises this cannot happen for a "
                "genuine fake-degree matrix")
        xi.append(xi_k)
        p_minus[k][k] = p_plus[k][k] = LaurentPoly.t_power(a[k])
        _push(pm_packed[k], p_minus[k][k])
        for b in range(k + 1, k_total):
            p_plus[b][k] = divide(m_upper[k][b], xi_k, "P+", b, k)
        for al in range(k + 1, k_total):
            p_minus[al][k] = divide(inner_sum(al, k, k), pivot, "P-", al, k)
            _push(pm_packed[al], p_minus[al][k])

    pm = PolyMatrix(order, p_minus)
    pp = PolyMatrix(order, p_plus)
    _verify_reconstruction(order, pm, tuple(xi), pp, om)
    lam = tuple(RationalFunction(x) for x in xi)
    theta = theta_diag(order)
    return FactorizationResult(
        order=order, omega=om, p_minus=pm, p_plus=pp, lam=lam,
        a_values=tuple(a), theta=theta, lambda_prime=lambda_prime(lam, theta),
        p_plus_modified=modified_pplus(pp, theta),
        ic_minus=ic_minus_matrix(order, pm, om.r),
        ic_plus=ic_plus_candidate(order, pp, om.r))


# The elimination packs each value at t = 2^_BITS (_BITS is a default: a sum
# whose bound needs more repacks at a wider width).  _packed owns how a value
# becomes an integer, zero values included: they get the offset _NO_LOW,
# above every real one, so that they never set the base of a sum.
_BITS = 32
_NO_LOW = 1 << 40
_denominator = attrgetter("denominator")


def _record(p: LaurentPoly, bits: int) -> tuple:
    """(offset, packed, norm, den) of p: _packed of D p at 2^bits, the
    1-norm of D p, and D, the lcm of p's coefficient denominators."""
    d = lcm(*map(_denominator, p.coeffs))
    if d != 1:
        p = p * d
    return (*_packed(p, bits), sum(map(abs, p.coeffs)), d)


def _columns(values, bits: int) -> tuple:
    """The records of values as four lists: offsets, packed, norms, dens."""
    return tuple(map(list, zip(*(_record(p, bits) for p in values)))) \
        or ([], [], [], [])


def _push(columns: tuple, p: LaurentPoly):
    """Append p's record at the default width to the lists of columns."""
    for column, field in zip(columns, _record(p, _BITS)):
        column.append(field)


def _packed_sum(omega: LaurentPoly, row: tuple, col: tuple, bits: int,
                operands) -> LaurentPoly:
    """omega - sum_g row_g col_g, for two value lists packed by _columns at
    2^bits (the shorter list fixes the length), as one integer sum.

    Each product packs about the sum of its factors' lows, so it enters
    shifted by bits (low_a + low_b - base), with base the least of those
    sums and of omega's low; every term enters over the lcm D of the
    terms' denominators.  The total is D (omega - sum) at t = 2^bits about
    base, and every coefficient of that polynomial is at most

        C = D ||omega||_1 + sum_g (D / (d_a d_b)) ||a_g||_1 ||b_g||_1

    in absolute value (norms and denominators as in _record).  Where
    2^(bits-1) > C, the balanced base-2^bits digits of the total are its
    coefficients (_unpacked).  Otherwise operands() returns the two value
    lists, which are packed again at the least width with 2^(width-1) > C.
    """
    offsets_a, packed_a, norms_a, dens_a = row
    offsets_b, packed_b, norms_b, dens_b = col
    offset, value, norm, den = _record(omega, bits)
    offsets = list(map(add, offsets_a, offsets_b))
    base = min(offset, min(offsets, default=offset))
    terms = map(mul, packed_a, packed_b)
    norms = map(mul, norms_a, norms_b)
    d = 1
    if den != 1 or dens_a.count(1) < len(dens_a) \
            or dens_b.count(1) < len(dens_b):
        d = lcm(den, *map(mul, dens_a, dens_b))
        scales = list(map(floordiv, itertools.repeat(d),
                          map(mul, dens_a, dens_b)))
        terms = map(mul, terms, scales)
        norms = map(mul, norms, scales)
        value *= d // den
        norm *= d // den
    bound = norm + sum(norms)
    if bound >> (bits - 1):
        width = bound.bit_length() + 1
        a, b = operands()
        return _packed_sum(omega, _columns(a, width), _columns(b, width),
                           width, None)
    total = (value << offset - base) - sum(
        map(lshift, terms, map(sub, offsets, itertools.repeat(base))))
    out = _unpacked(total, base // bits, bits)
    return out if d == 1 else out * Fraction(1, d)


def _verify_reconstruction(order, pm: PolyMatrix, xi: tuple, pp: PolyMatrix,
                           om: OmegaMatrix):
    """Raise FactorizationError at the first cell, row by row, where
    sum_l P-_il xi_l P+_jl differs from Omega_ij."""
    for i, j in reconstruction_mismatches(pm.rows, xi, pp.rows,
                                          om.entries.rows):
        raise FactorizationError(
            f"reconstruction failed at ({order.items[i]}, {order.items[j]})")


def reconstruction_mismatches(p_minus, xi, p_plus, omega):
    """Each cell (i, j), row by row, where sum_l P-_il xi_l P+_jl differs
    from omega[i][j], for the rows of the lower-triangular P+- and the
    diagonal xi.  Each cell is one integer identity (Kronecker
    substitution: Schoenhage, EUROCAM 1982; Harvey, J. Symbolic Comput.
    2009).

    Every value packs about its own low exponent (_packed): it is t^L
    times a polynomial, L its low, and a product of three values is
    t^(the sum of their lows) times the product of their polynomials.  A
    cell multiplies both its sides by t^-base, base the least low of its
    products and of Omega_ij, which moves no coefficient and leaves
    polynomials; evaluating those at t = 2^B is a ring map, so each side
    packs to the sum of its terms' integers, each shifted by B (low - base)
    bits.  Every coefficient of either side is at most

        C = K max||P-||_1 max||xi||_1 max||P+||_1 + max||Omega||_1

    in absolute value (||.||_1 sums the absolute coefficients), with B the
    least width with 2^(B-1) > C.  Each side's integer is then the
    balanced base-2^B expansion of its polynomial, every digit in
    (-2^(B-1), 2^(B-1)), and balanced expansions are unique: the integers
    are equal exactly when the polynomials are.  A non-integral coefficient
    anywhere is first cleared with D, the lcm of all denominators: the check
    then compares D^3 Omega with the sum of (D P-)(D xi)(D P+).
    """
    mats = [p_minus, (xi,), p_plus, omega]
    d = lcm(*(c.denominator for rows in mats for row in rows for p in row
              for c in p.coeffs if type(c) is not int))
    if d != 1:
        mats = [[[p * scale for p in row] for row in rows]
                for rows, scale in zip(mats, (d, d, d, d ** 3))]
    k = len(xi)
    norms = [max(sum(map(abs, p.coeffs)) for row in rows for p in row)
             for rows in mats]
    bits = (k * norms[0] * norms[1] * norms[2] + norms[3]).bit_length() + 1
    packed_pm, (packed_xi,), packed_pp, packed_om = (
        [[_packed(p, bits) for p in row] for row in rows] for rows in mats)
    for i in range(k):
        weighted = [(l, o + ox, v * vx) for l, ((o, v), (ox, vx))
                    in enumerate(zip(packed_pm[i][:i + 1], packed_xi)) if v]
        for j, row in enumerate(packed_pp):
            terms = [(o + row[l][0], v * row[l][1])
                     for l, o, v in weighted if l <= j and row[l][1]]
            offset, value = packed_om[i][j]
            base = min([offset] + [o for o, _ in terms])
            if sum(v << o - base for o, v in terms) != value << offset - base:
                yield i, j


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


def theta_diag(order: OrderedIndex) -> tuple:
    """Diagonal of Theta: t^(a(lambda) - a(tau(lambda)))."""
    return tuple(LaurentPoly.t_power(lam.a_value() - lam.tau().a_value())
                 for lam in order.items)


def lambda_prime(lam: tuple, theta: tuple) -> tuple:
    """Lambda' = Lambda * Theta."""
    return tuple(x * RationalFunction(th) for x, th in zip(lam, theta))


def modified_pplus(p_plus: PolyMatrix, theta: tuple) -> PolyMatrix:
    """P'' = P+ * Theta^-1 (columns divided by the theta monomials)."""
    shifts = [-th.max_exp for th in theta]
    return PolyMatrix(p_plus.index, tuple(
        tuple(map(LaurentPoly.shift, row, shifts)) for row in p_plus.rows))


def _ic_matrix(rows, row_shift, col_shift, r: int,
               column_asserted=None) -> IcMatrix:
    """Entries t^(row_shift[i] + col_shift[j]) * rows[i][j]; flagged where
    they land in Z>=0[t^r]."""
    raw, ok, in_s = [], [], []
    for row, shift in zip(rows, row_shift):
        raw_row = tuple(map(LaurentPoly.shift, row,
                            [shift + c for c in col_shift]))
        in_s_row = tuple(map(_in_s, raw_row, itertools.repeat(r)))
        raw.append(raw_row)
        ok.append(tuple(s is not None for s in in_s_row))
        in_s.append(in_s_row)
    return IcMatrix(tuple(raw), tuple(ok), tuple(in_s), column_asserted)


def _in_s(e: LaurentPoly, r: int):
    """e rewritten in s = t^r where it lies in Z>=0[t^r], else None."""
    if not e.coeffs:
        return e
    if e.is_poly_in_tr(r) and e.has_nonneg_int_coeffs():
        return e.root_var(r)
    return None


def ic_minus_matrix(order: OrderedIndex, p_minus: PolyMatrix, r: int) -> IcMatrix:
    """Entries t^(-a(lam)) K~-(lam,mu); flagged where they land in Z>=0[t^r]."""
    a = [lam.a_value() for lam in order.items]
    return _ic_matrix(p_minus.rows, [-x for x in a], [0] * len(a), r)


def ic_plus_candidate(order: OrderedIndex, p_plus: PolyMatrix, r: int) -> IcMatrix:
    """Entries t^(-a(tau(mu)) - a(nu) + a(tau(nu))) K~+(mu,nu).

    The intersection-cohomology reading is only proved for columns nu whose
    weight vanishes in slots 1..r-2; column_asserted records that hypothesis,
    everywhere else the entry is a candidate only.
    """
    a = [nu.a_value() for nu in order.items]
    a_tau = [nu.tau().a_value() for nu in order.items]
    col_ok = []
    for nu in order.items:
        w = nu.weight().parts
        col_ok.append(all(x == 0 for x in w[:max(0, len(w) - 2)]))
    return _ic_matrix(p_plus.rows, [-x for x in a_tau],
                      list(map(sub, a_tau, a)), r, tuple(col_ok))


# -- order sensitivity ---------------------------------------------------------


def order_sensitivity(n: int, r: int, orders) -> tuple:
    """Solve the factorization under each order and compare Kostka entries:
    (comparable, incomparable), the entries whose value differs between
    orders at dominance-comparable and at incomparable pairs (whose
    triangular zero pattern depends on the order)."""
    orders = list(orders)
    results = [solve_factorization(omega_matrix(n, r, order))
               for order in orders]

    items = list(orders[0].items)
    comparable, incomparable = [], []
    for lam, mu in itertools.product(items, repeat=2):
        for signname, pick in (("minus", lambda res: res.p_minus),
                               ("plus", lambda res: res.p_plus)):
            values = {str(pick(res).entry(lam, mu)) for res in results}
            if len(values) > 1:
                record = {"row": str(lam), "col": str(mu), "sign": signname,
                          "values": sorted(values)}
                if dominance_leq(lam, mu) or dominance_leq(mu, lam):
                    comparable.append(record)
                else:
                    incomparable.append(record)
    return comparable, incomparable
