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
from operator import add, lshift, mul, sub

from .exact import LaurentPoly, PolyMatrix, _NO_LOW, _packed, _unpacked
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
    """Forward elimination in the total order, on packed integers.

    Writing M = Lambda * transpose(P+) (upper triangular), row k of M and
    column k of P- follow from rows/columns before k; the pivot divisions
    are by the unit t^(a_k) first and then by the diagonal xi_k, which the
    uniqueness theorem guarantees to be nonzero.

    P+- must lie in Z[t, t^-1].  Every genuine Omega computed so far gives
    this, but no statement of it is cited here, so it is assumed: an Omega
    whose P+- leave that ring raises FactorizationError, most often naming
    the entry whose division is inexact, and never yields a table.  Lambda
    may have rational coefficients.  Omega is multiplied by D, the lcm of
    its coefficients' denominators; as P+- are unitriangular over
    Z[t, t^-1], D Lambda is then integral too, and xi gives D back.

    _eliminate runs first at a width that holds Omega's largest
    coefficient, and at least _BITS.  Every result is checked against Omega
    (_verify_reconstruction), exactly and independently of the elimination.
    If the elimination or the check fails at the first width, the whole
    elimination runs once more at twice the width, and a second failure is
    the one raised.
    """
    order = om.order
    omega = om.entries.rows
    d = lcm(*(c.denominator for row in omega for p in row
              if Fraction in map(type, p.coeffs) for c in p.coeffs))
    if d != 1:
        omega = [[p * d for p in row] for row in omega]
    width = max(_BITS, 1 + max(max(map(abs, p.coeffs), default=0)
                               for row in omega for p in row).bit_length())

    def solved(bits):
        pm, xi, pp = _eliminate(order, omega, bits)
        if d != 1:
            xi = tuple(x * Fraction(1, d) for x in xi)
        _verify_reconstruction(order, pm, xi, pp, om)
        return pm, xi, pp

    try:
        pm, xi, pp = solved(width)
    except FactorizationError:
        pm, xi, pp = solved(2 * width)
    a = tuple(lam.a_value() for lam in order.items)
    lam = tuple(RationalFunction(x) for x in xi)
    theta = theta_diag(order)
    return FactorizationResult(
        order=order, omega=om, p_minus=pm, p_plus=pp, lam=lam,
        a_values=a, theta=theta, lambda_prime=lambda_prime(lam, theta),
        p_plus_modified=modified_pplus(pp, theta),
        ic_minus=ic_minus_matrix(order, pm, om.r),
        ic_plus=ic_plus_candidate(order, pp, om.r))


# The least first width of the elimination, in bits.
_BITS = 32


def _eliminate(order, omega, bits: int) -> tuple:
    """(P-, xi, P+) of P- diag(xi) transpose(P+) = omega, for an integral
    omega, by forward elimination on values packed at t = 2^bits.

    Each value is (offset, integer) as _packed makes it.  Evaluation at
    t = 2^bits is a ring map, so each inner sum omega_ij - sum_g P-_ig M_gj
    (M = diag(xi) transpose(P+)) is one integer sum of its terms, each
    shifted by its offset less the least one.  Its zero low digits are then
    stripped, so that where the width holds its coefficients its offset is
    bits times its low exponent, and each pivot division is one exact
    divmod; a nonzero remainder raises FactorizationError.  Only P-, xi
    and P+ are decoded, at the end.  A width too small for them, or for the
    inner sums, leaves a remainder or decoded tables that the caller's
    check rejects.
    """
    items = order.items
    k_total = len(items)
    a = [lam.a_value() for lam in items]
    omega = [[_packed(p, bits) for p in row] for row in omega]
    # Row i of P- and column j of M as offsets and integers: at step k a P-
    # row holds its entries g < k, an M column its rows g < k (column k also
    # g = k, which the shorter P- row leaves out of a sum).
    pm_offsets = [[] for _ in items]
    pm_values = [[] for _ in items]
    m_offsets = [[] for _ in items]
    m_values = [[] for _ in items]
    pp = [[] for _ in items]
    xi = []

    def inner_sum(i, j):
        offset, value = omega[i][j]
        offsets = list(map(add, pm_offsets[i], m_offsets[j]))
        base = min(offset, min(offsets, default=offset))
        total = (value << offset - base) - sum(map(
            lshift, map(mul, pm_values[i], m_values[j]),
            map(sub, offsets, itertools.repeat(base))))
        if not total:
            return _NO_LOW, 0
        zeros = ((total & -total).bit_length() - 1) // bits * bits
        return base + zeros, total >> zeros

    def divide(num, den, name, i, j):
        q, rem = divmod(num[1], den[1])
        if rem:
            raise FactorizationError(
                f"{name} entry ({items[i]}, {items[j]}) is not a Laurent "
                "polynomial: inexact polynomial division")
        return (num[0] - den[0], q) if q else (_NO_LOW, 0)

    for k in range(k_total):
        shift = bits * a[k]
        for b in range(k, k_total):
            offset, value = inner_sum(k, b)
            m_offsets[b].append(offset - shift)
            m_values[b].append(value)
        pivot = m_offsets[k][k], m_values[k][k]
        if not pivot[1]:
            raise FactorizationError(
                f"vanishing pivot at index {k} ({items[k]}); "
                "the factorization theorem promises this cannot happen for a "
                "genuine fake-degree matrix")
        xi.append((pivot[0] - shift, pivot[1]))
        for b in range(k + 1, k_total):
            pp[b].append(divide((m_offsets[b][k], m_values[b][k]), xi[k],
                                "P+", b, k))
        for al in range(k + 1, k_total):
            offset, value = divide(inner_sum(al, k), pivot, "P-", al, k)
            pm_offsets[al].append(offset)
            pm_values[al].append(value)

    def decoded(offset, value):
        return _unpacked(value, offset // bits, bits)

    zero = LaurentPoly.zero()

    def lower(rows):
        return PolyMatrix(order, (
            (*itertools.starmap(decoded, row), LaurentPoly.t_power(a[i]),
             *[zero] * (k_total - 1 - i)) for i, row in enumerate(rows)))

    return (lower(map(zip, pm_offsets, pm_values)),
            tuple(itertools.starmap(decoded, xi)), lower(pp))


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
