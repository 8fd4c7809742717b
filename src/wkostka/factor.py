"""Triangular factorization of the fake-degree matrix.

Solves P- * Lambda * transpose(P+) = Omega for the unique lower-triangular
P+- with diagonal t^(a(lambda)) and diagonal Lambda, by forward elimination
in the given total order.  The entries of P+- are the modified Kostka
functions; derived rescalings produce the candidate intersection-cohomology
polynomial matrices.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .exact import (ExactError, LaurentPoly, PolyMatrix, RationalFunction,
                    exact_div)
from .omega import OmegaMatrix
from .rpart import OrderedIndex, RPartition, dominance_leq


class FactorizationError(ValueError):
    pass


@dataclass(frozen=True)
class IcMatrix:
    """A rescaled Kostka matrix with per-entry validity flags.

    raw holds the rescaled Laurent polynomials in t; where ok is set the
    entry lies in Z>=0[t^r] and in_s carries it rewritten in s = t^r.
    """

    raw: tuple
    ok: tuple
    in_s: tuple
    column_asserted: tuple | None = None


@dataclass(frozen=True)
class FactorizationResult:
    order: OrderedIndex
    omega: OmegaMatrix
    p_minus: PolyMatrix
    p_plus: PolyMatrix
    lam: tuple                  # diagonal of Lambda, as RationalFunction
    a_values: tuple
    theta: tuple                # diagonal of Theta, Laurent monomials
    lambda_prime: tuple
    p_plus_modified: PolyMatrix  # P'' = P+ Theta^-1
    ic_minus: IcMatrix
    ic_plus: IcMatrix


def solve_factorization(om: OmegaMatrix, verify: bool = True) -> FactorizationResult:
    """Forward elimination in the total order, in the Laurent ring.

    Writing M = Lambda * transpose(P+) (upper triangular), row k of M and
    column k of P- follow from rows/columns before k; the pivot divisions
    are by the unit t^(a_k) first and then by the diagonal xi_k, which the
    uniqueness theorem guarantees to be nonzero.  When every P+- entry is
    a Laurent polynomial, so is every row of M and every xi_k, so each
    division is exact; an inexact one names the entry that leaves the ring.
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

    def divide(num, den, name, i, j):
        try:
            return exact_div(num, den)
        except ExactError as exc:
            raise FactorizationError(
                f"{name} entry ({items[i]}, {items[j]}) is not a "
                f"Laurent polynomial: {exc}")

    for k in range(k_total):
        for b in range(k, k_total):
            acc = omega[k][b]
            for g in range(k):
                acc = acc - p_minus[k][g] * m_upper[g][b]
            m_upper[k][b] = acc.shift(-a[k])
        pivot = m_upper[k][k]
        xi_k = pivot.shift(-a[k])
        if xi_k.is_zero:
            raise FactorizationError(
                f"vanishing pivot at index {k} ({items[k]}); "
                "the factorization theorem promises this cannot happen for a "
                "genuine fake-degree matrix")
        xi.append(xi_k)
        p_minus[k][k] = p_plus[k][k] = LaurentPoly.t_power(a[k])
        for b in range(k + 1, k_total):
            p_plus[b][k] = divide(m_upper[k][b], xi_k, "P+", b, k)
        for al in range(k + 1, k_total):
            acc = omega[al][k]
            for g in range(k):
                acc = acc - p_minus[al][g] * m_upper[g][k]
            p_minus[al][k] = divide(acc, pivot, "P-", al, k)

    pm = PolyMatrix(order, p_minus)
    pp = PolyMatrix(order, p_plus)
    if verify:
        _verify_reconstruction(order, pm, tuple(xi), pp, om)
    lam = tuple(RationalFunction(x) for x in xi)
    theta = theta_diag(order)
    return FactorizationResult(
        order=order, omega=om, p_minus=pm, p_plus=pp, lam=lam,
        a_values=tuple(a), theta=theta, lambda_prime=lambda_prime(lam, theta),
        p_plus_modified=modified_pplus(pp, theta),
        ic_minus=ic_minus_matrix(order, pm, om.r),
        ic_plus=ic_plus_candidate(order, pp, om.r))


def _verify_reconstruction(order, pm: PolyMatrix, xi: tuple, pp: PolyMatrix,
                           om: OmegaMatrix):
    k = len(order.items)
    for i in range(k):
        for j in range(k):
            acc = LaurentPoly.zero()
            for l in range(min(i, j) + 1):
                acc = acc + pm.rows[i][l] * xi[l] * pp.rows[j][l]
            if acc != om.entries.rows[i][j]:
                raise FactorizationError(
                    f"reconstruction failed at ({order.items[i]}, {order.items[j]})")


def theta_diag(order: OrderedIndex) -> tuple:
    """Diagonal of Theta: t^(a(lambda) - a(tau(lambda)))."""
    return tuple(LaurentPoly.t_power(lam.a_value() - lam.tau().a_value())
                 for lam in order.items)


def lambda_prime(lam: tuple, theta: tuple) -> tuple:
    """Lambda' = Lambda * Theta."""
    return tuple(x * RationalFunction(th) for x, th in zip(lam, theta))


def modified_pplus(p_plus: PolyMatrix, theta: tuple) -> PolyMatrix:
    """P'' = P+ * Theta^-1 (columns divided by the theta monomials)."""
    inv = [LaurentPoly.t_power(-th.max_exp) for th in theta]
    return p_plus.scale_diag_right(inv)


def ic_minus_matrix(order: OrderedIndex, p_minus: PolyMatrix, r: int) -> IcMatrix:
    """Entries t^(-a(lam)) K~-(lam,mu); flagged where they land in Z>=0[t^r]."""
    raw, ok, in_s = [], [], []
    for i, lam in enumerate(order.items):
        shift = -lam.a_value()
        raw_row, ok_row, s_row = [], [], []
        for entry in p_minus.rows[i]:
            e = entry.shift(shift)
            good = e.is_poly_in_tr(r) and e.has_nonneg_int_coeffs()
            raw_row.append(e)
            ok_row.append(good)
            s_row.append(e.descale_exponents(r) if good else None)
        raw.append(tuple(raw_row))
        ok.append(tuple(ok_row))
        in_s.append(tuple(s_row))
    return IcMatrix(tuple(raw), tuple(ok), tuple(in_s))


def ic_plus_candidate(order: OrderedIndex, p_plus: PolyMatrix, r: int) -> IcMatrix:
    """Entries t^(-a(tau(mu)) - a(nu) + a(tau(nu))) K~+(mu,nu).

    The intersection-cohomology reading is only proved for columns nu whose
    weight vanishes in slots 1..r-2; column_asserted records that hypothesis,
    everywhere else the entry is a candidate only.
    """
    raw, ok, in_s = [], [], []
    col_ok = []
    for nu in order.items:
        w = nu.weight().parts
        col_ok.append(all(x == 0 for x in w[:max(0, len(w) - 2)]))
    for i, mu in enumerate(order.items):
        raw_row, ok_row, s_row = [], [], []
        for j, nu in enumerate(order.items):
            shift = -mu.tau().a_value() - nu.a_value() + nu.tau().a_value()
            e = p_plus.rows[i][j].shift(shift)
            good = e.is_poly_in_tr(r) and e.has_nonneg_int_coeffs()
            raw_row.append(e)
            ok_row.append(good)
            s_row.append(e.descale_exponents(r) if good else None)
        raw.append(tuple(raw_row))
        ok.append(tuple(ok_row))
        in_s.append(tuple(s_row))
    return IcMatrix(tuple(raw), tuple(ok), tuple(in_s), tuple(col_ok))


def unmodify_kostka(modified: LaurentPoly, a_mu: int) -> LaurentPoly:
    """K(t) = t^(a(mu)) K~(t^-1)."""
    return modified.reciprocal_var().shift(a_mu)


# -- order sensitivity ---------------------------------------------------------


@dataclass(frozen=True)
class OrderSensitivityReport:
    n: int
    r: int
    orders_used: int
    comparable_mismatches: tuple
    incomparable_mismatches: tuple

    @property
    def comparable_stable(self) -> bool:
        return not self.comparable_mismatches

    @property
    def fully_stable(self) -> bool:
        return not self.comparable_mismatches and not self.incomparable_mismatches


def order_sensitivity(n: int, r: int, orders) -> OrderSensitivityReport:
    """Solve the factorization under each order and compare Kostka entries
    pairwise; dominance-comparable pairs are reported separately from
    incomparable ones (whose triangular zero pattern depends on the order)."""
    from .omega import omega_entry_cosets

    orders = list(orders)
    entry_cache = {}

    def entry(lam, mu):
        key = (lam, mu)
        if key not in entry_cache:
            entry_cache[key] = omega_entry_cosets(lam, mu, r)
        return entry_cache[key]

    results = []
    for order in orders:
        rows = [[entry(lam, mu) for mu in order.items] for lam in order.items]
        om = OmegaMatrix(order, PolyMatrix(order, rows), n, r, "cosets")
        results.append(solve_factorization(om, verify=False))

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
    return OrderSensitivityReport(n, r, len(orders),
                                  tuple(comparable), tuple(incomparable))


# -- classical r = 1 oracle: charge statistic over semistandard tableaux -------


def semistandard_tableaux(shape: tuple, content: tuple):
    """All SSYT of the given shape and content (content[i] copies of i+1)."""
    rows = len(shape)
    if sum(shape) != sum(content):
        return
    grid = [[0] * width for width in shape]

    def cells():
        for i in range(rows):
            for j in range(shape[i]):
                yield i, j

    cell_list = list(cells())

    def fill(idx: int, remaining: list):
        if idx == len(cell_list):
            yield tuple(tuple(row) for row in grid)
            return
        i, j = cell_list[idx]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        for v in range(lo, len(remaining) + 1):
            if remaining[v - 1] > 0:
                remaining[v - 1] -= 1
                grid[i][j] = v
                yield from fill(idx + 1, remaining)
                remaining[v - 1] += 1

    yield from fill(0, list(content))


def reading_word(tableau: tuple) -> tuple:
    """Rows read left to right, bottom row first."""
    out = []
    for row in reversed(tableau):
        out.extend(row)
    return tuple(out)


def charge(word: tuple) -> int:
    """Charge of a word whose content is a partition.

    Standard subwords are extracted from the rightmost 1, scanning leftward
    (cyclically) for each next letter; within a standard subword the index
    of a letter grows by one exactly when it sits to the right of its
    predecessor.

    >>> charge((1, 2, 3))
    3
    >>> charge((3, 1, 2))
    2
    >>> charge((3, 2, 1, 1, 2))
    1
    """
    remaining = list(enumerate(word))
    total = 0
    while remaining:
        maxval = max(v for _, v in remaining)
        picked = {}
        cursor = max(i for i, (_, v) in enumerate(remaining) if v == 1)
        picked[1] = remaining[cursor][0]
        for target in range(2, maxval + 1):
            found = None
            for step in range(1, len(remaining) + 1):
                idx = (cursor - step) % len(remaining)
                if remaining[idx][1] == target and \
                        remaining[idx][0] not in picked.values():
                    found = idx
                    break
            if found is None:
                break
            picked[target] = remaining[found][0]
            cursor = found
        chosen = set(picked.values())
        remaining = [(p, v) for p, v in remaining if p not in chosen]
        idx = 0
        for k in range(2, len(picked) + 1):
            if picked[k] > picked[k - 1]:
                idx += 1
            total += idx
    return total


def classical_kostka_polynomial(lam: tuple, mu: tuple) -> LaurentPoly:
    """Kostka-Foulkes K_(lam,mu)(t) as the charge generating function.

    >>> str(classical_kostka_polynomial((2, 1), (1, 1, 1)))
    't^2 + t'
    """
    out = LaurentPoly.zero()
    for tab in semistandard_tableaux(lam, mu):
        out = out + LaurentPoly.t_power(charge(reading_word(tab)))
    return out


@lru_cache(maxsize=None)
def classical_modified_kostka(lam_rp: RPartition, mu_rp: RPartition) -> LaurentPoly:
    """K~(lam,mu)(t) = t^(a(mu)) K_(lam,mu)(t^-1) for 1-partitions."""
    if lam_rp.r != 1 or mu_rp.r != 1:
        raise FactorizationError("the charge oracle is a single-partition check")
    kost = classical_kostka_polynomial(lam_rp.parts[0], mu_rp.parts[0])
    return unmodify_kostka(kost, mu_rp.a_value())
