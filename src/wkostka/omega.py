"""The fake-degree matrix for S_n x (Z/rZ)^n.

Two independent routes compute each entry:

* the production route sums characters of symmetric-group Young subgroups
  over double cosets, with everything staying inside Z[t, t^-1], Q only in
  the oracles: each 1/z weight travels as the integer n!/z, and each entry
  divides its sum by n! exactly.  A coset enters only through its
  contingency label and the cycle types of the label's cells (the Mackey
  formula), so no permutation is enumerated;
* the oracle route, in wreath.py, works inside the wreath product itself
  and shares no Omega helper with the coset route.

Both must agree, entry by entry; the test suite enforces this.

The coset route computes one entry per orbit of the linear characters.
Omega_(lam,mu) = t^(N*) R(rho^lam x conj(rho^mu) x conj(det_V)) is unchanged
when lam and mu are both tensored with one linear character epsilon, since
epsilon takes root-of-unity values and so epsilon * conj(epsilon) = 1.
Tensoring with sgn conjugates every component of an r-partition; tensoring
with delta = zeta^(sum of colors) raises each block's delta-grading by one,
so component j moves to position j + 1 mod r.  The 2r twists (_twist) act on
the pairs, and omega_entry_cosets reads each pair off the one whose first
index is the least of its orbit (_orbit_twist).  The wreath oracle computes
every entry on its own and never twists.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial

from . import COSET_K_BOUND, WREATH_ORACLE_BOUND, Failure
from .exact import LaurentPoly, PolyMatrix, _laurent, exact_div
from .rpart import (Composition, ContingencyMatrix, OrderedIndex, RPartition,
                    conjugate_partition, count_rpartitions,
                    enumerate_contingency, partitions)
from .symgrp import block_character, centralizer_order, char_perm_det_from_type
# Not called here: bench/traced.py wraps these two names in this module.
from .symgrp import double_cosets, intersection_elements  # noqa: F401


class OmegaError(Failure):
    pass


def _check_coset_bound(k: int, bound: int):
    """The coset route's guard, K <= bound for K = |P_{n,r}|.  omega_matrix
    and the CLI before it builds the order check it before any entry."""
    if k > bound:
        raise OmegaError(f"coset route bound exceeded: K = {k} > {bound}, "
                         f"where K = |P_{{n,r}}|")


def _check_oracle_bound(n: int, r: int, bound: int):
    """The wreath oracle's guard, K^3 r^2 n <= bound for K = |P_{n,r}|: K^3 r^2
    products of packed quotients that lengthen with n.  omega_matrix and
    verify oracle check it first."""
    cost = count_rpartitions(n, r) ** 3 * r ** 2 * n
    if cost > bound:
        raise OmegaError(
            f"wreath oracle bound exceeded: K^3*r^2*n = {cost} > {bound}, "
            f"where K = |P_{{n,r}}|")


# -- exponents attached to a double coset -------------------------------------


def bracket(j: int, i: int, r: int) -> int:
    """The representative in [0, r-1] of (j-1) + (r-i) mod r.

    >>> bracket(1, 1, 3)
    2
    >>> bracket(3, 2, 3)
    0
    """
    return ((j - 1) + (r - i)) % r


def a_O(h: ContingencyMatrix, r: int) -> int:
    """sum over all cells of bracket(j, i) * h_(i,j)."""
    total = 0
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            total += bracket(j, i, r) * h.entry(i, j)
    return total


def b_O(lam: RPartition, mu: RPartition, h: ContingencyMatrix) -> int:
    """C(n,2) - n(lam) - n(mu) + sum_(i<r) h_(i, <=i)."""
    n = lam.n
    if h.col_sums() != lam.weight().parts or h.row_sums() != mu.weight().parts:
        raise OmegaError("contingency margins do not match the weights")
    partial = sum(h.row_prefix(i, i) for i in range(1, h.r))
    return comb(n, 2) - lam.n_value() - mu.n_value() + partial


# -- the double-coset route ----------------------------------------------------


def _joined(parts) -> tuple:
    return tuple(tuple(sorted(p, reverse=True)) for p in parts)


@lru_cache(maxsize=None)
def coset_table(m: Composition, m_prime: Composition) -> tuple:
    """The double cosets S_m x S_m' as (h, terms), one per contingency label h.

    On the coset labelled h, S_m meets x S_m' x^-1 in prod_(i,j) S_(h_ij),
    one factor per cell, and a summand over the coset's members x and the
    elements y of that intersection depends on y only through the cycle
    types rho_ij of its cell components (Mackey).  Each term is
    (column types, row types, rho, weight): column j joins the rho_ij down
    column j (the type of y on the m-block j), row i joins them along row i
    (the type of x^-1 y x on the m'-block i), rho joins them all (the type
    of y), and weight sums n! prod 1/z_(rho_ij) over the cell types giving
    the triple, an int as z_(rho_ij) divides h_ij! and prod h_ij! divides
    n!.  So (1/|S_m||S_m'|) sum_x sum_y f = (1/n!) sum of weight * f.
    """
    r = m.r
    n_fact = factorial(m.n)
    classes = {k: [(rho, centralizer_order(rho)) for rho in partitions(k)]
               for k in range(m.n + 1)}
    rows_used = [i for i in range(r) if m_prime.parts[i]]
    cols_used = [j for j in range(r) if m.parts[j]]
    out = []
    for h in enumerate_contingency(m, m_prime):
        cells = [(i, j) for i in rows_used for j in cols_used if h.rows[i][j]]
        terms: dict = {}
        for choice in itertools.product(*(classes[h.rows[i][j]]
                                          for i, j in cells)):
            cols = [[] for _ in range(r)]
            rows = [[] for _ in range(r)]
            z = 1
            for (i, j), (rho, z_rho) in zip(cells, choice):
                cols[j].extend(rho)
                rows[i].extend(rho)
                z *= z_rho
            key = (_joined(cols), _joined(rows),
                   tuple(sorted(itertools.chain(*cols), reverse=True)))
            terms[key] = terms.get(key, 0) + n_fact // z
        out.append((h, tuple(key + (w,) for key, w in terms.items())))
    return tuple(out)


@lru_cache(maxsize=None)
def torus_quotient(rho: tuple, n: int, r: int) -> LaurentPoly:
    """prod_(k<=n) (t^(kr) - 1) / prod_i (t^(r rho_i) - 1) for rho |- n.

    A polynomial: |GL_n(q)|_(p') / |T_rho| at q = t^r."""
    return exact_div(char_perm_det_from_type(tuple(range(n, 0, -1)), r),
                     char_perm_det_from_type(rho, r))


@lru_cache(maxsize=None)
def _omega_block(m: Composition, m_prime: Composition, r: int) -> tuple:
    """(low, blocks) for the weight pair (m, m').  Each block is
    (column types, row types, coefficients): coset_table contracted with
    t^(r sum_(i<r) h_(i,<=i)) * torus_quotient and summed over the labels h,
    so n! times the block of 1/z weights.  Every block is a dense tuple of
    ints of one length, its i-th entry the coefficient of t^(low + i)."""
    terms = []
    for h, h_terms in coset_table(m, m_prime):
        tpow = r * sum(h.row_prefix(i, i) for i in range(1, r))
        for cols, rows, rho, weight in h_terms:
            terms.append((cols, rows, weight,
                          torus_quotient(rho, m.n, r).shift(tpow)))
    low = min(poly.low for *_, poly in terms)
    width = max(poly.low + len(poly.coeffs) for *_, poly in terms) - low
    acc: dict = {}
    for cols, rows, weight, poly in terms:
        cs = acc.setdefault((cols, rows), [0] * width)
        for i, c in enumerate(poly.coeffs, poly.low - low):
            cs[i] += weight * c
    return low, tuple((cols, rows, tuple(cs))
                      for (cols, rows), cs in acc.items())


def _axpy(acc, c: int, cs) -> list:
    """acc + c * cs on dense coefficient lists of one length; acc None is 0."""
    if acc is None:
        return [c * x for x in cs]
    return [a + c * x for a, x in zip(acc, cs)]


@lru_cache(maxsize=None)
def _omega_row(lam: RPartition, m_prime: Composition, r: int) -> tuple:
    """(low, ((row types, R), ...)) with R_lam(rows), the sum over the
    column types of chi^lam(cols) * block(cols, rows), formed once per
    (lam, m') from _omega_block(weight(lam), m', r).  Row types whose R is
    zero are left out."""
    low, blocks = _omega_block(lam.weight(), m_prime, r)
    acc: dict = {}
    for cols, rows, cs in blocks:
        c = block_character(lam, cols)
        if c:
            acc[rows] = _axpy(acc.get(rows), c, cs)
    return low, tuple((rows, tuple(cs)) for rows, cs in acc.items()
                      if any(cs))


@lru_cache(maxsize=None)
def _twist(lam: RPartition, k: int, conj: bool) -> RPartition:
    """lam tensored with delta^k, and with sgn when conj, for 0 <= k < r:
    component j moves to position j + k mod r, and every component is
    conjugated if conj."""
    p = lam.parts
    if conj:
        p = tuple(conjugate_partition(c) for c in p)
    return RPartition._unchecked(p[len(p) - k:] + p[:len(p) - k])


@lru_cache(maxsize=None)
def _orbit_twist(lam: RPartition) -> tuple:
    """The twist (k, conj) whose image of lam has the least parts tuple; on
    a tie, the first in the order (0, False), (1, False), ..., (r-1, True).
    The components are conjugated once, and each image is a rotation of
    lam's parts or of theirs, cut from it by slicing as _twist does."""
    p = lam.parts
    r = len(p)
    conjugated = {False: p, True: tuple(conjugate_partition(c) for c in p)}

    def image(g) -> tuple:
        k, conj = g
        q = conjugated[conj]
        return q[r - k:] + q[:r - k]

    return min(((k, conj) for conj in (False, True) for k in range(r)),
               key=image)


def omega_entry_cosets(lam: RPartition, mu: RPartition, r: int) -> LaurentPoly:
    """omega_(lam,mu), read off its orbit's representative: the twist g that
    takes lam to the least member of its orbit (_orbit_twist) leaves the
    entry unchanged (module docstring), so this is the coset route's
    _omega_entry_direct(g lam, g mu, r), which each orbit computes once.
    A twist keeps n and r, so _omega_entry_direct checks the indices."""
    k, conj = _orbit_twist(lam)
    return _omega_entry_direct(_twist(lam, k, conj), _twist(mu, k, conj), r)


@lru_cache(maxsize=None)
def _omega_entry_direct(lam: RPartition, mu: RPartition,
                        r: int) -> LaurentPoly:
    """omega_(lam,mu) through the double-coset expansion of the fake degree:

        t^(a(lam) + a(tau mu)) sum_h t^(r b_O(lam,mu,h)) sum_(x,y)
            chi^lam(y) chi^mu(x^-1 y x) prod_k (t^(kr) - 1)
            / (|S_m| |S_m'| det_V(t^r - y)),

    with the sum over each coset's members x and y in S_m meet x S_m' x^-1,
    here read off coset_table.  The sum is n! times the entry, formed over
    Z as the sum over the row types of chi^mu(rows) * R_lam(rows)
    (_omega_row), and divided by n! exactly: a remainder raises OmegaError.
    """
    if lam.n != mu.n or lam.r != r or mu.r != r:
        raise OmegaError("index mismatch")
    low, row = _omega_row(lam, mu.weight(), r)
    total = None
    for rows, cs in row:
        c = block_character(mu, rows)
        if c:
            total = _axpy(total, c, cs)
    n_fact = factorial(lam.n)
    coeffs = []
    for x in total or ():
        q, rem = divmod(x, n_fact)
        if rem:
            raise OmegaError(f"coset entry ({lam}, {mu}) is not integral: "
                             f"a coefficient {x} of n! times it is not "
                             f"divisible by n! = {n_fact}")
        coeffs.append(q)
    shift = r * (comb(lam.n, 2) - lam.n_value() - mu.n_value()) + \
        lam.a_value() + mu.tau().a_value()
    value = _laurent(low + shift, coeffs)
    if not value.has_nonneg_int_coeffs():
        raise OmegaError(
            f"coset entry ({lam}, {mu}) is not in Z>=0[t]: {value}")
    return value


# -- assembled matrices ---------------------------------------------------------


def omega_matrix(n: int, r: int, order: OrderedIndex,
                 method: str = "cosets",
                 coset_n_bound: int = COSET_K_BOUND,
                 wreath_bound: int = WREATH_ORACLE_BOUND) -> PolyMatrix:
    """Omega as a PolyMatrix indexed by order, a total order on P_{n,r}:
    an order on another P_{n,r} raises OmegaError.  The coset route asks
    omega_entry_cosets for all K^2 entries, K = |P_{n,r}| = len(order), and
    computes one per orbit of the 2r twists; the solver then eliminates in
    order K^3, so it refuses K > coset_n_bound before it computes any
    entry.  (The keyword keeps its old name: bench/traced.py passes it by
    that name.)
    method "wreath" builds the oracle's matrix, for the tests, and checks
    K^3 r^2 n against wreath_bound once; no command runs it."""
    if (order.n, order.r) != (n, r):
        raise OmegaError(f"the order does not list P_{{n,r}} "
                         f"for n={n}, r={r}")
    if method == "cosets":
        _check_coset_bound(len(order), coset_n_bound)
        entry = lambda a, b: omega_entry_cosets(a, b, r)
    elif method == "wreath":
        _check_oracle_bound(n, r, wreath_bound)
        from .wreath import omega_entry_bruteforce
        entry = lambda a, b: omega_entry_bruteforce(a, b, r)
    else:
        raise OmegaError(f"unknown method {method!r}")
    rows = [[entry(lam, mu) for mu in order.items] for lam in order.items]
    return PolyMatrix(order, rows)
