"""The fake-degree matrix for S_n x (Z/rZ)^n.

Two independent routes compute each entry:

* the production route sums characters of symmetric-group Young subgroups
  over double cosets, with everything staying inside Q[t, t^-1].  A coset
  enters only through its contingency label and the cycle types of the
  label's cells (the Mackey formula), so no permutation is enumerated;
* the oracle route works inside the wreath product itself, inducing
  characters by brute force and evaluating the defining fake-degree sum
  as one polynomial in Q(zeta_r)[t] per conjugacy class.

Both must agree, entry by entry; the test suite enforces this.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .exact import Cyclotomic, LaurentPoly, PolyMatrix, ZetaPoly, exact_div
from .rpart import (Composition, ContingencyMatrix, OrderedIndex, RPartition,
                    enumerate_contingency, n_star, partitions)
from .symgrp import (all_perms, block_character, block_cycle_types,
                     centralizer_order, char_perm_det_from_type, compose,
                     cycles, in_young, inverse, sign)
# Not called here: bench/traced.py wraps these two names in this module.
from .symgrp import double_cosets, intersection_elements  # noqa: F401

COSET_N_BOUND = 6
WREATH_ORACLE_BOUND = 20000


class OmegaError(ValueError):
    pass


# -- wreath-product elements --------------------------------------------------


@dataclass(frozen=True)
class WreathElement:
    """(sigma, a): the monomial matrix e_i -> zeta^(a_i) e_(sigma(i)).

    The product applies the right factor first:
    (sigma, a)(tau, b) = (sigma tau, a o tau + b).
    """

    sigma: tuple
    colors: tuple
    r: int

    def __post_init__(self):
        if len(self.sigma) != len(self.colors):
            raise OmegaError("color vector length must match the permutation")
        object.__setattr__(self, "colors",
                           tuple(c % self.r for c in self.colors))

    @property
    def n(self) -> int:
        return len(self.sigma)

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if self.r != other.r:
            raise OmegaError("mixed color orders")
        tau = other.sigma
        colors = tuple((self.colors[tau[i]] + other.colors[i]) % self.r
                       for i in range(self.n))
        return WreathElement(compose(self.sigma, tau), colors, self.r)

    def inv(self) -> "WreathElement":
        sig_inv = inverse(self.sigma)
        colors = tuple((-self.colors[sig_inv[i]]) % self.r
                       for i in range(self.n))
        return WreathElement(sig_inv, colors, self.r)

    @staticmethod
    def identity(n: int, r: int) -> "WreathElement":
        return WreathElement(tuple(range(n)), (0,) * n, r)

    def colored_cycle_type(self) -> tuple:
        """Multiset of (cycle length, color sum mod r): the conjugacy class."""
        out = []
        for cyc in cycles(self.sigma):
            out.append((len(cyc), sum(self.colors[i] for i in cyc) % self.r))
        return tuple(sorted(out, reverse=True))


def wreath_order(n: int, r: int) -> int:
    return factorial(n) * r ** n


def wreath_elements(n: int, r: int):
    """Iterate over all of S_n x (Z/rZ)^n."""
    for sigma in all_perms(n):
        for colors in itertools.product(range(r), repeat=n):
            yield WreathElement(sigma, colors, r)


def delta_value(w: WreathElement) -> Cyclotomic:
    """The order-r linear character: zeta^(sum of colors)."""
    return Cyclotomic.zeta(w.r, sum(w.colors))


def epsilon_value(w: WreathElement) -> int:
    """Pull-back of the sign character of S_n."""
    return sign(w.sigma)


def detV_value(w: WreathElement) -> Cyclotomic:
    """det on the reflection representation: epsilon * delta."""
    return delta_value(w) * epsilon_value(w)


def wreath_charpoly(w: WreathElement) -> ZetaPoly:
    """det_V(t - w) = prod over cycles (t^len - zeta^(color sum))."""
    out = ZetaPoly.from_scalar(w.r, 1)
    for length, s in w.colored_cycle_type():
        out = out * ZetaPoly.binomial(w.r, length, -Cyclotomic.zeta(w.r, s))
    return out


def _check_oracle_bound(n: int, r: int, bound: int):
    cost = n * r ** n
    if cost > bound:
        raise OmegaError(
            f"wreath oracle bound exceeded: n*r^n = {cost} > {bound}")


@lru_cache(maxsize=None)
def wreath_classes(n: int, r: int) -> tuple:
    """Conjugacy classes as (representative, size), keyed by colored type."""
    buckets: dict = {}
    for w in wreath_elements(n, r):
        key = w.colored_cycle_type()
        if key in buckets:
            buckets[key][1] += 1
        else:
            buckets[key] = [w, 1]
    return tuple((rep, size) for rep, size in
                 (buckets[k] for k in sorted(buckets)))


@lru_cache(maxsize=None)
def _wreath_group_list(n: int, r: int) -> tuple:
    return tuple(wreath_elements(n, r))


def _tilde_character(blam: RPartition, w: WreathElement) -> Cyclotomic:
    """chi~^lambda on the block subgroup: Young character twisted by the
    block-graded powers of delta."""
    m = blam.weight()
    value = block_character(blam, block_cycle_types(w.sigma, m))
    if value == 0:
        return Cyclotomic.from_rational(w.r, 0)
    exp = 0
    pos = 0
    for i, size in enumerate(m.parts):
        exp += i * sum(w.colors[pos:pos + size])
        pos += size
    return Cyclotomic.zeta(w.r, exp) * value


@lru_cache(maxsize=None)
def _rho_on_class(blam: RPartition, class_key: tuple, n: int, r: int) -> Cyclotomic:
    group = _wreath_group_list(n, r)
    m = blam.weight()
    # locate one element with the given colored cycle type
    w0 = None
    for rep, _ in wreath_classes(n, r):
        if rep.colored_cycle_type() == class_key:
            w0 = rep
            break
    if w0 is None:
        raise OmegaError(f"unknown class {class_key}")
    order_m = 1
    for size in m.parts:
        order_m *= factorial(size) * r ** size
    total = Cyclotomic.from_rational(r, 0)
    for g in group:
        conj = g.inv() * w0 * g
        if in_young(conj.sigma, m):
            total = total + _tilde_character(blam, conj)
    return total * Fraction(1, order_m)


def rho_character(blam: RPartition, w: WreathElement,
                  bound: int = WREATH_ORACLE_BOUND) -> Cyclotomic:
    """Value at w of the irreducible character indexed by blam, computed by
    brute-force induction from the block subgroup."""
    n, r = blam.n, w.r
    if w.n != n:
        raise OmegaError("element size does not match the r-partition")
    _check_oracle_bound(n, r, bound)
    return _rho_on_class(blam, w.colored_cycle_type(), n, r)


@lru_cache(maxsize=None)
def _class_terms(n: int, r: int) -> tuple:
    """(representative, size, prod_i (t^(ir) - 1) / det_V(t - w)) per class.

    Each quotient is a polynomial: t^l - zeta^s divides t^(rl) - 1, and
    prod_j (t^(r l_j) - 1) divides prod_(i<=n) (t^(ir) - 1)."""
    top = LaurentPoly.one()
    for i in range(1, n + 1):
        top = top * (LaurentPoly.t_power(i * r) - 1)
    top = ZetaPoly.from_laurent(r, top)
    return tuple((rep, size, top.exact_div(wreath_charpoly(rep)))
                 for rep, size in wreath_classes(n, r))


def fake_degree(n: int, r: int, chi,
                bound: int = WREATH_ORACLE_BOUND) -> LaurentPoly:
    """The graded multiplicity generating polynomial of the class function
    chi (a callable on wreath elements with values in Q(zeta_r)):

        R(chi) = prod_i (t^(ir) - 1) / |W| * sum_w det(w) chi(w) / det(t - w)

    The result must be a polynomial with rational coefficients; anything
    else signals a bug in the caller's character values.
    """
    _check_oracle_bound(n, r, bound)
    acc = ZetaPoly(r, [])
    for rep, size, quot in _class_terms(n, r):
        scalar = detV_value(rep) * chi(rep) * size
        if not scalar.is_zero:
            acc = acc + quot * scalar
    return acc.to_laurent() * Fraction(1, wreath_order(n, r))


@lru_cache(maxsize=None)
def omega_entry_bruteforce(lam: RPartition, mu: RPartition, r: int,
                           bound: int = WREATH_ORACLE_BOUND) -> LaurentPoly:
    """omega_(lam,mu) = t^(N*) R(rho^lam x conj(rho^mu) x conj(det_V))."""
    if lam.n != mu.n or lam.r != r or mu.r != r:
        raise OmegaError("index mismatch")
    n = lam.n

    def chi(w: WreathElement) -> Cyclotomic:
        winv = w.inv()
        return (rho_character(lam, w, bound) * rho_character(mu, winv, bound)
                * detV_value(winv))

    value = fake_degree(n, r, chi, bound).shift(n_star(n, r))
    if not value.has_nonneg_int_coeffs():
        raise OmegaError(
            f"oracle entry ({lam}, {mu}) is not in Z>=0[t]: {value}")
    return value


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
    of y), and weight sums prod 1/z_(rho_ij) over the cell types giving the
    triple.  So (1/|S_m||S_m'|) sum_x sum_y f = sum over terms of weight * f.
    """
    r = m.r
    classes = {k: [(rho, centralizer_order(rho)) for rho in partitions(k)]
               for k in range(m.n + 1)}
    out = []
    for h in enumerate_contingency(m, m_prime):
        cells = [(i, j) for i in range(r) for j in range(r) if h.rows[i][j]]
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
            terms[key] = terms.get(key, 0) + Fraction(1, z)
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
    """(column types, row types, polynomial): coset_table contracted with
    t^(r sum_(i<r) h_(i,<=i)) * torus_quotient, summed over the labels h."""
    acc: dict = {}
    for h, terms in coset_table(m, m_prime):
        tpow = r * sum(h.row_prefix(i, i) for i in range(1, r))
        for cols, rows, rho, weight in terms:
            term = torus_quotient(rho, m.n, r).shift(tpow) * weight
            acc[cols, rows] = acc.get((cols, rows), LaurentPoly.zero()) + term
    return tuple((cols, rows, poly) for (cols, rows), poly in acc.items())


@lru_cache(maxsize=None)
def omega_entry_cosets(lam: RPartition, mu: RPartition, r: int,
                       n_bound: int = COSET_N_BOUND) -> LaurentPoly:
    """omega_(lam,mu) through the double-coset expansion of the fake degree:

        t^(a(lam) + a(tau mu)) sum_h t^(r b_O(lam,mu,h)) sum_(x,y)
            chi^lam(y) chi^mu(x^-1 y x) prod_k (t^(kr) - 1)
            / (|S_m| |S_m'| det_V(t^r - y)),

    with the sum over each coset's members x and y in S_m meet x S_m' x^-1,
    here read off coset_table.
    """
    if lam.n != mu.n or lam.r != r or mu.r != r:
        raise OmegaError("index mismatch")
    n = lam.n
    if n > n_bound:
        raise OmegaError(f"coset route limited to n <= {n_bound}")
    total = LaurentPoly.zero()
    for cols, rows, poly in _omega_block(lam.weight(), mu.weight(), r):
        c = block_character(lam, cols) * block_character(mu, rows)
        if c:
            total = total + poly * c
    value = total.shift(r * (comb(n, 2) - lam.n_value() - mu.n_value())
                        + lam.a_value() + mu.tau().a_value())
    if not value.has_nonneg_int_coeffs():
        raise OmegaError(
            f"coset entry ({lam}, {mu}) is not in Z>=0[t]: {value}")
    return value


# -- assembled matrices ---------------------------------------------------------


@dataclass(frozen=True)
class OmegaMatrix:
    """The scaled fake-degree matrix over a fixed total order."""

    order: OrderedIndex
    entries: PolyMatrix
    n: int
    r: int
    method: str

    def entry(self, lam: RPartition, mu: RPartition) -> LaurentPoly:
        return self.entries.entry(lam, mu)


def omega_matrix(n: int, r: int, order: OrderedIndex,
                 method: str = "cosets",
                 coset_n_bound: int = COSET_N_BOUND,
                 wreath_bound: int = WREATH_ORACLE_BOUND) -> OmegaMatrix:
    if method == "cosets":
        entry = lambda a, b: omega_entry_cosets(a, b, r, n_bound=coset_n_bound)
    elif method == "wreath":
        entry = lambda a, b: omega_entry_bruteforce(a, b, r, bound=wreath_bound)
    else:
        raise OmegaError(f"unknown method {method!r}")
    rows = [[entry(lam, mu) for mu in order.items] for lam in order.items]
    return OmegaMatrix(order, PolyMatrix(order, rows), n, r, method)
