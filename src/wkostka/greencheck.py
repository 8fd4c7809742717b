"""Combinatorial inner products of Green functions and exponent identities.

Everything here is a verifier: the inner-product formula is evaluated purely
from double-coset combinatorics, as a contraction of omega.coset_table (no
finite-field group element or permutation is ever constructed), and the
exponent bookkeeping behind the bridge identity is checked as exact integer
arithmetic.
"""
from __future__ import annotations

import itertools
import json
from math import comb

from .exact import LaurentPoly
from .omega import (a_O, b_O, bracket, coset_table, omega_entry_cosets,
                    torus_quotient)
from .record import Record
from .rpart import (Composition, ContingencyMatrix, RPartition, compositions,
                    enumerate_contingency, enumerate_rpartitions, n_star)
from .symgrp import block_character
# Not called here: bench/traced.py wraps these two names in this module.
from .symgrp import double_cosets, intersection_elements  # noqa: F401

MINUS = "-"
PLUS = "+"
_SIGNS = (MINUS, PLUS)


class GreenCheckError(ValueError):
    pass


def a_exponent(pair: tuple, h: ContingencyMatrix) -> int:
    """The q-exponent attached to a double coset for a sign pair.

    Only the (-,+) case is used by the bridge identity; the other three come
    from the same flag-intersection dimension count by inclusion-exclusion.
    """
    eps, eps_prime = pair
    if eps not in _SIGNS or eps_prime not in _SIGNS:
        raise GreenCheckError(f"bad sign pair {pair!r}")
    r = h.r
    total = 0
    for i in range(1, r):
        if (eps, eps_prime) == (MINUS, PLUS):
            total += h.row_prefix(i, i)
        elif (eps, eps_prime) == (MINUS, MINUS):
            total += h.block_prefix(i, i)
        elif (eps, eps_prime) == (PLUS, MINUS):
            total += h.col_prefix(i, i)
        else:
            total += h.entry(i, i)
    return total


def green_inner_product(lam: RPartition, mu: RPartition, pair: tuple,
                        power: int = 1) -> LaurentPoly:
    """The Green-function inner product, evaluated combinatorially.

    The value is symbolic over the base field of order t^power (power > 1
    realizes base-field extensions): a Laurent polynomial, since each
    |GL_n| / |T_w| term is one, whose coefficients carry the 1/z weights of
    coset_table and so may be Fractions.  Its value at t = q, an exact
    rational number, is the inner product over the field of order q^power.
    """
    if lam.n != mu.n or lam.r != mu.r:
        raise GreenCheckError("indices must share n and r")
    n = lam.n
    m = lam.weight()
    mp = mu.weight()
    sign_map = {MINUS: m.p_minus(), PLUS: m.p_plus()}
    sign_map_p = {MINUS: mp.p_minus(), PLUS: mp.p_plus()}
    sign = (-1) ** (sign_map[pair[0]] + sign_map_p[pair[1]])

    # chi^lam(w) chi^mu(x^-1 w x) over each coset, by q-exponent and type of w
    coefs: dict = {}
    for h, terms in coset_table(m, mp):
        a = a_exponent(pair, h)
        for cols, rows, rho, weight in terms:
            c = weight * block_character(lam, cols) * block_character(mu, rows)
            if c:
                coefs[a, rho] = coefs.get((a, rho), 0) + c
    # times |GL_n| / |T_w|, over the base field of order t^power
    value = LaurentPoly.zero()
    for (a, rho), c in coefs.items():
        value = value + torus_quotient(rho, n, power).shift(
            power * (a + comb(n, 2))) * c
    return value * sign


# -- verification reports -------------------------------------------------------


class VerifyReport(Record):
    __slots__ = ("suite", "params", "violations", "checked")
    _defaults = {"violations": [], "checked": 0}

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps({"suite": self.suite, "params": self.params,
                           "checked": self.checked,
                           "violations": self.violations,
                           "pass": self.passed}, indent=2)


def lemma59_check(n: int, r: int) -> VerifyReport:
    """N* - a(lam) - a(tau(mu)) + A_O = r B_O(lam,mu) over all data."""
    report = VerifyReport("lemma59", {"n": n, "r": r})
    nstar = n_star(n, r)
    weights = {}
    for lam in enumerate_rpartitions(n, r):
        weights.setdefault(lam.weight(), []).append(lam)
    for m, lams in weights.items():
        for mp, mus in weights.items():
            for h in enumerate_contingency(m, mp):
                aO = a_O(h, r)
                for lam in lams:
                    for mu in mus:
                        lhs = nstar - lam.a_value() - mu.tau().a_value() + aO
                        rhs = r * b_O(lam, mu, h)
                        report.checked += 1
                        if lhs != rhs:
                            report.violations.append(
                                {"lam": str(lam), "mu": str(mu),
                                 "h": str(h), "lhs": lhs, "rhs": rhs})
    return report


def identity_5113_check(n: int, r: int) -> VerifyReport:
    """The bare exponent identity: C + sum [j-i-1] h_(ij) = r sum h_(i,<=i),
    with C computed directly from the weight vectors."""
    report = VerifyReport("identity5113", {"n": n, "r": r})
    comps = [Composition(c) for c in compositions(n, r)]
    for m in comps:
        for mp in comps:
            lam_term = sum((j - 1) * mj for j, mj in enumerate(m.parts, start=1))
            mu_term = sum((r - 1 - i) * mi
                          for i, mi in enumerate(mp.parts[:r - 1], start=1)) \
                + (r - 1) * mp.parts[r - 1]
            c_const = (r - 1) * n - lam_term - mu_term
            for h in enumerate_contingency(m, mp):
                lhs = c_const + sum(bracket(j, i, r) * h.entry(i, j)
                                    for i in range(1, r + 1)
                                    for j in range(1, r + 1))
                rhs = r * sum(h.row_prefix(i, i) for i in range(1, r))
                report.checked += 1
                if lhs != rhs:
                    report.violations.append(
                        {"m": str(m), "m_prime": str(mp), "h": str(h),
                         "lhs": lhs, "rhs": rhs})
    return report


def thm55_check(n: int, r: int, mode: str = "symbolic",
                q_values=(2, 3, 4)) -> VerifyReport:
    """The bridge identity between the fake-degree matrix and Green-function
    inner products over the base field of order q^r: symbolically in t
    (mode "symbolic"), or at t = q for each q in q_values ("numeric").
    Either way each cell takes one symbolic Green value."""
    if mode not in ("symbolic", "numeric"):
        raise GreenCheckError(f"unknown mode {mode!r}")
    report = VerifyReport("thm55", {"n": n, "r": r, "mode": mode,
                                    "q_values": list(q_values)
                                    if mode == "numeric" else None})
    items = enumerate_rpartitions(n, r)
    for lam, mu in itertools.product(items, repeat=2):
        lhs = omega_entry_cosets(lam, mu, r).shift(
            -lam.a_value() - mu.tau().a_value())
        sign = (-1) ** (lam.weight().p_minus() + mu.weight().p_plus())
        rhs = green_inner_product(lam, mu, (MINUS, PLUS), power=r).shift(
            -r * (lam.n_value() + mu.n_value())) * sign
        report.checked += 1
        if mode == "symbolic":
            if lhs != rhs:
                report.violations.append(
                    {"lam": str(lam), "mu": str(mu),
                     "lhs": str(lhs), "rhs": str(rhs)})
            continue
        for q in q_values:
            lhs_q, rhs_q = lhs.eval_at(q), rhs.eval_at(q)
            if lhs_q != rhs_q:
                report.violations.append(
                    {"lam": str(lam), "mu": str(mu), "q": str(q),
                     "lhs": str(lhs_q), "rhs": str(rhs_q)})
    return report
