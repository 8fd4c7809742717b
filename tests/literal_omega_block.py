"""The per-entry contraction of omega.coset_table in Q[t, t^-1], kept as the
oracle of the integer kernel (omega._omega_block, _omega_row and
omega_entry_cosets).

Each block is a LaurentPoly with the 1/z weights as Fraction coefficients,
and each entry sums chi^lam(cols) chi^mu(rows) times its blocks.
"""
from functools import lru_cache
from math import comb

from wkostka.exact import LaurentPoly
from wkostka.omega import coset_table, torus_quotient
from wkostka.symgrp import block_character


@lru_cache(maxsize=None)
def fraction_blocks(m, mp, r):
    """(column types, row types) -> the block as a LaurentPoly over Q."""
    acc = {}
    for h, terms in coset_table(m, mp):
        tpow = r * sum(h.row_prefix(i, i) for i in range(1, r))
        for cols, rows, rho, weight in terms:
            term = torus_quotient(rho, m.n, r).shift(tpow) * weight
            acc[cols, rows] = acc.get((cols, rows), LaurentPoly.zero()) + term
    return tuple((cols, rows, poly) for (cols, rows), poly in acc.items())


def omega_by_fraction_blocks(lam, mu, r):
    total = LaurentPoly.zero()
    for cols, rows, poly in fraction_blocks(lam.weight(), mu.weight(), r):
        c = block_character(lam, cols) * block_character(mu, rows)
        if c:
            total = total + poly * c
    return total.shift(r * (comb(lam.n, 2) - lam.n_value() - mu.n_value())
                       + lam.a_value() + mu.tau().a_value())
