"""Two reconstruction checks, kept as oracles of the packed check
factor.reconstruction_mismatches, which packs each value about its own low.

laurent_mismatches rebuilds every cell of P- Lambda transpose(P+) as a
Laurent polynomial, about K^3/3 triple products, and compares it with Omega
row by row.  matrix_low_mismatches is the packed identity under the other
convention: each matrix packs about that matrix's lowest exponent, with its
own packer.
"""
from math import lcm
from operator import mul

from wkostka.exact import LaurentPoly


def laurent_mismatches(p_minus, xi, p_plus, omega):
    """Each cell (i, j), row by row, where sum_l P-_il xi_l P+_jl, summed as
    Laurent polynomials, differs from omega[i][j]."""
    k = len(xi)
    for i in range(k):
        for j in range(k):
            acc = LaurentPoly.zero()
            for l in range(min(i, j) + 1):
                acc = acc + p_minus[i][l] * xi[l] * p_plus[j][l]
            if acc != omega[i][j]:
                yield i, j


def matrix_low_mismatches(p_minus, xi, p_plus, omega):
    """The cells of laurent_mismatches, by one packed integer per cell.

    P-, xi and P+ pack about their matrix's lowest exponent, and Omega
    about the sum of the three (or its own lowest exponent, where that is
    lower), at the width of factor.reconstruction_mismatches; P- packs
    about its low less the gap below that sum, so that every product sits
    about Omega's base too.  Denominators are cleared by D as there.
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
    lows = [min((p.low for row in rows for p in row if p.coeffs), default=0)
            for rows in mats]
    top = lows[0] + lows[1] + lows[2]
    base = min(top, lows[3])
    lows[0] -= top - base
    lows[3] = base
    packed_pm, (packed_xi,), packed_pp, packed_om = (
        [[_pack(p, low, bits) for p in row] for row in rows]
        for rows, low in zip(mats, lows))
    for i in range(k):
        weighted = list(map(mul, packed_pm[i][:i + 1], packed_xi))
        for j in range(k):
            m = min(i, j) + 1
            if sum(map(mul, weighted[:m], packed_pp[j][:m])) != packed_om[i][j]:
                yield i, j


def _pack(p, low, bits):
    """p * t^-low at t = 2^bits (low <= p.low unless p is zero)."""
    v = 0
    for c in reversed(p.coeffs):
        v = (v << bits) + c
    return v << bits * (p.low - low) if p.coeffs else 0
