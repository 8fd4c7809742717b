"""The polynomial reconstruction check, kept as the oracle of the packed
integer check factor._verify_reconstruction.

It rebuilds every cell of P- Lambda transpose(P+) as a Laurent polynomial,
about K^3/3 triple products, and compares it with Omega row by row.
"""
from wkostka.exact import LaurentPoly
from wkostka.factor import FactorizationError


def reconstructed_entries(p_minus, xi, p_plus):
    """(i, j, sum_l P-_il xi_l P+_jl) for every cell, row by row, from the
    rows of the lower-triangular P+- and the diagonal xi."""
    k = len(xi)
    for i in range(k):
        for j in range(k):
            acc = LaurentPoly.zero()
            for l in range(min(i, j) + 1):
                acc = acc + p_minus[i][l] * xi[l] * p_plus[j][l]
            yield i, j, acc


def check_reconstruction(order, pm, xi, pp, om):
    """Raise FactorizationError at the first cell, row by row, where
    sum_l P-_il xi_l P+_jl differs from Omega_ij."""
    for i, j, acc in reconstructed_entries(pm.rows, xi, pp.rows):
        if acc != om.entries.rows[i][j]:
            raise FactorizationError(
                f"reconstruction failed at ({order.items[i]}, {order.items[j]})")
