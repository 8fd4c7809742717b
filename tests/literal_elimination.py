"""The Laurent-polynomial elimination: the oracle of the packed integer
elimination in factor.solve_factorization, which must match it over the
whole grid of test_factor.TestPackedElimination.test_matches_the_laurent_oracle.

It forms every inner sum Omega - sum_g P-_kg M_gb (M = Lambda transpose(P+))
as about K^3/3 LaurentPoly products, and divides at the pivots with
exact_div over Q, raising the same FactorizationError messages as the
solver where a division leaves Q[t, t^-1] or a pivot vanishes.
"""
from wkostka.exact import ExactError, LaurentPoly, exact_div
from wkostka.factor import FactorizationError


def literal_elimination(om):
    """(P- rows, xi, P+ rows) of P- Lambda transpose(P+) = Omega, with
    Lambda = diag(xi), by forward elimination in om's order."""
    items = om.order.items
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
    return p_minus, xi, p_plus
