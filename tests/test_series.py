from fractions import Fraction

import pytest

from qaffine.scalars import QScalar, q_power, qint_base
from qaffine.series import ZetaSeries, series_exp, series_log, lambda_level

ONE = QScalar.ONE
N = 8


def geometric(c, order):
    # expansion of 1/(1 - c z)
    out = {}
    p = ONE
    for d in range(order + 1):
        out[d] = p
        p = p * c
    return ZetaSeries(out, order)


def test_exp_of_zero_and_log_of_one():
    assert series_exp(ZetaSeries.zero(N)) == ZetaSeries.one(N)
    assert series_log(ZetaSeries.one(N)) == ZetaSeries.zero(N)


def test_log_one_minus_zeta_is_mercator():
    g = ZetaSeries({0: ONE, 1: -ONE}, N)
    expect = ZetaSeries(
        {m: QScalar.from_fraction(Fraction(-1, m)) for m in range(1, N + 1)}, N)
    assert series_log(g) == expect


def test_exp_log_inverse_pair():
    f = ZetaSeries({1: q_power(1), 2: QScalar.from_int(3), 5: -q_power(-2)}, N)
    assert series_log(series_exp(f)) == f
    g = ZetaSeries.one(N) + f
    assert series_exp(series_log(g)) == g


def brute_exp_coeff(f_coeffs, degree):
    # independent oracle: multiply out exp termwise with plain dict convolution
    acc = {0: ONE}
    total = {0: ONE}
    fact = 1
    for k in range(1, degree + 1):
        nxt = {}
        for da, ca in acc.items():
            for db, cb in f_coeffs.items():
                d = da + db
                if d > degree:
                    continue
                nxt[d] = nxt.get(d, QScalar.ZERO) + ca * cb
        acc = nxt
        fact *= k
        for d, c in acc.items():
            total[d] = total.get(d, QScalar.ZERO) + c.scale(Fraction(1, fact))
    return total.get(degree, QScalar.ZERO)


def test_exp_lambda2_coefficient_against_oracle():
    # lambda_2(q^-1 z) has coefficients q^-m / ((q^m + q^-m) m)
    lam = lambda_level(2, q_power(-1), 1, 2)
    oracle = brute_exp_coeff(lam.coeffs, 2)
    got = series_exp(lambda_level(2, q_power(-1), 1, N)).coeff(2)
    assert got == oracle
    # frozen closed form of the oracle value:
    # z^2 coeff = q^-2/(2(q^2+q^-2)) + q^-2/(2(q+q^-1)^2)
    q2 = q_power(2)
    q1 = q_power(1) + q_power(-1)
    expect = (q_power(-2) / ((q2 + q_power(-2)) * QScalar.from_int(2))
              + q_power(-2) / (q1 * q1 * QScalar.from_int(2)))
    assert got == expect


def test_lambda_first_coefficients():
    lam2 = lambda_level(2, ONE, 1, N)
    assert lam2.coeff(1) == (q_power(1) + q_power(-1)).inverse()
    lam3 = lambda_level(3, q_power(2), 1, N)
    assert lam3.coeff(1) == q_power(2) / (q_power(2) + ONE + q_power(-2))
    with pytest.raises(ValueError):
        lambda_level(4, ONE, 1, N)


def test_lambda2_sum_identity():
    # lambda_2(q z) + lambda_2(q^-1 z) = -log(1 - z), coefficientwise
    lhs = lambda_level(2, q_power(1), 1, N) + lambda_level(2, q_power(-1), 1, N)
    rhs = -series_log(ZetaSeries({0: ONE, 1: -ONE}, N))
    assert lhs == rhs
    assert lhs + series_log(ZetaSeries({0: ONE, 1: -ONE}, N)) == ZetaSeries.zero(N)


def test_lambda3_sum_identity():
    lhs = (lambda_level(3, q_power(2), 1, N) + lambda_level(3, ONE, 1, N)
           + lambda_level(3, q_power(-2), 1, N))
    rhs = -series_log(ZetaSeries({0: ONE, 1: -ONE}, N))
    assert lhs == rhs


def test_mul_commutative_associative():
    a = ZetaSeries({0: ONE, 1: q_power(1)}, N)
    b = ZetaSeries({-1: q_power(-1), 2: QScalar.from_int(2)}, N)
    c = ZetaSeries({1: -ONE, 3: qint_base(2, 6)}, N)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def test_inverse_of_rational_expansion():
    c = q_power(-2)
    g = geometric(c, N)
    direct = ZetaSeries({0: ONE, 1: -c}, N)
    assert g * direct == ZetaSeries.one(N)
    assert g.inverse() == direct
    # Laurent leading term: order bookkeeping gives order N-2 for lo = 1
    h = ZetaSeries({1: ONE, 2: ONE}, N)
    hi = h.inverse()
    assert hi.order == N - 2
    assert (h * hi).coeff(0) == ONE


def test_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        series_exp(ZetaSeries({0: ONE}, N))
    with pytest.raises(ValueError):
        series_log(ZetaSeries({0: QScalar.from_int(2)}, N))
    with pytest.raises(ValueError):
        series_log(ZetaSeries({-1: ONE, 0: ONE}, N))

