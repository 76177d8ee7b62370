"""Hypothesis properties of the zeta-series exp/log pair, on series shaped
like the engine's: a unit constant term and coefficients in Q(t) over
q-number denominators, and products of linear factors (1 - lam z^s)^(+-1).
Development-only; skipped when hypothesis is not installed."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qaffine.scalars import QScalar, t_power  # noqa: E402
from qaffine.series import ZetaSeries, series_exp, series_log  # noqa: E402

ONE = QScalar.ONE
SETTINGS = hypothesis.settings(max_examples=60, deadline=None,
                               derandomize=True, database=None)

# q^2 - 1, q^2 + 1 and [3]_{q^2}: the denominators of the engine's
# imaginary root vectors and of its coupling matrices
_DENOMINATORS = [QScalar({0: -1, 12: 1}), QScalar({0: 1, 12: 1}),
                 QScalar({0: 1, 12: 1, 24: 1})]

_numerators = st.dictionaries(
    st.integers(-8, 8).map(lambda k: 6 * k),
    st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool),
    min_size=1, max_size=3)


@st.composite
def coefficients(draw):
    x = QScalar(draw(_numerators))
    for den in draw(st.lists(st.sampled_from(_DENOMINATORS), max_size=2)):
        x = x / den
    return x


@st.composite
def unit_series(draw):
    order = draw(st.integers(1, 6))
    step = draw(st.integers(1, 2))
    coeffs = {0: ONE}
    for d in range(step, order + 1, step):
        if draw(st.booleans()):
            coeffs[d] = draw(coefficients())
    return ZetaSeries(coeffs, order)


@st.composite
def linear_factor_products(draw):
    # prod_k (1 - lam_k z^s)^(+-1) with monomials lam_k in t
    order = draw(st.integers(1, 6))
    step = draw(st.integers(1, 3))
    g = ZetaSeries.one(order)
    for _ in range(draw(st.integers(0, 4))):
        factor = ZetaSeries({0: ONE, step: -t_power(draw(st.integers(-30, 30)))},
                            order)
        g = g * (factor if draw(st.booleans()) else factor.inverse())
    return g


@SETTINGS
@hypothesis.given(unit_series())
def test_exp_inverts_log(g):
    assert series_exp(series_log(g)) == g


@SETTINGS
@hypothesis.given(linear_factor_products())
def test_exp_recovers_products_of_linear_factors(g):
    assert series_exp(series_log(g)) == g
