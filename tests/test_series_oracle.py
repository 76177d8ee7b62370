"""Hypothesis properties of the zeta-series exp/log pair, on series shaped
like the engine's: a unit constant term and coefficients in Q(t) over
q-number denominators, and products of linear factors (1 - lam z^s)^(+-1).
Series division is checked against the arithmetic it replaced: the inverse
as a geometric series of full products, and a zeta-rational expanded as its
padded numerator times that inverse of its denominator.
Development-only; skipped when hypothesis is not installed."""

import pytest

pytestmark = pytest.mark.oracle

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qaffine.rational import ZetaRational  # noqa: E402
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


# -- division against the geometric-series oracle ------------------------------

def _geometric_inverse(s):
    # self = c0 zeta^lo (1 + r), and 1/(1 + r) = sum_n (-r)^n, one full
    # series product per term
    lo = min(s.coeffs)
    inv0 = s.coeffs[lo].inverse()
    n_eff = s.order - lo
    unit = ZetaSeries({d - lo: c * inv0 for d, c in s.coeffs.items()
                       if d != lo}, n_eff)
    acc = ZetaSeries.one(n_eff)
    term = ZetaSeries.one(n_eff)
    sign = -1
    while True:
        term = term * unit
        if not term:
            break
        acc = acc + term if sign > 0 else acc - term
        sign = -sign
    return ZetaSeries({d - lo: c * inv0 for d, c in acc.coeffs.items()},
                      s.order - 2 * lo, -lo)


def _padded_expansion(zr, order):
    # a Laurent numerator pushes pole terms below zero, so the denominator
    # is expanded far enough that the product is exact through `order`
    lo = min(zr.num) if zr.num else 0
    pad = max(0, -lo)
    num = ZetaSeries(dict(zr.num), order + pad)
    den = ZetaSeries(dict(zr.den), order + pad)
    return (num * _geometric_inverse(den)).truncate(order)


def _same(a, b):
    return a == b and a.min_degree == b.min_degree


@st.composite
def invertible_series(draw):
    # lowest degree -2..2 with a lowest coefficient that need not be monic
    lo = draw(st.integers(-2, 2))
    order = draw(st.integers(max(lo, 0), lo + 6))
    coeffs = {lo: draw(coefficients())}
    for d in range(lo + 1, order + 1):
        if draw(st.booleans()):
            coeffs[d] = draw(coefficients())
    return ZetaSeries(coeffs, order)


@st.composite
def zeta_rationals(draw):
    # Laurent numerators down to zeta^-3, denominators of degree up to 3
    # whose constant term need not be 1 before normalisation
    num = {d: draw(coefficients()) for d in draw(
        st.lists(st.integers(-3, 4), max_size=3, unique=True))}
    den = {0: draw(coefficients())}
    for d in draw(st.lists(st.integers(1, 3), max_size=2, unique=True)):
        den[d] = draw(coefficients())
    return ZetaRational(num, den), draw(st.integers(0, 6))


@SETTINGS
@hypothesis.given(invertible_series())
def test_inverse_matches_geometric_series(s):
    assert _same(s.inverse(), _geometric_inverse(s))


@SETTINGS
@hypothesis.given(zeta_rationals())
def test_to_series_matches_padded_expansion(case):
    zr, order = case
    assert _same(zr.to_series(order), _padded_expansion(zr, order))


def test_division_oracle_edge_cases():
    # a constant, a single Laurent term, zero, a numerator above the order
    half = QScalar.from_int(2).inverse()
    for s in (ZetaSeries.const(half, 3), ZetaSeries({-2: t_power(6)}, 1)):
        assert _same(s.inverse(), _geometric_inverse(s))
    den = {0: ONE, 1: -t_power(6)}
    for num in ({}, {5: ONE}, {-3: half}):
        zr = ZetaRational(num, den)
        for order in (0, 2, 4):
            assert _same(zr.to_series(order), _padded_expansion(zr, order))
