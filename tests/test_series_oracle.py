"""Hypothesis properties of the zeta-series exp/log pair, on series shaped
like the engine's: a unit constant term and coefficients in Q(t) over
q-number denominators, and products of linear factors (1 - lam z^s)^(+-1).
Series division is checked against the arithmetic it replaced: the inverse
as a geometric series of full products, and a zeta-rational expanded as its
padded numerator times that inverse of its denominator.  The engine's leg
logarithms, read off products of linear factors (check (a)), are checked
against `series_log`, and its imaginary factor on drawn legs against
`series_exp` of the argument summed from its definition.
Development-only; skipped when hypothesis is not installed."""

from fractions import Fraction

import pytest

pytestmark = pytest.mark.oracle

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qaffine import engine  # noqa: E402
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
    return ZetaSeries((num * _geometric_inverse(den)).coeffs, order)


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


# -- check (a): leg logarithms of products of linear factors ------------------

def _product_values(factors, levels):
    # the coefficients at y^1 .. y^levels of prod (1 - eps t^k y)^n over the
    # factors (eps, k, n), multiplied out as series, negative powers by
    # `ZetaSeries.inverse`
    g = ZetaSeries.one(levels)
    for eps, k, n in factors:
        factor = ZetaSeries({0: ONE, 1: t_power(k).scale(-eps)}, levels)
        for _ in range(abs(n)):
            g = g * (factor if n > 0 else factor.inverse())
    return tuple(g.coeff(m) for m in range(1, levels + 1))


_exponents = st.dictionaries(st.integers(-30, 30),
                             st.integers(-3, 3).filter(bool), min_size=1,
                             max_size=3)


@st.composite
def node_products(draw, min_levels=1):
    levels = draw(st.integers(min_levels, 8))
    eps = draw(st.sampled_from([-1, 1]))
    n = draw(_exponents)
    return eps, n, _product_values([(eps, k, c) for k, c in n.items()],
                                   levels)


def _logs_and_calls(values):
    # the engine's node logarithms, and the calls it made to series_log
    calls, real = [], engine.series_log
    engine.series_log = lambda g: calls.append(g) or real(g)
    try:
        return engine._node_log(values), len(calls)
    finally:
        engine.series_log = real


def _series_logs(values):
    log = series_log(ZetaSeries({0: ONE, **dict(enumerate(values, 1))},
                                len(values)))
    return tuple(log.coeff(m) for m in range(1, len(values) + 1))


@SETTINGS
@hypothesis.given(node_products())
def test_a_product_of_linear_factors_needs_no_series_log(case):
    # check (a) finds the drawn sign (from level 2 on; level 1 alone fits
    # either, and -1 is tried first), and the logarithms it gives, -(eps^m /
    # m) sum_k n_k t^(k m) with the drawn n, are series_log's
    eps, n, values = case
    (got, logs), calls = _logs_and_calls(values)
    assert calls == 0
    assert got == engine._power_sum(values) == (eps if len(values) > 1
                                                 else -1)
    assert logs == _series_logs(values) == tuple(
        QScalar({k * m: -eps ** m * c for k, c in n.items()}).scale(
            Fraction(1, m)) for m in range(1, len(values) + 1))


@SETTINGS
@hypothesis.given(node_products(min_levels=2), st.data())
def test_a_product_with_one_level_perturbed_takes_series_log(case, data):
    # a monomial added at one level m >= 2 is refused, unless it makes the
    # product of the other sign with the same level 1, n_k -> -n_k
    eps, n, values = case
    m = data.draw(st.integers(2, len(values)))
    bump = t_power(data.draw(st.integers(-40, 40))).scale(
        data.draw(st.integers(-2, 2).filter(bool)))
    values = values[:m - 1] + (values[m - 1] + bump,) + values[m:]
    hypothesis.assume(values != _product_values(
        [(-eps, k, -c) for k, c in n.items()], len(values)))
    (got, logs), calls = _logs_and_calls(values)
    assert engine._power_sum(values) is got is None and calls == 1
    assert logs == _series_logs(values)


@SETTINGS
@hypothesis.given(st.integers(2, 8), _exponents, _exponents)
def test_mixed_signs_in_one_node_take_series_log(levels, minus, plus):
    # factors 1 - t^k y and 1 + t^k y in one node, on distinct k
    plus = {k + 61: c for k, c in plus.items()}
    values = _product_values([(1, k, c) for k, c in minus.items()]
                             + [(-1, k, c) for k, c in plus.items()], levels)
    (got, logs), calls = _logs_and_calls(values)
    assert engine._power_sum(values) is got is None and calls == 1
    assert logs == _series_logs(values)


def test_a_product_beyond_the_pass_bound_takes_series_log():
    # check (a) makes one pass per unit of sum_k |n_k|, so above its bound a
    # product is left to series_log, whose cost does not grow with n_k
    values = _product_values([(1, 5, engine._MAX_PASSES + 1)], 3)
    (got, logs), calls = _logs_and_calls(values)
    assert got is None and calls == 1
    assert logs == _series_logs(values)


# -- the imaginary factor on drawn legs ------------------------------------------

class _Params:
    # what the imaginary factor reads of `EngineParams`
    def __init__(self, algebra, m_max):
        self.algebra, self.m_max = algebra, m_max


# the factor of every denominator of kappa_1, t^24 - 1 for a1 and t^36 - 1
# for a2: where each right node's level 1 is a multiple of it, a_1 has
# integer coefficients
_PERIOD = {"a1": 24, "a2": 36}


@st.composite
def drawn_legs(draw):
    # a left and a right leg of 1 to 3 states, state 0 the ground; every node
    # a product of linear factors of one sign, on the right a sum of pairs
    # c t^k (1 - t^(period)) at level 1, with the node signs eps_i and
    # eps'_j that check (c) asks for, sigma_ij eps_i eps'_j = 1
    algebra = draw(st.sampled_from(["a1", "a2"]))
    m_max = draw(st.integers(1, 4))
    base = draw(st.sampled_from([-1, 1]))
    signs = [base] if algebra == "a1" else [base, -base]
    period = _PERIOD[algebra]

    def node(eps, right):
        # zeros, or a product; on the right each factor 1 - eps t^k y comes
        # with 1 - eps t^(k + period) y to the opposite power
        if draw(st.integers(0, 4)) == 0:
            return (QScalar.ZERO,) * m_max
        n = draw(_exponents)
        factors = [(eps, k, c) for k, c in n.items()]
        if right:
            factors += [(eps, k + period, -c) for k, c in n.items()]
        return _product_values(factors, m_max)

    legs = [[[node(eps, right) for eps in signs]
             for _ in range(draw(st.integers(1, 3)))]
            for right in (False, True)]
    return algebra, m_max, legs


def _table(states, zstep):
    # a table whose node i takes state x to states[x][i], level by level
    diags = [[(lambda x, i=i, m=m: states[x][i][m])
              for m in range(len(states[0][0]))]
             for i in range(len(states[0]))]
    return engine.RootVectorTable({}, diags, zstep)


def _factor_and_fallbacks(algebra, m_max, legs):
    calls, real = [], engine.series_exp
    engine.series_exp = lambda f: calls.append(f) or real(f)
    left, right = (_table(states, z) for states, z in zip(legs, (2, -1)))
    cols = {(x, y) for x in range(len(legs[0])) for y in range(len(legs[1]))}
    try:
        return engine._imaginary_factor(left, right, _Params(algebra, m_max),
                                        m_max, cols, (0, 0)), len(calls)
    finally:
        engine.series_exp = real


def _definition(algebra, m_max, legs):
    # a_00 and every weight from the definition, the logarithms by
    # series_log: the level-m argument kappa_m sum_ij A_m[i][j] L_im L'_jm
    # at zeta^m
    levels, _ = engine.u_matrices(algebra, m_max)
    logs = [[[_series_logs(v) if any(v) else v for v in state]
             for state in states] for states in legs]

    def argument(x, y):
        return ZetaSeries({m: kappa * sum(
            (adj[i][j] * a[m - 1] * b[m - 1]
             for i, a in enumerate(logs[0][x])
             for j, b in enumerate(logs[1][y])), QScalar.ZERO)
            for m, (kappa, adj) in levels.items()}, m_max)
    a00 = argument(0, 0)
    return a00, {(x, y): series_exp(argument(x, y) - a00)
                 for x in range(len(legs[0])) for y in range(len(legs[1]))}


@hypothesis.settings(SETTINGS, max_examples=30)
@hypothesis.given(drawn_legs())
def test_power_sum_weights_are_finite_products(case):
    # legs that pass checks (a) and (c) with a_1 an integer polynomial take
    # no series_exp, and give the definition's a_00 and weights
    factor, fallbacks = _factor_and_fallbacks(*case)
    assert fallbacks == 0
    assert factor == _definition(*case)


@hypothesis.settings(SETTINGS, max_examples=30)
@hypothesis.given(drawn_legs(), st.data())
def test_other_exponents_fall_back_to_series_exp(case, data):
    # a level m >= 2 of one node off its product (check (a)), or the ground's
    # first node of the other sign (check (c)): the pairs it reaches take
    # series_exp, and the result is still the definition's
    algebra, m_max, legs = case
    legs = [[list(state) for state in states] for states in legs]
    hypothesis.assume(m_max > 1 and any(legs[0][0][0]))
    if data.draw(st.booleans()):
        side = data.draw(st.integers(0, 1))
        x = data.draw(st.integers(0, len(legs[side]) - 1))
        i = data.draw(st.integers(0, len(legs[side][x]) - 1))
        hypothesis.assume(any(legs[side][x][i]))
        m = data.draw(st.integers(2, m_max))
        v = list(legs[side][x][i])
        v[m - 1] = v[m - 1] + t_power(data.draw(st.integers(-40, 40)))
        legs[side][x][i] = tuple(v)
        hypothesis.assume(engine._power_sum(v) is None)
    else:
        # g(y) -> g(-y)
        legs[0][0][0] = tuple(-v if m % 2 else v for m, v in
                              enumerate(legs[0][0][0], 1))
        hypothesis.assume(any(any(v) for v in legs[1][0]))
    factor, fallbacks = _factor_and_fallbacks(algebra, m_max, legs)
    assert fallbacks >= 1
    assert factor == _definition(algebra, m_max, legs)


@hypothesis.settings(SETTINGS, max_examples=30)
@hypothesis.given(drawn_legs(), st.data())
def test_an_exponent_off_the_integers_falls_back_to_series_exp(case, data):
    # one right node drawn anew as a product of its sign eps'_j (which level
    # 2 fixes), without the factors that make a_1 integral: checks (a) and
    # (c) still hold, and a pair whose a_1 has a polynomial denominator
    # takes series_exp; the result is still the definition's
    algebra, m_max, legs = case
    legs = [[list(state) for state in states] for states in legs]
    y = data.draw(st.integers(0, len(legs[1]) - 1))
    j = data.draw(st.integers(0, len(legs[1][y]) - 1))
    hypothesis.assume(m_max > 1 and any(legs[1][y][j]))
    legs[1][y][j] = _product_values(
        [(engine._power_sum(legs[1][y][j]), k, c)
         for k, c in data.draw(_exponents).items()], m_max)
    kappa, adj = engine.u_matrices(algebra, m_max)[0][1]

    def p1(x, y):
        # P_1 at (x, y): the logarithms at level 1 are the eigenvalues
        return sum((adj[i][j] * a[0] * b[0] for i, a in enumerate(legs[0][x])
                    for j, b in enumerate(legs[1][y])), QScalar.ZERO)
    hypothesis.assume(any((kappa * (p1(x, y) - p1(0, 0))).den != {0: 1}
                          for x in range(len(legs[0]))
                          for y in range(len(legs[1]))))
    factor, fallbacks = _factor_and_fallbacks(algebra, m_max, legs)
    assert fallbacks >= 1
    assert factor == _definition(algebra, m_max, legs)
