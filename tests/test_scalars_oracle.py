"""The Q(t) kernel against independent oracles: sympy for values and gcds,
hypothesis for the canonical form.  Both are development-only and are
skipped when not installed; nothing in src/ imports them."""

import itertools
import math
import random

from fractions import Fraction

import pytest

pytestmark = pytest.mark.oracle

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qaffine import scalars  # noqa: E402
from qaffine.scalars import QScalar, parse_qscalar, qint, q_power  # noqa: E402
from oracles import subs_t_inverse  # noqa: E402

T = sympy.Symbol("t")

SETTINGS = hypothesis.settings(max_examples=80, deadline=None,
                               derandomize=True, database=None)


def _expr(p):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator) * T ** k
                       for k, c in ((k, Fraction(c)) for k, c in p.items())])


def _value(x):
    return _expr(x.num) / _expr(x.den)


def _assert_canonical(x):
    # nonzero int coefficients; den an ordinary polynomial with nonzero
    # constant term and positive leading coefficient, the shared one-poly
    # when it is 1; num and den coprime over Q[t], and their coefficients
    # together of content 1
    for p in (x.num, x.den):
        for c in p.values():
            assert type(c) is int and c, repr(c)
    assert min(x.den) == 0 and x.den[max(x.den)] > 0
    assert (x.den == {0: 1}) == (x.den is scalars._ONE_POLY)
    if not x.num:
        assert x.den is scalars._ONE_POLY
        return
    assert math.gcd(*x.num.values(), *x.den.values()) == 1
    shift = min(x.num)
    num = sympy.Poly(sympy.expand(_expr(x.num) * T ** -shift), T)
    assert sympy.gcd(num, sympy.Poly(_expr(x.den), T)).degree() == 0


def _monic_str(expr):
    """How the value expr prints: sympy's cancelled numerator and
    denominator, the denominator's power of t moved into the numerator and
    its leading coefficient divided out of both."""
    p, q = sympy.fraction(sympy.cancel(sympy.together(expr)))
    if p == 0:
        return "(0)/(1)"
    p, q = sympy.Poly(p, T), sympy.Poly(q, T)
    shift = min(m[0] for m in q.monoms())
    lc = Fraction(int(q.LC().p), int(q.LC().q))

    def monic(poly):
        return {m[0] - shift: scalars._coeff(Fraction(int(c.p), int(c.q)) / lc)
                for m, c in poly.terms()}
    return "(%s)/(%s)" % (scalars._poly_str(monic(p)),
                          scalars._poly_str(monic(q)))


def _same_value(x, expr):
    return sympy.cancel(_value(x) - expr) == 0


def _rand_poly(rng, terms, lo, hi, bits, stride=1):
    out = {}
    for _ in range(terms):
        c = rng.randint(-(1 << bits), 1 << bits)
        if c:
            out[stride * rng.randint(lo, hi)] = c
    return out or {0: 1}


def _rand_scalar(rng):
    num = {rng.randint(-8, 8): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
           for _ in range(rng.randint(1, 4))}
    den = _rand_poly(rng, rng.randint(1, 3), 0, 6, 4)
    den[0] = rng.randint(1, 7)
    return QScalar(num, den)


# -- arithmetic against sympy.cancel ------------------------------------------

def test_add_mul_inverse_match_sympy():
    rng = random.Random(5)
    for _ in range(30):
        a, b = _rand_scalar(rng), _rand_scalar(rng)
        for got, want in ((a + b, _value(a) + _value(b)),
                          (a * b, _value(a) * _value(b)),
                          (a - b, _value(a) - _value(b))):
            _assert_canonical(got)
            assert _same_value(got, want)
        if a:
            inv = a.inverse()
            _assert_canonical(inv)
            assert _same_value(inv, 1 / _value(a))


def _scalar(expr):
    # the QScalar of a rational expression in t, through the public
    # constructor
    p, q = sympy.fraction(sympy.cancel(sympy.together(expr)))
    return QScalar(*({m[0]: Fraction(int(c.p), int(c.q))
                      for m, c in sympy.Poly(part, T).terms()}
                     for part in (p, q)))


def _check_sum(x, y):
    got = x + y
    _assert_canonical(got)
    want = _value(x) + _value(y)
    assert _same_value(got, want)
    assert str(got) == _monic_str(want)
    return got


_CYCLOTOMIC = [T ** 6 - 1, T ** 6 + 1, T ** 12 - 1, T ** 24 - 1,
               T ** 18 - 1, T ** 4 + T ** 2 + 1, 2 * T ** 12 - 2]


@pytest.mark.parametrize("x, y, want", [
    # equal denominators: the numerator sum keeps a factor, drops one, or
    # cancels; integer content comes out of the sum too
    ((T ** 3 - 2) / (T ** 12 - 1), (T - 1) / (T ** 12 - 1),
     (T ** 3 + T - 3) / (T ** 12 - 1)),
    (T ** 6 / (T ** 12 - 1), 1 / (T ** 12 - 1), 1 / (T ** 6 - 1)),
    ((T ** 3 - 2) / (T ** 12 - 1), (2 - T ** 3) / (T ** 12 - 1), 0),
    (sympy.Rational(1, 2) / (T ** 6 + 1), sympy.Rational(1, 2) / (T ** 6 + 1),
     1 / (T ** 6 + 1)),
    (T / (3 * T ** 4 + 3 * T ** 2 + 3), 2 * T / (3 * T ** 4 + 3 * T ** 2 + 3),
     T / (T ** 4 + T ** 2 + 1)),
    (T ** -6 / (T ** 12 - 1), -T ** -12 / (T ** 12 - 1),
     T ** -12 / (T ** 6 + 1)),
    # denominators sharing a cyclotomic factor: t^12 - 1 divides t^24 - 1,
    # t^6 - 1 divides both t^12 - 1 and t^18 - 1
    (1 / (T ** 12 - 1), -2 / (T ** 24 - 1), 1 / (T ** 12 + 1)),
    (1 / (T ** 12 - 1), -1 / (T ** 24 - 1), T ** 12 / (T ** 24 - 1)),
    (1 / (T ** 12 - 1), -1 / (T ** 18 - 1), None),
    (T ** 6 / (T ** 12 - 1), -T ** 6 / (T ** 18 - 1), None),
    (sympy.Rational(1, 2) / (T ** 12 - 1),
     sympy.Rational(-1, 2) * (T ** 12 + 1) / (T ** 24 - 1) + 1 / (T ** 6 + 1),
     1 / (T ** 6 + 1)),
])
def test_sums_over_shared_denominators_match_sympy(x, y, want):
    got = _check_sum(_scalar(x), _scalar(y))
    if want is not None:
        assert got == _scalar(want)
        if want == 0:
            assert got is QScalar.ZERO


def test_random_sums_over_cyclotomic_denominators_match_sympy():
    # operands over products of cyclotomic polynomials, and sums that cancel
    # back to a simpler value: y = w - x, so x + y = w
    rng = random.Random(7)
    for _ in range(25):
        x, w = (_scalar(_expr(_rand_poly(rng, rng.randint(1, 3), -6, 12, 3))
                        / rng.choice(_CYCLOTOMIC) / rng.choice(_CYCLOTOMIC))
                for _ in range(2))
        y = _check_sum(w, -x)
        assert _check_sum(x, y) == w
        _check_sum(x, x)
        assert _check_sum(x, -x) is QScalar.ZERO


def test_q_numbers_match_sympy():
    q = T ** 6
    for n in range(1, 7):
        x = qint(n) / (q_power(1) - q_power(-1))
        _assert_canonical(x)
        assert _same_value(x, (q ** n - q ** -n) / (q - 1 / q) ** 2)


# -- the polynomial gcd --------------------------------------------------------

def _positive(p):
    return {k: -c for k, c in p.items()} if p[max(p)] < 0 else p


def _sympy_primitive_gcd(a, b):
    # the gcd over Q[t], primitive in Z[t] with a positive leading coefficient
    _, g = sympy.Poly(sympy.gcd(_expr(a), _expr(b)), T).primitive()
    return _positive({m[0]: int(c) for m, c in g.terms()})


def _gcd_cases():
    rng = random.Random(11)
    cases = []
    for i in range(60):
        stride = 6 if i % 2 else 1
        bits = 22 if i % 3 == 0 else 4
        common = _rand_poly(rng, rng.randint(1, 4), 0, 5, bits, stride)
        if i % 5 == 0:
            common = {0: 1}
        f = scalars._p_mul(common, _rand_poly(rng, 4, 0, 6, bits, stride))
        g = scalars._p_mul(common, _rand_poly(rng, 4, 0, 6, bits, stride))
        if len(f) > 1 and len(g) > 1:
            cases.append((f, g))
    # integer content and a non-monic common factor
    cases.append(({0: 2, 6: 3, 12: 4}, {0: -1, 12: 2}))
    cases.append((scalars._p_mul({0: 3, 6: 5}, {0: 1, 1: 7}),
                  scalars._p_mul({0: 3, 6: 5}, {0: -2, 12: 9})))
    return cases


def test_gcd_matches_sympy(monkeypatch):
    monkeypatch.setattr(scalars, "_GCD_CACHE", {})
    cases = _gcd_cases()
    assert any(len(scalars._p_gcd(f, g)) > 1 for f, g in cases)
    for f, g in cases:
        assert scalars._p_gcd(f, g) == _sympy_primitive_gcd(f, g)


def test_gcd_fallback_matches_sympy(monkeypatch):
    # with no tries left the heuristic gives up and the PRS answers
    monkeypatch.setattr(scalars, "_GCD_CACHE", {})
    monkeypatch.setattr(scalars, "_HEU_TRIES", 0)
    for f, g in _gcd_cases():
        ia = scalars._int_primitive(f)
        ib = scalars._int_primitive(g)
        assert scalars._heu_gcd(ia, ib) is None
        assert scalars._p_gcd(f, g) == _sympy_primitive_gcd(f, g)


def test_heuristic_agrees_with_prs():
    for f, g in _gcd_cases():
        ia = scalars._int_primitive(f)
        ib = scalars._int_primitive(g)
        heu = scalars._heu_gcd(ia, ib)
        assert heu is not None
        assert heu == _positive(scalars._prs_gcd(ia, ib))


@pytest.mark.parametrize("f, g, want", [
    # the first candidate, t - 1, divides f but not g; the gcd is 1
    ({0: 1, 1: -1}, {0: -1, 1: 1, 3: -3}, {0: 1}),
    # the first candidate fails the division; a larger xi finds t^2 + 3
    ({0: -9, 1: 3, 3: 1, 4: 1}, {1: -6, 2: 3, 3: -2, 4: 1}, {0: 3, 2: 1}),
])
def test_heuristic_retries_after_a_false_candidate(f, g, want, monkeypatch):
    rejected = []
    divides = scalars._divides

    def checked(a, h):
        ok = divides(a, h)
        if not ok:
            rejected.append(h)
        return ok
    monkeypatch.setattr(scalars, "_divides", checked)
    assert scalars._heu_gcd(f, g) == want
    assert rejected
    assert _positive(scalars._prs_gcd(f, g)) == want


# -- hypothesis properties of the canonical form -------------------------------

_coeff = st.fractions(min_value=-20, max_value=20, max_denominator=6)
_laurent = st.dictionaries(st.integers(-12, 12), _coeff, min_size=1,
                           max_size=4)
_poly = st.dictionaries(st.integers(0, 12), st.integers(-9, 9).filter(bool),
                        max_size=3)


@st.composite
def qscalars(draw):
    num = draw(_laurent)
    den = draw(_poly)
    den[0] = draw(st.integers(1, 9))
    return QScalar(num, den)


@SETTINGS
@hypothesis.given(qscalars())
def test_string_roundtrip_property(x):
    y = parse_qscalar(str(x))
    assert y == x and str(y) == str(x) and hash(y) == hash(x)
    _assert_canonical(y)


@SETTINGS
@hypothesis.given(qscalars(), qscalars(), _poly.filter(bool))
def test_canonical_form_is_unique(x, y, k):
    # the same value reached by different routes is the same object
    routes = [(x * y) / y if y else x, (x + y) - y, x.inverse().inverse()
              if x else x,
              QScalar(scalars._p_mul(x.num, k), scalars._p_mul(x.den, k))]
    for z in routes:
        assert z == x and hash(z) == hash(x)
        assert (z.num, z.den) == (x.num, x.den)


_dyadic = st.integers(-64, 64).map(lambda n: n / 8)


@SETTINGS
@hypothesis.given(qscalars(), qscalars(), _coeff, _laurent,
                  st.dictionaries(st.integers(-6, 6), _dyadic, min_size=1,
                                  max_size=3))
def test_no_float_reaches_a_coefficient(x, y, f, raw, floats):
    # every operation, and the constructor with Fraction and float input,
    # stores int coefficients in canonical form and prints the monic form
    # of the value sympy computes
    vx, vy = _value(x), _value(y)
    vf = sympy.Rational(f.numerator, f.denominator)
    float_den = {0: 4.0, 6: -0.5}
    cases = [(x + y, vx + vy), (x - y, vx - vy), (x * y, vx * vy),
             (-x, -vx), (x * x, vx ** 2), (x.scale(f), vx * vf),
             (subs_t_inverse(x), vx.subs(T, 1 / T)),
             (QScalar.from_fraction(f), vf),
             (QScalar(raw, {0: Fraction(2, 3), 1: f}),
              _expr(raw) / (sympy.Rational(2, 3) + vf * T)),
             (QScalar(floats, float_den), _expr(floats) / _expr(float_den)),
             (parse_qscalar(str(x)), vx)]
    if y:
        cases += [(x / y, vx / vy), (y.inverse(), 1 / vy),
                  (y.inverse() * y.inverse(), vy ** -2)]
    for z, want in cases:
        _assert_canonical(z)
        assert str(z) == _monic_str(want)


# -- the packed product against the term-by-term definition --------------------

_big_coeff = st.one_of(st.integers(-20, 20),
                       st.integers(-(1 << 90), 1 << 90)).filter(bool)
_factor = st.dictionaries(st.integers(-40, 40), _big_coeff, min_size=2,
                          max_size=20)


@SETTINGS
@hypothesis.given(_factor, _factor, st.integers(1, 12), st.integers(1, 12))
def test_packed_product_matches_the_term_loop(a, b, sa, sb):
    # strides, signs, small and 90-bit coefficients, Laurent exponents
    a = {k * sa: c for k, c in a.items()}
    b = {k * sb: c for k, c in b.items()}
    want = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            want[ka + kb] = want.get(ka + kb, 0) + ca * cb
    want = {k: c for k, c in want.items() if c}
    got = scalars._p_mul_packed(a, b)
    assert got == want
    assert all(type(c) is int for c in got.values())


# -- the sparse-dict kernel against dense sums ---------------------------------

def _box(keys):
    """Every key from the least to the largest one: a range of ints, or the
    box of tuples spanned coordinate by coordinate."""
    if type(keys[0]) is int:
        return range(min(keys), max(keys) + 1)
    return itertools.product(*(range(min(c), max(c) + 1)
                               for c in zip(*keys)))


def _dense_add(a, b, zero):
    keys = list(a) + list(b)
    if not keys:
        return {}
    out = {k: a.get(k, zero) + b.get(k, zero) for k in _box(keys)}
    return {k: c for k, c in out.items() if c}


def _dense_conv(a, b, zero):
    if not a or not b:
        return {}
    la, lb = min(a), min(b)
    x = [a.get(k, zero) for k in _box(list(a))]
    y = [b.get(k, zero) for k in _box(list(b))]
    out = [zero] * (len(x) + len(y) - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            out[i + j] = out[i + j] + u * v
    return {la + lb + n: c for n, c in enumerate(out) if c}


def _check_kernel(a, b, zero):
    got = {
        "add": (scalars._p_add(a, b), _dense_add(a, b, zero)),
        "cancel": (scalars._p_add(a, scalars._p_neg(a)), {}),
        "neg": (scalars._p_neg(a), {k: zero - c for k, c in a.items()}),
    }
    if type(next(iter(a), 0)) is int:
        got["conv"] = (scalars._p_conv(a, b), _dense_conv(a, b, zero))
    for name, (out, want) in got.items():
        assert out == want, name
        assert all(out.values()), name


# small coefficients of both signs, so that sums and products cancel often
_unit = st.sampled_from((1, -1, 2, -2))
_ints = st.dictionaries(st.integers(-6, 6), _unit, max_size=8)
_tuples = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                          _unit, max_size=8)
_QVALUES = (QScalar.ONE, -QScalar.ONE, q_power(1), -q_power(1), q_power(-1),
            QScalar({0: 1, 6: -1}), QScalar({0: 1}, {0: 1, 6: -1}),
            QScalar({0: -1}, {0: 1, 6: -1}), QScalar({0: Fraction(1, 2)}))
_qdicts = st.dictionaries(st.integers(-3, 3),
                          st.one_of(st.sampled_from(_QVALUES),
                                    qscalars().filter(bool)),
                          max_size=4)


@SETTINGS
@hypothesis.given(_ints, _ints)
@hypothesis.example({0: 1, 1: 1}, {0: 1, 1: -1})
def test_kernel_matches_dense_sums_on_integer_dicts(a, b):
    _check_kernel(a, b, 0)


@SETTINGS
@hypothesis.given(_qdicts, _qdicts)
@hypothesis.example({0: QScalar.ONE, 1: q_power(1)},
                    {0: q_power(1), 1: -QScalar.ONE})
def test_kernel_matches_dense_sums_on_qscalar_dicts(a, b):
    _check_kernel(a, b, QScalar.ZERO)


@SETTINGS
@hypothesis.given(_tuples, _tuples)
def test_sum_matches_dense_sums_on_tuple_keys(a, b):
    _check_kernel(a, b, 0)


_wide = st.dictionaries(st.integers(-30, 30), st.integers(-9, 9).filter(bool),
                        max_size=16)


@SETTINGS
@hypothesis.given(_wide, _wide)
@hypothesis.example({k: 1 for k in range(32)}, {0: 1, 1: -1})
@hypothesis.example({k: 1 for k in range(0, 40, 5)}, {0: 1, 5: -1, 10: 1,
                                                      15: -1, 20: 1, 25: -1,
                                                      30: 1, 35: -1})
def test_integer_product_matches_the_dense_convolution(a, b):
    # large operands take the Kronecker substitution, the others the
    # term-by-term convolution; terms of both examples cancel
    got = scalars._p_mul(a, b)
    assert got == _dense_conv(a, b, 0)
    assert all(got.values())
