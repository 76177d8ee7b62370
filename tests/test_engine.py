import functools
import itertools
import random
import sys

from fractions import Fraction

import pytest

from qaffine.scalars import (
    QScalar, parse_qscalar, q_power, qint, qint_base, t_power,
)
from qaffine.series import ZetaSeries, series_exp, lambda_level
from qaffine.linalg import OpMatrix, kron
from qaffine.qgroup import phi_zeta, GeneratorImage
from qaffine.oscillator import OscImage, OscParams, chi_images, psi_images
from qaffine import engine
from qaffine.engine import (
    EngineParams, EngineError, build_root_vectors, assemble, u_matrices,
    check_normalization_constants,
)
from qaffine.rootsys import (
    extend_cartan, finite_cartan, finite_positive, positive_roots,
)
from qaffine.cli import main
from qaffine.verify import check_engine, engine_params_for, suite_checks
from product_builders import FockRep, render
from test_golden import CASES
from oracles import (
    ScaledOp, diagonal_matrix, e_op, f_op, fock_window, restrict,
)

ONE = QScalar.ONE
C = q_power(1) - q_power(-1)


def u2(a, b):
    return OpMatrix.unit(2, a, b, ONE)


def u3(a, b):
    return OpMatrix.unit(3, a, b, ONE)


def matrix(vec, states):
    # the matrix of a real root vector on a list of leg states (every state
    # of a leg of that dimension, for an int), read off its row map at each
    # of them; an entry whose column is not among them is cut
    states = range(states) if isinstance(states, int) else states
    index = {x: i for i, x in enumerate(states)}
    return OpMatrix(len(index), {(index[x], index[hit[0]]): hit[1]
                                 for x in states for hit in [vec[x]]
                                 if hit is not None and hit[0] in index},
                    ONE)


def fock_states(d, copies=1):
    # the occupation tuples below d, in flat order, the first copy slowest
    return list(itertools.product(range(d), repeat=copies))


def tuples(flat, d, copies=1):
    # the occupation tuples of flat indices over d states per copy
    states = fock_states(d, copies)
    return [states[x] for x in flat]


def q_number_power(d, c):
    # q^(cD) on the d-state Fock space
    return diagonal_matrix([q_power(c * n) for n in range(d)], ONE)


def windowed(mat, d, kmax, copies=1):
    return restrict(mat, fock_window(d, copies, d - 1 - kmax))


def window_states(d, kmax, copies=1):
    keep = fock_window(d, copies, d - 1 - kmax)
    return [x for x in range(d ** copies) if keep(x)]


def leg_logs(tab, x):
    # the leg logarithms at state x, level by level and node by node
    return tab.legs[tab.leg(x)][0]


def eigenvalues(tab, i, m, states):
    # e_im(x) at each state: the table reports the level-m coefficient of
    # log(1 + sum_m c e'_(m delta) y^m), c = q - q^-1 on the e side (whose
    # zeta step is positive) and -(q - q^-1) on the f side
    c = C if tab.zstep > 0 else -C
    return [leg_logs(tab, x)[m - 1][i] / c for x in states]


def diagonal(mat, states):
    return [mat.entry(x, x) for x in states]


def test_a1_phi_real_and_imaginary_vectors():
    s, s1 = 3, 1
    img = phi_zeta("a1", s, s1)
    tab = build_root_vectors(img, "e", 3)
    # e'_delta image: zeta^s (E11 - q^-2 E22) shows up inside the level-1
    # imaginary vector; first check e_{alpha+m delta} = (-q^-1)^m z^{s1+ms} E12
    for m in range(4):
        got = tab.real[((1,), m)]
        sign = ONE if m % 2 == 0 else -ONE
        assert got.zexp == s1 + m * s
        assert matrix(got, img.dim) == u2(1, 2).scale(sign * q_power(-m))
        gotm = tab.real[((-1,), m + 1)]
        assert gotm.zexp == (s - s1) + m * s
        assert matrix(gotm, img.dim) == u2(2, 1).scale(sign * q_power(-m))
    # e_{m delta} = (-1)^(m-1) [m]/m z^(ms) (E11 - q^(-2m) E22)
    for m in range(1, 4):
        sign = ONE if (m - 1) % 2 == 0 else -ONE
        coeff = sign * qint(m).scale(Fraction(1, m))
        expect = (u2(1, 1) - u2(2, 2).scale(q_power(-2 * m))).scale(coeff)
        assert m * tab.zstep == m * s
        assert eigenvalues(tab, 0, m, range(2)) == diagonal(expect, range(2))


def test_a1_phi_f_vectors():
    s, s1 = 2, 1
    img = phi_zeta("a1", s, s1)
    tab = build_root_vectors(img, "f", 3)
    for m in range(3):
        got = tab.real[((1,), m)]
        sign = ONE if m % 2 == 0 else -ONE
        assert got.zexp == -(s1 + m * s)
        assert matrix(got, img.dim) == u2(2, 1).scale(sign * q_power(m))
    for m in range(1, 4):
        sign = ONE if (m - 1) % 2 == 0 else -ONE
        coeff = sign * qint(m).scale(Fraction(1, m))
        expect = (u2(1, 1) - u2(2, 2).scale(q_power(2 * m))).scale(coeff)
        assert m * tab.zstep == -m * s
        assert eigenvalues(tab, 0, m, range(2)) == diagonal(expect, range(2))


def test_a1_chi_vectors_collapse():
    d = 12
    kmax = d - 2 - 4
    img = chi_images("a1", 1, 0)
    tab = build_root_vectors(img, "e", 4)
    eye = OpMatrix.identity(d, ONE)
    c_inv = C.inverse()
    states = fock_states(d)
    # higher real vectors vanish away from the truncated top
    for m in range(1, 4):
        assert not windowed(matrix(tab.real[((1,), m)], states), d, kmax)
        assert not windowed(matrix(tab.real[((-1,), m + 1)], states), d,
                            kmax)
    # imaginary vectors are the scalars (-1)^(m-1) q^-m / ((q-q^-1) m)
    states = window_states(d, kmax)
    for m in range(1, 5):
        sign = ONE if (m - 1) % 2 == 0 else -ONE
        expect = eye.scale(sign * q_power(-m) * c_inv.scale(Fraction(1, m)))
        assert eigenvalues(tab, 0, m, tuples(states, d)) == \
            diagonal(expect, states)
        assert m * tab.zstep == m


def test_a1_psi_vectors_geometric():
    d = 12
    kmax = d - 2 - 3
    img = psi_images("a1", 1, 0)
    tab = build_root_vectors(img, "f", 3)
    f = FockRep(d)
    c_inv = C.inverse()
    a = f.lowering()
    # f_{alpha + m delta} = c^-1 (-1)^m q^m a q^(2mD) z^(-s1 - ms)
    for m in range(3):
        got = tab.real[((1,), m)]
        sign = ONE if m % 2 == 0 else -ONE
        expect = (a * q_number_power(d, 2 * m)).scale(
            sign * q_power(m) * c_inv)
        assert windowed(matrix(got, fock_states(d)), d, kmax) == \
            windowed(expect, d, kmax)
        assert got.zexp == -m
    # f_{m delta} = c^-1 (-1)^m q^m [1 - (1 + q^(2m)) q^(2mD)] z^(-ms)/m
    states = window_states(d, kmax)
    for m in range(1, 4):
        sign = ONE if m % 2 == 0 else -ONE
        inner = OpMatrix.identity(d, ONE) - \
            q_number_power(d, 2 * m).scale(ONE + q_power(2 * m))
        expect = inner.scale(sign * q_power(m) * c_inv.scale(Fraction(1, m)))
        assert eigenvalues(tab, 0, m, tuples(states, d)) == \
            diagonal(expect, states)


def test_a2_phi_vectors():
    s, s1, s2 = 1, 0, 0
    img = phi_zeta("a2", s, s1, s2)
    tab = build_root_vectors(img, "e", 3)
    # beta family with no sign alternation: q^(-2m) z^(s2+ms) E23
    for m in range(3):
        got = tab.real[((0, 1), m)]
        assert matrix(got, img.dim) == u3(2, 3).scale(q_power(-2 * m))
        assert got.zexp == s2 + m * s
    # (delta - beta) + m delta: -q^(-2m-1) E32
    for m in range(3):
        got = tab.real[((0, -1), m + 1)]
        assert matrix(got, img.dim) == u3(3, 2).scale(-q_power(-2 * m - 1))
    # imaginary alpha family
    for m in range(1, 4):
        sign = ONE if (m - 1) % 2 == 0 else -ONE
        expect = (u3(1, 1) - u3(2, 2).scale(q_power(-2 * m))).scale(
            sign * qint(m).scale(Fraction(1, m)))
        assert eigenvalues(tab, 0, m, range(3)) == diagonal(expect, range(3))
    # imaginary beta family: -[m]/m q^-m (E22 - q^(-2m) E33)
    for m in range(1, 4):
        expect = (u3(2, 2) - u3(3, 3).scale(q_power(-2 * m))).scale(
            -qint(m).scale(Fraction(1, m)) * q_power(-m))
        assert eigenvalues(tab, 1, m, range(3)) == diagonal(expect, range(3))


def test_a2_chi_family1_vectors():
    d = 8
    kmax = d - 2 - 3
    w = lambda m: windowed(m, d, kmax, copies=2)
    img = chi_images("a2", 1, 0, 0, family=1)
    tab = build_root_vectors(img, "e", 3)
    legs = fock_states(d, 2)
    f = FockRep(d)
    eye = OpMatrix.identity(d, ONE)
    c_inv = C.inverse()
    a2d = kron(eye, f.raising())
    qd = lambda c1, c2: kron(q_number_power(d, c1), q_number_power(d, c2))
    # e_{beta + m delta} = c^-1 q^(-4m) a2' q^(D1 - 2m D2)
    for m in range(1, 3):
        got = tab.real[((0, 1), m)]
        expect = (a2d * qd(1, -2 * m)).scale(q_power(-4 * m) * c_inv)
        assert w(matrix(got, legs)) == w(expect)
    # alpha and alpha+beta families vanish above level zero
    for m in range(1, 3):
        assert not w(matrix(tab.real[((1, 0), m)], legs))
        assert not w(matrix(tab.real[((1, 1), m)], legs))
    # e_{m delta, alpha} = c^-1 (-1)^(m-1) q^(-3m) q^(-2mD2) /m
    states = window_states(d, kmax, copies=2)
    for m in range(1, 4):
        sign = ONE if (m - 1) % 2 == 0 else -ONE
        expect = qd(0, -2 * m).scale(sign * q_power(-3 * m)
                                     * c_inv.scale(Fraction(1, m)))
        assert eigenvalues(tab, 0, m, tuples(states, d, 2)) == \
            diagonal(expect, states)
    # e_{m delta, beta} = c^-1 q^(-2m) [(1 + q^(-2m)) q^(-2mD2) - 1] /m
    for m in range(1, 4):
        inner = qd(0, -2 * m).scale(ONE + q_power(-2 * m)) - kron(eye, eye)
        expect = inner.scale(q_power(-2 * m) * c_inv.scale(Fraction(1, m)))
        assert eigenvalues(tab, 1, m, tuples(states, d, 2)) == \
            diagonal(expect, states)


def test_a2_psi_family1_vectors():
    d = 8
    kmax = d - 2 - 3
    w = lambda m: windowed(m, d, kmax, copies=2)
    img = psi_images("a2", 1, 0, 0, family=1)
    tab = build_root_vectors(img, "f", 3)
    legs = fock_states(d, 2)
    f = FockRep(d)
    eye = OpMatrix.identity(d, ONE)
    c_inv = C.inverse()
    a1, a2 = kron(f.lowering(), eye), kron(eye, f.lowering())
    a1d, a2d = kron(f.raising(), eye), kron(eye, f.raising())
    qd = lambda c1, c2: kron(q_number_power(d, c1), q_number_power(d, c2))
    # f_{alpha+beta} = -c^-1 a1 a2 q^(D1)
    got = tab.real[((1, 1), 0)]
    assert w(matrix(got, legs)) == w((a1 * a2 * qd(1, 0)).scale(-c_inv))
    # f_{delta-alpha} = c^-1 a1', f_{delta-beta} = c^-1 q^-1 a2' q^(D1-2D2)
    assert w(matrix(tab.real[((-1, 0), 1)], legs)) == w(a1d.scale(c_inv))
    assert w(matrix(tab.real[((0, -1), 1)], legs)) == w(
        (a2d * qd(1, -2)).scale(q_power(-1) * c_inv))
    # f_{alpha + m delta} = c^-1 (-1)^m q^m a1 q^(2mD1)
    for m in range(1, 3):
        sign = ONE if m % 2 == 0 else -ONE
        expect = (a1 * qd(2 * m, 0)).scale(sign * q_power(m) * c_inv)
        assert w(matrix(tab.real[((1, 0), m)], legs)) == w(expect)
    # f_{(delta-alpha-beta) + m delta} = c^-1 (-1)^m q^(3m-3)
    #                                     a1' a2' q^((2m-1)D1 - 2D2)
    for m in range(1, 3):
        sign = ONE if m % 2 == 0 else -ONE
        expect = (a1d * a2d * qd(2 * m - 1, -2)).scale(
            sign * q_power(3 * m - 3) * c_inv)
        got = tab.real[((-1, -1), m + 1)]
        assert w(matrix(got, legs)) == w(expect)
    # f_{m delta, beta} = c^-1 q^(2m) q^(2mD1) /m
    states = window_states(d, kmax, copies=2)
    for m in range(1, 4):
        expect = qd(2 * m, 0).scale(q_power(2 * m) * c_inv.scale(Fraction(1, m)))
        assert eigenvalues(tab, 1, m, tuples(states, d, 2)) == \
            diagonal(expect, states)
    # f_{m delta, alpha} = c^-1 (-1)^(m-1) q^m [(1+q^(2m)) q^(2mD1) - 1]/m
    for m in range(1, 4):
        sign = ONE if (m - 1) % 2 == 0 else -ONE
        inner = qd(2 * m, 0).scale(ONE + q_power(2 * m)) - kron(eye, eye)
        expect = inner.scale(sign * q_power(m) * c_inv.scale(Fraction(1, m)))
        assert eigenvalues(tab, 0, m, tuples(states, d, 2)) == \
            diagonal(expect, states)


# -- the tables against the bracket recursion -----------------------------------

def _q_commutator(x, y, p):
    # x y - q^p y x on matrices with their powers of zeta
    return ScaledOp(x.zexp + y.zexp,
                    x.mat * y.mat - (y.mat * x.mat).scale(q_power(p)))


def _bracket_tables(image, side, m_max):
    # the recursion the engine once ran, with matrix products: each step
    # along delta a q-commutator with e'_delta divided by [2], each
    # imaginary level a bracket with e_(delta - gamma); the real vectors
    # and the levels c e'
    sgn = 1 if side == "e" else -1
    op = functools.partial(e_op if side == "e" else f_op, image)

    def bracket(x, y, p):
        return _q_commutator(x, y, p) if sgn > 0 else _q_commutator(y, x, -p)

    def scale(x, c):
        return ScaledOp(x.zexp, x.mat.scale(c))

    if image.algebra == "a1":
        real = {((1,), 0): op(1), ((-1,), 1): op(0)}
    else:
        ea, eb, e0 = op(1), op(2), op(0)
        real = {((1, 0), 0): ea, ((0, 1), 0): eb, ((-1, -1), 1): e0,
                ((1, 1), 0): bracket(ea, eb, -1),
                ((-1, 0), 1): bracket(eb, e0, -1),
                ((0, -1), 1): bracket(ea, e0, -1)}
    c = C if sgn > 0 else -C
    inv2 = qint(2).inverse()
    diags = []
    for gamma in finite_positive(image.algebra):
        minus = tuple(-g for g in gamma)
        prime_delta = bracket(real[(gamma, 0)], real[(minus, 1)], -2)
        for m in range(1, m_max + 1):
            real[(gamma, m)] = scale(bracket(real[(gamma, m - 1)],
                                             prime_delta, 0), inv2)
            real[(minus, m + 1)] = scale(bracket(prime_delta,
                                                 real[(minus, m)], 0), inv2)
        if sum(gamma) > 1:
            continue
        levels = []
        for m in range(1, m_max + 1):
            sop = bracket(real[(gamma, m - 1)], real[(minus, 1)], -2)
            assert all(i == j for i, j in sop.mat.entries)
            levels.append({x: v for (x, _), v in
                           sop.mat.scale(c).entries.items()})
        diags.append(levels)
    return real, diags


_OSC_A1 = OscParams(parse_qscalar("(1 + t^6)/(1)"),
                    [parse_qscalar("(2 + t^18)/(1 - t^6)")], [Fraction(1, 3)])
_OSC_A2 = OscParams(parse_qscalar("(3)/(1 + t^12)"),
                    [parse_qscalar("(1 + t^6)/(1)"),
                     parse_qscalar("(t^12 - 5)/(1)")],
                    [Fraction(1, 3), Fraction(0), Fraction(2)])

_TABLE_CASES = [
    pytest.param("a1", (1, 0), dict(order=5), id="a1-phi"),
    pytest.param("a2", (1, 0, 0), dict(order=4), id="a2-phi"),
    pytest.param("a1", (1, 0), dict(order=5, left="chi", fock_dim=4),
                 id="a1-chi"),
    pytest.param("a1", (1, 0), dict(order=5, right="psi", fock_dim=4),
                 id="a1-psi"),
] + [
    pytest.param("a2", (1, 0, 0), dict(order=3, fock_dim=3, family=fam,
                                       **{side: leg}),
                 id="a2-%s-%d" % (leg, fam))
    for side, leg in (("left", "chi"), ("right", "psi")) for fam in (1, 2)
] + [
    pytest.param("a1", (1, 0), dict(order=5, left="chi", twist=(1, 0),
                                    fock_dim=4), id="a1-chi-twisted"),
    pytest.param("a2", (1, 0, 0), dict(order=3, left="chi", family=2,
                                       twist=(1, 2, 0), fock_dim=3),
                 id="a2-chi-2-twisted"),
    pytest.param("a2", (1, 0, 0), dict(order=3, right="psi", twist=(2, 0, 1),
                                       fock_dim=3), id="a2-psi-1-twisted"),
    pytest.param("a1", (2, 0), dict(order=6, left="chi", fock_dim=4),
                 id="a1-chi-s1-0"),
    pytest.param("a1", (2, 2), dict(order=6, right="psi", fock_dim=4),
                 id="a1-psi-s1-s"),
    pytest.param("a2", (2, 0, 2), dict(order=4, left="chi", fock_dim=3),
                 id="a2-chi-s2-s"),
    pytest.param("a2", (2, 2, 0), dict(order=4, right="psi", family=2,
                                       fock_dim=3), id="a2-psi-2-s1-s"),
    pytest.param("a1", (1, 0), dict(order=4, left="chi", fock_dim=4,
                                    osc_params=_OSC_A1), id="a1-chi-osc"),
    pytest.param("a2", (1, 0, 0), dict(order=2, right="psi", family=2,
                                       fock_dim=3, osc_params=_OSC_A2),
                 id="a2-psi-2-osc"),
]


def _rendered_leg(leg, params):
    # (matrix image, its states, the reported ones as states and as flat
    # indices, a cut of a matrix to them): a phi leg as it is, an
    # oscillator leg rendered with a pad above the reported states that
    # no word of the recursion climbs over, 3 m_max + 3 letters at most,
    # so that the bracket recursion on its matrices is exact there
    if not isinstance(leg, OscImage):
        return leg, range(leg.dim), range(leg.dim), range(leg.dim), \
            lambda m: m
    d, pad = params.fock_dim, 3 * params.m_max + 3
    states = fock_states(d + pad, leg.copies)
    keep = fock_window(d + pad, leg.copies, pad)
    flat = [x for x in range(len(states)) if keep(x)]
    return (render(leg, d + pad), states, [states[x] for x in flat], flat,
            lambda m: restrict(m, keep))


@pytest.mark.parametrize("algebra, exps, kw", _TABLE_CASES)
def test_tables_match_the_bracket_recursion(algebra, exps, kw):
    # every real vector with its power of zeta, read off its row map at
    # every reported leg state, levels the product never reads included,
    # and every level of c e', exactly as the bracket recursion gives them,
    # on both legs
    params = EngineParams(algebra, *exps, **kw)
    for which, side in (("left", "e"), ("right", "f")):
        leg = engine._leg_images(params, which)
        tab = build_root_vectors(leg, side, params.m_max)
        image, states, reported, flat, cut = _rendered_leg(leg, params)
        real, diags = _bracket_tables(image, side, params.m_max)
        assert tab.real.keys() == real.keys()
        for key, want in real.items():
            got = tab.real[key]
            assert (got.zexp, cut(matrix(got, states))) == \
                (want.zexp, cut(want.mat)), (side, key)
        assert [[[level(x) for x in reported] for level in node]
                for node in tab.diags] == \
            [[[level.get(x, QScalar.ZERO) for x in flat] for level in node]
             for node in diags], side


def _forbid_generic_products(monkeypatch):
    # every Kronecker product, matrix product, sum and difference of
    # OpMatrix raises from here on, so a commutator does too
    def forbidden(*args):
        raise AssertionError("a generic matrix operation was called")
    for name, module in sys.modules.items():
        if name.startswith("qaffine") and hasattr(module, "kron"):
            monkeypatch.setattr(module, "kron", forbidden)
    for name in ("__mul__", "__add__", "__sub__"):
        monkeypatch.setattr(OpMatrix, name, forbidden)


@pytest.mark.parametrize("algebra, kw, brackets", [
    pytest.param("a1", dict(order=0), 1, id="a1-m0"),
    pytest.param("a1", dict(order=5), 5, id="a1-m5"),
    pytest.param("a1", dict(order=5, left="chi", fock_dim=4), 5,
                 id="a1-chi-m5"),
    pytest.param("a2", dict(order=2), 8, id="a2-m2"),
    pytest.param("a2", dict(order=6), 16, id="a2-m6"),
    pytest.param("a2", dict(order=2, left="chi", fock_dim=3), 8,
                 id="a2-chi-m2"),
])
def test_delta_family_steps_take_no_bracket(monkeypatch, algebra, kw,
                                            brackets):
    # the only brackets are the first vectors, e'_delta and the imaginary
    # levels m >= 2: 1 + (m_max - 1) in rank 1, 6 + 2 (m_max - 1) in rank
    # 2; a step along delta is a weight, not a bracket, and a bracket
    # composes partial maps, with no matrix product
    params = EngineParams(algebra, 1, 0, 0, **kw)
    leg = engine._leg_images(params, "left")
    calls = []
    bracket = engine._bracket
    monkeypatch.setattr(engine, "_bracket",
                        lambda x, y, p: calls.append(p) or bracket(x, y, p))
    _forbid_generic_products(monkeypatch)
    build_root_vectors(leg, "e", params.m_max)
    rank, first = (1, 1) if algebra == "a1" else (2, 6)
    assert len(calls) == brackets == first + rank * max(params.m_max - 1, 0)


def read_all(tab, dim):
    # every real vector and every imaginary level at every leg state: the
    # table evaluates each at a state on first request
    for vec in tab.real.values():
        for x in range(dim):
            vec[x]
    for x in range(dim):
        tab.leg(x)
    return tab


def test_a_non_diagonal_prime_delta_is_rejected():
    # a bracket with e'_delta is a weight only when e'_delta is diagonal;
    # in rank 2 that is checked for alpha + beta too, whose e' no imaginary
    # level reads
    img = GeneratorImage("a1", 3, [[0] * 3] * 2, [u3(2, 3), u3(1, 2)],
                         [None] * 2, (1, 0))
    with pytest.raises(EngineError, match=r"\(1,\)"):
        read_all(build_root_vectors(img, "e", 1), 3)
    img = GeneratorImage("a2", 3, [[0] * 3] * 3,
                         [u3(1, 2), u3(2, 1), u3(1, 3)], [None] * 3,
                         (1, 0, 0))
    with pytest.raises(EngineError, match=r"\(1, 1\) is not diagonal"):
        read_all(build_root_vectors(img, "e", 1), 3)


def test_a_non_diagonal_imaginary_level_is_rejected():
    # e'_delta is diagonal because its two off-diagonal paths 0 -> 1 -> 3
    # and 0 -> 2 -> 3 cancel; one step along delta weighs them differently,
    # so level 2 is not diagonal
    u4 = lambda a, b: OpMatrix.unit(4, a, b, ONE)
    img = GeneratorImage("a1", 4, [[0] * 4] * 2,
                         [u4(1, 3) + u4(2, 4).scale(q_power(-2)),
                          u4(1, 2) + u4(3, 4) + u4(4, 2)], [None] * 2, (1, 0))
    read_all(build_root_vectors(img, "e", 1), 4)
    with pytest.raises(EngineError, match="level 2 is not diagonal"):
        read_all(build_root_vectors(img, "e", 2), 4)


def test_an_inhomogeneous_imaginary_level_is_rejected(monkeypatch):
    # the levels are graded by construction; one whose vector along delta
    # carries a power of zeta too many is caught
    class Shifted(engine.RootVector):
        __slots__ = ()

        def __init__(self, zexp, rule):
            along_delta = rule.__qualname__.startswith("_step.")
            super().__init__(zexp + along_delta, rule)
    img = phi_zeta("a1", 1, 0)
    build_root_vectors(img, "e", 2)
    monkeypatch.setattr(engine, "RootVector", Shifted)
    with pytest.raises(EngineError, match="zeta grading .* at level 2"):
        build_root_vectors(img, "e", 2)


def test_a_wrong_normalization_constant_is_rejected(monkeypatch):
    # [e_alpha, f_alpha] on the evaluation leg with e_1 scaled by q^2
    real = engine.phi_zeta

    def scaled(*args, **kwargs):
        img = real(*args, **kwargs)
        img.e_mats[1] = img.e_mats[1].scale(q_power(2))
        return img
    key = ("a1", 1, 0, 0, 2)
    assert check_normalization_constants(*key)
    monkeypatch.setattr(engine, "phi_zeta", scaled)
    # the check ran once for these exponents; a new leg needs a new run
    check_normalization_constants.cache_clear()
    with pytest.raises(EngineError, match=r"normalization .*\[1\] \+ 0\*delta"):
        check_normalization_constants(*key)
    # a failure is not remembered: it raises at every call
    with pytest.raises(EngineError, match="normalization"):
        check_normalization_constants(*key)


def test_the_normalization_check_runs_once_per_exponents(monkeypatch):
    # two assemblies with the same exponents build the check's tables of
    # the evaluation leg once: two tables for the check, two for the legs
    # of each assembly
    check_normalization_constants.cache_clear()
    calls = []
    build = engine.build_root_vectors
    monkeypatch.setattr(engine, "build_root_vectors",
                        lambda *a: calls.append(a[1]) or build(*a))
    params = EngineParams("a2", 2, 1, 0, order=4)
    first = assemble(params)
    assert len(calls) == 4
    assert assemble(EngineParams("a2", 2, 1, 0, order=4)) == first
    assert len(calls) == 6
    assemble(EngineParams("a2", 2, 1, 0, order=6))
    assert len(calls) == 10


def test_a_root_vector_with_two_entries_in_a_row_is_rejected():
    # a real root vector is a partial map: a second entry in a row, in a
    # generator or in a bracket of two of them, raises
    u4 = lambda a, b: OpMatrix.unit(4, a, b, ONE)
    img = GeneratorImage("a2", 4, [[0] * 4] * 3,
                         [u4(2, 1) + u4(2, 3), u4(1, 2), u4(2, 1)],
                         [None] * 3, (1, 0, 0))
    with pytest.raises(EngineError, match="two entries in one row"):
        build_root_vectors(img, "e", 1)
    # [e_1, e_2]_(q^-1) holds (1, 3) and (1, 1)
    img = GeneratorImage("a2", 3, [[0] * 3] * 3,
                         [u3(3, 2), u3(1, 2) + u3(3, 1), u3(2, 3) + u3(1, 3)],
                         [None] * 3, (1, 0, 0))
    with pytest.raises(EngineError, match="two entries in one row"):
        read_all(build_root_vectors(img, "e", 1), 3)


@pytest.mark.parametrize("exps, order, unread", [
    ((1, 0), 3, ((-1,), 4)),
    ((3, 2), 7, ((1,), 2)),
])
def test_the_unread_real_vector_depends_on_the_order(monkeypatch, exps,
                                                     order, unread):
    # which real vector of the left leg the product skips for its zeta
    # degree depends on the exponents and the order, which the table does
    # not know: at s = 3, s1 = 2 the top vector ((-1,), m_max + 1) is read.
    # The leg is the evaluation leg: on an a1 chi leg e'_delta is a scalar,
    # so every vector a step along delta vanishes and none is worth reading
    params = EngineParams("a1", *exps, order=order)
    tables, read = [], []
    build, real_factor = engine.build_root_vectors, engine._times_real_factor
    monkeypatch.setattr(engine, "build_root_vectors",
                        lambda *a: tables.append(build(*a)) or tables[-1])
    monkeypatch.setattr(engine, "_times_real_factor",
                        lambda acc, e, f, *a: read.append(e) or
                        real_factor(acc, e, f, *a))
    assemble(params)
    (etab,) = [t for t in tables if any(v is e for v in t.real.values()
                                        for e in read)]
    keys = {k for k, v in etab.real.items() if any(v is e for e in read)}
    top = ((-1,), params.m_max + 1)
    assert matrix(etab.real[unread], 2)
    assert unread not in keys
    assert set(etab.real) - keys == {unread}
    assert (top in keys) == (unread != top)


def inverse_coupling(um, m):
    # u_m, the inverse of the coupling matrix T_m, from its adjugate A_m
    # and kappa_m = -1/((q - q^-1) det T_m)
    kappa, adj = um[0][m]
    return [[-C * kappa * a for a in row] for row in adj]


def test_u_matrices():
    # rank 1: u_m = m/[2m]; rank 2 matches the closed 2x2 form
    um1 = u_matrices("a1", 3)
    for m in range(1, 4):
        assert inverse_coupling(um1, m)[0][0] == \
            QScalar.from_int(m) / qint(2 * m)
    um2 = u_matrices("a2", 4)
    for m in range(1, 5):
        pre = QScalar.from_int(m) / (qint(m) * qint_base(3, 6 * m))
        off = pre if m % 2 == 0 else -pre
        diag = pre * qint_base(2, 6 * m)
        assert inverse_coupling(um2, m) == [[diag, off], [off, diag]]
    # the adjugates carry integer denominators only
    for um in (um1, um2):
        assert all(len(a.den) == 1 for _, adj in um[0].values()
                   for row in adj for a in row)


def test_normalization_constants_unit():
    assert check_normalization_constants("a1", 2, 1, 0, 3)
    assert check_normalization_constants("a2", 1, 0, 0, 4)


def prefactor_series(algebra, s, order):
    if algebra == "a1":
        lam = lambda_level(2, q_power(1), s, order) - \
            lambda_level(2, q_power(-1), s, order)
        return series_exp(lam).scale(q_power(Fraction(1, 2)))
    lam = lambda_level(3, q_power(2), s, order) - \
        lambda_level(3, q_power(-2), s, order)
    return series_exp(lam).scale(q_power(Fraction(2, 3)))


def test_a1_phiphi_spot_entries():
    s, s1, order = 1, 0, 6
    r = assemble(EngineParams("a1", s, s1, order=order))
    assert r.dim == 4
    pref = prefactor_series("a1", s, order)
    ONE_Q = ONE

    def geom(c):
        # 1/(1 - c z^s) as a series
        out = {}
        p = ONE_Q
        for m in range(order // s + 1):
            out[m * s] = p
            p = p * c
        return ZetaSeries(out, order)

    # entry E12 x E21 at flat (0*2+1, 1*2+0) = (1, 2):
    expect = pref * geom(q_power(-2)).scale(ONE_Q - q_power(-2))
    got = r.entry(1, 2)
    assert got == expect
    # diagonal E11 x E11 entry: just the prefactor
    assert r.entry(0, 0) == pref
    # E11 x E22 entry: pref * q^-1 (1 - z^s)/(1 - q^-2 z^s)
    expect2 = pref * geom(q_power(-2)) * ZetaSeries(
        {0: q_power(-1), s: -q_power(-1)}, order)
    assert r.entry(1, 1) == expect2


def test_ratio_only_dependence(monkeypatch):
    # both legs one power of zeta higher, the left at zeta^2 and the right
    # at zeta: only their ratio may enter the product
    base = assemble(EngineParams("a1", 2, 1, order=4))
    real = engine.phi_zeta
    scales = []

    def raised(*args, zeta_scale=1):
        scales.append(zeta_scale + 1)
        return real(*args, zeta_scale=zeta_scale + 1)
    monkeypatch.setattr(engine, "phi_zeta", raised)
    assert assemble(EngineParams("a1", 2, 1, order=4)) == base
    assert {1, 2} <= set(scales)


def _group_families(roots):
    """The a2 positive roots with the interleaved real blocks regrouped
    family by family."""
    plus = [r for r in roots if r.kind == "real_plus"]
    imag = [r for r in roots if r.kind == "imaginary"]
    minus = [r for r in roots if r.kind == "real_minus"]
    order_plus = [(1, 0), (1, 1), (0, 1)]
    order_minus = [(0, -1), (-1, 0), (-1, -1)]
    plus_g = [r for g in order_plus for r in plus if r.finite_part == g]
    minus_g = [r for g in order_minus for r in minus if r.finite_part == g]
    return plus_g + imag + minus_g


def test_grouped_factor_order_invariance(monkeypatch):
    # the commuting real factors regrouped family by family must give the
    # same product
    params = [EngineParams("a2", 1, 0, 0, order=3, left="chi", family=fam,
                           fock_dim=4) for fam in (1, 2)]
    ungrouped = [assemble(p) for p in params]
    real = engine.positive_roots
    roots = real(extend_cartan(finite_cartan("a2")), params[0].m_max)
    assert _group_families(roots) != roots
    monkeypatch.setattr(engine, "positive_roots",
                        lambda *args: _group_families(real(*args)))
    assert [assemble(p) for p in params] == ungrouped


def test_chi_phi_order0_shows_cartan_pattern():
    r = assemble(EngineParams("a1", 1, 0, order=0, left="chi", fock_dim=5))
    # diagonal carries q^D E11 + q^-D E22 on the flattened (fock x 2) space;
    # at s1 = 0 the level-zero raising factor is zeta-free and sits next to
    # it in the constant term
    for n in range(5):
        assert r.entry(2 * n, 2 * n) == ZetaSeries.const(q_power(n), 0)
        assert r.entry(2 * n + 1, 2 * n + 1) == ZetaSeries.const(q_power(-n), 0)
    off_diag = [ij for ij in r.entries if ij[0] != ij[1]]
    # raising x E21 sits at rows (n+1, leg 2), columns (n, leg 1)
    assert off_diag and all(i == j + 3 for (i, j) in off_diag)
    r2 = assemble(EngineParams("a1", 2, 1, order=0, left="chi", fock_dim=5))
    # with every node exponent positive only the Cartan factor survives
    assert len(r2.entries) == 10


def test_engine_rejects_bad_exponents():
    with pytest.raises(EngineError):
        EngineParams("a1", 0, 0)
    with pytest.raises(EngineError):
        EngineParams("a1", 1, 2)  # s - s1 < 0


def test_engine_rejects_two_oscillator_legs():
    # no fundamental leg, so a real factor need not be 1 + X
    for algebra in ("a1", "a2"):
        with pytest.raises(EngineError):
            EngineParams(algebra, 1, 0, 0, left="chi", right="psi")


# -- the real factors ------------------------------------------------------------

_CATALOG_PAIRINGS = [("r", "a1", "plain", 4, None)] + [
    ("l", "a1", v, 3, 4)
    for v in ("hat", "hat-twisted", "check", "check-twisted")] + [
    ("r", "a2", "plain", 2, None)] + [
    ("l", "a2", v, 2, 3) for v in ("hat-1", "hat-2", "check-1", "check-2")]


def _q_exponential(e, f, k, order):
    # the rule the engine once followed: exp_{q^-2}(X) for
    # X = (q - q^-1) e x f at zeta^k, summed as X^n z^(nk) / (n)_{q^-2}!
    # until X^n vanishes
    x = kron(e.scale(C), f)
    entries = {(i, i): {0: ONE} for i in range(x.dim)}
    xn, n, fact = x, 1, ONE
    while xn:
        assert n <= x.dim
        # (n)_{q^-2} = 1 + q^-2 + ... + q^(-2(n-1)), with q = t^6
        fact = fact * QScalar({-12 * i: 1 for i in range(n)})
        for ij, v in xn.scale(fact.inverse()).entries.items():
            cs = entries.setdefault(ij, {})
            cs[n * k] = cs.get(n * k, QScalar.ZERO) + v
        n += 1
        xn = xn * x
    return OpMatrix(x.dim, {ij: ZetaSeries(cs, order)
                            for ij, cs in entries.items()},
                    ZetaSeries.one(order))


@pytest.mark.parametrize("kind, algebra, variant, order, d",
                         _CATALOG_PAIRINGS)
def test_each_real_factor_is_one_plus_x(kind, algebra, variant, order, d):
    # the relabel of the identity is 1 + X, and that of a matrix with sums
    # and cancellations to come is its product with 1 + X, on the reported
    # columns as flat indices; a column the relabel moves out of them is
    # cut, as on the truncated matrices
    params = engine_params_for(kind, algebra, variant, 1, 0, 0, order, d)
    left, right, etab, ftab = _imaginary_inputs(params)
    ls = _reported_states(left, params.left, params)
    rs = _reported_states(right, params.right, params)
    pairs = list(itertools.product(ls, rs))
    index = {c: i for i, c in enumerate(pairs)}
    dim = len(pairs)

    def times_real_factor(acc, e, f):
        out = engine._times_real_factor(
            {(r, pairs[c]): v for (r, c), v in acc.entries.items()}, e, f,
            order)
        return OpMatrix(dim, {(r, index[c]): v for (r, c), v in out.items()
                              if c in index}, acc.one)
    one = ZetaSeries.one(order)
    eye = OpMatrix.identity(dim, one)
    rng = random.Random(3)
    aff = extend_cartan(finite_cartan(algebra))
    used = 0
    for root in positive_roots(aff, params.m_max):
        if root.kind == "imaginary":
            continue
        e, f = etab.real_op(root), ftab.real_op(root)
        emat, fmat = matrix(e, ls), matrix(f, rs)
        if not (emat and fmat) or e.zexp + f.zexp > order:
            continue
        want = _q_exponential(emat, fmat, e.zexp + f.zexp, order)
        got = times_real_factor(eye, e, f)
        assert got == want, root
        # random entries in the columns X moves, minus their image under X
        x = want + OpMatrix.identity(dim, -one)
        cols = sorted({i for i, _ in x.entries})
        acc = OpMatrix(dim, {(rng.randrange(dim), rng.choice(cols)):
                             ZetaSeries({0: q_power(rng.randint(-2, 2)),
                                         rng.randint(1, order): ONE}, order)
                             for _ in range(2 * len(cols))}, one)
        acc = acc + (acc * x).scaled(cols=[-one] * dim)
        assert acc * x
        got = times_real_factor(acc, e, f)
        assert got == acc * want, root
        used += 1
    assert used


def identity(left, right):
    # the engine's identity on the columns of two lists of leg states
    one = ZetaSeries.one(4)
    return {(r, c): one
            for r, c in enumerate(itertools.product(left, right))}


def test_real_factor_rejects_two_oscillator_operators():
    # on a chi leg the raising operator does not square to zero: X^2 does
    # not vanish at a column, so the real factor is not 1 + X
    img = chi_images("a1", 1, 0)
    e, lower = (engine.RootVector(z, m.row)
                for z, m in zip(img.exps, img.e_ops))
    states = fock_states(5)
    eye = identity(states, states)
    for a, b in ((e, e), (e, lower), (lower, e)):
        with pytest.raises(EngineError):
            engine._times_real_factor(eye, a, b, 4)
    f = f_op(phi_zeta("a1", 1, 0), 0)
    f = engine.RootVector(f.zexp, {i: (j, v) for (i, j), v in
                                   f.mat.entries.items()}.get)
    eye = identity(states, range(2))
    assert engine._times_real_factor(eye, e, f, 4) != eye


@pytest.mark.parametrize("kind, algebra, variant, order, d",
                         _CATALOG_PAIRINGS)
def test_assemble_takes_no_generic_product(monkeypatch, kind, algebra,
                                           variant, order, d):
    # the brackets compose partial maps and each real factor relabels
    # columns: once the legs are built, assemble multiplies, adds or
    # commutes no two matrices and takes no Kronecker product
    params = engine_params_for(kind, algebra, variant, 1, 0, 0, order, d)
    want = assemble(params)
    legs = {w: engine._leg_images(params, w) for w in ("left", "right")}
    monkeypatch.setattr(engine, "_leg_images", lambda p, w: legs[w])
    _forbid_generic_products(monkeypatch)
    assert not hasattr(engine, "kron")
    assert assemble(params) == want


# -- the untruncated Fock space ------------------------------------------------

@pytest.mark.parametrize("algebra, exps, order, d", [
    ("a1", (1, 1), 4, 5), ("a1", (2, 1), 4, 5), ("a1", (3, 2), 4, 5),
    ("a2", (1, 1, 0), 2, 4), ("a2", (1, 0, 1), 2, 4), ("a2", (2, 1, 1), 2, 4),
    ("a2", (1, 1, 0), 2, 6), ("a2", (1, 0, 1), 2, 6), ("a2", (2, 1, 1), 2, 6),
])
def test_engine_matches_closed_forms_at_degenerate_exponents(algebra, exps,
                                                             order, d):
    # exponents other than the acceptance suite's (1, 0[, 0]); a Fock pad
    # of m_max once gave wrong rank-2 check-type entries at (1, 1, 0)
    variants = (("hat", "hat-twisted", "check", "check-twisted")
                if algebra == "a1" else ("hat-1", "hat-2", "check-1",
                                         "check-2"))
    for variant in variants:
        v = check_engine("l", algebra, variant, *exps, order=order, d=d)
        assert v.passed, v


def _block(mat, big, params):
    # the entries of an assembly at `big` between the reported states of
    # `params`, reindexed as at `params`
    legs = [[engine._leg_images(p, w) for w in ("left", "right")]
            for p in (big, params)]
    pairs = [list(itertools.product(
        _reported_states(left, p.left, p),
        _reported_states(right, p.right, p)))
        for (left, right), p in zip(legs, (big, params))]
    index = {c: i for i, c in enumerate(pairs[1])}
    at = [index.get(c) for c in pairs[0]]
    return OpMatrix(len(index), {
        (at[i], at[j]): v for (i, j), v in mat.entries.items()
        if at[i] is not None and at[j] is not None}, mat.one)


def _assert_truncation_consistent(params):
    # the block at fock_dim d is the d-state block of the one at d + 2
    kw = {k: getattr(params, k) for k in (
        "order", "left", "right", "family", "twist", "osc_params")}
    big = EngineParams(params.algebra, params.s, params.s1, params.s2,
                       fock_dim=params.fock_dim + 2, **kw)
    assert assemble(params) == _block(assemble(big), big, params)


@pytest.mark.parametrize("exps", [(2, 0, 2), (2, 2, 0)])
def test_twisted_a2_block_is_consistent_under_truncation(exps):
    # rank-2 twists have no closed form: the reported block at fock_dim d
    # must be the d-state block of the one at d + 2; at these exponents,
    # with two nodes free of zeta, a Fock pad of m_max once moved it on one
    # side each
    for perm in itertools.permutations(range(3)):
        for left, right in (("chi", "phi"), ("phi", "psi")):
            for family in (1, 2):
                _assert_truncation_consistent(EngineParams(
                    "a2", *exps, order=2, left=left, right=right,
                    family=family, twist=perm, fock_dim=3))


@pytest.mark.parametrize("kind, algebra, variant, order, d",
                         _CATALOG_PAIRINGS)
def test_catalog_blocks_are_consistent_under_truncation(kind, algebra,
                                                        variant, order, d):
    _assert_truncation_consistent(engine_params_for(
        kind, algebra, variant, 1, 0, 0, order, d))


# -- the imaginary factor --------------------------------------------------------

def _imaginary_inputs(params):
    left = engine._leg_images(params, "left")
    right = engine._leg_images(params, "right")
    return (left, right, engine.build_root_vectors(left, "e", params.m_max),
            engine.build_root_vectors(right, "f", params.m_max))


def _argument_at(etab, ftab, params, x, y):
    # the exponent at state (x, y), summed term by term from the definition
    rank = 1 if params.algebra == "a1" else 2
    um = engine.u_matrices(params.algebra, params.m_max)
    coeffs = {}
    for m in range(1, params.m_max + 1):
        u = inverse_coupling(um, m)
        z = m * (etab.zstep + ftab.zstep)
        for i in range(rank):
            for j in range(rank):
                v = (C * u[i][j] * eigenvalues(etab, i, m, [x])[0]
                     * eigenvalues(ftab, j, m, [y])[0])
                coeffs[z] = coeffs.get(z, QScalar.ZERO) + v
    return ZetaSeries(coeffs, params.order)


def _reported_states(image, kind, params):
    # every state of a phi leg, and the occupation tuples below fock_dim
    # of an oscillator leg, in flat order
    if kind == "phi":
        return range(image.dim)
    return fock_states(params.fock_dim, image.copies)


_IMAGINARY_CASES = [
    pytest.param("a1", dict(order=4), id="a1-r"),
    pytest.param("a1", dict(order=3, left="chi", fock_dim=4), id="a1-hat"),
    pytest.param("a1", dict(order=3, left="chi", twist=(1, 0), fock_dim=4),
                 id="a1-hat-twisted"),
    pytest.param("a1", dict(order=3, right="psi", fock_dim=4), id="a1-check"),
    pytest.param("a1", dict(order=3, right="psi", twist=(1, 0), fock_dim=4),
                 id="a1-check-twisted"),
    pytest.param("a2", dict(order=3), id="a2-r"),
    pytest.param("a2", dict(order=2, left="chi", fock_dim=3), id="a2-hat-1"),
    pytest.param("a2", dict(order=2, left="chi", family=2, fock_dim=3),
                 id="a2-hat-2"),
    pytest.param("a2", dict(order=2, right="psi", fock_dim=3),
                 id="a2-check-1"),
    pytest.param("a2", dict(order=2, right="psi", family=2, fock_dim=3),
                 id="a2-check-2"),
    pytest.param("a2", dict(order=2, left="chi", twist=(1, 2, 0), fock_dim=3),
                 id="a2-hat-1-twisted"),
    pytest.param("a2", dict(order=2, right="psi", family=2, twist=(2, 0, 1),
                            fock_dim=3), id="a2-check-2-twisted"),
]


def _reported_columns(left, right, params):
    # the reported window of the product, as pairs of leg states
    return set(itertools.product(
        _reported_states(left, params.left, params),
        _reported_states(right, params.right, params)))


@pytest.mark.parametrize("algebra, kw", _IMAGINARY_CASES)
def test_imaginary_factor_matches_series_exp(algebra, kw):
    # every diagonal ratio of the reported window against series_exp of the
    # argument summed from its definition; no other column gets a weight
    params = EngineParams(algebra, 1, 0, 0, **kw)
    left, right, etab, ftab = _imaginary_inputs(params)
    cols = _reported_columns(left, right, params)
    ground = [_reported_states(leg, kind, params)[0]
              for leg, kind in ((left, params.left), (right, params.right))]
    log_prefactor, factor = engine._imaginary_factor(
        etab, ftab, params, params.order, cols, ground)
    a0 = _argument_at(etab, ftab, params, *ground)
    assert log_prefactor == a0
    assert cols and len(factor) == len(cols)
    for col, got in factor.items():
        assert col in cols, col
        x, y = col
        diff = _argument_at(etab, ftab, params, x, y) - a0
        assert got == series_exp(diff), (x, y)


@pytest.mark.parametrize("algebra, kw, left_states, off", [
    pytest.param("a1", dict(order=4, left="chi", fock_dim=4),
                 ((0,), (2,), (3,)), False, id="a1-hat"),
    pytest.param("a2", dict(order=3, right="psi", fock_dim=3), (0, 1, 2),
                 False, id="a2-check-1"),
    pytest.param("a2", dict(order=2, left="chi", fock_dim=3),
                 ((0, 0), (0, 1), (1, 1), (1, 2)), False, id="a2-hat-1"),
    pytest.param("a1", dict(order=4, left="chi", fock_dim=4,
                            osc_params=_OSC_A1),
                 ((0,), (1,), (2,), (3,)), True, id="a1-hat-osc"),
    pytest.param("a2", dict(order=3, right="psi", family=2, fock_dim=3,
                            osc_params=_OSC_A2), (0, 1, 2), True,
                 id="a2-check-2-osc"),
])
def test_series_log_once_per_distinct_eigenvalue_tuple(monkeypatch, algebra,
                                                       kw, left_states, off):
    # no logarithm while the tables are built, and none at all on legs whose
    # every node is a product of linear factors (the catalog's); off them,
    # as at the osc-series parameters, at most one per distinct tuple of one
    # node's e' eigenvalues among the states of the columns passed
    params = EngineParams(algebra, 1, 0, 0, **kw)
    calls = []
    series_log = engine.series_log
    monkeypatch.setattr(engine, "series_log",
                        lambda g: calls.append(g) or series_log(g))
    left, right, etab, ftab = _imaginary_inputs(params)
    assert calls == []
    right_states = _reported_states(right, params.right, params)
    cols = set(itertools.product(left_states, right_states))
    engine._imaginary_factor(etab, ftab, params, params.order, cols,
                             min(cols))
    keys = {tuple(level(x) for level in node)
            for tab, states in ((etab, left_states), (ftab, right_states))
            for x in states for node in tab.diags}
    assert 0 < len(calls) <= len(keys) if off else calls == []
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("algebra, kw", [
    pytest.param("a1", dict(order=3, left="chi", fock_dim=4), id="a1-hat"),
    pytest.param("a2", dict(order=2, right="psi", fock_dim=3),
                 id="a2-check-1"),
])
def test_engine_column_weights_match_products_with_diagonals(monkeypatch,
                                                            algebra, kw):
    # assemble applies the imaginary and Cartan factors as column weights;
    # each must equal the product with the diagonal matrix of the weights
    # on the reported columns, as flat indices
    params = EngineParams(algebra, 1, 0, 0, **kw)
    left, right, etab, ftab = _imaginary_inputs(params)
    cols = sorted(_reported_columns(left, right, params))
    order, dim = params.order, len(cols)
    _, imag = engine._imaginary_factor(etab, ftab, params, order, set(cols),
                                       cols[0])
    cartan = engine._k_factor(left, right, params, order, set(cols))
    one = ZetaSeries.one(order)
    rng = random.Random(5)
    acc = OpMatrix(dim, {(rng.randrange(dim), rng.randrange(dim)):
                         ZetaSeries({0: q_power(rng.randint(-2, 2)),
                                     rng.randint(1, order): ONE}, order)
                         for _ in range(3 * dim)}, one)
    for weights in (imag, cartan):
        assert len(weights) == dim
        got = engine._weigh_columns(
            {(r, cols[c]): v for (r, c), v in acc.entries.items()}, weights)
        assert OpMatrix(dim, {(r, cols.index(c)): v
                              for (r, c), v in got.items()}, one) == \
            acc * diagonal_matrix([weights[c] for c in cols], one)
    # no imaginary root within the order: no imaginary factor at all
    bare = EngineParams(algebra, 1, 0, 0, **dict(kw, order=0))
    monkeypatch.setattr(engine, "_imaginary_factor", None)
    assert assemble(bare).dim == dim


def test_series_exp_takes_products_of_linear_factors():
    lam = q_power(-2)
    # log((1 - z^2) / (1 - q^-2 z^2)): power sums q^-2m - 1 at z^(2m)
    f = ZetaSeries({2 * m: (q_power(-2 * m) - ONE).scale(Fraction(1, m))
                    for m in range(1, 4)}, 6)
    want = (ZetaSeries({0: ONE, 2: -ONE}, 6)
            * ZetaSeries({0: ONE, 2: -lam}, 6).inverse())
    assert series_exp(f) == want
    assert series_exp(ZetaSeries.zero(6)) == ZetaSeries.one(6)


def test_imaginary_weights_fall_back_only_off_the_power_sums(monkeypatch,
                                                             tmp_path):
    # every weight of the ten catalog engine checks is a finite product,
    # and their imaginary factors take no logarithm; each osc-series golden,
    # whose oscillator parameters are not monomials in t, has weights that
    # are not, and takes series_exp for them
    inside, counts = [False], {"weights": 0, "fallbacks": 0, "logs": 0}
    real = {name: getattr(engine, name) for name in (
        "_imaginary_factor", "_product_weight", "series_exp", "series_log")}

    def factor(*args):
        inside[0] = True
        try:
            return real["_imaginary_factor"](*args)
        finally:
            inside[0] = False

    def counted(name, key):
        def call(*args):
            counts[key] += inside[0]
            return real[name](*args)
        monkeypatch.setattr(engine, name, call)
    monkeypatch.setattr(engine, "_imaginary_factor", factor)
    counted("_product_weight", "weights")
    counted("series_exp", "fallbacks")
    counted("series_log", "logs")

    def taken():
        out = dict(counts)
        counts.update(weights=0, fallbacks=0, logs=0)
        return out
    for _, fn, kw in suite_checks():
        if fn == "check_engine":
            assert check_engine(**kw).passed
            got = taken()
            assert got["weights"] and got["fallbacks"] == got["logs"] == 0
    # the a1 golden's oscillator node is off the products at its three
    # levels and takes series_log; the a2 golden has one level, where each
    # logarithm is the eigenvalue itself
    for name, logs in (("compute-l-a1-chi-phi-osc-series", True),
                       ("compute-l-a2-phi-psi-osc-series", False)):
        assert main(CASES[name] + ["--out", str(tmp_path / "out")]) == 0
        got = taken()
        assert got["fallbacks"] >= 1 and bool(got["logs"]) == logs


def _has_polynomial_denominator(v):
    return isinstance(v, QScalar) and len(v.den) > 1


@pytest.mark.parametrize("kind, algebra, variant, order, d", [
    pytest.param("l", "a1", "check", 5, 7, id="a1-check"),
    pytest.param("l", "a1", "hat-twisted", 5, 7, id="a1-hat-twisted"),
    pytest.param("r", "a1", "plain", 8, None, id="a1-r"),
    pytest.param("l", "a2", "hat-1", 2, 4, id="a2-hat-1"),
    pytest.param("r", "a2", "plain", 6, None, id="a2-r"),
])
def test_imaginary_factor_pays_one_denominator_product_per_pair(
        monkeypatch, kind, algebra, variant, order, d):
    # with the leg logarithms warmed at every state the product holds, the
    # imaginary factor, series_exp included, multiplies or adds a value
    # with a polynomial denominator once for each distinct pair of
    # eigenvalue tuples (kappa_1 times the level-1 difference) and once
    # per level for the ground column
    params = engine_params_for(kind, algebra, variant, 1, 0, 0, order, d)
    counting, seen = [False], []

    def counted(name):
        real = getattr(QScalar, name)

        def op(a, b):
            if counting[0] and (_has_polynomial_denominator(a)
                                or _has_polynomial_denominator(b)):
                seen.append(name)
            return real(a, b)
        monkeypatch.setattr(QScalar, name, op)

    for name in ("__add__", "__mul__"):
        counted(name)
    factor = engine._imaginary_factor
    pairs = []

    def warmed(left_table, right_table, params, order, cols, ground):
        keys = {(left_table.leg(x), right_table.leg(y))
                for x, y in cols | {tuple(ground)}}
        u_matrices(params.algebra, params.m_max)   # the level identity
        pairs.append(len(keys))
        counting[0] = True
        try:
            return factor(left_table, right_table, params, order, cols,
                          ground)
        finally:
            counting[0] = False
    monkeypatch.setattr(engine, "_imaginary_factor", warmed)
    assemble(params)
    assert len(pairs) == 1
    assert len(seen) <= pairs[0] + params.m_max


# -- level 1 gives every level: the three checks ---------------------------------

_SIGNS = {"a1": ((1,),), "a2": ((1, -1), (-1, 1))}


def test_level_signs_are_pinned():
    # check (b) holds on both algebras through m_max = 8, with sigma all +1
    # on a1 and +1 on the diagonal, -1 off it, on a2; level 1 alone leaves
    # every sign open
    for algebra, signs in _SIGNS.items():
        assert u_matrices(algebra, 1)[1] == tuple(
            (0,) * len(row) for row in signs)
        for m_max in range(2, 9):
            levels, got = u_matrices(algebra, m_max)
            assert got == signs == engine._level_signs(levels)


def _perturbed_couplings(algebra, m_max, m):
    # a copy of the couplings with kappa_m multiplied by t
    levels = dict(u_matrices(algebra, m_max)[0])
    kappa, adj = levels[m]
    levels[m] = (kappa * t_power(1), adj)
    return levels


def _fast_and_fallbacks(monkeypatch):
    # counts of the finite-product weights and of the series_exp calls made
    # inside the imaginary factor
    inside, counts = [False], {"fast": 0, "fallbacks": 0}
    factor = engine._imaginary_factor
    weight, exp = engine._product_weight, engine.series_exp

    def counted(*args):
        inside[0] = True
        try:
            return factor(*args)
        finally:
            inside[0] = False

    def fast(*args):
        counts["fast"] += 1
        return weight(*args)

    def slow(f):
        counts["fallbacks"] += inside[0]
        return exp(f)
    monkeypatch.setattr(engine, "_imaginary_factor", counted)
    monkeypatch.setattr(engine, "_product_weight", fast)
    monkeypatch.setattr(engine, "series_exp", slow)
    return counts


def test_a_perturbed_coupling_fails_the_level_identity(monkeypatch):
    # kappa_m times t, at any level m >= 2, fails check (b); with check (b)
    # failing, every catalog engine check still passes, each weight through
    # P_m at every level and series_exp
    for algebra in _SIGNS:
        for m in range(2, 9):
            assert engine._level_signs(
                _perturbed_couplings(algebra, 8, m)) is None
    real = engine.u_matrices
    monkeypatch.setattr(engine, "u_matrices",
                        lambda algebra, m_max: (real(algebra, m_max)[0],
                                                None))
    counts = _fast_and_fallbacks(monkeypatch)
    for _, fn, kw in suite_checks():
        if fn == "check_engine":
            assert check_engine(**kw).passed
    assert counts["fast"] == 0 and counts["fallbacks"] > 0


def _flipped(monkeypatch, side):
    # every node of the `side` tables evaluated at -y, g(y) -> g(-y): each
    # node keeps its product shape, with the other sign eps
    build = engine.build_root_vectors

    def flipped(image, which, m_max):
        tab = build(image, which, m_max)
        if which == side:
            tab.diags = [[(lambda x, v=level, odd=m % 2: -v(x) if odd
                           else v(x)) for m, level in enumerate(node, 1)]
                         for node in tab.diags]
        return tab
    monkeypatch.setattr(engine, "build_root_vectors", flipped)


def _factor_against_definition(algebra, kw):
    # the imaginary factor on the reported window, and whether it equals
    # series_exp of the argument summed from its definition
    params = EngineParams(algebra, 1, 0, 0, **kw)
    left, right, etab, ftab = _imaginary_inputs(params)
    cols = _reported_columns(left, right, params)
    ground = min(cols)
    a00, factor = engine._imaginary_factor(etab, ftab, params, params.order,
                                           cols, ground)
    a0 = _argument_at(etab, ftab, params, *ground)
    return a00 == a0 and all(
        got == series_exp(_argument_at(etab, ftab, params, *col) - a0)
        for col, got in factor.items())


_FLIP_CASES = [
    pytest.param("a1", dict(order=3, right="psi", fock_dim=4),
                 id="a1-check"),
    pytest.param("a2", dict(order=2, left="chi", fock_dim=3), id="a2-hat-1"),
]


@pytest.mark.parametrize("algebra, kw", _FLIP_CASES)
def test_pairs_against_the_level_signs_take_series_exp(monkeypatch, algebra,
                                                       kw):
    # the left leg's nodes at -y have the other sign, so sigma_ij eps_i
    # eps'_j = -1 (check (c)) wherever both logarithms are nonzero: those
    # pairs take series_exp, and every weight is still the definition's
    _flipped(monkeypatch, "e")
    counts = _fast_and_fallbacks(monkeypatch)
    assert _factor_against_definition(algebra, kw)
    assert counts["fallbacks"] > 0


def _perturb_one_level(monkeypatch, m, k):
    # t^k added to the level-m eigenvalue of the first node at the second
    # Fock state of the oscillator leg
    build = engine.build_root_vectors

    def perturbed(image, side, m_max):
        tab = build(image, side, m_max)
        if isinstance(image, OscImage):
            x0 = (1,) + (0,) * (image.copies - 1)
            level = tab.diags[0][m - 1]
            tab.diags[0][m - 1] = (lambda x: level(x) + t_power(k)
                                   if x == x0 else level(x))
        return tab
    monkeypatch.setattr(engine, "build_root_vectors", perturbed)


_LEVEL_CASES = [
    pytest.param(dict(kind="l", algebra="a1", variant="check", order=5, d=7),
                 m, id="a1-check-m%d" % m) for m in (2, 5)
] + [
    pytest.param(dict(kind="l", algebra="a2", variant="hat-1", order=2, d=4),
                 2, id="a2-hat-1-m2"),
]


@pytest.mark.parametrize("kw, m", _LEVEL_CASES)
def test_a_perturbed_level_fails_the_engine_check(monkeypatch, kw, m):
    # the weights come from level 1, yet every level is read: one leg
    # eigenvalue moved by a monomial at a level m >= 2 fails the check
    _perturb_one_level(monkeypatch, m, 5)
    assert not check_engine(**kw).passed


def test_each_level_check_can_fail(monkeypatch):
    # each of the checks (a), (b) and (c) made to pass always: a case the
    # tests above pin then comes out wrong
    kw = dict(kind="l", algebra="a1", variant="check", order=5, d=7)
    # (a): any node of integer values is taken as a product with eps = -1
    with monkeypatch.context() as mp:
        _perturb_one_level(mp, 2, 5)
        mp.setattr(engine, "_power_sum", lambda values: -1)
        assert check_engine(**kw).passed
    real = engine.u_matrices
    for algebra, kw in (case.values for case in _FLIP_CASES):
        # (b): the pinned signs for couplings with kappa_m times t
        with monkeypatch.context() as mp:
            levels = _perturbed_couplings(algebra, kw["order"],
                                          kw["order"])
            mp.setattr(engine, "u_matrices", lambda a, m_max: (levels,
                                                               _SIGNS[a]))
            assert not _factor_against_definition(algebra, kw)
            mp.setattr(engine, "u_matrices", lambda a, m_max: (
                levels, engine._level_signs(levels)))
            assert _factor_against_definition(algebra, kw)
        # (c): level signs 0, so that no sign product is -1
        with monkeypatch.context() as mp:
            _flipped(mp, "e")
            mp.setattr(engine, "u_matrices", lambda a, m_max: (
                real(a, m_max)[0], tuple((0,) * len(row)
                                         for row in _SIGNS[a])))
            assert not _factor_against_definition(algebra, kw)


def _counted_products(monkeypatch):
    # the polynomial products the engine's finite-product paths make
    calls, conv = [], engine._p_conv
    monkeypatch.setattr(engine, "_p_conv",
                        lambda a, b: calls.append(a) or conv(a, b))
    return calls


def test_a_scaled_rho_costs_no_pass_of_check_a(monkeypatch):
    # rho times N on the a1 hat leg: every level-1 eigenvalue, N t^-6,
    # keeps denominator 1, so check (a), one pass per unit of N, would cost
    # in proportion to N; it refuses the node before any pass, and the
    # logarithms and weights are series_log's and series_exp's
    kw = dict(order=3, left="chi", fock_dim=4, osc_params=OscParams(
        QScalar.from_int(1000) / (C * C), [C], [Fraction(0)]))
    _, _, etab, _ = _imaginary_inputs(EngineParams("a1", 1, 0, 0, **kw))
    calls = _counted_products(monkeypatch)
    for x in fock_states(4):
        (values,) = (tuple(v(x) for v in node) for node in etab.diags)
        assert values[0] == t_power(-6).scale(1000)
        log = engine.series_log(ZetaSeries(
            {0: ONE, **dict(enumerate(values, 1))}, 3))
        assert engine._node_log(values) == (
            None, tuple(map(log.coeff, range(1, 4))))
    assert calls == []
    assert _factor_against_definition("a1", kw)


def test_a_product_weight_costs_the_same_for_any_exponent(monkeypatch):
    # prod_j (1 - t^k_j zeta)^(-n_j) with n_j = +-10^5 at three levels: at
    # most 1 + 2 + 3 + 4 products per factor, and series_exp of sum_m
    # a_1(t^m) / m zeta^m
    calls = _counted_products(monkeypatch)
    for n in (10 ** 5, -10 ** 5):
        a1 = QScalar({6: n, -12: 3})
        assert engine._product_weight(a1, [1, 2, 3], 3) == series_exp(
            ZetaSeries({m: engine._at_power(a1, m) for m in (1, 2, 3)}, 3))
    assert len(calls) <= 2 * 2 * 10
