import random

from fractions import Fraction

import pytest

from qaffine.scalars import QScalar, q_power
from qaffine.linalg import OpMatrix, OscPoly, kron
from qaffine.rational import ZetaRational
from qaffine.oscillator import (
    chi_images, psi_images, OscParams,
)
from qaffine.scalars import parse_qscalar
from qaffine.verify import _gauged
from tuple_ring import OscElement, TupleLaurent2, flat, nested, tuple_qpow
from product_builders import (
    FockCopies, FockRep, osc_automorphism, oscillator_matrices, render,
    tau_matrix,
)
from oracles import (
    check_defining_relations, check_ring_relations, commutator,
    diagonal_matrix, render_ring, transpose, zeta_monomial,
)

ONE = QScalar.ONE
D = 8


def number(d):
    # the number operator D on the d-state Fock space
    return diagonal_matrix([QScalar.from_int(n) for n in range(d)], ONE)


def q_number_power(d, c):
    # q^(cD) on the d-state Fock space
    return diagonal_matrix([q_power(c * n) for n in range(d)], ONE)


def test_fock_basis_relations():
    f = FockRep(D)
    a, ad, qd = f.lowering(), f.raising(), q_number_power(D, 2)
    # a |0> = 0
    assert all(j != 0 for (_, j) in a.entries)
    # a'a = 1 - q^(2D) on every state
    lhs = ad * a
    expect = diagonal_matrix([ONE - q_power(2 * n) for n in range(D)], ONE)
    assert lhs == expect
    # a a'|n> = (1 - q^2 q^(2n))|n> below the top state only
    prod = a * ad
    for n in range(D - 1):
        assert prod.entry(n, n) == ONE - q_power(2 * n + 2)
    assert prod.entry(D - 1, D - 1) != ONE - q_power(2 * D)
    # [D, a] = -a, [D, a'] = a'
    num = number(D)
    assert commutator(num, a) == -a
    assert commutator(num, ad) == ad
    # a'a |2> explicit
    assert lhs.entry(2, 2) == ONE - q_power(4)
    with pytest.raises(ValueError):
        FockRep(1)


def test_chi_a1_matches_specialization():
    img = render(chi_images("a1", 1, 0), D)
    c = (q_power(1) - q_power(-1)).inverse()
    f = FockRep(D)
    assert img.e_mats[1] == f.raising().scale(c)
    assert img.e_mats[0] == f.lowering().scale(c)
    assert img.h_diags[1][3] == 6  # 2D on |3>
    assert check_defining_relations(img, (D, 1)) == []


def test_psi_a1_matches_specialization():
    img = render(psi_images("a1", 1, 0), D)
    c = (q_power(1) - q_power(-1)).inverse()
    f = FockRep(D)
    assert img.f_mats[0] == f.raising().scale(c)
    assert img.f_mats[1] == f.lowering().scale(c)
    assert check_defining_relations(img, (D, 1)) == []


def test_chi_a2_families_both_satisfy_serre():
    # the two inequivalent solutions of the quadratic Serre relations
    for fam in (1, 2):
        img = render(chi_images("a2", 1, 0, 0, family=fam), 5)
        assert check_defining_relations(img, (5, 2)) == []
        psi = render(psi_images("a2", 1, 0, 0, family=fam), 5)
        assert check_defining_relations(psi, (5, 2)) == []


def test_chi_a2_family1_explicit_images():
    d = 4
    img = render(chi_images("a2", 1, 0, 0, family=1), d)
    f = FockRep(d)
    eye = OpMatrix.identity(d, ONE)
    c = (q_power(1) - q_power(-1)).inverse()
    a1, a2 = kron(f.lowering(), eye), kron(eye, f.lowering())
    a1d, a2d = kron(f.raising(), eye), kron(eye, f.raising())
    qd = lambda c1, c2: kron(q_number_power(d, c1), q_number_power(d, c2))
    assert img.e_mats[0] == (a1 * a2 * qd(-1, -2)).scale(c)
    assert img.e_mats[1] == a1d.scale(c)
    assert img.e_mats[2] == (qd(1, 0) * a2d).scale(c)
    # chi(h_beta) = -D1 + 2 D2 on |n1 n2>
    assert img.h_diags[2][1 * d + 2] == -1 + 4


def test_psi_a2_family2_explicit_images():
    d = 4
    img = render(psi_images("a2", 1, 0, 0, family=2), d)
    f = FockRep(d)
    eye = OpMatrix.identity(d, ONE)
    c = (q_power(1) - q_power(-1)).inverse()
    a2 = kron(eye, f.lowering())
    qd = lambda c1, c2: kron(q_number_power(d, c1), q_number_power(d, c2))
    # psi(f_beta) = c a_2 q^(-D1)
    assert img.f_mats[2] == (a2 * qd(-1, 0)).scale(c)


def test_parameter_freedom_is_an_automorphism_orbit():
    # rebuilding with shifted (mu, nu) equals conjugating by the
    # one-copy automorphism with kappa = q^2, xi = 2
    d = 6
    kappa, xi = q_power(2), 2
    c = q_power(1) - q_power(-1)
    base = render(chi_images("a1", 1, 0), d)
    shifted = render(chi_images("a1", 1, 0, params=OscParams(
        (c * c).inverse(), [c * kappa], [Fraction(xi)])), d)
    rows, cols = osc_automorphism(d, (kappa,), (xi,))
    for i in (0, 1):
        assert base.e_mats[i].scaled(rows, cols) == shifted.e_mats[i]
    assert check_defining_relations(shifted, (d, 1)) == []


def test_two_copy_automorphism_consistency():
    d = 4
    f = FockRep(d)
    eye = OpMatrix.identity(d, ONE)
    a1 = kron(f.lowering(), eye)
    a2 = kron(eye, f.lowering())
    k1, k2 = q_power(1), q_power(-2)
    xi1, xi2, xi3 = 2, 4, 6
    rows, cols = osc_automorphism(d, (k1, k2), (xi1, xi2, xi3))
    qd = lambda c1, c2: kron(q_number_power(d, c1), q_number_power(d, c2))
    assert a1.scaled(rows, cols) == (a1 * qd(xi1, xi2)).scale(k1)
    assert a2.scaled(rows, cols) == (a2 * qd(xi2, xi3)).scale(k2)
    # D_i are fixed
    d1 = kron(number(d), eye)
    assert d1.scaled(rows, cols) == d1


def test_tau_is_an_anti_involution_swapping_ladder_ops():
    d = 6
    f = FockRep(d)
    a, ad = f.lowering(), f.raising()
    assert tau_matrix(a, d) == ad
    assert tau_matrix(ad, d) == a
    assert tau_matrix(number(d), d) == number(d)
    # anti-homomorphism: tau(a a') = tau(a') tau(a) = a a'
    assert tau_matrix(a * ad, d) == a * ad
    rng = random.Random(4)
    for _ in range(5):
        m = OpMatrix(d, {(rng.randrange(d), rng.randrange(d)):
                         q_power(rng.randint(-2, 2)) for _ in range(6)}, ONE)
        n = OpMatrix(d, {(rng.randrange(d), rng.randrange(d)):
                         q_power(rng.randint(-1, 1)) for _ in range(6)}, ONE)
        assert tau_matrix(tau_matrix(m, d), d) == m
        assert tau_matrix(m * n, d) == tau_matrix(n, d) * tau_matrix(m, d)


def _spectral_gauge(x, s_exponents):
    """The spectral gauge map Gamma = u^(s . D) of the hat-type L gauge
    on the oscillator ring element x over TupleLaurent2, through
    `verify._gauged` on a 1 x 1 matrix over the flat ring, whose
    matrix-leg gauge weight is one."""
    algebra, s2 = ("a1", 0) if len(s_exponents) == 1 else ("a2",
                                                           s_exponents[1])
    m = OpMatrix(1, {(0, 0): flat(x)}, OscPoly.ONE)
    return nested(_gauged("hat", algebra, s_exponents[0], s2, m).entry(0, 0),
                  len(s_exponents))


def _mono(var, k):
    """u^k or v^k as a TupleLaurent2."""
    return TupleLaurent2({(k, 0, 0) if var == "u" else (0, k, 0): 1})


def test_gamma_scaling_exponents():
    # Gamma weighs the coefficient of S_delta by u^(s . delta)
    one = TupleLaurent2.ONE
    x = OscElement({((1, 0), (0, 0)): one, ((0, -1), (2, 1)): one,
                    ((0, 0), (1, 1)): one}, tuple_qpow)
    got = _spectral_gauge(x, (2, 3)).terms
    # raising copy 1: exponent 2; lowering copy 2: exponent -3
    assert got[((1, 0), (0, 0))] == _mono("u", 2)
    assert got[((0, -1), (2, 1))] == _mono("u", -3)
    assert got[((0, 0), (1, 1))] == _mono("u", 0)


def test_zero_kappa_rejected():
    with pytest.raises(ValueError):
        osc_automorphism(4, (QScalar.ZERO,), (0,))


# -- the diagonal maps against products with explicit diagonal matrices ------

def _tri(n):
    return n * (n + 1) // 2


def _lift(one):
    """Q(t) into the scalar kind of `one`."""
    return ((lambda v: v) if isinstance(one, QScalar)
            else lambda v: one * zeta_monomial(0, v))


def _rand_op(rng, dim, one):
    return OpMatrix(dim, {(rng.randrange(dim), rng.randrange(dim)):
                          _lift(one)(q_power(rng.randint(-2, 2)))
                          for _ in range(2 * dim)}, one)


@pytest.mark.parametrize("kappas, xis, one", [
    ((q_power(2),), (2,), ONE),
    ((q_power(-1),), (Fraction(1, 3),), ONE),
    ((zeta_monomial(1, q_power(1)),), (1,), ZetaRational.ONE),
    ((q_power(1), q_power(-2)), (2, 4, 6), ONE),
    ((zeta_monomial(0, q_power(-1)),) * 2, (2, 0, 2), ZetaRational.ONE),
    ((zeta_monomial(2), zeta_monomial(-1, q_power(1))),
     (1, -1, 3), ZetaRational.ONE),
])
def test_automorphism_weights_match_diagonal_conjugation(kappas, xis, one):
    # S m S^-1 with S = prod_i kappa_i^(-D_i) q^(-E(D)), built as diagonal
    # matrices from the formula: kron of per-copy powers, then the q-power
    d = 3
    copies = len(kappas)
    lift = _lift(one)

    def kappa_diag(k):
        out = []
        for n in range(d):
            out.append(out[-1] * k if out else one)
        return diagonal_matrix(out, one)
    s = OpMatrix.identity(1, one)
    s_inv = OpMatrix.identity(1, one)
    for k in kappas:
        s = kron(s, kappa_diag(k.inverse()))
        s_inv = kron(s_inv, kappa_diag(k))
    if copies == 1:
        expo = [xis[0] * _tri(n) for n in range(d)]
    else:
        expo = [xis[0] * _tri(n1) + xis[1] * n1 * n2 + xis[2] * _tri(n2)
                for n1 in range(d) for n2 in range(d)]
    s = s * diagonal_matrix([lift(q_power(-e)) for e in expo], one)
    s_inv = diagonal_matrix([lift(q_power(e)) for e in expo], one) * s_inv
    assert s * s_inv == OpMatrix.identity(d ** copies, one)
    rows, cols = osc_automorphism(d, kappas, xis, one=one)
    rng = random.Random(7)
    for _ in range(3):
        m = _rand_op(rng, d ** copies, one)
        assert m.scaled(rows, cols) == s * m * s_inv
    with pytest.raises(ValueError):
        OpMatrix.identity(d ** copies + 1, one).scaled(rows, cols)


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("one", [ONE, ZetaRational.ONE], ids=["q", "zeta"])
def test_tau_matches_metric_conjugated_transpose(copies, one):
    # G^-1 m^T G with G the kron of the per-copy metric diagonals
    d = 4
    lift = _lift(one)
    per_copy = []
    acc = ONE
    for n in range(d):
        if n:
            acc = acc * (ONE - q_power(2 * n))
        per_copy.append(acc)
    g = OpMatrix.identity(1, ONE)
    for _ in range(copies):
        g = kron(g, diagonal_matrix(per_copy, ONE))
    gm = g.map_values(lift, one)
    gm_inv = g.map_values(lambda v: lift(v.inverse()), one)
    rng = random.Random(11)
    for _ in range(3):
        m = _rand_op(rng, d ** copies, one)
        assert tau_matrix(m, d, copies) == gm_inv * transpose(m) * gm
    with pytest.raises(ValueError, match="tau on 2 copies of 4 states"):
        tau_matrix(OpMatrix.identity(d, one), d, 2)


@pytest.mark.parametrize("s_exponents", [(2,), (-1,), (2, 3), (-1, 2)])
def test_gamma_matches_diagonal_conjugation(s_exponents):
    # Gamma m Gamma^-1 with Gamma = diag(u^(s . n)) over the Fock states,
    # against the ring's weighting rendered on d states per copy
    d = 3
    copies = len(s_exponents)
    one = TupleLaurent2.ONE
    states = FockCopies(d, copies).states
    gam = diagonal_matrix(
        [_mono("u", sum(s * n for s, n in zip(s_exponents, st)))
         for st in states], one)
    gam_inv = diagonal_matrix(
        [_mono("u", -sum(s * n for s, n in zip(s_exponents, st)))
         for st in states], one)
    rng = random.Random(3)
    for _ in range(3):
        x = OscElement({
            (tuple(rng.randint(-1, 1) for _ in range(copies)),
             tuple(rng.randint(-2, 2) for _ in range(copies))):
            _mono("v", rng.randint(-2, 2)) for _ in range(4)}, tuple_qpow)
        m = OpMatrix(1, {(0, 0): flat(x)}, OscPoly.ONE)
        rendered = render_ring(m, d, copies).entries[(0, 0)]
        gauged = OpMatrix(1, {(0, 0): flat(_spectral_gauge(x, s_exponents))},
                          OscPoly.ONE)
        assert render_ring(gauged, d, copies).entries[(0, 0)] == \
            gam * rendered * gam_inv


@pytest.mark.parametrize("cs", [(2,), (-1,), (Fraction(1, 3),), (1, -2),
                                (Fraction(-1, 2), 3), (0, 0)])
def test_qd_matches_kron_of_per_copy_powers(cs):
    d = 4
    f = FockRep(d)
    expect = q_number_power(d, cs[0])
    for c in cs[1:]:
        expect = kron(expect, q_number_power(d, c))
    assert FockCopies(d, len(cs)).qd(*cs) == expect


# -- the monomial generators against the ladder-matrix products ---------------

# the non-monomial oscillator parameters of the two --osc-* series goldens
_GOLDEN_OSC = {
    "a1": OscParams(parse_qscalar("(1 + t^6)/(1)"),
                    [parse_qscalar("(2 + t^18)/(1 - t^6)")],
                    [Fraction(1, 3)]),
    "a2": OscParams(parse_qscalar("(3)/(1 + t^12)"),
                    [parse_qscalar("(1 + t^6)/(1)"),
                     parse_qscalar("(t^12 - 5)/(1)")],
                    [Fraction(1, 3), Fraction(0), Fraction(2)]),
}


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("side", ["chi", "psi"])
@pytest.mark.parametrize("algebra, family", [("a1", 1), ("a2", 1),
                                             ("a2", 2)])
@pytest.mark.parametrize("golden", [False, True], ids=["default", "osc"])
def test_rendered_monomials_equal_the_ladder_products(algebra, family, side,
                                                      d, golden):
    # each generator is one monomial read state by state; on d states per
    # copy it renders to the truncated product of ladder matrices, and h_i
    # to the Cartan diagonal
    params = _GOLDEN_OSC[algebra] if golden else None
    build = chi_images if side == "chi" else psi_images
    img = render(build(algebra, 2, 1, 0, family=family, params=params), d)
    mats, h = oscillator_matrices(side, algebra, d, family, params)
    got, missing = ((img.e_mats, img.f_mats) if side == "chi"
                    else (img.f_mats, img.e_mats))
    assert got == mats
    assert missing == [None] * len(mats)
    assert img.h_diags == h
    copies = 1 if algebra == "a1" else 2
    assert img.dim == d ** copies


# -- the Borel images on the q-oscillator ring --------------------------------

_OTHER_PARAMS = {
    "a1": OscParams(q_power(3) + QScalar.from_int(2),
                    [q_power(-1).scale(3)], [2]),
    "a2": OscParams((q_power(1) - q_power(-2)).inverse(),
                    [q_power(2), q_power(-1).scale(-2)], [1, -1, 2]),
}


@pytest.mark.parametrize("algebra, family", [("a1", 1), ("a2", 1),
                                             ("a2", 2)])
@pytest.mark.parametrize("side", ["chi", "psi"])
def test_borel_images_satisfy_their_relations_in_the_ring(algebra, family,
                                                          side):
    # at the default and at one other (rho, mu, nu), and at two spectral
    # exponent choices, the relations hold on every Fock state; raising
    # kappa_1 of one generator breaks a Serre relation, and moving its
    # ladder breaks the Cartan relation
    build = chi_images if side == "chi" else psi_images
    half = "e_ops" if side == "chi" else "f_ops"
    for params in (None, _OTHER_PARAMS[algebra]):
        for s, s1, s2 in ((1, 0, 0), (-2, 1, -1)):
            image = build(algebra, s, s1, s2, family=family, params=params)
            assert check_ring_relations(image) == []
    ops = getattr(image, half)
    for i, m in enumerate(ops):
        for bad in (m._replace(kappa=(m.kappa[0] + 1,) + tuple(m.kappa[1:])),
                    m._replace(delta=tuple(2 * x for x in m.delta))):
            wrong = image._replace(**{half: ops[:i] + [bad] + ops[i + 1:]})
            assert check_ring_relations(wrong) != []
