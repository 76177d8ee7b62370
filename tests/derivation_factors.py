"""The ordered factors the source derivation lists for some L-operators.

An oracle for the closed forms of `qaffine.reference`: the product of the
factors is the assembled display away from the truncated top Fock state.
Only the tests build them; no check of the program reads them.
"""

from qaffine.scalars import QScalar, q_power
from qaffine.rational import ZetaRational
from qaffine.linalg import OpMatrix
from product_builders import FockCopies, _grid, _zmat
from oracles import diagonal_matrix, zeta_monomial

ONE = QScalar.ONE


def ordered_factors(algebra, variant, s, s1, s2=0, d=12):
    """The ordered factors the source derivation lists for an L-operator,
    as grids over the zeta-rationals.  Their product is the closed form of
    `reference_matrix` with the same arguments, away from the truncated top
    Fock state, where a a-dagger is cut off.  Only a1 hat and check and a2
    hat-1 and check-1 have transcribed factors; no check reads them."""
    if s == 0:
        raise ValueError("the spectral exponent s must be nonzero")
    if algebra == "a1" and variant in ("hat", "check"):
        return _factors_a1(variant, s, s1, d)
    if algebra == "a2" and variant in ("hat-1", "check-1"):
        return _factors_a2(variant, s, s1, s2, d)
    raise ValueError("no ordered factors transcribed for %r"
                     % ((algebra, variant),))


def _eye_z(dim):
    return OpMatrix.identity(dim, ZetaRational.ONE)


def _geom_inv(o, fn, s):
    """Diagonal (1 - fn(n) zeta^s)^-1 over the Fock states n of o, for
    nonzero fn(n)."""
    return diagonal_matrix(
        [ZetaRational({0: ONE}, {0: ONE, s: -fn(*n)}) for n in o.states],
        ZetaRational.ONE)


def _unipotent(n, ab, x, op_dim):
    """The n x n grid 1 + x E_ab over operators of dimension op_dim."""
    entries = {(i, i): _eye_z(op_dim) for i in range(n)}
    entries[ab] = x
    return _grid(n, entries, op_dim)


def _mono_mat(dim, k):
    if k == 0:
        return _eye_z(dim)
    return _eye_z(dim).scale(zeta_monomial(k))


def _factors_a1(variant, s, s1, d):
    o = FockCopies(d, 1)
    (a,), (ad,) = o.a, o.ad
    cartan = _grid(2, {(0, 0): _zmat(o.qd(1)), (1, 1): _zmat(o.qd(-1))}, d)
    if variant == "hat":
        return [
            _unipotent(2, (1, 0), _zmat(ad, s1), d),
            _grid(2, {(0, 0): _eye_z(d),
                      (1, 1): _eye_z(d) - _mono_mat(d, s)}, d),
            _unipotent(2, (0, 1), _zmat(a, s - s1), d),
            cartan,
        ]
    geom = _geom_inv(o, lambda n: q_power(2 * n), s)
    geom_up = _geom_inv(o, lambda n: q_power(2 * n + 2), s)
    one_minus = ZetaRational.ONE - zeta_monomial(s)
    return [
        _unipotent(2, (0, 1), _zmat(a, s1) * geom, d),
        _grid(2, {(0, 0): geom_up.scale(one_minus),
                  (1, 1): _eye_z(d) - _zmat(o.qd(2), s)}, d),
        _unipotent(2, (1, 0), geom * _zmat(ad, s - s1), d),
        cartan,
    ]


def _factors_a2(variant, s, s1, s2, d):
    o = FockCopies(d, 2)
    qq = o.qd
    (a1, a2), (a1d, a2d) = o.a, o.ad
    dim = d * d
    one_z = _eye_z(dim)
    cartan = _grid(3, {(0, 0): _zmat(qq(1, 0)), (1, 1): _zmat(qq(-1, 1)),
                       (2, 2): _zmat(qq(0, -1))}, dim)
    if variant == "hat-1":
        geom_b = _geom_inv(o, lambda n1, n2: q_power(-2 - 2 * n2), s)
        geom_d = _geom_inv(o, lambda n1, n2: q_power(-2 * n2), s)
        return [
            _unipotent(3, (1, 0), _zmat(a1d, s1), dim),
            _unipotent(3, (2, 1), _zmat(a2d * qq(1, 0)) * geom_b
                       * _mono_mat(dim, s2), dim),
            _grid(3, {(0, 0): one_z,
                      (1, 1): one_z - _zmat(qq(0, -2), s).scale(
                          zeta_monomial(0, q_power(-2))),
                      (2, 2): geom_d.scale(ZetaRational.ONE
                                           - zeta_monomial(s))},
                  dim),
            _unipotent(3, (1, 2), (_zmat(a2 * qq(-1, -2)) * geom_d
                                   * _mono_mat(dim, s - s2)).scale(
                                       -ZetaRational.ONE),
                       dim),
            _unipotent(3, (0, 1), _zmat(a1 * qq(0, -2), s - s1).scale(
                zeta_monomial(0, q_power(-2))), dim),
            _unipotent(3, (0, 2), _zmat(a1 * a2 * qq(-1, -2), s - s1 - s2),
                       dim),
            cartan,
        ]
    geom = _geom_inv(o, lambda n1, n2: q_power(2 * n1), s)
    geom_up = _geom_inv(o, lambda n1, n2: q_power(2 * n1 + 2), s)
    return [
        _unipotent(3, (0, 1), _zmat(a1, s1) * geom, dim),
        _unipotent(3, (0, 2), (_zmat(a1 * a2 * qq(1, 0), s1 + s2)
                               * geom).scale(-ZetaRational.ONE), dim),
        _unipotent(3, (1, 2), _zmat(a2 * qq(1, 0), s2), dim),
        _grid(3, {(0, 0): geom_up.scale(ZetaRational.ONE
                                        - zeta_monomial(s)),
                  (1, 1): one_z - _zmat(qq(2, 0), s),
                  (2, 2): one_z}, dim),
        _unipotent(3, (2, 1), _zmat(a2d * qq(1, -2), s - s2).scale(
            zeta_monomial(0, -q_power(-2))), dim),
        _unipotent(3, (1, 0), _zmat(a1d, s - s1) * geom_up, dim),
        _unipotent(3, (2, 0), (_zmat(a1d * a2d * qq(-1, -2), s - s1 - s2)
                               * geom_up).scale(
                                   zeta_monomial(0, q_power(-3))), dim),
        cartan,
    ]
