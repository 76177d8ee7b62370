"""The L-operators as products of truncated ladder matrices, and the
anti-involution tau as a metric-weighted transpose.

An oracle for `qaffine.reference`: there each L-operator is a table of
q-oscillator monomials rendered state by state, and tau acts on the table.
Here the same closed forms are built from the matrices of a, a-dagger and
q^(c.D), lifted into zeta-rationals and summed, and tau conjugates the
transpose of every operator by the Fock metric.  Only the tests build
them.
"""

from qaffine.scalars import QScalar, q_power
from qaffine.rational import ZetaRational
from qaffine.linalg import Grid
from qaffine.oscillator import FockCopies, _lift, _over_states
from qaffine.reference import PrefactorTag, ReferenceObject

ONE = QScalar.ONE


def _zmat(mat, k=0):
    """Lift a QScalar matrix into zeta-rational values times zeta^k."""
    return mat.map_values(lambda v: ZetaRational.monomial(k, v),
                          ZetaRational.ONE)


def _grid(n, entries, op_dim):
    return Grid(n, {k: v for k, v in entries.items() if v}, op_dim,
                ZetaRational.ONE)


def _l_a1(variant, s, s1, d):
    o = FockCopies(d, 1)
    (a,), (ad,) = o.a, o.ad
    tag = PrefactorTag(0, ((2, -6, s, 1),))
    qD = o.qd(1)
    qmD = o.qd(-1)
    if variant == "hat":
        entries = {
            (0, 0): _zmat(qD),
            (0, 1): _zmat(a * qmD, s - s1),
            (1, 0): _zmat(ad * qD, s1),
            (1, 1): _zmat(qmD) + _zmat(qD, s).scale(-ZetaRational.ONE),
        }
        l_type = "hat"
    elif variant == "hat-twisted":
        entries = {
            (0, 0): _zmat(qmD) + _zmat(qD, s).scale(-ZetaRational.ONE),
            (0, 1): _zmat(ad * qD, s - s1),
            (1, 0): _zmat(a * qmD, s1),
            (1, 1): _zmat(qD),
        }
        l_type = "hat"
    elif variant == "check":
        entries = {
            (0, 0): _zmat(qD),
            (0, 1): _zmat(a * qmD, s1),
            (1, 0): _zmat(ad * qD, s - s1),
            (1, 1): _zmat(qmD) + _zmat(qD, s).scale(-ZetaRational.ONE),
        }
        l_type = "check"
    elif variant == "check-twisted":
        entries = {
            (0, 0): _zmat(qmD) + _zmat(qD, s).scale(-ZetaRational.ONE),
            (0, 1): _zmat(ad * qD, s1),
            (1, 0): _zmat(a * qmD, s - s1),
            (1, 1): _zmat(qD),
        }
        l_type = "check"
    else:
        raise ValueError("unknown rank-1 variant %r" % (variant,))
    mat = _grid(2, entries, d)
    return ReferenceObject("l", "a1", variant, (s, s1), tag, mat,
                           l_type=l_type, fock_dim=d, copies=1)


def _l_a2(variant, s, s1, s2, d):
    o = FockCopies(d, 2)
    qq = o.qd
    (a1, a2), (a1d, a2d) = o.a, o.ad
    dim = d * d
    if variant == "hat-1":
        tag = PrefactorTag(0, ((3, -12, s, 1),))
        entries = {
            (0, 0): _zmat(qq(1, 0)),
            (0, 1): _zmat(a1 * qq(-1, -1), s - s1).scale(
                ZetaRational.const(q_power(-2))),
            (0, 2): _zmat(a1 * a2 * qq(-1, -3), s - s1 - s2),
            (1, 0): _zmat(a1d * qq(1, 0), s1),
            (1, 1): _zmat(qq(-1, 1)) + _zmat(qq(1, -1), s).scale(
                ZetaRational.const(-q_power(-2))),
            (1, 2): _zmat(a2 * qq(1, -3), s - s2).scale(-ZetaRational.ONE),
            (2, 1): _zmat(a2d * qq(0, 1), s2),
            (2, 2): _zmat(qq(0, -1)),
        }
        l_type = "hat"
    elif variant == "hat-2":
        tag = PrefactorTag(0, ((3, 12, s, -1),))
        den = ZetaRational.ONE - ZetaRational.monomial(s)
        entries = {
            (0, 0): _zmat(qq(1, 0)) + _zmat(qq(-1, 0), s).scale(
                ZetaRational.const(-q_power(-2))),
            (0, 1): _zmat(a1 * qq(-3, 1), s - s1).scale(-ZetaRational.ONE),
            (0, 2): _zmat(a1 * a2 * qq(-1, -1),
                          s - s1 - s2).scale(-ZetaRational.ONE),
            (1, 0): _zmat(a1d * qq(1, 0), s1),
            (1, 1): _zmat(qq(-1, 1)),
            (1, 2): _zmat(a2 * qq(1, -1), s - s2),
            (2, 0): _zmat(a1d * a2d, s1 + s2).scale(
                ZetaRational.const(q_power(-1))),
            (2, 1): _zmat(a2d * qq(-2, 1), s2),
            (2, 2): _zmat(qq(0, -1)) + _zmat(qq(0, 1), s).scale(
                -ZetaRational.ONE),
        }
        entries = {k: v.map_values(lambda r: r / den, ZetaRational.ONE)
                   for k, v in entries.items()}
        l_type = "hat"
    elif variant == "check-1":
        tag = PrefactorTag(0, ((3, -12, s, 1),))
        entries = {
            (0, 0): _zmat(qq(1, 0)),
            (0, 1): _zmat(a1 * qq(-1, 1), s1),
            (1, 0): _zmat(a1d * qq(1, -2), s - s1).scale(
                ZetaRational.const(q_power(-2))),
            (1, 1): _zmat(qq(-1, 1)) + _zmat(qq(1, -1), s).scale(
                ZetaRational.const(-q_power(-2))),
            (1, 2): _zmat(a2 * qq(1, -1), s2),
            (2, 0): _zmat(a1d * a2d * qq(0, -2), s - s1 - s2).scale(
                ZetaRational.const(q_power(-3))),
            (2, 1): _zmat(a2d * qq(0, -1), s - s2).scale(
                ZetaRational.const(-q_power(-2))),
            (2, 2): _zmat(qq(0, -1)),
        }
        l_type = "check"
    elif variant == "check-2":
        tag = PrefactorTag(0, ((3, 12, s, -1),))
        den = ZetaRational.ONE - ZetaRational.monomial(s)
        entries = {
            (0, 0): _zmat(qq(1, 0)) + _zmat(qq(-1, 0), s).scale(
                ZetaRational.const(-q_power(-2))),
            (0, 1): _zmat(a1 * qq(-1, 1), s1),
            (0, 2): _zmat(a1 * a2 * qq(-1, -1), s1 + s2),
            (1, 0): _zmat(a1d * qq(-1, 0), s - s1).scale(
                ZetaRational.const(-q_power(-2))),
            (1, 1): _zmat(qq(-1, 1)),
            (1, 2): _zmat(a2 * qq(-1, -1), s2),
            (2, 0): _zmat(a1d * a2d, s - s1 - s2).scale(
                ZetaRational.const(-q_power(-1))),
            (2, 1): _zmat(a2d * qq(0, 1), s - s2),
            (2, 2): _zmat(qq(0, -1)) + _zmat(qq(0, 1), s).scale(
                -ZetaRational.ONE),
        }
        entries = {k: v.map_values(lambda r: r / den, ZetaRational.ONE)
                   for k, v in entries.items()}
        l_type = "check"
    elif variant == "check-inv":
        tag = PrefactorTag(0, ((3, -12, -s, -1),))
        den = ZetaRational.ONE - ZetaRational.monomial(s)
        entries = {
            (0, 0): _zmat(qq(1, 0)).scale(ZetaRational.const(q_power(2)))
                + _zmat(qq(-1, 0), s).scale(-ZetaRational.ONE),
            (0, 1): _zmat(a1 * qq(1, 0), s1),
            (0, 2): _zmat(a1 * a2, s1 + s2).scale(
                ZetaRational.const(q_power(-1))),
            (1, 0): _zmat(a1d * qq(-1, -1), s - s1),
            (1, 1): _zmat(qq(1, -1), s).scale(-ZetaRational.ONE),
            (1, 2): _zmat(a2 * qq(0, -1), s2).scale(-ZetaRational.ONE),
            (2, 0): _zmat(a1d * a2d * qq(-1, -1),
                          s - s1 - s2).scale(-ZetaRational.ONE),
            (2, 1): _zmat(a2d * qq(1, -1), s - s2),
            (2, 2): _zmat(qq(0, -1)) + _zmat(qq(0, 1), s).scale(
                -ZetaRational.ONE),
        }
        entries = {k: v.map_values(lambda r: r / den, ZetaRational.ONE)
                   for k, v in entries.items()}
        l_type = "check"
    else:
        raise ValueError("unknown rank-2 variant %r" % (variant,))
    mat = _grid(3, entries, dim)
    return ReferenceObject("l", "a2", variant, (s, s1, s2), tag, mat,
                           l_type=l_type, fock_dim=d, copies=2)


def tau_matrix(m, d, copies=1):
    """Anti-involution swapping a and a-dagger on matrices over the
    (copies)-fold Fock space: the transpose conjugated by the metric
    g_n = prod over copies of prod_(k <= n_i) (1 - q^(2k)), lifted into the
    scalar kind of m."""
    if m.dim != d ** copies:
        raise ValueError("tau on %d copies of %d states needs dimension %d, "
                         "got %d" % (copies, d, d ** copies, m.dim))
    metric = [ONE]
    for n in range(1, d):
        metric.append(metric[-1] * (ONE - q_power(2 * n)))
    g = _over_states([metric] * copies)
    return m.transpose().scaled([_lift(v.inverse(), m.one) for v in g],
                                [_lift(v, m.one) for v in g])
