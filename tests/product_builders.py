"""The truncated Fock matrices of a, a-dagger and q^(c.D), the
L-operators as products of them, the anti-involution tau as a
metric-weighted transpose, and the automorphisms a_i -> kappa_i a_i
q^(xi_i . D) as diagonal conjugations.

An oracle for `qaffine.reference` and `qaffine.oscillator`: there each
L-operator is a table of q-oscillator monomials rendered state by state,
tau acts on the table, and each generator image is one monomial read state
by state on the untruncated Fock space.  Here the same closed forms are
built from the truncated ladder matrices, lifted into zeta-rationals and
summed, and tau conjugates the transpose of every operator by the Fock
metric.  Only the tests build them.
"""

import itertools

from qaffine.scalars import QScalar, q_power
from qaffine.rational import ZetaRational
from qaffine.linalg import Grid, OpMatrix, kron
from qaffine.qgroup import GeneratorImage
from qaffine.oscillator import _default_params
from qaffine.reference import PrefactorTag, ReferenceObject
from oracles import diagonal_matrix, map_ops, transpose, zeta_monomial

ONE = QScalar.ONE


class FockRep:
    """Matrices of a and a-dagger on the d-state Fock space."""

    __slots__ = ("dim",)

    def __init__(self, dim):
        if dim < 2:
            raise ValueError("Fock dimension must be at least 2")
        self.dim = dim

    def raising(self):
        return OpMatrix(self.dim, {(n + 1, n): ONE for n in range(self.dim - 1)},
                        ONE)

    def lowering(self):
        return OpMatrix(self.dim,
                        {(n - 1, n): ONE - q_power(2 * n)
                         for n in range(1, self.dim)}, ONE)


class FockCopies:
    """Ladder operators, q^(c.D) and the Cartan diagonals on `copies`
    (1 or 2) Fock factors of d states each, the first copy slowest."""

    # h_i = sum_k c_ik D_k: h_0 = -2D, h_1 = 2D on one copy, and
    # h_0 = -D1 - D2, h_1 = 2 D1 - D2, h_2 = -D1 + 2 D2 on two
    _H_COEFFS = {1: ((-2,), (2,)), 2: ((-1, -1), (2, -1), (-1, 2))}

    def __init__(self, d, copies):
        f = FockRep(d)
        eye = OpMatrix.identity(d, ONE)

        def on_copy(k, m):
            out = m if k == 0 else eye
            for c in range(1, copies):
                out = kron(out, m if c == k else eye)
            return out

        self.d = d
        self.copies = copies
        self.dim = d ** copies
        self.states = _states(d, copies)
        self.a = [on_copy(k, f.lowering()) for k in range(copies)]
        self.ad = [on_copy(k, f.raising()) for k in range(copies)]
        self.h = [tuple(sum(c * n for c, n in zip(cs, state))
                        for state in self.states)
                  for cs in self._H_COEFFS[copies]]

    def qd(self, *cs):
        """q^(c_1 D_1 + ... + c_k D_k), one exponent per copy."""
        return diagonal_matrix(
            [q_power(sum(c * n for c, n in zip(cs, state)))
             for state in self.states], ONE)


def _states(d, copies):
    """The occupation tuples of `copies` Fock factors of d states, in flat
    index order (the first copy slowest, as in kron)."""
    return list(itertools.product(range(d), repeat=copies))


def _zmat(mat, k=0):
    """Lift a QScalar matrix into zeta-rational values times zeta^k."""
    return mat.map_values(lambda v: zeta_monomial(k, v),
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
                zeta_monomial(0, q_power(-2))),
            (0, 2): _zmat(a1 * a2 * qq(-1, -3), s - s1 - s2),
            (1, 0): _zmat(a1d * qq(1, 0), s1),
            (1, 1): _zmat(qq(-1, 1)) + _zmat(qq(1, -1), s).scale(
                zeta_monomial(0, -q_power(-2))),
            (1, 2): _zmat(a2 * qq(1, -3), s - s2).scale(-ZetaRational.ONE),
            (2, 1): _zmat(a2d * qq(0, 1), s2),
            (2, 2): _zmat(qq(0, -1)),
        }
        l_type = "hat"
    elif variant == "hat-2":
        tag = PrefactorTag(0, ((3, 12, s, -1),))
        den = ZetaRational.ONE - zeta_monomial(s)
        entries = {
            (0, 0): _zmat(qq(1, 0)) + _zmat(qq(-1, 0), s).scale(
                zeta_monomial(0, -q_power(-2))),
            (0, 1): _zmat(a1 * qq(-3, 1), s - s1).scale(-ZetaRational.ONE),
            (0, 2): _zmat(a1 * a2 * qq(-1, -1),
                          s - s1 - s2).scale(-ZetaRational.ONE),
            (1, 0): _zmat(a1d * qq(1, 0), s1),
            (1, 1): _zmat(qq(-1, 1)),
            (1, 2): _zmat(a2 * qq(1, -1), s - s2),
            (2, 0): _zmat(a1d * a2d, s1 + s2).scale(
                zeta_monomial(0, q_power(-1))),
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
                zeta_monomial(0, q_power(-2))),
            (1, 1): _zmat(qq(-1, 1)) + _zmat(qq(1, -1), s).scale(
                zeta_monomial(0, -q_power(-2))),
            (1, 2): _zmat(a2 * qq(1, -1), s2),
            (2, 0): _zmat(a1d * a2d * qq(0, -2), s - s1 - s2).scale(
                zeta_monomial(0, q_power(-3))),
            (2, 1): _zmat(a2d * qq(0, -1), s - s2).scale(
                zeta_monomial(0, -q_power(-2))),
            (2, 2): _zmat(qq(0, -1)),
        }
        l_type = "check"
    elif variant == "check-2":
        tag = PrefactorTag(0, ((3, 12, s, -1),))
        den = ZetaRational.ONE - zeta_monomial(s)
        entries = {
            (0, 0): _zmat(qq(1, 0)) + _zmat(qq(-1, 0), s).scale(
                zeta_monomial(0, -q_power(-2))),
            (0, 1): _zmat(a1 * qq(-1, 1), s1),
            (0, 2): _zmat(a1 * a2 * qq(-1, -1), s1 + s2),
            (1, 0): _zmat(a1d * qq(-1, 0), s - s1).scale(
                zeta_monomial(0, -q_power(-2))),
            (1, 1): _zmat(qq(-1, 1)),
            (1, 2): _zmat(a2 * qq(-1, -1), s2),
            (2, 0): _zmat(a1d * a2d, s - s1 - s2).scale(
                zeta_monomial(0, -q_power(-1))),
            (2, 1): _zmat(a2d * qq(0, 1), s - s2),
            (2, 2): _zmat(qq(0, -1)) + _zmat(qq(0, 1), s).scale(
                -ZetaRational.ONE),
        }
        entries = {k: v.map_values(lambda r: r / den, ZetaRational.ONE)
                   for k, v in entries.items()}
        l_type = "check"
    elif variant == "check-inv":
        tag = PrefactorTag(0, ((3, -12, -s, -1),))
        den = ZetaRational.ONE - zeta_monomial(s)
        entries = {
            (0, 0): _zmat(qq(1, 0)).scale(zeta_monomial(0, q_power(2)))
                + _zmat(qq(-1, 0), s).scale(-ZetaRational.ONE),
            (0, 1): _zmat(a1 * qq(1, 0), s1),
            (0, 2): _zmat(a1 * a2, s1 + s2).scale(
                zeta_monomial(0, q_power(-1))),
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
    return transpose(m).scaled([_lift(v.inverse(), m.one) for v in g],
                                [_lift(v, m.one) for v in g])


def oscillator_matrices(side, algebra, d, family=1, params=None):
    """The generator images of `oscillator.chi_images` (side "chi", the e
    half) or `psi_images` ("psi", the f half) as products of the truncated
    ladder matrices on d states per copy, with the Cartan diagonals: (e or
    f matrices, h diagonals)."""
    o = FockCopies(d, 1 if algebra == "a1" else 2)
    params = params or _default_params(algebra, side, family)
    rho = params.rho
    if algebra == "a1":
        (mu,), (nu,) = params.mu, params.nu
        if side == "chi":
            mats = [o.a[0].scale(rho * mu) * o.qd(nu),
                    o.qd(-nu) * o.ad[0].scale(mu.inverse())]
        else:
            mats = [o.qd(-nu) * o.ad[0].scale(rho * mu.inverse()),
                    o.a[0].scale(mu) * o.qd(nu)]
        return mats, o.h
    (mu1, mu2), (nu1, nu2, nu3) = params.mu, params.nu
    (a1, a2), (a1d, a2d), qq = o.a, o.ad, o.qd
    shift = 1 if family == 1 else -1
    if side == "chi":
        mats = [(a1 * a2).scale(rho * mu1 * mu2)
                * qq(nu1 + nu2 - 1, nu2 + nu3 - 1 - shift),
                qq(-nu1, -nu2) * a1d.scale(mu1.inverse()),
                qq(-(nu2 - shift), -nu3) * a2d.scale(mu2.inverse())]
    else:
        scale0 = rho * mu1.inverse() * mu2.inverse()
        mats = [qq(-(nu1 + nu2 + 1), -(nu2 + nu3 + 1 + shift))
                * (a1d * a2d).scale(scale0),
                a1.scale(mu1) * qq(nu1, nu2),
                a2.scale(mu2) * qq(nu2 + shift, nu3)]
    return mats, o.h


def render(image, d):
    """An `oscillator.OscImage` as matrices on d states per copy, the first
    copy slowest: each monomial read at every state, and an entry kept
    where its column state is among them too.  `oracles.
    check_defining_relations` takes the result with fock=(d, copies)."""
    states = list(itertools.product(range(d), repeat=image.copies))
    index = {n: i for i, n in enumerate(states)}

    def matrix(m):
        if m is None:
            return None
        return OpMatrix(len(states), {
            (index[n], index[hit[0]]): hit[1]
            for n in states for hit in [m.row(n)]
            if hit and hit[0] in index}, ONE)
    return GeneratorImage(
        image.algebra, len(states),
        [[image.h_at(i, n) for n in states] for i in range(len(image.exps))],
        [matrix(m) for m in image.e_ops], [matrix(m) for m in image.f_ops],
        image.exps)


# -- automorphisms ------------------------------------------------------------

def osc_automorphism(d, kappas, xis, one=ONE):
    """Conjugating weights (rows, cols) of a_i -> kappa_i a_i q^(xi_i . D)
    on one or two copies of d states: the image of m is m.scaled(rows,
    cols).  `kappas` are invertible scalars of the kind of `one`, one per
    copy; `xis` is the symmetric xi by its upper triangle, (xi,) or
    (xi11, xi12, xi22), in sixth-integers.  State n gets the row weight
    prod_i kappa_i^(-n_i) q^(-E(n)) with E(n) = sum_i xi_ii n_i (n_i + 1) / 2
    + sum_(i<j) xi_ij n_i n_j, and its inverse as column weight.
    """
    if not all(kappas):
        raise ValueError("kappa must be invertible")
    copies = len(kappas)
    pairs = [(i, j) for i in range(copies) for j in range(i, copies)]
    rows = _over_states([_powers(k.inverse(), d, one) for k in kappas])
    cols = _over_states([_powers(k, d, one) for k in kappas])
    for idx, n in enumerate(itertools.product(range(d), repeat=copies)):
        e = sum(x * (n[i] * (n[i] + 1) // 2 if i == j else n[i] * n[j])
                for x, (i, j) in zip(xis, pairs))
        if e:
            rows[idx] = rows[idx] * _lift(q_power(-e), one)
            cols[idx] = cols[idx] * _lift(q_power(e), one)
    return rows, cols


def _powers(x, d, one):
    """[1, x, ..., x^(d-1)]."""
    out = [one]
    for _ in range(d - 1):
        out.append(out[-1] * x)
    return out


def _over_states(per_copy):
    """Weights over the states of len(per_copy) copies, in flat index
    order: the product over copies i of per_copy[i][n_i]."""
    out = per_copy[0]
    for weights in per_copy[1:]:
        out = [w * x for w in out for x in weights]
    return list(out)


def _lift(v, one):
    """The Q(t) value v as a value of the scalar kind of `one`."""
    return v if isinstance(one, QScalar) else one * zeta_monomial(0, v)


def apply_two_copy_normalization(grid, d):
    """The oscillator-pair rescaling a_i -> q^-1 a_i q^(2 D_i), realized by
    conjugation on the truncated Fock pair, applied entrywise."""
    kappa = zeta_monomial(0, q_power(-1))
    rows, cols = osc_automorphism(d, (kappa, kappa), (2, 0, 2),
                                  one=ZetaRational.ONE)
    return map_ops(grid, lambda m: m.scaled(rows, cols))
