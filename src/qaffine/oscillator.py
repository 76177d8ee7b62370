"""Truncated Fock realization of the q-oscillator algebra and the Borel
homomorphisms built on it.

Conventions: D|n> = n|n>, the raising operator sends |n> to |n+1> (cut at
the top), and a|n> = (1 - q^(2n))|n-1>.  Then a'a = 1 - q^(2D) holds on
every state and a a' = 1 - q^2 q^(2D) on all states below the top one.
The one- and two-copy homomorphism families into the Borel halves carry
free parameters (rho, mu_i, nu_i); the defaults reproduce the specific
specializations whose assembled forms are transcribed in the reference
module.
"""

import itertools

from fractions import Fraction

from .scalars import QScalar, q_power
from .linalg import OpMatrix, kron
from .qgroup import GeneratorImage, _exps_for

__all__ = [
    "FockRep", "fock_rep", "FockCopies", "chi_images", "psi_images",
    "osc_automorphism", "two_copy_automorphism", "tau_matrix",
    "gamma_scaling", "OscParams",
]

ONE = QScalar.ONE


class FockRep:
    """Matrices of a, a-dagger and q^(cD) on the d-state Fock space."""

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

    def number(self):
        return OpMatrix.diagonal([QScalar.from_int(n) for n in range(self.dim)],
                                 ONE)

    def q_number_power(self, c):
        """q^(cD) for c integer or sixth-integer."""
        c = Fraction(c)
        return OpMatrix.diagonal([q_power(c * n) for n in range(self.dim)], ONE)


def fock_rep(d):
    return FockRep(d)


class OscParams:
    """Free parameters of an oscillator-side Borel homomorphism."""

    __slots__ = ("rho", "mu", "nu")

    def __init__(self, rho, mu, nu):
        self.rho = rho
        self.mu = tuple(mu)
        self.nu = tuple(nu)
        if any(not m for m in self.mu):
            raise ValueError("mu parameters must be invertible")


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
        self.states = list(itertools.product(range(d), repeat=copies))
        self.a = [on_copy(k, f.lowering()) for k in range(copies)]
        self.ad = [on_copy(k, f.raising()) for k in range(copies)]
        self.eye = OpMatrix.identity(self.dim, ONE)
        self.h = [tuple(sum(c * n for c, n in zip(cs, state))
                        for state in self.states)
                  for cs in self._H_COEFFS[copies]]
        self._f = f

    def qd(self, *cs):
        """q^(c_1 D_1 + ... + c_k D_k), one exponent per copy."""
        out = self._f.q_number_power(cs[0])
        for c in cs[1:]:
            out = kron(out, self._f.q_number_power(c))
        return out


def _default_params(algebra, side, family):
    c = q_power(1) - q_power(-1)
    mu = c if side == "chi" else c.inverse()
    if algebra == "a1":
        return OscParams((c * c).inverse(), [mu], [Fraction(0)])
    rho = (c * c * c).inverse()
    return OscParams(rho if family == 1 else -rho, [mu, mu],
                     [Fraction(0)] * 3)


def _setup(algebra, side, family, d, params):
    if algebra not in ("a1", "a2"):
        raise ValueError("unsupported algebra label: %r" % (algebra,))
    o = FockCopies(d, 1 if algebra == "a1" else 2)
    return o, params or _default_params(algebra, side, family)


def _image(o, algebra, e_mats, f_mats, s, s1, s2, zeta_scale):
    exps = tuple(zeta_scale * x for x in _exps_for(algebra, s, s1, s2))
    return GeneratorImage(algebra, o.dim, o.h, e_mats, f_mats, exps,
                          fock_dim=o.d, copies=o.copies)


def chi_images(algebra, s, s1, s2=0, d=12, family=1, params=None,
               zeta_scale=1):
    """Positive-Borel homomorphism on one (rank 1) or two (rank 2) copies.

    For the rank-2 algebra `family` selects between the two inequivalent
    solutions of the Serre relations; they differ by a unit shift in the
    exponents of q^(D_2) carried by e_0 and e_2.
    """
    o, params = _setup(algebra, "chi", family, d, params)
    rho = params.rho
    if algebra == "a1":
        (mu,), (nu,) = params.mu, params.nu
        e = [o.a[0].scale(rho * mu) * o.qd(nu),
             o.qd(-nu) * o.ad[0].scale(mu.inverse())]
    else:
        (mu1, mu2), (nu1, nu2, nu3) = params.mu, params.nu
        (a1, a2), (a1d, a2d), qq = o.a, o.ad, o.qd
        shift = 1 if family == 1 else -1
        e = [(a1 * a2).scale(rho * mu1 * mu2)
             * qq(nu1 + nu2 - 1, nu2 + nu3 - 1 - shift),
             qq(-nu1, -nu2) * a1d.scale(mu1.inverse()),
             qq(-(nu2 - shift), -nu3) * a2d.scale(mu2.inverse())]
    return _image(o, algebra, e, [None] * len(e), s, s1, s2, zeta_scale)


def psi_images(algebra, s, s1, s2=0, d=12, family=1, params=None,
               zeta_scale=1):
    """Negative-Borel homomorphism; mirrors chi_images on the f side."""
    o, params = _setup(algebra, "psi", family, d, params)
    rho = params.rho
    if algebra == "a1":
        (mu,), (nu,) = params.mu, params.nu
        f = [o.qd(-nu) * o.ad[0].scale(rho * mu.inverse()),
             o.a[0].scale(mu) * o.qd(nu)]
    else:
        (mu1, mu2), (nu1, nu2, nu3) = params.mu, params.nu
        (a1, a2), (a1d, a2d), qq = o.a, o.ad, o.qd
        shift = 1 if family == 1 else -1
        scale0 = rho * mu1.inverse() * mu2.inverse()
        f = [qq(-(nu1 + nu2 + 1), -(nu2 + nu3 + 1 + shift))
             * (a1d * a2d).scale(scale0),
             a1.scale(mu1) * qq(nu1, nu2),
             a2.scale(mu2) * qq(nu2 + shift, nu3)]
    return _image(o, algebra, [None] * len(f), f, s, s1, s2, zeta_scale)


# -- automorphisms and the anti-involution -----------------------------------

def osc_automorphism(d, kappa, xi, one=ONE):
    """Conjugating diagonal realizing a -> kappa a q^(xi D) on d states.

    kappa is any invertible scalar of the target kind (a power of q, or a
    monomial in the spectral variable on the rational backend); xi must be
    a sixth-integer.  Returns (S, S^-1) with S diagonal.
    """
    if not kappa:
        raise ValueError("kappa must be invertible")
    xi = Fraction(xi)
    diag = []
    inv = []
    kap_pow = one
    kap_inv = one
    kappa_inverse = one / kappa
    for n in range(d):
        tri = Fraction(n * (n + 1), 2)
        diag.append(kap_inv * _lift(q_power(-xi * tri), one))
        inv.append(kap_pow * _lift(q_power(xi * tri), one))
        kap_pow = kap_pow * kappa
        kap_inv = kap_inv * kappa_inverse
    s = OpMatrix.diagonal(diag, one)
    s_inv = OpMatrix.diagonal(inv, one)
    return s, s_inv


def _lift(v, one):
    """The Q(t) value v as a value of the scalar kind of `one`."""
    return v if isinstance(one, QScalar) else one.scale(v)


def two_copy_automorphism(d, kappas, xis, one=ONE):
    """Five-parameter family on two copies: a_i picks up kappa_i and the
    exponents (xi1 D1 + xi2 D2, xi2 D1 + xi3 D2).  Returns (S, S^-1)."""
    k1, k2 = kappas
    xi1, xi2, xi3 = (Fraction(x) for x in xis)
    if not k1 or not k2:
        raise ValueError("kappa must be invertible")
    diag = []
    inv = []
    k1_inv = one / k1
    k2_inv = one / k2
    for n1 in range(d):
        for n2 in range(d):
            expo = (xi1 * Fraction(n1 * (n1 + 1), 2) + xi2 * n1 * n2
                    + xi3 * Fraction(n2 * (n2 + 1), 2))
            base = _pow_like(k1_inv, n1, one) * _pow_like(k2_inv, n2, one)
            diag.append(base * _lift(q_power(-expo), one))
            baseinv = _pow_like(k1, n1, one) * _pow_like(k2, n2, one)
            inv.append(baseinv * _lift(q_power(expo), one))
    return OpMatrix.diagonal(diag, one), OpMatrix.diagonal(inv, one)


def _pow_like(x, n, one):
    out = one
    for _ in range(n):
        out = out * x
    return out


def tau_metric(d):
    """Diagonal g with g_n = prod_{k<=n} (1 - q^(2k)); conjugated transpose
    by g realizes the anti-involution swapping a and a-dagger."""
    diag = []
    acc = ONE
    for n in range(d):
        if n > 0:
            acc = acc * (ONE - q_power(2 * n))
        diag.append(acc)
    return OpMatrix.diagonal(diag, ONE)


def tau_matrix(m, d, copies=1):
    """Anti-involution on matrices over the (copies)-fold Fock space;
    works for any scalar kind by lifting the metric into it."""
    g = tau_metric(d)
    for _ in range(copies - 1):
        g = kron(g, tau_metric(d))
    g_diag = [g.entry(i, i) for i in range(g.dim)]
    one = m.one
    gm = OpMatrix.diagonal([_lift(v, one) for v in g_diag], one)
    gm_inv = OpMatrix.diagonal([_lift(v.inverse(), one) for v in g_diag], one)
    return gm_inv * m.transpose() * gm


def gamma_scaling(copies, d, s_exponents):
    """Exponent table of the spectral gauge map: entry (row, col) of a
    number-conserving operator picks up zeta^(sum_i s_i (row_i - col_i))."""
    def exponent(row, col):
        out = 0
        r, c = row, col
        for i in range(copies - 1, -1, -1):
            out += s_exponents[i] * ((r % d) - (c % d))
            r //= d
            c //= d
        return out
    return exponent
