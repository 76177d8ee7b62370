"""The q-oscillator algebra on the untruncated Fock space, and the Borel
homomorphisms into it.

Conventions: D|n> = n|n>, the raising operator a-dagger sends |n> to
|n+1>, and a|n> = (1 - q^(2n))|n-1>, so a'a = 1 - q^(2D) and
a a' = 1 - q^2 q^(2D): the space has no top state.  Each generator image
is one monomial c L_delta q^(kappa . D), as in the L-operator tables of
the reference module, and each h_i a linear form in the occupation
numbers; both are read one state at a time.  The one- and two-copy
homomorphism families into the Borel halves carry free parameters (rho,
mu_i, nu_i); the defaults reproduce the specific specializations whose
assembled forms are transcribed in the reference module, where the
anti-involution tau (a <-> a-dagger) acts on the tables, not on matrices.
"""

from collections import namedtuple

from .scalars import QScalar, q_power
from .qgroup import _exps_for

__all__ = ["Monomial", "OscImage", "chi_images", "psi_images", "OscParams"]

ONE = QScalar.ONE


class Monomial(namedtuple("Monomial", "c delta kappa")):
    """c L_delta q^(kappa . D) on the untruncated Fock space of one or two
    copies: q^(kappa . D) acts first, then L_delta applies a (delta_i =
    -1), a-dagger (+1) or 1 on copy i, as in `reference.LTable`."""

    __slots__ = ()

    def row(self, m):
        """(n, value) for the one entry in row m, at the state n = m -
        delta that the monomial sends to m, or None: c = 0, or m holds no
        raised quantum to take back."""
        n = tuple(k - x for k, x in zip(m, self.delta))
        if not self.c or min(n) < 0:
            return None
        v = self.c * q_power(sum(k * x for k, x in zip(self.kappa, n)))
        for x, k in zip(self.delta, n):
            if x < 0:
                v = v * (ONE - q_power(2 * k))
        return n, v


class OscParams:
    """Free parameters of an oscillator-side Borel homomorphism."""

    __slots__ = ("rho", "mu", "nu")

    def __init__(self, rho, mu, nu):
        self.rho = rho
        self.mu = tuple(mu)
        self.nu = tuple(nu)
        if any(not m for m in self.mu):
            raise ValueError("mu parameters must be invertible")


class OscImage(namedtuple("OscImage",
                           "algebra copies h_forms e_ops f_ops exps")):
    """Images of h_i, e_i, f_i for all affine nodes on `copies` (1 or 2)
    untruncated Fock copies, with zeta exponents `exps` as in
    `qgroup.GeneratorImage`: `h_forms[i]` holds the c_k of h_i = sum_k
    c_k D_k, and `e_ops`/`f_ops` one `Monomial` per node, or None on the
    missing Borel half."""

    __slots__ = ()

    def h_at(self, i, n):
        """The value of h_i at the occupation tuple n."""
        return sum(c * k for c, k in zip(self.h_forms[i], n))

    def relabel(self, pick):
        """The image with `pick` applied to the node lists of h, e and f."""
        return self._replace(h_forms=pick(self.h_forms),
                             e_ops=pick(self.e_ops), f_ops=pick(self.f_ops))


# h_i = sum_k c_ik D_k: h_0 = -2D, h_1 = 2D on one copy, and
# h_0 = -D1 - D2, h_1 = 2 D1 - D2, h_2 = -D1 + 2 D2 on two
_H_FORMS = {"a1": ((-2,), (2,)), "a2": ((-1, -1), (2, -1), (-1, 2))}


def _default_params(algebra, side, family):
    c = q_power(1) - q_power(-1)
    mu = c if side == "chi" else c.inverse()
    if algebra == "a1":
        return OscParams((c * c).inverse(), [mu], [0])
    rho = (c * c * c).inverse()
    return OscParams(rho if family == 1 else -rho, [mu, mu],
                     [0] * 3)


def _setup(algebra, side, family, params):
    if algebra not in _H_FORMS:
        raise ValueError("unsupported algebra label: %r" % (algebra,))
    return params or _default_params(algebra, side, family)


def _image(algebra, e_ops, f_ops, s, s1, s2, zeta_scale):
    h = _H_FORMS[algebra]
    exps = tuple(zeta_scale * x for x in _exps_for(algebra, s, s1, s2))
    return OscImage(algebra, len(h[0]), h, e_ops, f_ops, exps)


def chi_images(algebra, s, s1, s2=0, family=1, params=None, zeta_scale=1):
    """Positive-Borel homomorphism on one (rank 1) or two (rank 2) copies.

    For the rank-2 algebra `family` selects between the two inequivalent
    solutions of the Serre relations; they differ by a unit shift in the
    exponents of q^(D_2) carried by e_0 and e_2.
    """
    params = _setup(algebra, "chi", family, params)
    rho = params.rho
    if algebra == "a1":
        (mu,), (nu,) = params.mu, params.nu
        e = [Monomial(rho * mu, (-1,), (nu,)),
             Monomial(mu.inverse() * q_power(-nu), (1,), (-nu,))]
    else:
        (mu1, mu2), (nu1, nu2, nu3) = params.mu, params.nu
        shift = 1 if family == 1 else -1
        e = [Monomial(rho * mu1 * mu2, (-1, -1),
                      (nu1 + nu2 - 1, nu2 + nu3 - 1 - shift)),
             Monomial(mu1.inverse() * q_power(-nu1), (1, 0), (-nu1, -nu2)),
             Monomial(mu2.inverse() * q_power(-nu3), (0, 1),
                      (shift - nu2, -nu3))]
    return _image(algebra, e, [None] * len(e), s, s1, s2, zeta_scale)


def psi_images(algebra, s, s1, s2=0, family=1, params=None, zeta_scale=1):
    """Negative-Borel homomorphism; mirrors chi_images on the f side."""
    params = _setup(algebra, "psi", family, params)
    rho = params.rho
    if algebra == "a1":
        (mu,), (nu,) = params.mu, params.nu
        f = [Monomial(rho * mu.inverse() * q_power(-nu), (1,), (-nu,)),
             Monomial(mu, (-1,), (nu,))]
    else:
        (mu1, mu2), (nu1, nu2, nu3) = params.mu, params.nu
        shift = 1 if family == 1 else -1
        k0 = (-(nu1 + nu2 + 1), -(nu2 + nu3 + 1 + shift))
        f = [Monomial(rho * mu1.inverse() * mu2.inverse() * q_power(sum(k0)),
                      (1, 1), k0),
             Monomial(mu1, (-1, 0), (nu1, nu2)),
             Monomial(mu2, (0, -1), (nu2 + shift, nu3))]
    return _image(algebra, [None] * len(f), f, s, s1, s2, zeta_scale)
