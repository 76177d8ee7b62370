"""Truncated Fock realization of the q-oscillator algebra and the Borel
homomorphisms built on it.

Conventions: D|n> = n|n>, the raising operator sends |n> to |n+1> (cut at
the top), and a|n> = (1 - q^(2n))|n-1>.  Then a'a = 1 - q^(2D) holds on
every state and a a' = 1 - q^2 q^(2D) on all states below the top one.
The one- and two-copy homomorphism families into the Borel halves carry
free parameters (rho, mu_i, nu_i); the defaults reproduce the specific
specializations whose assembled forms are transcribed in the reference
module.  There each L-operator is a table of oscillator monomials, and the
anti-involution tau (a <-> a-dagger) acts on the table, not on matrices.
"""

import itertools

from .scalars import QScalar, q_power
from .linalg import OpMatrix, kron
from .qgroup import GeneratorImage, _exps_for

__all__ = [
    "FockRep", "FockCopies", "chi_images", "psi_images",
    "osc_automorphism", "OscParams",
]

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
        self.states = _states(d, copies)
        self.a = [on_copy(k, f.lowering()) for k in range(copies)]
        self.ad = [on_copy(k, f.raising()) for k in range(copies)]
        self.h = [tuple(sum(c * n for c, n in zip(cs, state))
                        for state in self.states)
                  for cs in self._H_COEFFS[copies]]

    def qd(self, *cs):
        """q^(c_1 D_1 + ... + c_k D_k), one exponent per copy."""
        return OpMatrix.diagonal(
            [q_power(sum(c * n for c, n in zip(cs, state)))
             for state in self.states], ONE)


def _states(d, copies):
    """The occupation tuples of `copies` Fock factors of d states, in flat
    index order (the first copy slowest, as in kron)."""
    return list(itertools.product(range(d), repeat=copies))


def _default_params(algebra, side, family):
    c = q_power(1) - q_power(-1)
    mu = c if side == "chi" else c.inverse()
    if algebra == "a1":
        return OscParams((c * c).inverse(), [mu], [0])
    rho = (c * c * c).inverse()
    return OscParams(rho if family == 1 else -rho, [mu, mu],
                     [0] * 3)


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


# -- automorphisms -------------------------------------------------------------

def osc_automorphism(d, kappas, xis, one=ONE):
    """Conjugating weights (rows, cols) of a_i -> kappa_i a_i q^(xi_i . D)
    on one or two copies of d states: the image of m is m.scaled(rows,
    cols).  `kappas` are invertible scalars of the kind of `one`, one per
    copy; `xis` is the symmetric xi by its upper triangle, (xi,) or
    (xi11, xi12, xi22), in sixth-integers.  State n gets the row weight
    prod_i kappa_i^(-n_i) q^(-E(n)) with E(n) = sum_i xi_ii n_i (n_i + 1) / 2
    + sum_(i<j) xi_ij n_i n_j, and its inverse as column weight.  At xi = 0
    this is the spectral gauge map.
    """
    if not all(kappas):
        raise ValueError("kappa must be invertible")
    copies = len(kappas)
    pairs = [(i, j) for i in range(copies) for j in range(i, copies)]
    rows = _over_states([_powers(k.inverse(), d, one) for k in kappas])
    cols = _over_states([_powers(k, d, one) for k in kappas])
    for idx, n in enumerate(_states(d, copies)):
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
    return v if isinstance(one, QScalar) else one.scale(v)
