"""Generator images: concrete matrix assignments for the affine generators.

A GeneratorImage assigns to every node i the Cartan image (an integer
diagonal), and to e_i / f_i a matrix together with the power of the
spectral variable it carries (zeta^{sigma_i} on e_i, zeta^{-sigma_i} on
f_i).  Evaluation images on the fundamental representation live here; the
oscillator-side images are built in the oscillator module with the same
node lists.
"""

from .scalars import QScalar
from .linalg import OpMatrix

__all__ = ["GeneratorImage", "phi_zeta", "dynkin_twist"]

ONE = QScalar.ONE


class GeneratorImage:
    """Images of h_i, e_i, f_i for all affine nodes, with zeta exponents.

    `h_diags` holds integer diagonals; `e_mats`/`f_mats` hold bare matrices
    (no zeta) or None on the missing Borel half; `exps` are the sigma_i.
    """

    __slots__ = ("algebra", "dim", "h_diags", "e_mats", "f_mats", "exps")

    def __init__(self, algebra, dim, h_diags, e_mats, f_mats, exps):
        self.algebra = algebra
        self.dim = dim
        self.h_diags = [tuple(d) for d in h_diags]
        self.e_mats = e_mats
        self.f_mats = f_mats
        self.exps = tuple(exps)

    def h_at(self, i, x):
        """The value of h_i at state x."""
        return self.h_diags[i][x]


def _exps_for(algebra, s, s1, s2):
    if algebra == "a1":
        return (s - s1, s1)
    return (s - s1 - s2, s1, s2)


def phi_zeta(algebra, s, s1, s2=0, zeta_scale=1):
    """Evaluation images on the fundamental representation.

    zeta_scale multiplies every zeta exponent; it implements evaluating the
    leg at a power of the spectral variable when two legs are combined
    through their ratio.
    """
    if algebra == "a1":
        e12 = OpMatrix.unit(2, 1, 2, ONE)
        e21 = OpMatrix.unit(2, 2, 1, ONE)
        h = [(-1, 1), (1, -1)]
        e = [e21, e12]
        f = [e12, e21]
        dim = 2
    elif algebra == "a2":
        def u(a, b):
            return OpMatrix.unit(3, a, b, ONE)
        h = [(-1, 0, 1), (1, -1, 0), (0, 1, -1)]
        e = [u(3, 1), u(1, 2), u(2, 3)]
        f = [u(1, 3), u(2, 1), u(3, 2)]
        dim = 3
    else:
        raise ValueError("unsupported algebra label: %r" % (algebra,))
    exps = tuple(zeta_scale * x for x in _exps_for(algebra, s, s1, s2))
    return GeneratorImage(algebra, dim, h, e, f, exps)


def dynkin_twist(image, perm):
    """Precompose an OscImage with the diagram automorphism i -> perm[i].

    The zeta dressing stays attached to the node position, so only the bare
    assignments move.
    """
    n = len(image.exps)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the %d nodes" % n)
    return image.relabel(lambda lst: [lst[perm[i]] for i in range(n)])
