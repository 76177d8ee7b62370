"""Generator images: concrete matrix assignments for the affine generators.

A GeneratorImage assigns to every node i the Cartan image (an integer
diagonal), and to e_i / f_i a matrix together with the power of the
spectral variable it carries (zeta^{sigma_i} on e_i, zeta^{-sigma_i} on
f_i).  Evaluation images on the fundamental representation live here; the
oscillator-side images are built in the oscillator module with the same
container.  Every constructed image can be checked against the defining
relations, including the Serre relations in both the cubic and quadratic
shapes.
"""

from .scalars import QScalar, q_power, qbinom
from .linalg import OpMatrix, fock_window
from .rootsys import extend_cartan, finite_cartan

__all__ = ["ScaledOp", "GeneratorImage", "phi_zeta", "dynkin_twist",
           "check_defining_relations", "check_omega_transfer"]

ONE = QScalar.ONE


class ScaledOp:
    """A matrix carrying an explicit power of the spectral variable."""

    __slots__ = ("zexp", "mat")

    def __init__(self, zexp, mat):
        self.zexp = zexp
        self.mat = mat

    def __eq__(self, other):
        if not isinstance(other, ScaledOp):
            return NotImplemented
        if not self.mat and not other.mat:
            return True
        return self.zexp == other.zexp and self.mat == other.mat

    def __repr__(self):
        return "ScaledOp(z^%d, %r)" % (self.zexp, self.mat)


class GeneratorImage:
    """Images of h_i, e_i, f_i for all affine nodes, with zeta exponents.

    `h_diags` holds integer diagonals; `e_mats`/`f_mats` hold bare matrices
    (no zeta) or None on the missing Borel half; `exps` are the sigma_i.
    `fock_dim` is the number of states of each of the `copies` truncated
    Fock factors (None for faithful finite-dimensional legs).
    """

    __slots__ = ("algebra", "affine", "dim", "h_diags", "e_mats", "f_mats",
                 "exps", "fock_dim", "copies")

    def __init__(self, algebra, dim, h_diags, e_mats, f_mats, exps,
                 fock_dim=None, copies=1):
        self.algebra = algebra
        self.affine = extend_cartan(finite_cartan(algebra))
        self.dim = dim
        self.h_diags = [tuple(d) for d in h_diags]
        self.e_mats = e_mats
        self.f_mats = f_mats
        self.exps = tuple(exps)
        self.fock_dim = fock_dim
        self.copies = copies

    @property
    def nodes(self):
        return self.affine.rank

    def h_at(self, i, x):
        """The value of h_i at state x."""
        return self.h_diags[i][x]

    def relabel(self, pick):
        """The image with `pick` applied to the node lists of h, e and f."""
        return GeneratorImage(self.algebra, self.dim, pick(self.h_diags),
                              pick(self.e_mats), pick(self.f_mats), self.exps,
                              self.fock_dim, self.copies)

    def h_mat(self, i):
        return OpMatrix.diagonal([QScalar.from_int(v) for v in self.h_diags[i]],
                                 ONE)

    def q_power_h(self, i, power=1):
        """Diagonal matrix q^(power * h_i)."""
        return OpMatrix.diagonal([q_power(power * v) for v in self.h_diags[i]],
                                 ONE)

    def e_op(self, i):
        m = self.e_mats[i]
        return None if m is None else ScaledOp(self.exps[i], m)

    def f_op(self, i):
        m = self.f_mats[i]
        return None if m is None else ScaledOp(-self.exps[i], m)


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
    """Precompose with the diagram automorphism sending node i to perm[i].

    The zeta dressing stays attached to the node position, so only the bare
    assignments move.
    """
    n = len(image.exps)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the %d nodes" % n)
    return image.relabel(lambda lst: [lst[perm[i]] for i in range(n)])


def _serre_words(ei, ej, a_ij):
    """sum_k (-1)^k qbinom(1 - a_ij, k) ei^(n-k) ej ei^k with n = 1 - a_ij."""
    n = 1 - a_ij
    powers = [OpMatrix.identity(ei.dim, ONE)]
    for _ in range(n):
        powers.append(powers[-1] * ei)
    out = OpMatrix.zero(ei.dim, ONE)
    for k in range(n + 1):
        c = qbinom(n, k)
        if k % 2 == 1:
            c = -c
        out = out + (powers[n - k] * ej * powers[k]).scale(c)
    return out


def check_defining_relations(image):
    """Verify the defining relations on the truncation-safe window.

    Returns the list of violated relation names; empty means everything
    holds.  The [e_i, f_j] relation is checked only when both Borel halves
    are present.
    """
    aff = image.affine
    n = image.nodes
    failures = []

    def check(name, mat, letters):
        # a word of `letters` ladder letters climbs at most that many levels
        if image.fock_dim is not None:
            mat = mat.restrict(fock_window(image.fock_dim, image.copies,
                                           letters))
        if mat:
            failures.append(name)

    for i in range(n):
        for j in range(n):
            a_ij = aff.matrix[i][j]
            hi = image.h_mat(i)
            if image.e_mats[j] is not None:
                ej = image.e_mats[j]
                check("[h_%d, e_%d] = a_ij e_%d" % (i, j, j),
                      hi.commutator(ej) - ej.scale(QScalar.from_int(a_ij)), 1)
            if image.f_mats[j] is not None:
                fj = image.f_mats[j]
                check("[h_%d, f_%d] = -a_ij f_%d" % (i, j, j),
                      hi.commutator(fj) + fj.scale(QScalar.from_int(a_ij)), 1)
            if image.e_mats[i] is not None and image.f_mats[j] is not None:
                lhs = image.e_mats[i].commutator(image.f_mats[j])
                if i == j:
                    qh = image.q_power_h(i)
                    qmh = image.q_power_h(i, -1)
                    denom = (q_power(1) - q_power(-1)).inverse()
                    lhs = lhs - (qh - qmh).scale(denom)
                check("[e_%d, f_%d]" % (i, j), lhs, 2)
            if i != j and image.e_mats[i] is not None and image.e_mats[j] is not None:
                check("serre e_%d e_%d" % (i, j),
                      _serre_words(image.e_mats[i], image.e_mats[j], a_ij),
                      2 - a_ij)
            if i != j and image.f_mats[i] is not None and image.f_mats[j] is not None:
                check("serre f_%d f_%d" % (i, j),
                      _serre_words(image.f_mats[i], image.f_mats[j], a_ij),
                      2 - a_ij)
    return failures


def check_omega_transfer(image):
    """Transposing e_i and applying t -> 1/t, zeta -> 1/zeta gives f_i."""
    for i in range(image.nodes):
        e = image.e_op(i)
        f = image.f_op(i)
        if e is None or f is None:
            return False
        mapped = ScaledOp(-e.zexp,
                          e.mat.transpose().map_values(lambda v: v.subs_t_inverse()))
        if mapped != f:
            return False
    return True
