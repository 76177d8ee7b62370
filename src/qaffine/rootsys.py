"""Affine root data for the rank-1 and rank-2 symmetric families.

Roots are integer vectors over the finite simple roots together with a
multiple of the null root delta; the module produces the positive roots up
to a delta cutoff in the specific total order the ordered-product
construction expects.  Whether that order is a normal order is checked by
the tests, not here.
"""

from fractions import Fraction

__all__ = ["CartanData", "AffineRoot", "extend_cartan", "positive_roots",
           "finite_cartan", "finite_positive"]


class CartanData:
    """Generalized Cartan matrix with symmetrizers and finite-part inverse."""

    __slots__ = ("label", "matrix", "symmetrizers", "finite_inverse", "rank")

    def __init__(self, label, matrix, symmetrizers, finite_inverse):
        n = len(matrix)
        for i in range(n):
            if matrix[i][i] != 2:
                raise ValueError("Cartan diagonal must be 2")
            for j in range(n):
                if i != j and matrix[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if matrix[i][j] * symmetrizers[i] != matrix[j][i] * symmetrizers[j]:
                    raise ValueError("symmetrizers do not symmetrize the matrix")
        self.label = label
        self.matrix = tuple(tuple(row) for row in matrix)
        self.symmetrizers = tuple(symmetrizers)
        self.finite_inverse = finite_inverse
        self.rank = n

    def pairing(self, i, j):
        """(alpha_i, alpha_j) = d_i a_ij."""
        return self.symmetrizers[i] * self.matrix[i][j]


def finite_cartan(label):
    if label == "a1":
        return CartanData("a1", [[2]], [1], ((Fraction(1, 2),),))
    if label == "a2":
        return CartanData(
            "a2", [[2, -1], [-1, 2]], [1, 1],
            ((Fraction(2, 3), Fraction(1, 3)),
             (Fraction(1, 3), Fraction(2, 3))))
    raise ValueError("unsupported algebra label: %r" % (label,))


def _theta(label):
    # maximal root in simple-root coordinates
    return (1,) if label == "a1" else (1, 1)


def extend_cartan(finite):
    """Affine extension with the 0th node attached via the maximal root."""
    if finite.label not in ("a1", "a2"):
        raise ValueError("unsupported algebra label: %r" % (finite.label,))
    n = finite.rank
    theta = _theta(finite.label)

    def pair_theta(i):
        return sum(theta[k] * finite.pairing(k, i) for k in range(n))

    theta_theta = sum(theta[i] * theta[j] * finite.pairing(i, j)
                      for i in range(n) for j in range(n))
    a0i = [-2 * pair_theta(i) // theta_theta for i in range(n)]
    ai0 = [-2 * pair_theta(i) // finite.pairing(i, i) for i in range(n)]
    matrix = [[2] + a0i] + [[ai0[i]] + list(finite.matrix[i]) for i in range(n)]
    return CartanData(finite.label + "(1)", matrix, (1,) + finite.symmetrizers,
                      finite.finite_inverse)


class AffineRoot:
    """gamma + m*delta in coordinates (finite part, delta multiple)."""

    __slots__ = ("finite_part", "delta_mult", "kind")

    def __init__(self, finite_part, delta_mult, kind):
        if kind not in ("real_plus", "imaginary", "real_minus"):
            raise ValueError("unknown root kind %r" % (kind,))
        self.finite_part = tuple(finite_part)
        self.delta_mult = delta_mult
        self.kind = kind

    def coords(self):
        return (self.finite_part, self.delta_mult)

    def simple_coefficients(self):
        """Coefficients k_i over (alpha_0, ..., alpha_r); delta = sum alpha_i."""
        m = self.delta_mult
        return (m,) + tuple(g + m for g in self.finite_part)

    def __eq__(self, other):
        return (isinstance(other, AffineRoot)
                and self.coords() == other.coords() and self.kind == other.kind)

    def __hash__(self):
        return hash((self.finite_part, self.delta_mult, self.kind))

    def __repr__(self):
        return "AffineRoot(%s + %d*delta, %s)" % (
            list(self.finite_part), self.delta_mult, self.kind)


def finite_positive(label):
    """Finite positive roots in the order the interleavings use."""
    if label == "a1":
        return [(1,)]
    return [(1, 0), (1, 1), (0, 1)]  # alpha, alpha+beta, beta


def positive_roots(affine, delta_cutoff):
    """All positive roots with delta-multiplicity <= cutoff, normal-ordered.

    The rank-1 order runs alpha + m*delta ascending, then the imaginary
    block, then (delta - alpha) + m*delta descending.  The rank-2 order
    interleaves alpha and alpha+beta per delta level, then the beta tail,
    the imaginary block, the (delta - beta) tail descending, and finally
    (delta - alpha), (delta - alpha - beta) interleaved descending.
    """
    if delta_cutoff < 0:
        raise ValueError("delta cutoff must be >= 0")
    label = affine.label.replace("(1)", "")
    out = []
    if label == "a1":
        alpha = (1,)
        for m in range(delta_cutoff + 1):
            out.append(AffineRoot(alpha, m, "real_plus"))
        for m in range(1, delta_cutoff + 1):
            out.append(AffineRoot((0,), m, "imaginary"))
        for m in range(delta_cutoff, -1, -1):
            out.append(AffineRoot((-1,), m + 1, "real_minus"))
        return out
    if label == "a2":
        alpha, alphabeta, beta = (1, 0), (1, 1), (0, 1)
        for m in range(delta_cutoff + 1):
            out.append(AffineRoot(alpha, m, "real_plus"))
            out.append(AffineRoot(alphabeta, m, "real_plus"))
        for m in range(delta_cutoff + 1):
            out.append(AffineRoot(beta, m, "real_plus"))
        for m in range(1, delta_cutoff + 1):
            out.append(AffineRoot((0, 0), m, "imaginary"))
        for m in range(delta_cutoff, -1, -1):
            out.append(AffineRoot((0, -1), m + 1, "real_minus"))
        for m in range(delta_cutoff, -1, -1):
            out.append(AffineRoot((-1, 0), m + 1, "real_minus"))
            out.append(AffineRoot((-1, -1), m + 1, "real_minus"))
        return out
    raise ValueError("unsupported algebra label: %r" % (affine.label,))
