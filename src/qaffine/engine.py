"""Ordered-product construction of R-matrices and L-operators.

Given a pair of leg homomorphisms the engine builds the images of all root
vectors up to the delta cutoff by the standard recursion (q-commutators for
the real directions, a graded logarithm for the imaginary ones), then
multiplies the factors in normal order:

    prefix block (real roots below delta) . imaginary exponential .
    suffix block (real roots above delta) . Cartan factor

All arithmetic is exact truncated series in the ratio of the two spectral
parameters; the left leg carries positive powers and the right leg the
matching negative ones, so only the ratio survives.  Oscillator legs are
built on an internally padded Fock space so that every reported matrix
element is free of truncation noise.  The product starts from the identity
on the reported rows, since E_R (M_1 ... M_k) = (E_R M_1) M_2 ... M_k, so
every factor is multiplied on those rows alone; the columns are cut at the
end.

The imaginary root vectors have weight zero, so they are diagonal on every
leg: the engine keeps their eigenvalues and takes the graded logarithm only
at the states the product holds.  A real root vector maps each state to at
most one state and is kept as that weighted partial map: a bracket
composes two of them, and a step along delta, a bracket with the diagonal
e'_delta, weighs each row by an eigenvalue difference, at the rows the
product reads alone.  Every pairing has a fundamental leg, where a real
root vector squares to zero, so each real q-exponential is exactly 1 + X,
which relabels the columns the product holds, and the Cartan factor
weighs them; the pairing of two oscillator legs has none and is rejected.
"""

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .scalars import QScalar, q_power, qint, t_power
from .series import ZetaSeries, series_exp, series_log
from .linalg import OpMatrix, fock_window, _flat, _unflat
from .rootsys import (
    extend_cartan, finite_cartan, finite_positive, positive_roots,
)
from .qgroup import phi_zeta, dynkin_twist, _exps_for
from .oscillator import chi_images, psi_images

__all__ = ["EngineParams", "EngineError", "RootVectorTable",
           "build_root_vectors", "assemble", "u_matrices",
           "check_normalization_constants"]

ONE = QScalar.ONE
ZERO = QScalar.ZERO
C_FACTOR = q_power(1) - q_power(-1)          # q - q^-1
INV2 = qint(2).inverse()                      # 1/[2]_q


class EngineError(ValueError):
    """A parameter or a generator image the engine rejects."""


class EngineParams:
    """Everything one assembly needs.

    `left` is "phi" or "chi", `right` is "phi" or "psi", not both
    oscillators; `twist` (a node permutation) applies to the oscillator leg.
    The left leg is evaluated at zeta and the right leg at zeta^0, so the
    product is a series in the ratio of the two spectral parameters.
    """

    def __init__(self, algebra, s, s1, s2=0, order=8, left="phi",
                 right="phi", family=1, twist=None, fock_dim=None,
                 osc_params=None):
        if s < 1:
            raise EngineError("the series engine needs s >= 1")
        exps = _exps_for(algebra, s, s1, s2)
        if any(x < 0 for x in exps):
            raise EngineError("node exponents must be non-negative, got %s"
                              % (exps,))
        if left not in ("phi", "chi") or right not in ("phi", "psi"):
            raise EngineError("left must be phi|chi and right phi|psi")
        if (left, right) == ("chi", "psi"):
            raise EngineError("two oscillator legs have no fundamental "
                              "leg, so a real factor need not be 1 + X")
        self.algebra = algebra
        self.s, self.s1, self.s2 = s, s1, s2
        self.order = order
        self.left = left
        self.right = right
        self.family = family
        self.twist = twist
        self.fock_dim = fock_dim if fock_dim is not None else order + 4
        self.osc_params = osc_params

    @property
    def m_max(self):
        return self.order // self.s

    @property
    def internal_fock_dim(self):
        """Fock dimension of the oscillator legs: the reported one plus a
        pad of m_max + 1, so that every reported entry is exact.

        Every engine step is a sum of products of the truncated ladder
        matrices, or an entrywise function of diagonal ones, so by
        `fock_window` the pad must bound how far a path climbs.  On each
        copy a path of R raising and L lowering letters climbs at most
        min(R, L) above its higher end, and the two directions come from
        two different nodes, under any `twist` too.  A root of
        delta-multiplicity M and finite part c has M letters of node 0 and
        M + c_i of node i, so a term has N_0 and N_0 + C_i, where C is a
        weight difference of the fundamental leg: every C_i is -1, 0 or 1.
        Its zeta degree N_0 s + sum C_i s_i <= order, with node exponents
        >= 0 summing to s, gives N_0 <= m_max + 1, and N_0 <= m_max when
        C_1 = C_2 = 1, so no two nodes both occur more than m_max + 1
        times.  A pad of m_max gives wrong entries.
        """
        return self.fock_dim + self.m_max + 1


def _leg_images(params, which):
    scale = 1 if which == "left" else 0
    kind = params.left if which == "left" else params.right
    if kind == "phi":
        return phi_zeta(params.algebra, params.s, params.s1, params.s2,
                        zeta_scale=scale)
    build = chi_images if kind == "chi" else psi_images
    img = build(params.algebra, params.s, params.s1, params.s2,
                d=params.internal_fock_dim, family=params.family,
                zeta_scale=scale, params=params.osc_params)
    if params.twist is not None:
        img = dynkin_twist(img, params.twist)
    return img


class RootVector(dict):
    """A real root vector on one leg as a weighted partial map: self[x] is
    (y, v) for its one entry v at (x, y), or None; it carries zeta^zexp,
    `sources` holds every row that may have an entry, and `entries` with
    two in one row raise `EngineError`.  A vector along delta is the one
    below it with row x weighed by (d_y - d_x) h, d the eigenvalues of
    e'_delta (absent states at 0), evaluated on first request, each weight
    once per family, which shares `steps` = (d, h, cache)."""

    __slots__ = ("zexp", "sources", "below", "steps")

    def __init__(self, zexp, entries, below=None, steps=None):
        super().__init__({i: (j, v) for (i, j), v in entries.items()})
        if len(self) < len(entries):
            raise EngineError("a root vector has two entries in one row")
        self.zexp, self.below, self.steps = zexp, below, steps
        self.sources = self if below is None else below.sources

    def __missing__(self, x):
        hit = None
        if self.below is not None:
            hit = self.below[x]
            if hit is not None:
                d, h, cache = self.steps
                if x not in cache:
                    cache[x] = (d.get(hit[0], ZERO) - d.get(x, ZERO)) * h
                hit = (hit[0], hit[1] * cache[x]) if cache[x] else None
            self[x] = hit
        return hit


def _bracket(x, y, p):
    """The entries {(i, k): v} of x y - q^p y x, each product composed row
    by row: two lookups per state."""
    out = {}
    for a, b, c in ((x, y, None), (y, x, -q_power(p))):
        for i in a.sources:
            hit = a[i]
            hit2 = hit and b[hit[0]]
            if hit2:
                v = hit[1] * hit2[1] * c if c else hit[1] * hit2[1]
                ik = (i, hit2[0])
                out[ik] = out[ik] + v if ik in out else v
    return {ik: v for ik, v in out.items() if v}


def _diagonal(entries, what):
    if any(i != k for i, k in entries):
        raise EngineError("%s is not diagonal" % what)
    return {i: v for (i, _), v in entries.items()}


class RootVectorTable:
    """Images of the root vectors for one leg and one Borel side.

    The real root vectors are `RootVector` maps.  The imaginary ones have
    weight zero, so they are diagonal on the leg and only their eigenvalues
    are kept: `diags[i][m - 1]` maps each state to its eigenvalue under
    c e'_(m delta) of simple root i (c = q - q^-1, negated on the f side),
    with absent states at zero.  Level m carries zeta^(m * zstep).
    """

    __slots__ = ("real", "diags", "zstep", "_scale", "_logs", "_at")

    def __init__(self, real, diags, zstep, scale):
        self.real = real      # (finite_part, m) -> RootVector
        self.diags = diags
        self.zstep = zstep
        self._scale = scale
        self._logs = {}
        self._at = {}

    def real_op(self, root):
        return self.real.get((root.finite_part, root.delta_mult))

    def imag_at(self, x):
        """The eigenvalues e_im(x) at leg state x, level by level
        (m = 1 .. m_max) and node by node: the level-m coefficient of
        log(1 + sum_m c e'_(m delta) y^m) at x, divided by c.  One
        `series_log` per distinct tuple of e' eigenvalues, on first
        request."""
        out = self._at.get(x)
        if out is None:
            out = self._at[x] = tuple(zip(*(
                self._log(tuple(level.get(x, ZERO) for level in node))
                for node in self.diags)))
        return out

    def _log(self, key):
        out = self._logs.get(key)
        if out is None:
            if any(key):
                coeffs = dict(enumerate(key, 1))
                coeffs[0] = ONE
                log = series_log(ZetaSeries(coeffs, len(key)))
                out = tuple(log.coeff(m) * self._scale
                            for m in range(1, len(key) + 1))
            else:
                out = key          # log 1 = 0
            self._logs[key] = out
        return out


def build_root_vectors(image, side, m_max):
    """Run the recursion for one leg; `side` picks the Borel half.

    Every bracket composes partial maps, and one with the diagonal e'_delta
    weighs rows, [X, e'_delta]_xy = X_xy (d_y - d_x); level 1 of each simple
    imaginary family is e'_delta itself.
    """
    sgn = 1 if side == "e" else -1
    mats = image.e_mats if side == "e" else image.f_mats

    def bracket(x, y, p):
        # the f side mirrors the e side: [x, y]_(q^p) becomes [y, x]_(q^-p)
        return _bracket(x, y, p) if sgn > 0 else _bracket(y, x, -p)

    def composite(x, y):
        return RootVector(x.zexp + y.zexp, bracket(x, y, -1))

    gen = [RootVector(sgn * z, m.entries) for z, m in zip(image.exps, mats)]
    if image.algebra == "a1":
        real = {((1,), 0): gen[1], ((-1,), 1): gen[0]}
    else:
        e0, ea, eb = gen
        real = {((1, 0), 0): ea, ((0, 1), 0): eb, ((-1, -1), 1): e0,
                ((1, 1), 0): composite(ea, eb),
                ((-1, 0), 1): composite(eb, e0),
                ((0, -1), 1): composite(ea, e0)}

    # the imaginary root vectors come from the generating q-commutators
    # e'_(m delta), one family per finite simple root; the m-th always
    # carries the m-th power of the leg's total delta weight, and only
    # their eigenvalues are kept
    c = C_FACTOR if sgn > 0 else -C_FACTOR
    half = INV2 if sgn > 0 else -INV2
    zstep = sgn * sum(image.exps)
    diags = []
    for gamma in finite_positive(image.algebra):
        minus = tuple(-g for g in gamma)
        first, second = real[(gamma, 0)], real[(minus, 1)]
        zdelta = first.zexp + second.zexp
        d = _diagonal(bracket(first, second, -2), "e'_delta of %s" % (gamma,))
        # e_(gamma + m delta) = [e_(gamma + (m-1) delta), e'_delta] / [2] and
        # e_(-gamma + (m+1) delta) = [e'_delta, e_(-gamma + m delta)] / [2]:
        # one weight per row and direction; a zero weight drops the entry
        for root, m0, h in ((gamma, 0, half), (minus, 1, -half)):
            vec, steps = real[(root, m0)], (d, h, {})
            for m in range(m0 + 1, m0 + m_max + 1):
                vec = real[(root, m)] = RootVector(vec.zexp + zdelta, {}, vec,
                                                   steps)
        if sum(gamma) > 1:
            continue
        levels = []
        for m in range(1, m_max + 1):
            below = real[(gamma, m - 1)]
            level = d if m == 1 else bracket(below, second, -2)
            if level and below.zexp + second.zexp != m * zstep:
                raise EngineError("inhomogeneous zeta grading in the "
                                  "imaginary family at level %d" % m)
            if m > 1:
                level = _diagonal(level, "imaginary root vector at level %d"
                                  % m)
            levels.append({x: v * c for x, v in level.items()})
        diags.append(levels)
    return RootVectorTable(real, diags, zstep, c.inverse())


@lru_cache(maxsize=None)
def u_matrices(algebra, m_max):
    """Per-level inverse coupling matrices of the imaginary block, as a
    read-only map from the level to rows of tuples: the result is memoised
    and shared by every caller."""
    fin = finite_cartan(algebra)
    r = fin.rank
    out = {}
    for m in range(1, m_max + 1):
        t = [[qint(m * fin.matrix[i][j]).scale(Fraction(1, m))
              if (i == j or m % 2 == 0) else
              qint(m * fin.matrix[i][j]).scale(Fraction(-1, m))
              for j in range(r)] for i in range(r)]
        if r == 1:
            out[m] = ((t[0][0].inverse(),),)
        else:
            det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
            det_inv = det.inverse()
            out[m] = ((t[1][1] * det_inv, (-t[0][1]) * det_inv),
                      ((-t[1][0]) * det_inv, t[0][0] * det_inv))
    return MappingProxyType(out)


def _times_real_factor(acc, e, f, dim_r, order):
    """acc exp_{q^-2}(X) = acc (1 + X) for X = (q - q^-1) e x f.

    X^2 = (q - q^-1)^2 e^2 x f^2 vanishes when either leg's root vector
    squares to zero, as on a fundamental leg, and then every higher term of
    the q-exponential does too.  X is a partial map like e and f, so acc X
    relabels the columns of acc: column (x, y) moves to (x', y') for the
    entries (x, x') of e and (y, y') of f, with one weight per held column.
    """
    # a partial map squares to zero when no entry leads to a row with one
    if all(any(hit and v[hit[0]] for hit in map(v.__getitem__, v.sources))
           for v in sorted((e, f), key=lambda v: len(v.sources))):
        raise EngineError("neither leg's root vector squares to zero, so the "
                          "real factor is not 1 + X")
    k = e.zexp + f.zexp
    moves, out = {}, dict(acc.entries)
    for (r, c), v in acc.entries.items():
        if c not in moves:
            x, y = divmod(c, dim_r)
            he = e[x]
            hf = he and f[y]
            moves[c] = hf and (he[0] * dim_r + hf[0], ZetaSeries(
                {k: C_FACTOR * he[1] * hf[1]}, order))
        if moves[c]:
            rc, p = (r, moves[c][0]), v * moves[c][1]
            p = out.pop(rc) + p if rc in out else p
            if p:
                out[rc] = p
    return OpMatrix(acc.dim, out, acc.one, _clean=True)


def _imaginary_factor(left_table, right_table, params, dim_l, dim_r, order,
                      cols):
    """Returns (a_00, weights): a_00 is the argument of the exponential at
    the ground state, and the weights are those of the diagonal factor on
    the columns `cols`, or None when it is the identity.

    The imaginary root vectors are diagonal on every leg, so the argument
    a of the exponential is diagonal too.  At state (x, y) its level-m
    coefficient, at zeta^(m s), is the bilinear form sum_j G_mj(x) f_jm(y),
    with G_mj(x) = sum_i (q - q^-1) u_m[i][j] e_im(x), read off the leg
    eigenvalues e_im(x) and f_jm(y), which are asked for at the states of
    `cols` and at the ground state alone: G once per distinct left tuple,
    and one `series_exp` per distinct pair of tuples.  The exponential is
    split as exp(a_00) * diag(exp(a_xy - a_00)); the common scalar is
    returned as its argument a_00 and multiplies the assembled product once
    at the very end, unless the caller takes it apart.  The weight list
    has length dim_l * dim_r and holds None at every column outside
    `cols`, which the caller's matrix does not have.
    """
    m_max = params.m_max
    if not m_max:
        return ZetaSeries.zero(order), None
    um = u_matrices(params.algebra, m_max)
    rank = finite_cartan(params.algebra).rank
    zstep = left_table.zstep + right_table.zstep
    zexps = [m * zstep for m in range(1, m_max + 1)]
    couplings = [[[C_FACTOR * um[m][i][j] for j in range(rank)]
                  for i in range(rank)] for m in range(1, m_max + 1)]
    forms = {}

    def form(key):
        g = forms.get(key)
        if g is None:
            g = forms[key] = [
                [sum((c[i][j] * ev[i] for i in range(rank)), ZERO)
                 for j in range(rank)] for c, ev in zip(couplings, key)]
        return g

    def pair(g, f):
        return [sum((a * b for a, b in zip(gl, fl)), ZERO)
                for gl, fl in zip(g, f)]

    arg0 = pair(form(left_table.imag_at(0)), right_table.imag_at(0))
    cache = {}
    out = [None] * (dim_l * dim_r)
    for col in cols:
        x, y = divmod(col, dim_r)
        key = (left_table.imag_at(x), right_table.imag_at(y))
        weight = cache.get(key)
        if weight is None:
            weight = cache[key] = series_exp(ZetaSeries(
                {z: a - b for z, a, b in
                 zip(zexps, pair(form(key[0]), key[1]), arg0)}, order))
        out[col] = weight
    return ZetaSeries(dict(zip(zexps, arg0)), order), out


def _k_factor(left_image, right_image, params, order, cols):
    """Weights of the Cartan factor q^(sum_ij B^-1_ij h_i x h_j) on the
    columns `cols`, with None at every other column, as for
    `_imaginary_factor`.  6 B^-1 is an integer matrix and q = t^6, so each
    weight is an integer power of t."""
    fin = finite_cartan(params.algebra)
    r = fin.rank
    b6 = [[int(6 * b) for b in row] for row in fin.finite_inverse]
    hl, hr = left_image.h_diags[1:r + 1], right_image.h_diags[1:r + 1]
    dim_r = right_image.dim
    out = [None] * (left_image.dim * dim_r)
    for col in cols:
        x, y = divmod(col, dim_r)
        out[col] = ZetaSeries.const(t_power(sum(
            b6[i][j] * hl[i][x] * hr[j][y]
            for i in range(r) for j in range(r))), order)
    return out


def check_normalization_constants(params):
    """In the faithful evaluation leg, [e_gamma, f_gamma] must equal the
    standard Cartan combination with unit constant for every real root."""
    img = phi_zeta(params.algebra, params.s, params.s1, params.s2)
    etab = build_root_vectors(img, "e", params.m_max)
    ftab = build_root_vectors(img, "f", params.m_max)
    aff = extend_cartan(finite_cartan(params.algebra))
    denom_inv = C_FACTOR.inverse()
    for root in positive_roots(aff, params.m_max):
        if root.kind == "imaginary":
            continue
        e, f = etab.real_op(root), ftab.real_op(root)
        if e is None or f is None:
            continue
        ks = root.simple_coefficients()
        hs = [sum(k * img.h_diags[i][x] for i, k in enumerate(ks))
              for x in range(img.dim)]
        rhs = {(x, x): (q_power(v) - q_power(-v)) * denom_inv
               for x, v in enumerate(hs) if v}
        if _bracket(e, f, 0) != rhs or e.zexp + f.zexp != 0:
            raise EngineError(
                "normalization constant differs from 1 at root %r" % (root,))
    return True


def assemble(params, split_prefactor=False):
    """Full ordered product as an OpMatrix over ZetaSeries.

    The flattening puts the left leg slowest.  With `split_prefactor` the
    scalar exponential exp(a_00) common to all entries is returned
    separately, as its argument: the result is (a_00, matrix), and the full
    product is series_exp(a_00) * matrix entrywise.
    """
    check_normalization_constants(params)
    left = _leg_images(params, "left")
    right = _leg_images(params, "right")
    order = params.order
    etab = build_root_vectors(left, "e", params.m_max)
    ftab = build_root_vectors(right, "f", params.m_max)
    aff = extend_cartan(finite_cartan(params.algebra))
    roots = positive_roots(aff, params.m_max)
    dim_l, dim_r = left.dim, right.dim
    lm = _leg_map(left, params.left, params)
    rm = _leg_map(right, params.right, params)
    # start from the reported rows only, E_R (M_1 ... M_k) =
    # (E_R M_1) M_2 ... M_k, so that every product skips the other rows
    one = ZetaSeries.one(order)
    acc = OpMatrix(dim_l * dim_r, {(r, r): one for r in
                                   (x * dim_r + y for x in lm for y in rm)},
                   one, _clean=True)
    a00 = ZetaSeries.zero(order)
    imag_done = False
    for root in roots:
        if root.kind == "imaginary":
            # the whole imaginary block at once; without imaginary roots
            # (m_max = 0) the factor is the identity
            if not imag_done:
                a00, factor = _imaginary_factor(
                    etab, ftab, params, dim_l, dim_r, order,
                    {j for _, j in acc.entries})
                acc = acc.scaled(cols=factor)
                imag_done = True
            continue
        e, f = etab.real_op(root), ftab.real_op(root)
        if e is None or f is None or e.zexp + f.zexp > order:
            continue
        acc = _times_real_factor(acc, e, f, dim_r, order)
    acc = acc.scaled(cols=_k_factor(left, right, params, order,
                                    {j for _, j in acc.entries}))
    acc = _restrict_output(acc, lm, rm, dim_r)
    if split_prefactor:
        return a00, acc
    if a00:
        prefactor = series_exp(a00)
        acc = acc.map_values(lambda s: s * prefactor)
    return acc


def _leg_map(image, kind, params):
    """Reported index of each reported state of one leg, keyed by its
    internal index: the oscillator legs are cut from the internal Fock
    dimension back to the reported one."""
    if kind == "phi":
        return {i: i for i in range(image.dim)}
    d_int, d_out = params.internal_fock_dim, params.fock_dim
    window = fock_window(d_int, image.copies, d_int - d_out)
    return {idx: _flat(_unflat(idx, [d_int] * image.copies),
                       [d_out] * image.copies)
            for idx in range(image.dim) if window(idx)}


def _restrict_output(mat, lm, rm, dim_r):
    """The entries of `mat` between reported states, reindexed by the leg
    maps `lm` and `rm` of `_leg_map`."""
    out = {}
    for (r, c), v in mat.entries.items():
        l1, r1 = divmod(r, dim_r)
        l2, r2 = divmod(c, dim_r)
        if l1 in lm and l2 in lm and r1 in rm and r2 in rm:
            out[(lm[l1] * len(rm) + rm[r1], lm[l2] * len(rm) + rm[r2])] = v
    return OpMatrix(len(lm) * len(rm), out, mat.one, _clean=True)
