"""Ordered-product construction of R-matrices and L-operators.

Given a pair of leg homomorphisms the engine builds the images of all root
vectors up to the delta cutoff by the standard recursion (q-commutators for
the real directions, a graded logarithm for the imaginary ones), then
multiplies the factors in normal order:

    prefix block (real roots below delta) . imaginary exponential .
    suffix block (real roots above delta) . Cartan factor

All arithmetic is exact truncated series in the ratio of the two spectral
parameters; the left leg carries positive powers and the right leg the
matching negative ones, so only the ratio survives.  An oscillator leg is
the untruncated Fock space.  The product starts from the identity on the
reported rows, since E_R (M_1 ... M_k) = (E_R M_1) M_2 ... M_k, so every
factor is multiplied on those rows alone; `fock_dim` only picks them and
the columns cut at the end.

Every root vector is evaluated one leg state at a time, on request.  A
real one maps each state to at most one state, a weighted partial map: a
generator reads its monomial (or matrix row), a bracket composes two maps,
and a step along delta, a bracket with the diagonal e'_delta, weighs the
vector below it.  The imaginary ones have weight zero, so they are
diagonal and the engine keeps their eigenvalues, taking the graded
logarithm only at the states the product holds.  Every pairing has a
fundamental leg, where a real root vector squares to zero, so each real
q-exponential is exactly 1 + X, which relabels the columns the product
holds, and the Cartan factor weighs them; two oscillator legs are rejected.
"""

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, product
from types import MappingProxyType

from .scalars import (QScalar, _ONE_POLY, _content_reduced, _p_add, _p_conv,
                      q_power, qint, t_power)
from .series import ZetaSeries, series_exp, series_log
from .linalg import OpMatrix
from .rootsys import (
    extend_cartan, finite_cartan, finite_positive, positive_roots,
)
from .qgroup import phi_zeta, dynkin_twist, _exps_for
from .oscillator import OscImage, chi_images, psi_images

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


def _leg_images(params, which):
    scale = 1 if which == "left" else 0
    kind = params.left if which == "left" else params.right
    if kind == "phi":
        return phi_zeta(params.algebra, params.s, params.s1, params.s2,
                        zeta_scale=scale)
    build = chi_images if kind == "chi" else psi_images
    img = build(params.algebra, params.s, params.s1, params.s2,
                family=params.family, zeta_scale=scale,
                params=params.osc_params)
    if params.twist is not None:
        img = dynkin_twist(img, params.twist)
    return img


class RootVector(dict):
    """A real root vector on one leg as a weighted partial map carrying
    zeta^zexp: self[x] is (y, v) for its one entry v at (x, y), or None,
    as `rule` gives it at state x on first request."""

    __slots__ = ("zexp", "rule")

    def __init__(self, zexp, rule):
        super().__init__()
        self.zexp, self.rule = zexp, rule

    def __missing__(self, x):
        hit = self[x] = self.rule(x)
        return hit


def _generators(image, side):
    """The rule of each generator on one Borel side: on an oscillator leg
    the row of its monomial, on any other its matrix row, which may hold
    one entry at most."""
    if isinstance(image, OscImage):
        return [m.row for m in (image.e_ops if side == "e" else image.f_ops)]
    rules = []
    for m in (image.e_mats if side == "e" else image.f_mats):
        rows = {i: (j, v) for (i, j), v in m.entries.items()}
        if len(rows) < len(m.entries):
            raise EngineError("a root vector has two entries in one row")
        rules.append(rows.get)
    return rules


def _bracket(x, y, p):
    """The rule of x y - q^p y x: at each state each product composes two
    partial maps, two lookups, and entries of the two in different columns
    raise."""
    c = -q_power(p)

    def rule(i):
        out = None
        for a, b, w in ((x, y, None), (y, x, c)):
            hit = a[i]
            hit2 = hit and b[hit[0]]
            if hit2:
                v = hit[1] * hit2[1] * w if w else hit[1] * hit2[1]
                if out is None:
                    out = (hit2[0], v)
                elif out[0] == hit2[0]:
                    out = (out[0], out[1] + v)
                else:
                    raise EngineError("a root vector has two entries in "
                                      "one row")
        return out if out and out[1] else None
    return rule


def _eigenvalues(rule, what):
    """The memoised eigenvalue at each state of a vector that must be
    diagonal, 0 where it has no entry; an entry off the diagonal raises."""
    @lru_cache(maxsize=None)
    def at(x):
        hit = rule(x)
        if hit is None:
            return ZERO
        if hit[0] != x:
            raise EngineError("%s is not diagonal" % what)
        return hit[1]
    return at


def _step(below, d, h, cache):
    """The rule of the vector one step along delta above `below`: row x
    weighed by (d_y - d_x) h, d the eigenvalues of e'_delta, each weight
    once per family, which shares `cache`; a zero weight drops the entry."""
    def rule(x):
        hit = below[x]
        if hit is None:
            return None
        w = cache.get(x)
        if w is None:
            w = cache[x] = (d(hit[0]) - d(x)) * h
        return (hit[0], hit[1] * w) if w else None
    return rule


class RootVectorTable:
    """Images of the root vectors for one leg and one Borel side.

    The real root vectors are `RootVector` maps.  The imaginary ones have
    weight zero, so they are diagonal on the leg and only their eigenvalues
    are kept: `diags[i][m - 1]` takes each state to its eigenvalue under
    c e'_(m delta) of simple root i (c = q - q^-1, negated on the f side),
    zero where it has none.  Level m carries zeta^(m * zstep).  `leg(x)`
    numbers the distinct tuples of eigenvalues at the states asked for;
    `legs[leg(x)]` is (logs, signs), logs[m - 1][i] and signs[i] from
    `_node_log` at node i, once per distinct tuple of its eigenvalues.
    """

    __slots__ = ("real", "diags", "zstep", "legs", "_ids", "_index", "_log")

    def __init__(self, real, diags, zstep):
        # real: (finite_part, m) -> RootVector
        self.real, self.diags, self.zstep = real, diags, zstep
        self.legs, self._ids, self._index = [], {}, {}
        self._log = lru_cache(maxsize=None)(_node_log)

    def real_op(self, root):
        return self.real.get((root.finite_part, root.delta_mult))

    def leg(self, x):
        out = self._ids.get(x)
        if out is None:
            key = tuple(tuple(v(x) for v in node) for node in self.diags)
            out = self._ids[x] = self._index.setdefault(key, len(self.legs))
            if out == len(self.legs):
                signs, logs = zip(*map(self._log, key))
                self.legs.append((tuple(zip(*logs)), signs))
        return out


_MAX_PASSES = 32    # of check (a), 3 at most on the catalog; then series_log


def _power_sum(values):
    """Check (a): the sign eps, -1 tried first, for which g = 1 + sum_m
    values[m - 1] y^m is prod_k (1 - eps t^k y)^(n_k) at every level, n_k =
    -eps c_k for values[0] = sum_k c_k t^k, or None: divided by each factor
    (a pass upwards) or multiplied by it (downwards) per unit of |n_k|, g
    must be 1, exactly, on integer polynomials."""
    c1, ms = values[0].num, range(1, len(values) + 1)
    if any(v.den is not _ONE_POLY for v in values) or \
            sum(map(abs, c1.values())) > _MAX_PASSES:
        return None
    for eps in (-1, 1):
        g = [_ONE_POLY] + [v.num for v in values]
        for k, c in c1.items():
            for _ in range(abs(c)):
                for m in (ms if eps * c < 0 else reversed(ms)):
                    g[m] = _p_add(g[m], _p_conv({k: -c // abs(c)}, g[m - 1]))
        if not any(g[1:]):
            return eps
    return None


def _node_log(values):
    """(eps, L) for the eigenvalues g_m = values[m - 1] of c e'_(m delta) at
    one node, L_m the level-m coefficient of log(1 + sum_m g_m y^m): 0 for
    zeros (eps 0), -(eps^m / m) sum_k n_k t^(k m) = eps^(m + 1) L_1(t^m) / m
    where check (a) holds, L_1 = g_1 at one level (eps -1, as a sign no
    level can refute), else by `series_log` (eps None)."""
    ms = range(1, len(values) + 1)
    eps = 0 if not any(values) else _power_sum(values) if ms[-1] > 1 else -1
    if eps is None:
        log = series_log(ZetaSeries({0: ONE, **dict(zip(ms, values))}, ms[-1]))
        return None, tuple(map(log.coeff, ms))
    return eps, tuple(_at_power(-values[0] if eps ** (m + 1) < 0
                                else values[0], m) for m in ms)


def _at_power(x, m):
    """x(t^m) / m, canonical as x is: t -> t^m keeps num and den coprime."""
    return QScalar(*_content_reduced(
        {k * m: c for k, c in x.num.items()},
        {k * m: c * m for k, c in x.den.items()}), _canonical=True)


def build_root_vectors(image, side, m_max):
    """Run the recursion for one leg; `side` picks the Borel half.  Every
    vector is a rule, read at a state on first request.

    Every bracket composes partial maps, and one with the diagonal e'_delta
    weighs rows, [X, e'_delta]_xy = X_xy (d_y - d_x); level 1 of each simple
    imaginary family is e'_delta itself.
    """
    sgn = 1 if side == "e" else -1

    def bracket(x, y, p):
        # the f side mirrors the e side: [x, y]_(q^p) becomes [y, x]_(q^-p)
        return _bracket(x, y, p) if sgn > 0 else _bracket(y, x, -p)

    def composite(x, y):
        return RootVector(x.zexp + y.zexp, bracket(x, y, -1))

    gen = [RootVector(sgn * z, rule)
           for z, rule in zip(image.exps, _generators(image, side))]
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
        d = _eigenvalues(bracket(first, second, -2),
                         "e'_delta of %s" % (gamma,))
        # e_(gamma + m delta) = [e_(gamma + (m-1) delta), e'_delta] / [2] and
        # e_(-gamma + (m+1) delta) = [e'_delta, e_(-gamma + m delta)] / [2]:
        # one weight per row and direction
        for root, m0, h in ((gamma, 0, half), (minus, 1, -half)):
            vec, cache = real[(root, m0)], {}
            for m in range(m0 + 1, m0 + m_max + 1):
                vec = real[(root, m)] = RootVector(vec.zexp + zdelta,
                                                   _step(vec, d, h, cache))
        if sum(gamma) > 1:
            continue
        levels = []
        for m in range(1, m_max + 1):
            below = real[(gamma, m - 1)]
            if below.zexp + second.zexp != m * zstep:
                raise EngineError("inhomogeneous zeta grading in the "
                                  "imaginary family at level %d" % m)
            level = d if m == 1 else _eigenvalues(
                bracket(below, second, -2),
                "imaginary root vector at level %d" % m)
            levels.append(lambda x, v=level: v(x) * c)
        diags.append(levels)
    return RootVectorTable(real, diags, zstep)


@lru_cache(maxsize=None)
def u_matrices(algebra, m_max):
    """Per-level couplings of the imaginary block and their signs
    `_level_signs`, as (levels, signs), memoised and read-only: levels maps
    m to (kappa_m, A_m), A_m the adjugate of the coupling matrix T_m
    (integer denominators) and kappa_m = -1/((q - q^-1) det T_m)."""
    fin = finite_cartan(algebra)
    r = fin.rank
    out = {}
    for m in range(1, m_max + 1):
        t = [[qint(m * fin.matrix[i][j]).scale(
            Fraction(1 if i == j or m % 2 == 0 else -1, m))
              for j in range(r)] for i in range(r)]
        if r == 1:
            det, adj = t[0][0], ((ONE,),)
        else:
            det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
            adj = ((t[1][1], -t[0][1]), (-t[1][0], t[0][0]))
        out[m] = (-(C_FACTOR * det).inverse(), adj)
    return MappingProxyType(out), _level_signs(out)


def _level_signs(levels):
    """Check (b): the signs sigma_ij = +-1 with kappa_m A_m[i][j] / m ==
    sigma_ij^(m + 1) (kappa_1 A_1[i][j])(t^m) at every level of `levels`,
    each read at m = 2 (0, any sign, with level 1 alone), or None."""
    kappa, adj = levels[1]
    signs = [[0] * len(adj) for _ in adj]
    for m, (i, row) in product(range(2, len(levels) + 1), enumerate(signs)):
        for j, a in enumerate(levels[m][1][i]):
            got = (levels[m][0] * a).scale(Fraction(1, m * m))
            want = _at_power(kappa * adj[i][j], m)
            row[j] = row[j] or (1 if got == want else -1)
            if got != want.scale(row[j] ** (m + 1)):
                return None
    return tuple(map(tuple, signs))


def _times_real_factor(acc, e, f, order):
    """acc exp_{q^-2}(X) = acc (1 + X) for X = (q - q^-1) e x f.

    `acc` maps (row, column) to a series, each column a pair (x, y) of leg
    states.  X is a partial map like e and f, so acc X relabels the columns
    of acc: column (x, y) moves to (x', y') for the entries (x, x') of e
    and (y, y') of f, with one weight per held column.  Every higher term
    of the q-exponential vanishes exactly when X^2 does at every held
    column, that is when e e has no entry at x or f f none at y, as on a
    fundamental leg, where a real root vector squares to zero.
    """
    k = e.zexp + f.zexp
    moves, out = {}, dict(acc)
    for (r, c), v in acc.items():
        if c not in moves:
            he = e[c[0]]
            hf = he and f[c[1]]
            if hf and e[he[0]] and f[hf[0]]:
                raise EngineError("X^2 does not vanish at column %s, so the "
                                  "real factor is not 1 + X" % (c,))
            moves[c] = hf and ((he[0], hf[0]), ZetaSeries(
                {k: C_FACTOR * he[1] * hf[1]}, order))
        if moves[c]:
            rc, p = (r, moves[c][0]), v * moves[c][1]
            p = out.pop(rc) + p if rc in out else p
            if p:
                out[rc] = p
    return out


def _weigh_columns(acc, weights):
    """acc times the diagonal factor of the column weights."""
    return {rc: p for rc, v in acc.items() for p in [v * weights[rc[1]]]
            if p}


def _imaginary_factor(left_table, right_table, params, order, cols, ground):
    """Returns (a_00, weights) for m_max >= 1: a_00 is the argument of the
    exponential at the column `ground`, multiplied in once at the very end
    unless the caller takes it apart, and the weights map each column of
    `cols` to that of the diagonal factor.

    At (x, y) the level-m coefficient of the argument, at zeta^(m s), is
    kappa_m P_m(x, y), P_m = sum_ij A_m[i][j] L_im(x) L'_jm(y) (`u_matrices`)
    over the leg logarithms (`RootVectorTable.leg`).  Where check (a) gives
    L_im = eps_i^(m - 1) L_i1(t^m) / m (`_node_log`), (b) sigma_ij
    (`_level_signs`) and (c) sigma_ij eps_i eps'_j = 1 wherever eps_i eps'_j
    != 0, each term of m kappa_m P_m is sigma_ij^(m + 1) (eps_i eps'_j)^(m -
    1) (kappa_1 A_1[i][j] L_i1 L'_j1)(t^m), so m kappa_m P_m = (kappa_1
    P_1)(t^m): a_00 is level 1 under t -> t^m, and a pair of legs that
    passes, as the ground does, has m a_m = a_1(t^m) for a_1 = kappa_1
    (P_1(x, y) - P_1(ground)), its one product with a polynomial
    denominator.  If a_1 = sum_j n_j t^k_j with integers n_j, the weight is
    prod_j (1 - t^k_j zeta^s)^(-n_j) (`_product_weight`).  Any other pair
    takes P_m at every level and `series_exp`.
    """
    levels, signs = u_matrices(params.algebra, params.m_max)
    zexps = [m * (left_table.zstep + right_table.zstep) for m in levels]
    lefts, rights = left_table.legs, right_table.legs

    def form(m, e, f):
        # P_m at the legs (e, f)
        adj, lm, rm = levels[m][1], lefts[e][0][m - 1], rights[f][0][m - 1]
        return sum((adj[i][j] * a * b for (i, a), (j, b) in product(
            enumerate(lm), enumerate(rm)) if a and b), ZERO)

    def exponent(e, f, b1):
        # kappa_1 P_1 = b1, known, and kappa_m P_m at the levels above
        return ZetaSeries({z: levels[m][0] * form(m, e, f) if m > 1 else b1
                           for m, z in zip(levels, zexps)}, order)

    def fast(e, f):
        # check (c), and no node off the power sums (eps None)
        return signs is not None and None not in lefts[e][1] + rights[f][1] \
            and all(s * a * b >= 0 for row, a in zip(signs, lefts[e][1])
                    for s, b in zip(row, rights[f][1]))

    g0 = left_table.leg(ground[0]), right_table.leg(ground[1])
    kappa, p1, fast0 = levels[1][0], form(1, *g0), fast(*g0)
    b0 = kappa * p1
    a00 = ZetaSeries({z: _at_power(b0, m) for m, z in zip(levels, zexps)},
                     order) if fast0 else exponent(*g0, b0)
    cache, out = {}, {}
    for x, y in cols:
        key = (left_table.leg(x), right_table.leg(y))
        if key not in cache:
            a1 = kappa * (form(1, *key) - p1)
            cache[key] = (_product_weight(a1, zexps, order)
                          if a1.den is _ONE_POLY and fast0 and fast(*key)
                          else series_exp(exponent(*key, b0 + a1) - a00))
        out[(x, y)] = cache[key]
    return a00, out


def _product_weight(a1, zexps, order):
    """prod_j (1 - t^k_j zeta^(z_1))^(-n_j) for a_1 = sum_j n_j t^k_j at
    `zexps`: binomial series, whose cost does not grow with |n_j|."""
    hs = [{0: 1}] + [{}] * len(zexps)
    for k, n in a1.num.items():
        # (1 - t^k zeta^(z_1))^(-n) has h_a = binom(n + a - 1, a) t^(a k)
        cs = list(accumulate(range(1, len(hs)),
                             lambda b, a: b * (n + a - 1) // a, initial=1))
        hs = [reduce(_p_add, (_p_conv({a * k: c}, hs[i - a]) for a, c in
                              enumerate(cs[:i + 1]) if c), {})
              for i in range(len(hs))]
    return ZetaSeries({z: QScalar(h, _canonical=True)
                       for z, h in zip([0] + zexps, hs) if h}, order, 0)


def _k_factor(left_image, right_image, params, order, cols):
    """Weights of the Cartan factor q^(sum_ij B^-1_ij h_i x h_j) on the
    columns `cols`, as for `_imaginary_factor`.  6 B^-1 is an integer
    matrix and q = t^6, so each weight is an integer power of t."""
    fin = finite_cartan(params.algebra)
    r = fin.rank
    b6 = [[int(6 * b) for b in row] for row in fin.finite_inverse]
    return {(x, y): ZetaSeries.const(t_power(sum(
        b6[i][j] * left_image.h_at(i + 1, x) * right_image.h_at(j + 1, y)
        for i in range(r) for j in range(r))), order) for x, y in cols}


@lru_cache(maxsize=None)
def check_normalization_constants(algebra, s, s1, s2, m_max):
    """In the faithful evaluation leg, [e_gamma, f_gamma] must equal the
    standard Cartan combination with unit constant for every real root.
    Memoised: a failure raises, and is not stored."""
    img = phi_zeta(algebra, s, s1, s2)
    etab = build_root_vectors(img, "e", m_max)
    ftab = build_root_vectors(img, "f", m_max)
    aff = extend_cartan(finite_cartan(algebra))
    for root in positive_roots(aff, m_max):
        if root.kind == "imaginary":
            continue
        e, f = etab.real_op(root), ftab.real_op(root)
        if e is None or f is None:
            continue
        ks = root.simple_coefficients()
        rule = _bracket(e, f, 0)
        for x in range(img.dim):
            v = sum(k * img.h_diags[i][x] for i, k in enumerate(ks))
            want = (x, qint(v)) if v else None
            if rule(x) != want or e.zexp + f.zexp != 0:
                raise EngineError("normalization constant differs from 1 "
                                  "at root %r" % (root,))
    return True


def assemble(params, split_prefactor=False):
    """Full ordered product as an OpMatrix over ZetaSeries.

    The flattening puts the left leg slowest.  With `split_prefactor` the
    scalar exponential exp(a_00) common to all entries is returned
    separately, as its argument: the result is (a_00, matrix), and the full
    product is series_exp(a_00) * matrix entrywise.
    """
    check_normalization_constants(params.algebra, params.s, params.s1,
                                  params.s2, params.m_max)
    left = _leg_images(params, "left")
    right = _leg_images(params, "right")
    order = params.order
    etab = build_root_vectors(left, "e", params.m_max)
    ftab = build_root_vectors(right, "f", params.m_max)
    aff = extend_cartan(finite_cartan(params.algebra))
    roots = positive_roots(aff, params.m_max)
    lm = _reported(left, params.left, params)
    rm = _reported(right, params.right, params)
    # start from the reported rows only, E_R (M_1 ... M_k) =
    # (E_R M_1) M_2 ... M_k, so that every product skips the other rows;
    # a row is its flat index in the output, a column its pair of states
    one = ZetaSeries.one(order)
    acc = {(r, c): one for r, c in enumerate(product(lm, rm))}
    a00 = ZetaSeries.zero(order)
    for root in roots:
        if root.kind == "imaginary":
            # the whole imaginary block at its first root; without imaginary
            # roots (m_max = 0) the factor is the identity
            if root.delta_mult == 1:
                a00, factor = _imaginary_factor(
                    etab, ftab, params, order, {c for _, c in acc},
                    (lm[0], rm[0]))
                acc = _weigh_columns(acc, factor)
            continue
        e, f = etab.real_op(root), ftab.real_op(root)
        if e is None or f is None or e.zexp + f.zexp > order:
            continue
        acc = _times_real_factor(acc, e, f, order)
    acc = _weigh_columns(acc, _k_factor(left, right, params, order,
                                        {c for _, c in acc}))
    # the columns cut to the reported states, flattened left leg slowest
    li, ri = ({x: i for i, x in enumerate(m)} for m in (lm, rm))
    acc = OpMatrix(len(li) * len(ri), {
        (r, li[x] * len(ri) + ri[y]): v for (r, (x, y)), v in acc.items()
        if x in li and y in ri}, one, _clean=True)
    if split_prefactor:
        return a00, acc
    if a00:
        prefactor = series_exp(a00)
        acc = acc.map_values(lambda s: s * prefactor)
    return acc


def _reported(image, kind, params):
    """The reported states of one leg, in flat order: every state of a phi
    leg, the occupation tuples below `fock_dim` of an oscillator leg."""
    if kind == "phi":
        return range(image.dim)
    return list(product(range(params.fock_dim), repeat=image.copies))
