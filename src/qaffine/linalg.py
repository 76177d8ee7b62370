"""Dense-semantics square matrices over exact scalars, stored sparsely.

OpMatrix works for any scalar kind with ring operators (QScalar,
ZetaSeries, ZetaRational and the q-oscillator ring); a matrix carries a
sample `one` of its scalar kind so identities and zeros can be built
without a class registry.  On top of that live matrix units, Kronecker
products, symmetric-group operators, leg embeddings, the one q-oscillator
ring (OscPoly: integer terms c S_delta x^kappa u^i v^j t^k under packed
keys, in which every closed form and every identity check multiplies), and
Grid: a square matrix of Fock-operator matrices, the form
`reference.render` gives an L-operator on finitely many states, with the
generalized Kronecker product.
"""

import functools
import itertools

from .scalars import QScalar, _p_add, _p_neg

__all__ = [
    "OpMatrix", "kron", "perm_operator", "hat_or_check", "embed_legs",
    "OscPoly", "Grid", "grid_akp",
]


class OpMatrix:
    """Square matrix; absent entries are exact zeros."""

    __slots__ = ("dim", "entries", "one")

    def __init__(self, dim, entries, one, _clean=False):
        self.dim = dim
        self.one = one
        if _clean:
            self.entries = entries
        else:
            self.entries = {ij: v for ij, v in entries.items() if v}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(dim, one):
        return OpMatrix(dim, {}, one, _clean=True)

    @staticmethod
    def identity(dim, one):
        return OpMatrix(dim, {(i, i): one for i in range(dim)}, one, _clean=True)

    @staticmethod
    def unit(dim, a, b, one):
        """Matrix unit E_ab (1-based indices)."""
        if not (1 <= a <= dim and 1 <= b <= dim):
            raise ValueError("matrix unit index out of range")
        return OpMatrix(dim, {(a - 1, b - 1): one}, one, _clean=True)

    # -- access ------------------------------------------------------------

    def entry(self, i, j):
        v = self.entries.get((i, j))
        if v is None:
            return self.one - self.one
        return v

    def __bool__(self):
        return bool(self.entries)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        self._compat(other)
        return OpMatrix(self.dim, _p_add(self.entries, other.entries),
                        self.one, _clean=True)

    def __sub__(self, other):
        return self.__add__(other.__neg__())

    def __neg__(self):
        return OpMatrix(self.dim, _p_neg(self.entries), self.one, _clean=True)

    def __mul__(self, other):
        if not isinstance(other, OpMatrix):
            return NotImplemented
        self._compat(other)
        return OpMatrix(self.dim, _product(self.entries, other.entries),
                        self.one, _clean=True)

    def scale(self, c):
        if not c:
            return OpMatrix.zero(self.dim, self.one)
        if c == self.one:
            return self
        return OpMatrix(self.dim, {ij: v * c for ij, v in self.entries.items()},
                        self.one)

    def scaled(self, rows=None, cols=None):
        """diag(rows) * self * diag(cols) entrywise: entry (i, j) becomes
        rows[i] * v * cols[j], with None for all ones.  Every diagonal
        factor and diagonal conjugation is applied this way."""
        _check_weights(self.dim, rows, cols)
        out = {}
        for (i, j), v in self.entries.items():
            if rows is not None:
                v = rows[i] * v
            if cols is not None:
                v = v * cols[j]
            if v:
                out[(i, j)] = v
        return OpMatrix(self.dim, out, self.one, _clean=True)

    def map_values(self, fn, one=None):
        return OpMatrix(self.dim, {ij: fn(v) for ij, v in self.entries.items()},
                        one if one is not None else self.one)

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, OpMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    def first_difference(self, other):
        """(i, j) of some differing entry, or None."""
        keys = set(self.entries) | set(other.entries)
        for ij in sorted(keys):
            if self.entries.get(ij) != other.entries.get(ij):
                return ij
        return None

    def _compat(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, other.dim))
        if type(self.one) is not type(other.one):
            raise TypeError("mixed scalar kinds: %s vs %s"
                            % (type(self.one).__name__, type(other.one).__name__))

    def __repr__(self):
        return "OpMatrix(dim=%d, nnz=%d)" % (self.dim, len(self.entries))


def _product(x, y):
    """The entries {(i, j): v} of the matrix product of two matrices given
    by their entries, of any kind with ring operators; no zero is kept.
    Both OpMatrix and Grid multiply here."""
    rows = {}
    for (k, j), v in y.items():
        rows.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), u in x.items():
        for j, v in rows.get(k, ()):
            p = u * v
            ij = (i, j)
            if ij in out:
                p = out[ij] + p
                if not p:
                    del out[ij]
                    continue
            elif not p:
                continue
            out[ij] = p
    return out


def _kron(x, y, n):
    """The entries {(a n + i, b n + j): u v} of the Kronecker product of the
    entries {(a, b): u} and {(i, j): v}, the second of dimension n; both
    kron and grid_akp expand here."""
    out = {}
    for (a, b), u in x.items():
        for (i, j), v in y.items():
            p = u * v
            if p:
                out[(a * n + i, b * n + j)] = p
    return out


def _check_weights(dim, *weights):
    if any(w is not None and len(w) != dim for w in weights):
        raise ValueError("a weight list's length is not the dimension %d"
                         % dim)


def kron(a, b):
    """Kronecker product; the first factor is the slow (outer) leg."""
    if type(a.one) is not type(b.one):
        raise TypeError("mixed scalar kinds in kron")
    return OpMatrix(a.dim * b.dim, _kron(a.entries, b.entries, b.dim), a.one,
                    _clean=True)


def _perm_index(perm, idx, dims):
    # output slot k carries input slot perm^-1(k)
    n = len(perm)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(idx[inv[k]] for k in range(n))


def perm_operator(perm, leg_dims, one):
    """Matrix of the leg-permutation operator for identical legs.

    `perm` maps slot index -> slot index (0-based tuple/list); the operator
    sends e_{j_1} x ... x e_{j_n} to the tensor with the j's redistributed
    so that output slot s(k) carries input slot k.
    """
    n = len(leg_dims)
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of range(%d)" % n)
    if len(set(leg_dims)) != 1:
        raise ValueError("permutation operator needs equal leg dimensions")
    d = leg_dims[0]
    total = d ** n
    out = {}
    for idx in itertools.product(range(d), repeat=n):
        tgt = _perm_index(perm, idx, leg_dims)
        row = _flat(tgt, leg_dims)
        col = _flat(idx, leg_dims)
        out[(row, col)] = one
    return OpMatrix(total, out, one, _clean=True)


def _flat(idx, dims):
    out = 0
    for i, d in zip(idx, dims):
        out = out * d + i
    return out


def hat_or_check(r, kind):
    """R*P for kind "hat", P*R for kind "check", R acting on V x V; rejects
    non-square tensor shape."""
    n2 = r.dim
    n = int(round(n2 ** 0.5))
    if n * n != n2:
        raise ValueError("matrix of dimension %d is not of two-leg shape" % n2)
    p = perm_operator((1, 0), [n, n], r.one)
    return r * p if kind == "hat" else p * r


def embed_legs(m, legs, total_legs, leg_dim):
    """Place a k-leg operator on the given legs of a total_legs product.

    Index convention matches kron: leg 0 is slowest.  Entries of the result
    act as m on the selected legs and as identity elsewhere.
    """
    k = len(legs)
    if len(set(legs)) != k or any(not 0 <= l < total_legs for l in legs):
        raise ValueError("target legs must be distinct and in range")
    if m.dim != leg_dim ** k:
        raise ValueError("payload dimension does not match selected legs")
    others = [l for l in range(total_legs) if l not in legs]
    out = {}
    one = m.one
    dims = [leg_dim] * total_legs
    for (mi, mj), v in m.entries.items():
        mi_idx = _unflat(mi, [leg_dim] * k)
        mj_idx = _unflat(mj, [leg_dim] * k)
        for rest in itertools.product(range(leg_dim), repeat=len(others)):
            row_idx = [0] * total_legs
            col_idx = [0] * total_legs
            for pos, l in enumerate(legs):
                row_idx[l] = mi_idx[pos]
                col_idx[l] = mj_idx[pos]
            for pos, l in enumerate(others):
                row_idx[l] = rest[pos]
                col_idx[l] = rest[pos]
            out[(_flat(row_idx, dims), _flat(col_idx, dims))] = v
    return OpMatrix(leg_dim ** total_legs, out, one, _clean=True)


def _unflat(i, dims):
    out = []
    for d in reversed(dims):
        out.append(i % d)
        i //= d
    return tuple(reversed(out))


# -- the q-oscillator ring --------------------------------------------------

# A term c S_delta x^kappa u^i v^j t^k is keyed by H B^3 + (i B + j) B + k,
# H = ((delta_1 E + delta_2) E + kappa_1) E + kappa_2 = (key + _LOW_HALF) >>
# _LOW_BITS, 0 on an absent second copy.  A product of monomials adds the
# keys and 6 kappa_a . delta_b (its q-power) in t: exact while each field
# is in [-B/2, B/2) and each digit of H in [-E/2, E/2).  Every operand of a
# product is checked as it is decoded (`_sector`): digits below 2^6 and
# exponents below 2^19 in size.  The product of two checked operands then
# has digits below 2^7 and exponents below 2^20 + 2^16 (a q-shift is below
# 6 * 2 * 63^2 < 2^16), so it cannot carry, however long a chain of
# products; one that leaves the bounds is refused as an operand.  `_pack`
# takes exponents below 2^16 and `_place` digits below 2^6.
_KEY_BASE, _EXPONENT_BOUND = 1 << 22, 1 << 16
_DIGIT_BASE, _DIGIT_BOUND = 1 << 8, 1 << 6
_LOW_BITS, _LOW_HALF = 66, (_KEY_BASE >> 1) * (_KEY_BASE ** 2 + _KEY_BASE + 1)
# with each field f raised by B/2 + 2^19, H and the top two bits of each
# field: they read 0b10 exactly when f is in [-2^19, 2^19), so every key
# of one sector inside the bounds masks to one value
_SECTOR_BIAS = _LOW_HALF + (1 << 19) * (_KEY_BASE ** 2 + _KEY_BASE + 1)
_SECTOR_MASK = -(1 << _LOW_BITS) | (3 << 64) | (3 << 42) | (3 << 20)


def _pack(i, j, k):
    if max(abs(i), abs(j), abs(k)) >= _EXPONENT_BOUND:
        raise ValueError("exponent out of range: a two-variable identity "
                         "takes exponents below 2^16 in size")
    return (i * _KEY_BASE + j) * _KEY_BASE + k


def _low(key):
    """The (i, j, k) part of a key, as `_pack` gives it."""
    return (key + _LOW_HALF) % (1 << _LOW_BITS) - _LOW_HALF


def _unpack(key):
    """(i, j, k) of a key: its three signed base-B digits."""
    half = _KEY_BASE // 2
    ij, k = divmod(_low(key) + half, _KEY_BASE)
    i, j = divmod(ij + half, _KEY_BASE)
    return i, j - half, k - half


def _place(delta, kappa):
    """What the key of a term at S_delta x^kappa adds to its (i, j, k)."""
    pad = (0,) * (2 - len(delta))
    high = 0
    for x in (*delta, *pad, *kappa, *pad):
        if abs(x) >= _DIGIT_BOUND:
            raise ValueError("oscillator exponent out of range: the ring "
                             "takes digits below 2^6")
        high = high * _DIGIT_BASE + x
    return high << _LOW_BITS


@functools.lru_cache(maxsize=None)
def _sector(masked):
    """((delta_1, delta_2), (kappa_1, kappa_2)) of a key plus _SECTOR_BIAS
    under _SECTOR_MASK: the bytes of H + E/2.  ValueError unless every
    digit is below 2^6 and every exponent below 2^19 in size."""
    digits = [x - 128 for x in ((masked >> _LOW_BITS) + 0x80808080).to_bytes(
        4, "big")]
    if (max(map(abs, digits)) >= _DIGIT_BOUND
            or any((masked >> b) & 3 != 2 for b in (64, 42, 20))):
        raise ValueError("a product left the packing: a factor of the "
                         "oscillator ring takes digits below 2^6 and "
                         "exponents below 2^19")
    d1, d2, k1, k2 = digits
    return (d1, d2), (k1, k2)


class OscPoly:
    """sum c S_delta x^kappa u^i v^j t^k in the q-oscillator ring over
    Z[t^(+-1)][u^(+-1), v^(+-1)] on one or two Fock copies, as {packed key:
    c} with no zero c.  x^kappa = q^(kappa . D) acts first and S_delta
    sends state n to n + delta, so a = S_-1 (1 - x^2) and a-dagger = S_+1
    on each copy, and (S_d x^k)(S_e x^l) = q^(k . e) S_(d + e) x^(k + l).
    At delta = kappa = 0 the elements are central, Laurent polynomials in
    u, v, and print as one.  A closed form in one spectral variable zeta
    keeps it in u.

    An element built from a, a-dagger and x^(+-1) is zero on every state of
    the untruncated Fock space exactly when it is zero here: the Laurent
    polynomial in x that it carries with each S_delta is zero at finitely
    many x = q^n unless it is zero.  So an identity checked on these
    elements needs no Fock dimension and no window."""

    __slots__ = ("terms", "_parts")

    def __init__(self, terms):
        self.terms = terms
        self._parts = None

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return OscPoly(_p_add(self.terms, other.terms))

    # OpMatrix.entry reads an absent entry as one - one (failure reports)
    def __neg__(self):
        return OscPoly(_p_neg(self.terms))

    def __sub__(self, other):
        return self + -other

    def _decoded(self):
        """[(key, c, delta, kappa)], decoded once per element."""
        if self._parts is None:
            self._parts = [(key, c, *_sector((key + _SECTOR_BIAS)
                                             & _SECTOR_MASK))
                           for key, c in self.terms.items()]
        return self._parts

    # `_p_mul`'s Kronecker substitution would build integers as wide as the
    # packed keys' span
    def __mul__(self, other):
        out, right = {}, other._decoded()
        for ka, ca, _, (x1, x2) in self._decoded():
            for kb, cb, (d1, d2), _ in right:
                key = ka + kb + 6 * (x1 * d1 + x2 * d2)
                c = ca * cb
                if key in out:
                    c = out[key] + c
                    if not c:
                        del out[key]
                        continue
                out[key] = c
        return OscPoly(out)

    def spectral(self, a, b):
        """zeta -> u^a v^b, zeta the u of a one-variable element: each
        u^i v^j goes to u^(a i) v^(j + b i)."""
        out = {}
        for key, c in self.terms.items():
            i, j, k = _unpack(key)
            out[key - _low(key) + _pack(a * i, j + b * i, k)] = c
        return OscPoly(out)

    def __eq__(self, other):
        return isinstance(other, OscPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        # each coefficient of u^i v^j printed as the QScalar it is
        groups = {}
        for key, c in self.terms.items():
            i, j, k = _unpack(key)
            groups.setdefault((i, j), {})[k] = c
        return " + ".join("%s*u^%d*v^%d" % (QScalar(p, _canonical=True), i, j)
                          for (i, j), p in sorted(groups.items())) or "0"


OscPoly.ONE = OscPoly({0: 1})


class Grid:
    """Square matrix with algebra-valued entries (operators as OpMatrix).

    This is the natural shape of an L-operator: an n x n matrix over the
    auxiliary algebra realized by Fock-space matrices.
    """

    __slots__ = ("n", "entries", "op_dim", "one")

    def __init__(self, n, entries, op_dim, one, _clean=False):
        self.n = n
        self.op_dim = op_dim
        self.one = one
        if _clean:
            self.entries = entries
        else:
            self.entries = {ab: m for ab, m in entries.items() if m}

    def __mul__(self, other):
        """Matrix product over the grid index, operator product inside."""
        if not isinstance(other, Grid):
            return NotImplemented
        return Grid(self.n, _product(self.entries, other.entries),
                    self.op_dim, self.one, _clean=True)

    def map_values(self, fn, one=None):
        one = one if one is not None else self.one
        return Grid(self.n,
                    {ab: m.map_values(fn, one) for ab, m in self.entries.items()},
                    self.op_dim, one)

    def flatten(self, op_leg_first):
        """Flatten to a single OpMatrix over dim (n * op_dim)."""
        d = self.op_dim
        n = self.n
        out = {}
        for (a, b), m in self.entries.items():
            for (i, j), v in m.entries.items():
                if op_leg_first:
                    out[(i * n + a, j * n + b)] = v
                else:
                    out[(a * d + i, b * d + j)] = v
        return OpMatrix(n * d, out, self.one, _clean=True)

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __repr__(self):
        return "Grid(n=%d, op_dim=%d, nnz=%d)" % (self.n, self.op_dim,
                                                  len(self.entries))


def grid_akp(g1, g2):
    """Generalized Kronecker product (M x N)_{ai,bj} = M_ab N_ij for
    matrices with entries in one common algebra; entry order matters."""
    return Grid(g1.n * g2.n, _kron(g1.entries, g2.entries, g2.n), g1.op_dim,
                g1.one, _clean=True)
