"""Dense-semantics square matrices over exact scalars, stored sparsely.

OpMatrix works for any scalar kind with ring operators (QScalar,
ZetaSeries, ZetaRational, the q-oscillator ring elements of the L-operators
and the flat two-variable oscillator ring of the identity checks); a matrix
carries a sample `one` of its scalar kind so identities and zeros can be
built without a class registry.  On top of that live matrix units,
Kronecker products, symmetric-group operators, leg embeddings, the
elements of the q-oscillator ring (OscElement), and Grid: a square matrix
of Fock-operator matrices, the form `reference.render` gives an L-operator
on finitely many states, with the generalized Kronecker product.
"""

import itertools
from operator import add, mul

from .scalars import _p_add, _p_neg

__all__ = [
    "OpMatrix", "kron", "perm_operator", "hat_and_check", "embed_legs",
    "OscElement", "Grid", "grid_akp",
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


def hat_and_check(r):
    """(R*P, P*R) for R acting on V x V; rejects non-square tensor shape."""
    n2 = r.dim
    n = int(round(n2 ** 0.5))
    if n * n != n2:
        raise ValueError("matrix of dimension %d is not of two-leg shape" % n2)
    p = perm_operator((1, 0), [n, n], r.one)
    return r * p, p * r


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


class OscElement:
    """An element sum c S_delta x^kappa of the q-oscillator ring on a fixed
    number of Fock copies, as {(delta, kappa): c} with no zero c stored.
    x^kappa = q^(kappa . D) acts first and S_delta sends state n to
    n + delta, so a = S_-1 (1 - x^2) and a-dagger = S_+1 on each copy, and
    (S_d x^k)(S_e x^l) = q^(k . e) S_(d + e) x^(k + l).

    An element built from a, a-dagger and x^(+-1) is zero on every state of
    the untruncated Fock space exactly when it is zero here: the Laurent
    polynomial in x that it carries with each S_delta is zero at finitely
    many x = q^n unless it is zero.  So an identity checked on these
    elements needs no Fock dimension and no window.

    The coefficients are exact scalars of any kind with ring operators,
    one-variable rationals in `LTable.ring`; `qpow(m)` is q^m among them."""

    __slots__ = ("terms", "qpow")

    def __init__(self, terms, qpow):
        self.terms = terms
        self.qpow = qpow

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return OscElement(_p_add(self.terms, other.terms), self.qpow)

    def __neg__(self):
        return OscElement(_p_neg(self.terms), self.qpow)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        qpow = self.qpow
        out = {}
        for (d1, k1), c1 in self.terms.items():
            for (d2, k2), c2 in other.terms.items():
                c = c1 * c2
                m = sum(map(mul, k1, d2))
                if m:
                    c = c * qpow(m)
                key = (tuple(map(add, d1, d2)), tuple(map(add, k1, k2)))
                if key in out:
                    c = out[key] + c
                    if not c:
                        del out[key]
                        continue
                out[key] = c
        return OscElement(out, qpow)

    def map(self, fn):
        """fn applied to every coefficient, zeros dropped."""
        out = {}
        for key, c in self.terms.items():
            c = fn(c)
            if c:
                out[key] = c
        return OscElement(out, self.qpow)

    def __eq__(self, other):
        return isinstance(other, OscElement) and self.terms == other.terms


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
