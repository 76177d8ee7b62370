"""Dense-semantics square matrices over exact scalars, stored sparsely.

OpMatrix works for any scalar kind with ring operators (QScalar,
ZetaSeries, ZetaRational, the two-variable Laurent polynomials of the
identity checks); a matrix carries a sample `one` of its scalar kind so
identities and zeros can be built without a class registry.  On top of that live matrix units, Kronecker products,
symmetric-group operators, leg embeddings, and Grid: a square matrix whose
entries are themselves matrices (operator-valued), with the generalized
Kronecker product used by exchange relations.
"""

import itertools

__all__ = [
    "OpMatrix", "kron", "perm_operator", "hat_and_check", "embed_legs",
    "fock_window", "Grid", "grid_akp", "window_product",
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

    def is_diagonal(self):
        return all(i == j for i, j in self.entries)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        self._compat(other)
        out = dict(self.entries)
        for ij, v in other.entries.items():
            if ij in out:
                s = out[ij] + v
                if s:
                    out[ij] = s
                else:
                    del out[ij]
            else:
                out[ij] = v
        return OpMatrix(self.dim, out, self.one, _clean=True)

    def __sub__(self, other):
        return self.__add__(other.__neg__())

    def __neg__(self):
        return OpMatrix(self.dim, {ij: -v for ij, v in self.entries.items()},
                        self.one, _clean=True)

    def __mul__(self, other):
        if not isinstance(other, OpMatrix):
            return NotImplemented
        self._compat(other)
        rows = _by_row(other.entries)
        out = {}
        for (i, k), u in self.entries.items():
            row = rows.get(k)
            if row is None:
                continue
            for j, v in row:
                p = u * v
                ij = (i, j)
                if ij in out:
                    s = out[ij] + p
                    if s:
                        out[ij] = s
                    else:
                        del out[ij]
                elif p:
                    out[ij] = p
        return OpMatrix(self.dim, out, self.one, _clean=True)

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

    def restrict(self, keep):
        """Submatrix on indices where keep(i) holds, as exact filter."""
        return OpMatrix(self.dim,
                        {(i, j): v for (i, j), v in self.entries.items()
                         if keep(i) and keep(j)},
                        self.one, _clean=True)

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


def _by_row(entries):
    """{k: [(j, v), ...]} for the entries {(k, j): v} of a matrix."""
    rows = {}
    for (k, j), v in entries.items():
        rows.setdefault(k, []).append((j, v))
    return rows


def _check_weights(dim, *weights):
    if any(w is not None and len(w) != dim for w in weights):
        raise ValueError("a weight list's length is not the dimension %d"
                         % dim)


def kron(a, b):
    """Kronecker product; the first factor is the slow (outer) leg."""
    if type(a.one) is not type(b.one):
        raise TypeError("mixed scalar kinds in kron")
    db = b.dim
    out = {}
    for (i, j), u in a.entries.items():
        for (k, l), v in b.entries.items():
            p = u * v
            if p:
                out[(i * db + k, j * db + l)] = p
    return OpMatrix(a.dim * db, out, a.one, _clean=True)


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


def fock_window(d, copies, margin):
    """The one Fock-window predicate: on flat indices over `copies` Fock
    factors of d states each, true where every occupation number is at
    most d - 1 - margin.

    Truncated ladder matrices are compressions P A P of the infinite ones,
    so a product of them differs from the compression of the product only
    through paths that step above the top state d - 1.  A product whose
    paths climb at most `margin` levels above their ends is therefore
    exact on the window.
    """
    top = d - 1 - margin

    def keep(i):
        for _ in range(copies):
            i, n = divmod(i, d)
            if n > top:
                return False
        return True
    return keep


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

    def entry(self, a, b):
        m = self.entries.get((a, b))
        if m is None:
            return OpMatrix.zero(self.op_dim, self.one)
        return m

    def __mul__(self, other):
        """Matrix product over the grid index, operator product inside."""
        if not isinstance(other, Grid):
            return NotImplemented
        rows = _by_row(other.entries)
        out = {}
        for (a, k), u in self.entries.items():
            row = rows.get(k)
            if row is None:
                continue
            for b, v in row:
                p = u * v
                ab = (a, b)
                if ab in out:
                    s = out[ab] + p
                    if s:
                        out[ab] = s
                    else:
                        del out[ab]
                elif p:
                    out[ab] = p
        return Grid(self.n, out, self.op_dim, self.one, _clean=True)

    def lmul_scalar_matrix(self, s):
        """(s . G) for an n x n matrix s of plain scalars."""
        rows = _by_row(self.entries)
        return self._summed(((a, b), m, c) for (a, k), c in s.entries.items()
                            for b, m in rows.get(k, ()))

    def rmul_scalar_matrix(self, s):
        rows = _by_row(s.entries)
        return self._summed(((a, b), m, c) for (a, k), m in
                            self.entries.items() for b, c in rows.get(k, ()))

    def _summed(self, terms):
        """The grid of the sums of m * c over the terms (ab, m, c), each
        summed entry by entry in one dict, without zeros or empty operators."""
        sums = {}
        for ab, m, c in terms:
            acc = sums.setdefault(ab, {})
            for ij, v in m.entries.items():
                p = v * c
                acc[ij] = acc[ij] + p if ij in acc else p
        ops = {ab: OpMatrix(self.op_dim, acc, self.one)
               for ab, acc in sums.items()}
        return Grid(self.n, ops, self.op_dim, self.one)

    def scaled(self, rows=None, cols=None):
        """OpMatrix.scaled on the matrix index: operator (a, b) is scaled
        by rows[a] * cols[b]."""
        _check_weights(self.n, rows, cols)
        ones = [self.one] * self.n
        rows, cols = rows or ones, cols or ones
        return Grid(self.n, {(a, b): m.scale(rows[a] * cols[b])
                             for (a, b), m in self.entries.items()},
                    self.op_dim, self.one)

    def map_ops(self, fn):
        out = {ab: fn(m) for ab, m in self.entries.items()}
        return Grid(self.n, {ab: m for ab, m in out.items() if m},
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

    def restrict(self, keep):
        return self.map_ops(lambda m: m.restrict(keep))

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __bool__(self):
        return bool(self.entries)

    def first_difference(self, other):
        keys = set(self.entries) | set(other.entries)
        zero = OpMatrix.zero(self.op_dim, self.one)
        for ab in sorted(keys):
            ma = self.entries.get(ab, zero)
            mb = other.entries.get(ab, zero)
            if ma != mb:
                return ab, ma.first_difference(mb)
        return None

    def __repr__(self):
        return "Grid(n=%d, op_dim=%d, nnz=%d)" % (self.n, self.op_dim,
                                                  len(self.entries))


def grid_akp(g1, g2):
    """Generalized Kronecker product (M x N)_{ai,bj} = M_ab N_ij for
    matrices with entries in one common algebra; entry order matters."""
    n1, n2 = g1.n, g2.n
    out = {}
    for (a, b), m in g1.entries.items():
        for (i, j), nmat in g2.entries.items():
            p = m * nmat
            if p:
                out[(a * n2 + i, b * n2 + j)] = p
    return Grid(n1 * n2, out, g1.op_dim, g1.one, _clean=True)


def window_product(mul, a, b, keep):
    """mul(a, b).restrict(keep), computed on the window alone.

    Entry (i, j) of an operator product x * y needs only row i of x and
    column j of y, so `mul` runs on the kept rows of the operators of `a`
    and the kept columns of those of `b`.  `a` and `b` are both OpMatrix
    or both Grid, and `mul` is a product built from operator products and
    sums of them: OpMatrix or Grid `*`, or grid_akp.
    """
    return mul(_window(a, keep, 0), _window(b, keep, 1))


def _window(x, keep, axis):
    """x with every operator cut to its kept rows (axis 0) or columns."""
    if isinstance(x, Grid):
        return x.map_ops(lambda m: _window(m, keep, axis))
    return OpMatrix(x.dim, {ij: v for ij, v in x.entries.items()
                            if keep(ij[axis])}, x.one, _clean=True)
