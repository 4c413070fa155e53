"""Exact sparse matrix arithmetic over fields and polynomial rings.

A matrix is a dict ``{row: {column: nonzero entry}}`` with no empty rows, so
zeros are never stored, multiplied or compared, and two matrices are equal
exactly when their dicts are.  Entries are field elements or multivariate
polynomials over a field.  The work runs on the field kernel's raw payloads:
:func:`product` boxes each nonzero sum once, the identity checks' test
:func:`products_equal` boxes nothing, and the three eliminations, :func:`rank`,
:func:`inverse` and :func:`congruence`, share one payload row operation and
box only their results (in characteristic 0 through ``field.element``, so an
integral rational comes back an ``int``).  A dict cannot carry its shape, so
the operations that need one (:func:`identity`, :func:`block_diag`,
:func:`kron`, :func:`dense`, :func:`fits`) take it explicitly.  :func:`kron` is
the one layout of a (x) b, placed into a matrix the caller passes.  Dense rows
-- lists or tuples, zeros included -- appear only at the boundary:
:func:`sparse` reads them, :func:`dense` and :func:`dense_json` write them,
and :func:`rank` and :func:`inverse` accept them as rows.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from operator import add

from .fields import FieldElement
from .polynomials import MultiPolynomial, PolyRing


def zeros(ring, rows, cols):
    z = ring.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def shape(m):
    """The shape of dense rows."""
    return (len(m), len(m[0]) if m else 0)


def sparse(rows):
    """The matrix of dense (or ``{column: entry}``) rows."""
    rows = (
        dict(r) if isinstance(r, dict) else {j: x for j, x in enumerate(r) if not x.is_zero()}
        for r in rows
    )
    return {i: r for i, r in enumerate(rows) if r}


def dense(ring, mat, shape):
    """The dense form of a matrix: a tuple of row tuples, zeros included."""
    rows, cols = shape
    zero_row = (ring.zero(),) * cols
    out = [zero_row] * rows
    for i, entries in mat.items():
        row = list(zero_row)
        for j, x in entries.items():
            row[j] = x
        out[i] = tuple(row)
    return tuple(out)


def dense_json(ring, mat, shape):
    """The JSON rows of :func:`dense`: each entry's ``to_json()``, zeros included."""
    return [[x.to_json() for x in row] for row in dense(ring, mat, shape)]


def fits(mat, shape):
    """Whether every index of ``mat`` (a matrix with no empty rows) lies inside ``shape``."""
    rows, cols = shape
    return all(0 <= i < rows and min(row) >= 0 and max(row) < cols for i, row in mat.items())


def identity(ring, n):
    one = ring.one()
    return {i: {i: one} for i in range(n)}


def _accumulate(acc, kernel, poly, arow, b, raw, negate=False):
    """``acc`` += arow . b (-= with ``negate``) on payloads keyed by column, or by
    (column, exponent) over k[x]; ``raw`` keeps the rows of ``b`` read so far."""
    plus, times, neg = kernel.add, kernel.mul, kernel.neg
    for k, y in arow.items():
        r = raw.get(k)
        if r is None:  # a row that b lacks reads as no tuples
            r = raw[k] = (
                [(j, e, c.payload) for j, x in b.get(k, {}).items() for e, c in x.terms.items()]
                if poly
                else [(j, x.payload) for j, x in b.get(k, {}).items()]
            )
        if poly:
            for e1, c1 in y.terms.items():
                c1 = neg(c1.payload) if negate else c1.payload
                for j, e2, c2 in r:
                    key = (j, tuple(map(add, e1, e2)))
                    s = acc.get(key)
                    acc[key] = times(c1, c2) if s is None else plus(s, times(c1, c2))
        else:
            y = neg(y.payload) if negate else y.payload
            for j, x in r:
                s = acc.get(j)
                acc[j] = times(y, x) if s is None else plus(s, times(y, x))
    return acc


def product(ring, a, b):
    """a . b, zeros dropped: each row summed by :func:`_accumulate`, each nonzero sum boxed once."""
    poly = isinstance(ring, PolyRing)
    field = ring.field if poly else ring
    is_zero = field._kernel.is_zero
    raw, out = {}, {}
    for i, arow in a.items():
        acc = _accumulate({}, field._kernel, poly, arow, b, raw)
        if poly:
            by_col = defaultdict(dict)
            for (j, e), c in acc.items():
                if not is_zero(c):
                    by_col[j][e] = FieldElement(field, c)
            row = {j: MultiPolynomial(ring, t) for j, t in by_col.items()}
        else:
            row = {j: FieldElement(field, x) for j, x in acc.items() if not is_zero(x)}
        if row:
            out[i] = row
    return out


def products_equal(ring, a, b, c, d):
    """Whether a . b = c . d, boxing nothing: row by row, a . b - c . d is
    summed by :func:`_accumulate`, and the first nonzero payload decides."""
    poly = isinstance(ring, PolyRing)
    kernel = (ring.field if poly else ring)._kernel
    raw_b, raw_d = {}, {}
    for i in a.keys() | c.keys():
        acc = _accumulate({}, kernel, poly, a.get(i, {}), b, raw_b)
        _accumulate(acc, kernel, poly, c.get(i, {}), d, raw_d, negate=True)
        if not all(map(kernel.is_zero, acc.values())):
            return False
    return True


def transpose(a):
    out = defaultdict(dict)
    for i, row in a.items():
        for j, x in row.items():
            out[j][i] = x
    return dict(out)


def scaled(c, a):
    """c . a for a scalar c that is not a zero divisor."""
    return {i: {j: c * x for j, x in row.items()} for i, row in a.items()}


def block_diag(blocks):
    """The block-diagonal matrix of ``(matrix, (rows, cols))`` blocks."""
    out = {}
    r = c = 0
    for mat, (rows, cols) in blocks:
        kron(1, mat, (rows, cols), out, (r, c))
        r += rows
        c += cols
    return out


def kron(a, b, b_shape, out, corner):
    """a (x) b written into ``out`` with its top-left entry at ``corner``; returns ``out``.

    ``b_shape`` is the shape of ``b``.  An int factor n is the n x n identity,
    whose ones are placed, never multiplied.  Entries of ``out`` outside the
    block are left as they are.
    """
    r0, c0 = corner
    rb, cb = b_shape
    if isinstance(a, int):  # b repeated down the diagonal
        for p in range(a):
            r, c = r0 + p * rb, c0 + p * cb
            for k, brow in b.items():
                row = out.setdefault(r + k, {})
                for l, y in brow.items():
                    row[c + l] = y
    elif isinstance(b, int):  # each entry x of a spread over a diagonal of x's
        for i, arow in a.items():
            r = r0 + i * rb
            entries = [(c0 + j * cb, x) for j, x in arow.items()]
            for q in range(b):
                row = out.setdefault(r + q, {})
                for c, x in entries:
                    row[c + q] = x
    else:
        for i, arow in a.items():
            for k, brow in b.items():
                row = out.setdefault(r0 + i * rb + k, {})
                for j, x in arow.items():
                    for l, y in brow.items():
                        row[c0 + j * cb + l] = x * y
    return out


def _payloads(row):
    """A fresh ``{column: payload}`` dict of the nonzero entries of a dense or dict row."""
    if isinstance(row, dict):
        return {j: x.payload for j, x in row.items()}
    return {j: x.payload for j, x in enumerate(row) if not x.is_zero()}


def rank(field, a):
    """Rank over a field by sparse Gaussian elimination.

    Rows are dense lists or ``{column: entry}`` dicts of nonzero entries, read
    into fresh payload rows (the rows given are never changed) and reduced
    one at a time, sparsest first, by :func:`extend_pivots`.
    """
    kernel, pivots = field._kernel, {}
    for row in sorted(map(_payloads, a), key=len):
        extend_pivots(kernel, pivots, row)
    return len(pivots)


def extend_pivots(kernel, pivots, row):
    """Reduce the ``{column: payload}`` row in place against ``pivots``, rows
    with a leading 1 kept by leading column; a nonzero remainder becomes a
    new pivot, and the result says whether one did."""
    while row:
        col = min(row)
        pivot = pivots.get(col)
        if pivot is None:
            inv, mul = kernel.inv(row[col]), kernel.mul
            pivots[col] = {j: mul(inv, x) for j, x in row.items()}
            return True
        _subtract_multiple(kernel, row, row[col], pivot)
    return False


def _subtract_multiple(kernel, row, factor, pivot):
    """row -= factor * pivot on ``{column: payload}`` rows, dropping new zeros."""
    sub, mul, is_zero = kernel.sub, kernel.mul, kernel.is_zero
    for j, x in pivot.items():
        y = row.get(j)
        if y is None:
            row[j] = kernel.neg(mul(factor, x))
        else:
            y = sub(y, mul(factor, x))
            if is_zero(y):
                del row[j]
            else:
                row[j] = y


def congruence(field, mat, n, with_basis):
    """Diagonalize the symmetric n x n ``mat`` by congruence: (entries, vectors).

    Pivots are taken in the order of the position list ``order``, so a swap
    exchanges two labels and no row moves.  Pivot p clears its column from
    every later row with :func:`_subtract_multiple`: the Schur-complement
    update, since later rows hold no earlier column.  A zero diagonal is first
    repaired by e_a <- e_a + e_b (the columns, then the row), which needs 2
    invertible.  The entries come in pivot order, zeros trailing on a
    degenerate form.  With ``with_basis``, ``vectors`` is the matrix whose
    k-th row is the k-th basis vector, P^T for P^T mat P diagonal; else None.
    """
    kernel = field._kernel
    one, minus_one = kernel.one, kernel.neg(kernel.one)
    box = field.element if field.char == 0 else partial(FieldElement, field)
    g = {i: _payloads(mat.get(i, {})) for i in range(n)}
    vectors = {i: {i: one} for i in range(n)} if with_basis else None
    order, entries = list(range(n)), []
    for k in range(n):
        if order[k] not in g[order[k]]:
            i = next((i for i in range(k + 1, n) if order[i] in g[order[i]]), None)
            if i is None:
                # no later diagonal: pair the first nonzero row a with its first later column b
                i = next((i for i in range(k, n) if g[order[i]]), None)
                if i is None:
                    break  # the remaining block is identically zero
                a = order[i]
                b = next(b for b in order[i + 1 :] if b in g[a])
                for r, x in g[b].items():  # the rows holding column b, by symmetry
                    _subtract_multiple(kernel, g[r], minus_one, {a: x})
                _subtract_multiple(kernel, g[a], minus_one, g[b])  # now g[a][a] = 2 g[a][b] != 0
                if with_basis:
                    _subtract_multiple(kernel, vectors[a], minus_one, vectors[b])
            order[k], order[i] = order[i], order[k]
        p = order[k]
        entries.append(g[p].pop(p))
        inv = kernel.inv(entries[-1])
        for a in order[k + 1 :]:
            if p in g[a]:
                factor = kernel.mul(g[a].pop(p), inv)
                _subtract_multiple(kernel, g[a], factor, g[p])
                if with_basis:
                    _subtract_multiple(kernel, vectors[a], factor, vectors[p])
    entries = [box(x) for x in entries] + [field.zero()] * (n - len(entries))
    if with_basis:
        vectors = {k: {j: box(x) for j, x in vectors[p].items()} for k, p in enumerate(order)}
    return entries, vectors


def inverse(field, a):
    """Exact inverse over a field as a sparse matrix, or None when singular.

    ``a`` is the n rows of an n x n matrix, each a dense list or a
    ``{column: entry}`` dict as for :func:`rank`; a dense row of another
    length or a column past n makes it non-square, hence not invertible.
    Gauss-Jordan runs on the augmented payload rows [a | 1] kept as
    ``{column: payload}`` dicts of nonzero entries.
    """
    n = len(a)
    if any(len(r) != n for r in a if not isinstance(r, dict)):
        return None
    kernel = field._kernel
    box = field.element if field.char == 0 else partial(FieldElement, field)
    rows = [_payloads(row) for row in a]
    if any(j >= n for row in rows for j in row):
        return None
    rows = [row | {n + i: kernel.one} for i, row in enumerate(rows)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if col in rows[i]), None)
        if pivot_row is None:
            return None
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        inv, mul = kernel.inv(rows[col][col]), kernel.mul
        pivot = rows[col] = {j: mul(inv, x) for j, x in rows[col].items()}
        for i, row in enumerate(rows):
            if i != col and col in row:
                _subtract_multiple(kernel, row, row[col], pivot)
    return {i: {j - n: box(x) for j, x in row.items() if j >= n} for i, row in enumerate(rows)}
