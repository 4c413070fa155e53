"""Exact matrix arithmetic over fields and polynomial rings.

Matrices are plain lists of lists.  Entries are any ring values supporting
``+``, ``-``, ``*``, ``==`` and ``is_zero()`` (field elements or multivariate
polynomials).  Rank and inverse need exact division, so they take the field
explicitly; :func:`rank` also takes sparse ``{column: entry}`` rows, the form
in which graded pieces of complexes and Cech coboundaries are built.
Multiplication skips zero entries: the transfer module's matrices are very
sparse and this keeps the acceptance sweeps inside their runtime budgets.
"""

from __future__ import annotations


def zeros(ring, rows, cols):
    z = ring.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(ring, n):
    m = zeros(ring, n, n)
    one = ring.one()
    for i in range(n):
        m[i][i] = one
    return m


def shape(m):
    return (len(m), len(m[0]) if m else 0)


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(ring, a, b):
    rows, inner = shape(a)
    inner2, cols = shape(b)
    if inner != inner2:
        raise ValueError(f"shape mismatch: {shape(a)} * {shape(b)}")
    out = zeros(ring, rows, cols)
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            x = arow[k]
            if x.is_zero():
                continue
            brow = b[k]
            for j in range(cols):
                y = brow[j]
                if not y.is_zero():
                    orow[j] = orow[j] + x * y
    return out


def mat_vec(ring, a, v):
    return [row[0] for row in mat_mul(ring, a, [[x] for x in v])]


def transpose(a):
    rows, cols = shape(a)
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


def mat_eq(a, b):
    if shape(a) != shape(b):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def kron(ring, a, b):
    """Kronecker product (used for tensor products of Gram matrices)."""
    ra, ca = shape(a)
    rb, cb = shape(b)
    out = zeros(ring, ra * rb, ca * cb)
    for i in range(ra):
        for j in range(ca):
            x = a[i][j]
            if x.is_zero():
                continue
            for k in range(rb):
                for l in range(cb):
                    y = b[k][l]
                    if not y.is_zero():
                        out[i * rb + k][j * cb + l] = x * y
    return out


def block_diag(ring, blocks):
    n = sum(shape(b)[0] for b in blocks)
    m = sum(shape(b)[1] for b in blocks)
    out = zeros(ring, n, m)
    r = c = 0
    for b in blocks:
        rb, cb = shape(b)
        for i in range(rb):
            for j in range(cb):
                out[r + i][c + j] = b[i][j]
        r += rb
        c += cb
    return out


def rank(field, a):
    """Rank over a field by sparse Gaussian elimination.

    Rows are dense lists or ``{column: entry}`` dicts of nonzero entries
    (dense rows become dicts here; dict rows are copied, never changed).
    Rows are reduced one at a time, sparsest first, against the pivot rows
    found so far, which are kept by leading column with a leading 1.
    """
    rows = [
        dict(row) if isinstance(row, dict) else {j: x for j, x in enumerate(row) if not x.is_zero()}
        for row in a
    ]
    rows.sort(key=len)
    pivots = {}
    for row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = row[col].inverse()
                pivots[col] = {j: inv * x for j, x in row.items()}
                break
            factor = row[col]
            for j, x in pivot.items():
                y = row.get(j)
                if y is None:
                    row[j] = -(factor * x)
                else:
                    y = y - factor * x
                    if y.is_zero():
                        del row[j]
                    else:
                        row[j] = y
    return len(pivots)


def inverse(field, a):
    """Exact inverse over a field, or None when singular."""
    n, m = shape(a)
    if n != m:
        return None
    aug = [list(row) + unit for row, unit in zip(a, identity(field, n))]
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if not aug[i][col].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return None
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [inv * x for x in aug[col]]
        for i in range(n):
            if i == col:
                continue
            f = aug[i][col]
            if f.is_zero():
                continue
            aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]
