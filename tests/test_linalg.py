"""Exact rank and inverse, against sympy's DomainMatrix as an oracle.

``linalg.rank`` takes dense rows or sparse ``{column: entry}`` rows; both
forms of the same matrix must give sympy's rank over GF(p) and QQ.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from wittforge import linalg
from wittforge.fields import FieldSpec

PRIMES = (3, 5, 7, 11)


@st.composite
def matrices(draw):
    """(field, sympy domain, matrix of ints or Fractions) with a controlled zero share."""
    p = draw(st.sampled_from((0,) + PRIMES))
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    density = draw(st.sampled_from((0.15, 0.4, 1.0)))
    cell = st.tuples(st.floats(0, 1), st.integers(-4, 4), st.integers(1, 1 if p else 3))
    mat = [
        [
            Fraction(num, den) if u < density else Fraction(0)
            for u, num, den in draw(st.lists(cell, min_size=cols, max_size=cols))
        ]
        for _ in range(rows)
    ]
    # a row that is the sum of two others, so dependencies occur often
    if rows >= 3 and draw(st.booleans()):
        mat[-1] = [a + b for a, b in zip(mat[0], mat[1])]
    if p:
        return FieldSpec.Fp(p), GF(p), [[int(x) % p for x in row] for row in mat]
    return FieldSpec.Q(), QQ, mat


def _sympy_rank(domain, values, cols):
    if domain == QQ:
        rows = [[QQ(x.numerator, x.denominator) for x in row] for row in values]
    else:
        rows = [[domain(x) for x in row] for row in values]
    return DomainMatrix(rows, (len(values), cols), domain).rank()


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rank_matches_sympy_dense_and_sparse(case):
    field, domain, values = case
    cols = len(values[0]) if values else 0
    dense = [[field.element(x) for x in row] for row in values]
    sparse = [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in dense]
    snapshot = [dict(row) for row in sparse]
    expected = _sympy_rank(domain, values, cols)
    assert linalg.rank(field, dense) == expected
    assert linalg.rank(field, sparse) == expected
    # mixed row forms, and sparse rows are never changed in place
    mixed = [row if k % 2 else dict(sparse[k]) for k, row in enumerate(dense)]
    assert linalg.rank(field, mixed) == expected
    assert sparse == snapshot


def test_rank_of_empty_rows():
    F5 = FieldSpec.Fp(5)
    assert linalg.rank(F5, []) == 0
    assert linalg.rank(F5, [{}, {}]) == 0
    assert linalg.rank(F5, [[F5.zero()] * 3]) == 0


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_inverse_is_two_sided_or_none(case):
    field, _, values = case
    n = min(len(values), len(values[0]) if values else 0)
    square = [[field.element(x) for x in row[:n]] for row in values[:n]]
    inv = linalg.inverse(field, square)
    if linalg.rank(field, square) < n:
        assert inv is None
        return
    one = linalg.identity(field, n)
    assert linalg.mat_eq(linalg.mat_mul(field, square, inv), one)
    assert linalg.mat_eq(linalg.mat_mul(field, inv, square), one)
