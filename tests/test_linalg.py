"""Sparse matrix arithmetic, rank and inverse, against sympy as an oracle.

The product, transpose, block sum and Kronecker product are compared with
sympy's ``Matrix`` over QQ, GF(p), F9 and Q(sqrt 2) (entries as polynomials in
the generator, reduced by its modulus), empty shapes included; the Kronecker
product also with an int identity on either side, into a pre-filled matrix
at a nonzero corner, and over Q[x, y].  The product over polynomial rings
is compared with a schoolbook sum of ``MultiPolynomial`` products, including
draws that cancel.  ``linalg.rank`` takes dense rows or sparse
``{column: entry}`` rows; both forms of the same matrix must give sympy's
rank over GF(p) and QQ, and the inverse must be ``DomainMatrix``'s; over F9
and Q(sqrt 2) too, read through the regular representation over the prime
field, with every returned payload canonical (an integral rational an
``int``).  The zero test ``products_equal(a, b, c, d)`` must agree with
comparing the two products over Q, F5, F9 and Q[x, y], and build no ring
element.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, QQ, Matrix, Poly, Rational, Symbol, diag, kronecker_product
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from wittforge import linalg
from wittforge.fields import FieldElement, FieldSpec
from wittforge.polynomials import MultiPolynomial, PolyRing

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


def _domain_matrix(domain, values, cols):
    if domain == QQ:
        rows = [[QQ(x.numerator, x.denominator) for x in row] for row in values]
    else:
        rows = [[domain(x) for x in row] for row in values]
    return DomainMatrix(rows, (len(values), cols), domain)


def _sympy_rank(domain, values, cols):
    return _domain_matrix(domain, values, cols).rank()


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


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_extend_pivots_keeps_exactly_the_rows_outside_the_span(case):
    # the incremental test agrees with re-ranking every prefix from scratch
    field, domain, values = case
    cols = len(values[0]) if values else 0
    pivots, kept = {}, []
    for k, row in enumerate(values):
        payload_row = {j: field.element(x).payload for j, x in enumerate(row) if x}
        grows = _sympy_rank(domain, kept + [row], cols) > len(kept)
        assert linalg.extend_pivots(field._kernel, pivots, payload_row) == grows
        if grows:
            kept.append(row)
    assert len(pivots) == len(kept) == _sympy_rank(domain, values, cols)


def test_inverse_of_non_square_rows_is_none():
    F5 = FieldSpec.Fp(5)
    one = F5.one()
    assert linalg.inverse(F5, [[one, one]]) is None
    # a dict row reaching past column n would meet the augmented identity
    assert linalg.inverse(F5, [{0: one, 1: one}]) is None
    assert linalg.inverse(F5, [{0: one}]) == {0: {0: one}}


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
    assert linalg.product(field, linalg.sparse(square), inv) == one
    assert linalg.product(field, inv, linalg.sparse(square)) == one


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_inverse_matches_sympy(case):
    # square corners of the drawn matrices: zero rows and dependent rows
    # make many of them singular
    field, domain, values = case
    n = min(len(values), len(values[0]) if values else 0)
    values = [row[:n] for row in values[:n]]
    inv = linalg.inverse(field, [[field.element(x) for x in row] for row in values])
    try:
        expected = _domain_matrix(domain, values, n).inv().to_list()
    except DMNonInvertibleMatrixError:
        assert inv is None
        return
    if domain == QQ:
        expected = [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in expected]
    else:
        expected = [[int(x) % field.p for x in row] for row in expected]
    assert inv is not None
    assert linalg.sparse([[field.element(x) for x in row] for row in expected]) == inv


#: the extension fields of the operand draws: F9 = F3[a]/(a^2 + 1) and
#: Q(sqrt 2) = Q[a]/(a^2 - 2), with sympy's polynomial in the same symbol
ALPHA = Symbol("a")
EXTENSIONS = {
    "F9": (FieldSpec.extension(FieldSpec.Fp(3), [1, 0, 1]), ALPHA**2 + 1),
    "Qsqrt2": (FieldSpec.extension(FieldSpec.Q(), [-2, 0, 1]), ALPHA**2 - 2),
}


@st.composite
def operands(draw):
    """A field and three small matrices of sympy numbers (c0 + c1*a over an
    extension): a (r x k), b (k x c) and c (s x t), any dimension possibly 0."""
    p = draw(st.sampled_from((0, 3, 5, 7, "F9", "Qsqrt2")))
    ext = isinstance(p, str)
    r, k, c, s, t = (draw(st.integers(0, 4)) for _ in range(5))
    density = draw(st.sampled_from((0.2, 0.6, 1.0)))
    rational = p in (0, "Qsqrt2")
    cell = st.tuples(st.floats(0, 1), st.integers(-4, 4), st.integers(1, 3 if rational else 1))
    top = st.integers(-2, 2) if ext else st.just(0)

    def values(rows, cols):
        return [
            [
                Rational(num, den) + draw(top) * ALPHA if u < density else 0
                for u, num, den in draw(st.lists(cell, min_size=cols, max_size=cols))
            ]
            for _ in range(rows)
        ]

    if ext:
        field = EXTENSIONS[p][0]
    else:
        field = FieldSpec.Fp(p) if p else FieldSpec.Q()
    mats = [Matrix(rows, cols, [x for row in values(rows, cols) for x in row])
            for rows, cols in ((r, k), (k, c), (s, t))]
    return field, mats


def _element(field, x):
    """A sympy number, or a polynomial in ``ALPHA`` reduced by the field's
    modulus, as an element of ``field``."""
    if field.kind != "ext":
        return field.element(Fraction(str(x)))
    modulus = next(m for f, m in EXTENSIONS.values() if f == field)
    rem = Poly(x, ALPHA, domain=QQ).rem(Poly(modulus, ALPHA, domain=QQ))
    return field.element([Fraction(str(c)) for c in reversed(rem.all_coeffs())])


def _ours(field, m):
    """The linalg form of a sympy Matrix, entries reduced into ``field``."""
    return linalg.sparse([[_element(field, x) for x in row] for row in m.tolist()])


@settings(max_examples=200, deadline=None)
@given(operands())
def test_sparse_operations_match_sympy(case):
    field, (a, b, c) = case
    sa, sb, sc = (_ours(field, m) for m in (a, b, c))
    assert linalg.product(field, sa, sb) == _ours(field, (a * b).expand())
    assert linalg.transpose(sa) == _ours(field, a.T)
    assert linalg.scaled(field.from_int(-2), sa) == _ours(field, -2 * a)
    blocks = [(sa, a.shape), (sc, c.shape)]
    assert linalg.block_diag(blocks) == _ours(field, diag(a, c))
    _check_kron(lambda m: _ours(field, m), a, c)
    n = a.shape[0]
    assert linalg.identity(field, n) == _ours(field, Matrix.eye(n))
    assert linalg.dense(field, sa, a.shape) == tuple(
        tuple(_element(field, x) for x in row) for row in a.tolist()
    )


def _kron_oracle(a, c):
    """sympy's Kronecker product, which fails on empty shapes (they have no entries)."""
    if 0 in a.shape + c.shape:
        return Matrix.zeros(a.shape[0] * c.shape[0], a.shape[1] * c.shape[1])
    return kronecker_product(a, c).expand()


def _check_kron(ours, a, c):
    """``linalg.kron`` of two sympy matrices, read into linalg form by ``ours``,
    with an int identity on either side and into a pre-filled matrix at a
    nonzero corner, against sympy."""
    sa, sc = ours(a), ours(c)
    assert linalg.kron(sa, sc, c.shape, {}, (0, 0)) == ours(_kron_oracle(a, c))
    n = a.shape[0]
    assert linalg.kron(n, sc, c.shape, {}, (0, 0)) == ours(_kron_oracle(Matrix.eye(n), c))
    assert linalg.kron(sa, n, (n, n), {}, (0, 0)) == ours(_kron_oracle(a, Matrix.eye(n)))
    # a beside the block 1_2 (x) c, sharing its rows: entries of a stay as they are
    (r, k), (s, t) = a.shape, c.shape
    out = {i: dict(row) for i, row in sa.items()}
    filled = linalg.kron(2, sc, c.shape, out, (1, k + 1))
    assert filled is out
    expected = Matrix.zeros(max(r, 1 + 2 * s), k + 1 + 2 * t)
    expected[:r, :k] = a
    expected[1 : 1 + 2 * s, k + 1 :] = _kron_oracle(Matrix.eye(2), c)
    assert out == ours(expected)


def _over_prime_field(field, rows):
    """Dense rows over ``field`` as a DomainMatrix over its prime field: over
    an extension of degree d, entry x becomes the d x d matrix of
    multiplication by x in the basis 1, a, ..., a^(d-1).  That map is an
    injective ring homomorphism, so ranks are multiplied by d and inverses
    are carried to inverses."""
    ext = field.kind == "ext"
    base = field.base if ext else field
    domain = QQ if base.char == 0 else GF(base.p)
    d = field.degree
    powers = [field.generator() ** s for s in range(d)] if ext else [field.one()]
    rows_out = [[None] * (d * len(rows)) for _ in range(d * len(rows))]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            for s, power in enumerate(powers):
                coords = (x * power).payload if ext else ((x * power).payload,)
                for r, c in enumerate(coords):
                    c = Fraction(c)
                    entry = QQ(c.numerator, c.denominator) if domain == QQ else domain(int(c))
                    rows_out[d * i + r][d * j + s] = entry
    return DomainMatrix(rows_out, (d * len(rows),) * 2, domain)


def _canonical(payload):
    """Whether a payload is canonical: an integral rational is an ``int``, in
    every coordinate of an extension payload too."""
    if isinstance(payload, tuple):
        return all(map(_canonical, payload))
    return type(payload) is int or payload.denominator != 1


@settings(max_examples=200, deadline=None)
@given(operands())
def test_payload_eliminations_match_sympy(case):
    # square corners of the drawn a: over Q and Q(sqrt 2) with non-unit
    # pivots (Fraction payloads), over F_p and over F9
    field, (a, _, _) = case
    n = min(a.shape)
    rows = [[_element(field, x) for x in row[:n]] for row in a.tolist()[:n]]
    oracle = _over_prime_field(field, rows)
    assert linalg.rank(field, rows) * field.degree == oracle.rank()
    inv = linalg.inverse(field, rows)
    try:
        expected = oracle.inv()
    except DMNonInvertibleMatrixError:
        assert inv is None
        return
    assert inv is not None
    assert _over_prime_field(field, linalg.dense(field, inv, (n, n))) == expected
    assert all(_canonical(x.payload) for row in inv.values() for x in row.values())


X, Y = Symbol("x"), Symbol("y")
QXY = PolyRing(FieldSpec.Q(), ("x", "y"))


def _ours_poly(m):
    """The linalg form of a sympy Matrix of polynomials in x, y over QQ."""

    def element(x):
        terms = Poly(x, X, Y, domain=QQ).terms()
        return MultiPolynomial(QXY, {e: QXY.field.element(Fraction(str(c))) for e, c in terms if c})

    return linalg.sparse([[element(x) for x in row] for row in m.tolist()])


@st.composite
def polynomial_matrix(draw):
    """A sympy Matrix, up to 3 x 3, of sparse polynomials in x, y of degree <= 2."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    term = st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2))
    entry = st.lists(term, max_size=2).map(lambda ts: sum(c * X**i * Y**j for c, i, j in ts))
    return Matrix(rows, cols, draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))


@settings(max_examples=100, deadline=None)
@given(polynomial_matrix(), polynomial_matrix())
def test_kron_over_polynomials_matches_sympy(a, c):
    _check_kron(_ours_poly, a, c)


@st.composite
def polynomial_operands(draw):
    """A polynomial ring in 2-3 variables over Q or F5 and matrices a (r x k),
    b (k x c) of small polynomials.  Half the draws make column 0 of a . b
    cancel: every row of a is a multiple of one row (p, q, ...) and column 0
    of b is (q, -p, 0, ...), as in a d . d check; with c = 1 every row
    of a . b cancels."""
    field = draw(st.sampled_from((FieldSpec.Q(), FieldSpec.Fp(5))))
    ring = PolyRing(field, ("x", "y", "z")[: draw(st.integers(2, 3))])
    n = len(ring.vars)
    monomial = st.tuples(*[st.integers(0, 2)] * n)
    term = st.tuples(monomial, st.integers(-3, 3))

    def poly():
        terms = draw(st.lists(term, max_size=3))
        out = ring.zero()
        for e, coef in terms:
            out = out + MultiPolynomial(ring, {e: field.from_int(coef)})
        return out

    cancel = draw(st.booleans())
    r, c = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    k = draw(st.integers(2, 3)) if cancel else draw(st.integers(0, 3))
    if cancel:
        base = [poly() for _ in range(k)]
        a = [[m * x for x in base] for m in (poly() for _ in range(r))]
        first = [base[1], -base[0]] + [ring.zero()] * (k - 2)
        b = [[first[i]] + [poly() for _ in range(c - 1)] for i in range(k)]
    else:
        a = [[poly() for _ in range(k)] for _ in range(r)]
        b = [[poly() for _ in range(c)] for _ in range(k)]
    return ring, a, b, cancel


@settings(max_examples=150, deadline=None)
@given(polynomial_operands())
def test_polynomial_product_matches_schoolbook(case):
    ring, a, b, cancel = case
    product = linalg.product(ring, linalg.sparse(a), linalg.sparse(b))
    cols = len(b[0]) if b else 0
    expected = {}
    for i, row in enumerate(a):
        entries = {}
        for j in range(cols):
            total = ring.zero()
            for x, brow in zip(row, b):
                total = total + x * brow[j]
            if not total.is_zero():
                entries[j] = total
        if entries:
            expected[i] = entries
    assert product == expected
    # cancelled entries and rows are absent, never stored as zero polynomials
    assert all(product.values())
    assert all(x.terms and all(not c.is_zero() for c in x.terms.values())
               for row in product.values() for x in row.values())
    if cancel:
        assert all(0 not in row for row in product.values())


# ---------------------------------------------------------------------------
# products_equal: the zero test a . b - c . d, against two products
# ---------------------------------------------------------------------------

#: the rings of the zero-test draws, each with a random-entry maker
ZERO_TEST_RINGS = {
    "Q": (FieldSpec.Q(), lambda rng, f: f.element(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))),
    "F5": (FieldSpec.Fp(5), lambda rng, f: f.from_int(rng.randint(0, 4))),
    "F9": (EXTENSIONS["F9"][0], lambda rng, f: f.element([rng.randint(0, 2), rng.randint(0, 2)])),
    "Q[x,y]": (
        QXY,
        lambda rng, r: MultiPolynomial(
            r, {(rng.randint(0, 2), rng.randint(0, 2)): r.field.from_int(rng.randint(-2, 2))
                for _ in range(rng.randint(1, 2))},
        ),
    ),
}


def _random_sparse(rng, ring, entry, rows, cols, density):
    """A rows x cols matrix whose entries are drawn with probability ``density``."""
    return linalg.sparse(
        [[entry(rng, ring) if rng.random() < density else ring.zero() for _ in range(cols)]
         for _ in range(rows)]
    )


def _sum(*mats):
    """The entrywise sum of sparse matrices, zeros dropped."""
    out = {}
    for m in mats:
        for i, row in m.items():
            for j, x in row.items():
                out.setdefault(i, {})[j] = out.get(i, {}).get(j, 0) + x
    rows = {i: {j: x for j, x in row.items() if not x.is_zero()} for i, row in out.items()}
    return {i: row for i, row in rows.items() if row}


def _unipotent_pair(rng, ring, entry, k):
    """(P, P^-1) for P = 1 + N, N strictly upper triangular: P^-1 = sum (-N)^i."""
    n = _sum({i: {j: entry(rng, ring) for j in range(i + 1, k) if rng.random() < 0.5} for i in range(k)})
    minus_n = linalg.scaled(ring.from_int(-1), n)
    powers = [linalg.identity(ring, k)]
    for _ in range(k - 1):
        powers.append(linalg.product(ring, powers[-1], minus_n))
    p, p_inv = _sum(linalg.identity(ring, k), n), _sum(*powers)
    assert linalg.product(ring, p, p_inv) == linalg.identity(ring, k)
    return p, p_inv


def _agrees(ring, a, b, c, d):
    """products_equal against the oracle product(a, b) == product(c, d)."""
    expected = linalg.product(ring, a, b) == linalg.product(ring, c, d)
    assert linalg.products_equal(ring, a, b, c, d) is expected
    return expected


@pytest.mark.parametrize("name", sorted(ZERO_TEST_RINGS))
def test_products_equal_agrees_with_two_products(name):
    ring, entry = ZERO_TEST_RINGS[name]
    rng = random.Random(name)
    seen = Counter()
    for _ in range(150):
        r, k, k2, c = (rng.randint(1, 5) for _ in range(4))
        density = rng.choice((0.2, 0.5, 0.9))
        a = _random_sparse(rng, ring, entry, r, k, density)
        b = _random_sparse(rng, ring, entry, k, c, density)
        # independent factors, and a d . d-style test against nothing
        c_, d_ = (_random_sparse(rng, ring, entry, *shape, density) for shape in ((r, k2), (k2, c)))
        seen["independent", _agrees(ring, a, b, c_, d_)] += 1
        seen["against zero", _agrees(ring, a, b, {}, {})] += 1
        # built to cancel: (a P)(P^-1 b) = a b with other factors
        p, p_inv = _unipotent_pair(rng, ring, entry, k)
        ap, pb = linalg.product(ring, a, p), linalg.product(ring, p_inv, b)
        assert _agrees(ring, a, b, ap, pb)
        seen["other factors", ap != a or pb != b] += 1
        # a row only in c: nonzero against a row of d, zero against a missing one
        extra = r + rng.randint(0, 2)
        if pb:
            assert not _agrees(ring, a, b, {**ap, extra: {rng.choice(sorted(pb)): ring.one()}}, pb)
        missing = [i for i in range(k) if i not in pb]
        if missing:
            assert _agrees(ring, a, b, {**ap, extra: {missing[0]: ring.one()}}, pb)
        # a single entry of the last row differs, against m . 1 = m
        m, one = linalg.product(ring, a, b), linalg.identity(ring, c)
        j = rng.randrange(c)
        changed = _sum(m, {r - 1: {j: ring.one()}})
        assert _agrees(ring, a, b, m, one)
        assert not _agrees(ring, a, b, changed, one)
    # the draws reach both outcomes, and the cancelling factors differ from a and b
    assert seen["independent", False] and seen["against zero", True] and seen["against zero", False]
    assert seen["other factors", True] >= 50


def test_products_equal_boxes_nothing(monkeypatch):
    # every operand is built first; then building a field element or a
    # polynomial fails, and the zero test must still decide
    cases = []
    for ring, entry in ZERO_TEST_RINGS.values():
        rng = random.Random(0)
        a, b = (_random_sparse(rng, ring, entry, 4, 4, 0.6) for _ in range(2))
        m, one = linalg.product(ring, a, b), linalg.identity(ring, 4)
        cases.append((ring, a, b, m, one, m == one))

    def boxed(*args):
        raise AssertionError("a ring element was built")

    monkeypatch.setattr(FieldElement, "__init__", boxed)
    monkeypatch.setattr(MultiPolynomial, "__init__", boxed)
    for ring, a, b, m, one, m_is_one in cases:
        assert linalg.products_equal(ring, a, b, m, one)
        assert linalg.products_equal(ring, one, m, a, b)
        assert linalg.products_equal(ring, a, b, one, one) is m_is_one
        assert linalg.products_equal(ring, a, b, {}, {}) is (m == {})
