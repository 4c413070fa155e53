"""Quadratic forms and Witt-group arithmetic.

The heavy lifting here is oracle comparison: Hilbert symbols against
brute-force local solubility (primitive solutions of ax^2 + by^2 = z^2
modulo p^k, with k chosen so Hensel lifting is exact), finite-field
isotropy against exhaustive vector enumeration, and rational ternary
isotropy against a height-bounded search that is complete by Holzer's
bound for small pairwise-coprime squarefree coefficients.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.factor_ import core

from wittforge import fields, linalg, quadforms
from wittforge.cli import main
from wittforge.errors import DegenerateForm, FieldMismatch, UnsupportedField
from wittforge.fields import FieldSpec, find_irreducible, is_square
from wittforge.quadforms import (
    Place,
    QuadraticForm,
    _diagonal_entries,
    diagonalize,
    hilbert_symbol,
    hyperbolic_plane,
    relevant_places,
    signed_discriminant,
    witt_add,
    witt_decompose,
    witt_equal,
    witt_mul,
    witt_neg,
    witt_zero,
)

Q = FieldSpec.Q()
F3 = FieldSpec.Fp(3)
F5 = FieldSpec.Fp(5)
F7 = FieldSpec.Fp(7)
F9 = FieldSpec.extension(F3, find_irreducible(F3, 2))
QSQRT2 = FieldSpec.extension(Q, [-2, 0, 1])


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def squares(entries):
    """The square classes of the entries, as the rational witness search takes them."""
    return [quadforms._square_class(e) for e in entries]


def invariants(entries):
    """The invariants of the diagonal form over Q with these entries."""
    return quadforms._QInvariants(squares(entries))


def hilbert_oracle(a, b, p):
    """(a,b)_p by brute force.

    z^2 = a x^2 + b y^2 has a nontrivial p-adic solution iff it has a
    primitive solution modulo p^k, where k = 3 for odd p and k = 5 for
    p = 2 suffices for squarefree-ish small a, b (the relevant partial
    derivative has valuation <= 1, resp. <= 2, so Hensel lifts).
    """
    k = 5 if p == 2 else 3
    m = p**k
    sq = np.zeros(m, dtype=bool)
    unit_sq = np.zeros(m, dtype=bool)
    for z in range(m):
        c = (z * z) % m
        sq[c] = True
        if z % p:
            unit_sq[c] = True
    xs = np.arange(m, dtype=np.int64)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    C = (a * X * X + b * Y * Y) % m
    prim_xy = (X % p != 0) | (Y % p != 0)
    solvable = sq[C] & (prim_xy | unit_sq[C])
    return 1 if solvable.any() else -1


def form_of(field, rows):
    """The form of dense Gram rows, each entry coerced into ``field``."""
    return QuadraticForm(field, linalg.sparse([map(field.element, row) for row in rows]), len(rows))


def congruences(monkeypatch):
    """The Gram matrices that ``linalg.congruence`` is called on from now."""
    calls = []
    run = linalg.congruence

    def counted(field, mat, n, with_basis):
        calls.append(mat)
        return run(field, mat, n, with_basis)

    monkeypatch.setattr(linalg, "congruence", counted)
    return calls


def gram(form):
    """The Gram matrix of ``form`` as dense row tuples, zeros included."""
    return linalg.dense(form.field, form._mat, (form.dim,) * 2)


def bilinear(form, u, v):
    """b(u, v) = u^T G v, read from the stored Gram matrix."""
    u = [form.field.element(x) for x in u]
    v = [form.field.element(x) for x in v]
    terms = (u[i] * g * v[j] for i, row in form._mat.items() for j, g in row.items())
    return sum(terms, form.field.zero())


def exhaustive_isotropic_vectors(form):
    """All nonzero isotropic vectors of a form over a small finite field."""
    out = []
    for vec in itertools.product(form.field.elements(), repeat=form.dim):
        if all(x.is_zero() for x in vec):
            continue
        if bilinear(form, vec, vec).is_zero():
            out.append(vec)
    return out


def ternary_search_oracle(a, b, c, height=8):
    """Complete isotropy oracle for <a,b,c> with small squarefree
    pairwise-coprime entries: Holzer's bound caps minimal solutions at
    sqrt of the products, all < 7 here."""
    rng = range(-height, height + 1)
    for x, y, z in itertools.product(rng, repeat=3):
        if (x, y, z) == (0, 0, 0):
            continue
        if a * x * x + b * y * y + c * z * z == 0:
            return True
    return False


def assert_certificate(form, wc):
    """P^T G P must be hyperbolic planes followed by the anisotropic Gram."""
    field = form.field
    p = wc.certificate
    ptgp = linalg.product(field, linalg.product(field, linalg.transpose(p), form._mat), p)
    blocks = [(hyperbolic_plane(field)._mat, (2, 2))] * wc.hyperbolic
    aniso = wc.anisotropic
    blocks.append((aniso._mat, (aniso.dim, aniso.dim)))
    assert ptgp == linalg.block_diag(blocks)
    assert linalg.inverse(field, linalg.dense(field, p, (form.dim, form.dim))) is not None


# ---------------------------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------------------------


def test_hilbert_frozen_values():
    assert hilbert_symbol(2, 3, Place(3)) == -1
    assert hilbert_symbol(-1, -1, Place.infinity()) == -1
    assert hilbert_symbol(-1, -1, Place(2)) == -1
    assert hilbert_symbol(2, -1, Place(2)) == 1  # 1^2*(-1) + 2^2*... : 3^2 = 1 + 2*4
    assert hilbert_symbol(3, 3, Place(3)) == -1
    assert hilbert_symbol(5, 7, Place(11)) == 1  # both units at a good odd prime


def test_hilbert_real_place():
    for a in (-7, -2, -1, 1, 2, 7):
        for b in (-5, -1, 1, 5):
            expected = -1 if (a < 0 and b < 0) else 1
            assert hilbert_symbol(a, b, Place.infinity()) == expected


@pytest.mark.parametrize(
    "p,reps",
    [
        (3, [1, 2, 3, 6, -1, -2, -3, -6]),
        (5, [1, 2, 5, 10, -1, -2, -5, -10]),
        (7, [1, 3, 7, 21, -1, -3, -7, -21]),
        (2, [1, 3, 5, 7, 2, 6, 10, 14, -1, -2, -5]),
    ],
)
def test_hilbert_matches_local_solubility(p, reps):
    # reps cover every square class of Q_p (and then some)
    for a in reps:
        for b in reps:
            assert hilbert_symbol(a, b, Place(p)) == hilbert_oracle(a, b, p), (
                a,
                b,
                p,
            )


def test_hilbert_bimultiplicative():
    vals = [1, 2, 3, 5, -1, -2, -15]
    places = [Place.infinity(), Place(2), Place(3), Place(5)]
    for v in places:
        for a, a2, b in itertools.product(vals, repeat=3):
            lhs = hilbert_symbol(a * a2, b, v)
            rhs = hilbert_symbol(a, b, v) * hilbert_symbol(a2, b, v)
            assert lhs == rhs


def test_hilbert_symmetric_and_square_invariant():
    vals = [1, 2, 3, 5, 7, -1, -2, -3, -30]
    places = [Place.infinity(), Place(2), Place(3), Place(7)]
    for v in places:
        for a, b in itertools.product(vals, repeat=2):
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
            assert hilbert_symbol(a * 9, b * 4, v) == hilbert_symbol(a, b, v)


def test_hilbert_symbol_factors_nothing(monkeypatch):
    # v_p by division agrees with the square-class route, and never factors
    values = [n for n in range(-100, 101) if n] + [Fraction(3, 4), Fraction(-5, 12), Fraction(98, 27)]
    classes = {v: quadforms._square_class(v)[0] for v in values}
    primes = (2, 3, 5, 7, 11)
    expected = {
        (a, b, p): quadforms._hilbert(classes[a], classes[b], p)
        for a, b in itertools.product(values, repeat=2)
        for p in primes
    }

    def refuse(*args, **kwargs):
        raise AssertionError("hilbert_symbol factored an argument")

    monkeypatch.setattr(sympy, "factorint", refuse)
    places = {p: Place(p) for p in primes}
    for (a, b, p), symbol in expected.items():
        assert hilbert_symbol(a, b, places[p]) == symbol, (a, b, p)


def test_hilbert_product_formula():
    rng = random.Random(424)
    for _ in range(40):
        a = rng.choice([s for s in range(-30, 31) if s not in (0,)])
        b = rng.choice([s for s in range(-30, 31) if s not in (0,)])
        prod = 1
        for v in relevant_places([a, b]):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)


def _class_oracle(f):
    """The squarefree integer in the square class of a nonzero rational, by sympy."""
    n = f.numerator * f.denominator
    return (1 if n > 0 else -1) * core(abs(n))


nonzero_rationals = st.fractions(min_value=-60, max_value=60, max_denominator=40).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(nonzero_rationals, st.integers(1, 6)), max_size=9))
def test_q_invariants_match_pairwise_hilbert_symbols(scaled):
    # some entries multiplied by squares; the invariants see square classes only
    entries = [e * s * s for e, s in scaled]
    inv = invariants(entries)
    det = _class_oracle(math.prod(entries, start=Fraction(1)))
    assert (inv.n, inv.det) == (len(entries), det)
    assert inv.classes == [_class_oracle(e) for e in entries]
    primes = {2}.union(*(sympy.primefactors(_class_oracle(e)) for e in entries))
    assert set(inv.hasse) == primes
    for p in primes:
        pairs = itertools.combinations(entries, 2)
        expected = math.prod(hilbert_symbol(a, b, Place(p)) for a, b in pairs)
        assert inv.hasse[p] == expected, (entries, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_local_squares_match_residues(p):
    # a squarefree d is a square in Q_p iff it is a unit with a square
    # root mod p (odd p) or mod 8 (p = 2)
    modulus = 8 if p == 2 else p
    for d in range(-80, 81):
        if d == 0 or core(abs(d)) != abs(d):
            continue
        expected = d % p != 0 and any((x * x - d) % modulus == 0 for x in range(modulus))
        assert quadforms._is_local_square(d, p) == expected, (d, p)


@pytest.mark.parametrize(
    "entries, vector",
    [([1, 1, 1, -3], [1, 1, 1, 1]), ([1, 1, -3, -7], [3, 1, 1, 1]), ([1, 2, 2, -3], [1, 1, 0, 1])],
)
def test_quaternary_with_det_five_mod_eight_is_isotropic(entries, vector):
    # det is 1 mod 4 but 5 mod 8, so no square in Q_2: isotropic at 2
    # although the Hasse symbol there differs from (-1,-1)_2
    inv = invariants(entries)
    assert inv.det % 8 == 5 and inv.hasse[2] != hilbert_symbol(-1, -1, Place(2))
    form = QuadraticForm.diagonal(Q, entries)
    assert bilinear(form, vector, vector) == Q.zero()
    assert inv.is_isotropic()


def test_witt_equal_over_q_factors_each_entry_once(monkeypatch):
    # the 16-entry difference form is factored once per entry, and the
    # primes come with each class
    calls = []
    factorint = sympy.factorint

    def counted(n, *args, **kwargs):
        calls.append(n)
        return factorint(n, *args, **kwargs)

    monkeypatch.setattr(sympy, "factorint", counted)
    a = QuadraticForm.diagonal(Q, [1, 2, 3, 5, 7, 11, 13, 17])
    b = QuadraticForm.diagonal(Q, [2, 3, 5, 7, 11, 13, 17, 1])
    assert witt_equal(a, b)
    assert len(calls) <= 16


def test_rational_witness_search_factors_each_entry_once(monkeypatch):
    # each diagonal entry of the form and of every complement left after a
    # hyperbolic plane is factored once; the subforms and the candidate
    # common values of the search reuse those classes
    calls = []
    factorint = sympy.factorint

    def counted(n, *args, **kwargs):
        calls.append(n)
        return factorint(n, *args, **kwargs)

    monkeypatch.setattr(sympy, "factorint", counted)
    for entries, rounds in (([3, 5, -7, 11, -2, 6], [6, 4, 2]), ([1, 1, 1, -3, 5], [5, 3])):
        calls.clear()
        form = QuadraticForm.diagonal(Q, entries)
        wc = witt_decompose(form)
        assert_certificate(form, wc)
        assert len(calls) == sum(rounds), entries


def test_place_parse_and_json():
    assert Place.parse("inf").is_infinite
    assert Place.parse("oo") == Place.infinity()
    assert Place.parse("7") == Place(7)
    assert Place(3).to_json() == 3
    assert Place.infinity().to_json() == "inf"
    with pytest.raises(ValueError):
        Place(6)


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------


def test_diagonalize_f3_example():
    entries, basis = diagonalize(form_of(F3, [[1, 1], [1, 2]]))
    assert [e.to_json() for e in entries] == [1, 1]
    assert linalg.inverse(F3, linalg.dense(F3, basis, (2, 2))) is not None


def sample_forms(field, rng, count, max_dim=4, allow_degenerate=False):
    for _ in range(count):
        n = rng.randint(1, max_dim)
        while True:
            g = [[field.random_element(rng) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    g[i][j] = g[j][i]
            form = form_of(field, g)
            if allow_degenerate:
                break
            ent, _ = diagonalize(form)
            if all(not e.is_zero() for e in ent):
                break
        yield form


@pytest.mark.parametrize("field", [F3, F5, F9, Q], ids=str)
def test_diagonalize_is_a_congruence(field):
    rng = random.Random(802)
    for form in sample_forms(field, rng, 12, allow_degenerate=True):
        entries, basis = diagonalize(form)
        d = {i: {i: e} for i, e in enumerate(entries) if not e.is_zero()}
        bt = linalg.transpose(basis)
        lhs = linalg.product(field, linalg.product(field, bt, form._mat), basis)
        assert lhs == d
        assert linalg.inverse(field, linalg.dense(field, basis, (form.dim,) * 2)) is not None


def random_symmetric(field, rng, n, zero_share=0.4, zero_diagonal=False):
    """A symmetric Gram matrix with many zero entries (often degenerate)."""
    g = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i == j and zero_diagonal) or rng.random() < zero_share:
                continue
            g[i][j] = g[j][i] = field.random_element(rng)
    return form_of(field, g)


@pytest.mark.parametrize("field", [F3, F9, Q], ids=str)
def test_diagonal_entries_match_diagonalize(field):
    rng = random.Random(1103)
    seen_degenerate = 0
    for k in range(60):
        form = random_symmetric(field, rng, rng.randint(0, 6), zero_diagonal=k % 3 == 0)
        entries = _diagonal_entries(form)
        assert entries == tuple(diagonalize(form)[0])
        seen_degenerate += any(e.is_zero() for e in entries)
    assert seen_degenerate > 0


# the dense symmetric elimination that linalg.congruence replaced, kept
# verbatim as the reference for its pivot choices
def _eliminate(form, basis=None):
    """Diagonal entries of the form by symmetric Gaussian elimination.

    When ``basis`` (n x n dense rows) is given, every congruence step is also
    applied to its columns.  At pivot k the rows and columns before k are
    finished (zero off the diagonal of the congruent matrix) and never read
    again, so only the trailing block (indices >= k) is updated.  With
    c_a = -g[k][a] / g[k][k], clearing row and column k adds c_a * g[k][b]
    to g[a][b] for every pair of nonzero positions a, b of row k, computed
    once per unordered pair.
    """
    n = form.dim
    g = [list(r) for r in gram(form)]

    def add_col(dst, src, k):
        # e_dst <- e_dst + e_src on the trailing block (column then row)
        for r in range(k, n):
            g[r][dst] = g[r][dst] + g[r][src]
        for c in range(k, n):
            g[dst][c] = g[dst][c] + g[src][c]
        if basis is not None:
            for row in basis:
                row[dst] = row[dst] + row[src]

    def swap(i, j, k):
        if i == j:
            return
        for r in range(k, n):
            g[r][i], g[r][j] = g[r][j], g[r][i]
        g[i], g[j] = g[j], g[i]
        if basis is not None:
            for row in basis:
                row[i], row[j] = row[j], row[i]

    for k in range(n):
        if g[k][k].is_zero():
            pivot = next((j for j in range(k + 1, n) if not g[j][j].is_zero()), None)
            if pivot is not None:
                swap(k, pivot, k)
            else:
                pair = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if not g[i][j].is_zero()
                    ),
                    None,
                )
                if pair is None:
                    break  # the remaining block is identically zero
                i, j = pair
                add_col(i, j, k)  # now g[i][i] = 2*g[i][j] != 0
                swap(k, i, k)
        pivot_row = g[k]
        support = [j for j in range(k + 1, n) if not pivot_row[j].is_zero()]
        if not support:
            continue
        inv = pivot_row[k].inverse()
        coeffs = [-(inv * pivot_row[a]) for a in support]
        for pos, (a, c_a) in enumerate(zip(support, coeffs)):
            row_a = g[a]
            for b in support[pos:]:
                row_a[b] = g[b][a] = row_a[b] + c_a * pivot_row[b]
        if basis is not None:
            for row in basis:
                x = row[k]
                if not x.is_zero():
                    for a, c_a in zip(support, coeffs):
                        row[a] = row[a] + c_a * x
    return [g[i][i] for i in range(n)]


def _canonical(payload):
    """Whether a payload is canonical: an integral rational is an ``int``, in
    every coordinate of an extension payload too."""
    if isinstance(payload, tuple):
        return all(map(_canonical, payload))
    return type(payload) is int or payload.denominator != 1


@pytest.mark.parametrize("field", [F3, F9, Q, QSQRT2], ids=str)
def test_congruence_matches_the_dense_oracle(field):
    # the Q draws have non-unit pivots, so the elimination's payloads hold
    # Fractions; what it returns is boxed canonically all the same
    rng = random.Random(2207)
    for k in range(80):
        form = random_symmetric(field, rng, rng.randint(0, 7), zero_diagonal=k % 3 == 0)
        n = form.dim
        basis = [list(row) for row in linalg.dense(field, linalg.identity(field, n), (n, n))]
        expected = _eliminate(form, basis)
        entries, got_basis = diagonalize(form)
        assert entries == expected
        assert got_basis == linalg.sparse(basis)
        assert _diagonal_entries(form) == tuple(_eliminate(form))
        returned = entries + [x for row in got_basis.values() for x in row.values()]
        assert all(_canonical(x.payload) for x in returned)


a9 = F9.generator()

#: diagonalize's (entries, basis) for fixed forms, zero diagonals and
#: degenerate forms included: the elimination must keep its pivot choices,
#: since `witt diag` prints both
PINNED_DIAGONALIZATIONS = [
    (F3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [2, 1, 2], [[1, 1, 2], [1, 2, 1], [0, 0, 1]]),
    (F3, [[1, 1], [1, 1]], [1, 0], [[1, 2], [0, 1]]),
    (
        F3,
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
        [2, 1, 2, 1],
        [[1, 1, 0, 0], [0, 0, 1, 1], [1, 2, 0, 0], [0, 0, 1, 2]],
    ),
    (F3, [[0, 0, 0], [0, 1, 2], [0, 2, 2]], [1, 1, 0], [[0, 0, 1], [1, 1, 0], [0, 1, 0]]),
    (
        F9,
        [[0, a9], [a9, F9.one() + a9]],
        [[1, 1], [2, 1]],
        [[[0, 0], [1, 0]], [[1, 0], [1, 1]]],
    ),
    (
        Q,
        [[0, 2, 1], [2, 0, 3], [1, 3, 0]],
        ["4", "-1", "-3"],
        [["1", "-1/2", "-3/2"], ["1", "1/2", "-1/2"], ["0", "0", "1"]],
    ),
    (
        Q,
        [[1, 2, 3], [2, 4, 6], [3, 6, 9]],
        ["1", "0", "0"],
        [["1", "-2", "-3"], ["0", "1", "0"], ["0", "0", "1"]],
    ),
    (
        Q,
        [[1, Fraction(1, 2)], [Fraction(1, 2), -3]],
        ["1", "-13/4"],
        [["1", "-1/2"], ["0", "1"]],
    ),
]


@pytest.mark.parametrize("field, gram, entries, basis", PINNED_DIAGONALIZATIONS)
def test_diagonalize_pinned(field, gram, entries, basis):
    got_entries, got_basis = diagonalize(form_of(field, gram))
    assert [e.to_json() for e in got_entries] == entries
    got_basis = linalg.dense(field, got_basis, (len(gram), len(gram)))
    assert [[x.to_json() for x in row] for row in got_basis] == basis


def test_is_degenerate_reads_the_cached_entries(monkeypatch):
    singular = form_of(F3, [[1, 1], [1, 1]])
    calls = congruences(monkeypatch)
    assert singular.is_degenerate()
    assert _diagonal_entries(singular) == (F3.one(), F3.zero())
    assert singular.is_degenerate()
    assert len(calls) == 1
    assert not hyperbolic_plane(F3).is_degenerate()
    assert not QuadraticForm(F3, {}, 0).is_degenerate()


@pytest.mark.parametrize("entries", [[1, -1], [1, -4, 3]], ids=["binary", "pair"])
def test_isotropic_vector_without_a_root_is_an_internal_fault(monkeypatch, entries):
    # the invariants promise a rational square root; its absence is a
    # broken invariant, raised as such rather than as bad input
    monkeypatch.setattr(quadforms, "rational_sqrt", lambda f: None)
    with pytest.raises(RuntimeError, match="no square"):
        quadforms._q_isotropic_vector(entries, squares(entries))


def test_binary_rational_vector_is_one_and_the_root():
    # <a, b> is isotropic exactly when -a/b is a rational square, and the
    # witness is (1, sqrt(-a/b)) with the nonnegative root
    values = [v for v in range(-30, 31) if v]
    for a, b in itertools.product(values, repeat=2):
        ratio = Fraction(-a, b)
        num, den = math.isqrt(max(ratio.numerator, 0)), math.isqrt(ratio.denominator)
        if Fraction(num * num, den * den) == ratio:
            expected = [Fraction(1), Fraction(num, den)]
        else:
            expected = None
        assert quadforms._q_isotropic_vector([a, b], squares([a, b])) == expected, (a, b)


def test_diagonal_entries_cached_per_form(monkeypatch):
    form = form_of(F5, [[1, 2, 0], [2, 0, 1], [0, 1, 3]])
    calls = congruences(monkeypatch)
    entries = _diagonal_entries(form)
    assert _diagonal_entries(form) is entries
    signed_discriminant(form)
    witt_equal(form, form)
    assert _diagonal_entries(form) is entries
    assert len(calls) == 1
    # derived forms are new objects with entries of their own: one
    # congruence each, on their own Gram matrix
    for derived in (form.perp(hyperbolic_plane(F5)), form.scale(2), form.tensor(form)):
        del calls[:]
        assert _diagonal_entries(derived) == tuple(diagonalize(derived)[0])
        assert [m is derived._mat for m in calls] == [True, True]
    # the memo takes no part in equality, hashing or JSON: an equal form
    # shares nothing with ``form``
    other = form_of(F5, gram(form))
    assert other == form and hash(other) == hash(form)
    assert other.to_json() == form.to_json()
    # diagonalize neither reads nor fills the memo
    del calls[:]
    diagonalize(other)
    assert _diagonal_entries(other) == entries
    assert _diagonal_entries(other) is not entries
    assert len(calls) == 2


def test_degenerate_form_rejected():
    q = form_of(F3, [[1, 1], [1, 1]])
    with pytest.raises(DegenerateForm):
        witt_decompose(q)
    with pytest.raises(DegenerateForm):
        witt_equal(q, QuadraticForm.diagonal(F3, [1]))


def test_scale_by_zero_is_the_zero_form():
    form = form_of(F5, [[1, 2, 0], [2, 0, 1], [0, 1, 3]])
    zero = form.scale(0)
    assert zero == form_of(F5, [[0] * 3] * 3)
    assert zero.dim == 3 and zero.is_degenerate()


def test_asymmetric_gram_rejected():
    one, two = F3.one(), F3.from_int(2)
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticForm(F3, {0: {0: one, 1: one}, 1: {0: two, 1: one}}, 2)
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticForm(F3, {0: {1: one}}, 2)


def test_gram_indices_checked():
    one = F5.one()
    assert QuadraticForm(F5, {0: {1: one}, 1: {0: one}}, 2) == hyperbolic_plane(F5)
    with pytest.raises(ValueError, match="does not fit"):
        QuadraticForm(F5, {0: {0: one}, 2: {2: one}}, 2)


def test_sparse_form_views():
    rows = [[1, 0, 2], [0, 0, 0], [2, 0, 3]]
    form = form_of(F5, rows)
    one, two, three = map(F5.from_int, (1, 2, 3))
    assert form._mat == {0: {0: one, 2: two}, 2: {0: two, 2: three}}
    assert form.dim == 3 and gram(form) == tuple(tuple(map(F5.element, row)) for row in rows)
    assert form.to_json()["gram"] == rows
    zero_row = [0, 0, 0]
    assert QuadraticForm.diagonal(F5, [1, 0, 5]) == form_of(F5, [[1, 0, 0], zero_row, zero_row])


# ---------------------------------------------------------------------------
# isotropy and Witt decomposition: finite fields
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", [F3, F5, F9], ids=str)
def test_isotropy_matches_exhaustive_search(field):
    rng = random.Random(31)
    for form in sample_forms(field, rng, 10, max_dim=3):
        found = exhaustive_isotropic_vectors(form)
        entries = _diagonal_entries(form)
        vec = quadforms._finite_isotropic_vector(field, entries)
        assert (vec is not None) == bool(found)
        if vec is not None:
            assert sum((e * x * x for e, x in zip(entries, vec)), field.zero()).is_zero()
        wc = witt_decompose(form)
        assert (wc.hyperbolic > 0) == bool(found)


@pytest.mark.parametrize("field", [F3, F5, F9], ids=str)
def test_binary_vector_is_none_iff_minus_det_is_not_a_square(field):
    # the finder's None is the whole anisotropy decision: for n = 2 it must
    # agree with the square class of -d0*d1
    units = [x for x in field.elements() if not x.is_zero()]
    for d0, d1 in itertools.product(units, repeat=2):
        vec = quadforms._finite_isotropic_vector(field, [d0, d1])
        assert (vec is None) == (not is_square(-d0 * d1)), (d0, d1)


def test_witt_decompose_four_ones_over_f5():
    wc = witt_decompose(QuadraticForm.diagonal(F5, [1, 1, 1, 1]))
    assert wc.anisotropic.dim == 0
    assert wc.hyperbolic == 2
    assert_certificate(QuadraticForm.diagonal(F5, [1, 1, 1, 1]), wc)


def test_witt_decompose_three_ones_over_f3():
    form = QuadraticForm.diagonal(F3, [1, 1, 1])
    wc = witt_decompose(form)
    assert wc.hyperbolic == 1
    assert wc.anisotropic.dim == 1
    # the residual class is the one of <2> = <-1>
    entry = gram(wc.anisotropic)[0][0]
    assert is_square(entry / F3.from_int(2))
    assert not is_square(entry)
    assert_certificate(form, wc)


def test_witt_decompose_three_ones_over_a_field_too_large_to_enumerate():
    # F_{3^13} has more elements than ENUMERATION_CAP; the ternary scan
    # stops at its first hit, so its size must not matter
    field = FieldSpec.extension(F3, find_irreducible(F3, 13))
    assert field.order() > fields.ENUMERATION_CAP
    form = QuadraticForm.diagonal(field, [1, 1, 1])
    wc = witt_decompose(form)
    assert (wc.hyperbolic, wc.anisotropic.dim) == (1, 1)
    assert_certificate(form, wc)


@pytest.mark.parametrize("field", [F3, F5, F7, F9], ids=str)
def test_witt_decompose_certificates_finite(field):
    rng = random.Random(99)
    for form in sample_forms(field, rng, 8, max_dim=4):
        wc = witt_decompose(form)
        assert wc.anisotropic.dim + 2 * wc.hyperbolic == form.dim
        assert wc.anisotropic.dim <= 2  # anisotropic finite forms are small
        assert_certificate(form, wc)
        again = witt_decompose(wc.anisotropic)
        assert again.hyperbolic == 0
        assert again.anisotropic.dim == wc.anisotropic.dim


def test_witt_certificate_is_checked_at_runtime(monkeypatch):
    # a complement row that picks up u is no longer orthogonal to v, so
    # P^T G P leaves the block-diagonal shape and the runtime check raises
    complement = quadforms._orthogonal_complement

    def corrupted(field, form, v, u):
        rows = complement(field, form, v, u)
        if rows:  # the last split has no complement left
            one = field.one()
            rows[0] = linalg.product(field, {0: {0: one, 1: one}}, {0: rows[0], 1: u})[0]
        return rows

    form = QuadraticForm.diagonal(F5, [1, 1, 1, 1])
    assert_certificate(form, witt_decompose(form))
    monkeypatch.setattr(quadforms, "_orthogonal_complement", corrupted)
    with pytest.raises(RuntimeError, match="witt_decompose: the certificate"):
        witt_decompose(form)


#: witt_decompose's anisotropic Gram, hyperbolic count and certificate (as
#: dense rows) for fixed forms
PINNED_DECOMPOSITIONS = [
    (F3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], [[2]], 1, [[2, 0, 2], [0, 2, 1], [0, 0, 1]]),
    (
        F7,
        [[1, 2, 0, 3], [2, 0, 1, 0], [0, 1, 3, 5], [3, 0, 5, 6]],
        [[5, 0], [0, 6]],
        1,
        [[0, 1, 3, 0], [4, 5, 2, 2], [0, 0, 1, 0], [0, 0, 0, 1]],
    ),
    (
        Q,
        [[0, 2, 1], [2, 0, 3], [1, 3, 0]],
        [["-3"]],
        1,
        [["0", "1/4", "-3/2"], ["2", "0", "-1/2"], ["0", "0", "1"]],
    ),
    (
        Q,
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
        [],
        2,
        [
            ["1", "1/2", "0", "0"],
            ["0", "0", "1", "1/2"],
            ["1", "-1/2", "0", "0"],
            ["0", "0", "1", "-1/2"],
        ],
    ),
    (
        Q,
        [[2, 1, 0], [1, -3, 1], [0, 1, 5]],
        [["37"]],
        1,
        [["-4", "9/98", "46/7"], ["22", "-11/98", "-92/7"], ["14", "-1/14", "-9"]],
    ),
]


@pytest.mark.parametrize("field, gram, aniso, hyperbolic, certificate", PINNED_DECOMPOSITIONS)
def test_witt_decompose_pinned(monkeypatch, field, gram, aniso, hyperbolic, certificate):
    form = form_of(field, gram)
    calls = congruences(monkeypatch)
    wc = witt_decompose(form)
    assert wc.to_json()["anisotropic"]["gram"] == aniso
    assert wc.hyperbolic == hyperbolic
    cert = linalg.dense(field, wc.certificate, (form.dim, form.dim))
    assert [[x.to_json() for x in row] for row in cert] == certificate
    # the first diagonalization doubles as the nondegeneracy check: one
    # congruence on the input, whose entries are those of its diagonalization
    assert [m is form._mat for m in calls].count(True) == 1
    assert _diagonal_entries(form) == tuple(diagonalize(form)[0])


def test_hyperbolic_plane_is_trivial():
    for field in (F3, F5, F9):
        wc = witt_decompose(hyperbolic_plane(field))
        assert wc.is_zero() and wc.hyperbolic == 1
        assert witt_equal(hyperbolic_plane(field), witt_zero(field))


# ---------------------------------------------------------------------------
# isotropy and Witt decomposition: rationals
# ---------------------------------------------------------------------------


def coprime_squarefree_triples():
    base = [1, 2, 3, 5, 6, 7]
    for a, b, c in itertools.combinations(base, 3):
        if math.gcd(a, b) != 1 or math.gcd(a, c) != 1 or math.gcd(b, c) != 1:
            continue
        for signs in itertools.product((1, -1), repeat=3):
            if signs[0] == signs[1] == signs[2]:
                continue  # definite: trivially anisotropic
            yield (signs[0] * a, signs[1] * b, signs[2] * c)


def test_rational_ternary_isotropy_matches_bounded_search():
    tested = 0
    for a, b, c in coprime_squarefree_triples():
        form = QuadraticForm.diagonal(Q, [a, b, c])
        isotropic = invariants([a, b, c]).is_isotropic()
        assert isotropic == ternary_search_oracle(a, b, c), (a, b, c)
        tested += 1
    assert tested >= 50


def test_witt_decompose_rational_frozen_cases():
    cases = [
        ([1, -1], 0, 1),
        ([1, 1, -2], 1, 1),
        ([1, 1, -3], 3, 0),  # x^2 + y^2 = 3 z^2 is insoluble
        ([2, 3, -5], 1, 1),
        ([1, 1, 1, 1, -7], 3, 1),  # four squares represent 7
    ]
    for entries, aniso_dim, hyper in cases:
        form = QuadraticForm.diagonal(Q, entries)
        wc = witt_decompose(form)
        assert (wc.anisotropic.dim, wc.hyperbolic) == (aniso_dim, hyper), entries
        assert_certificate(form, wc)


@pytest.mark.parametrize(
    "entries",
    [[-26, -5, -21, 17], [-6, 10, 28, 15], [7, 3, -11, -30]],
    ids=["head-past-d1", "inconclusive-t", "former-lattice-hit"],
)
def test_rational_split_tries_every_head_pair(capsys, entries):
    # no |t| < 400 serves the head <d_0, d_1> of the first and third form,
    # while <d_0, d_2> or <d_0, d_3> has one at once; on the second, sympy's
    # ternary descent is inconclusive on a t, and a later t serves
    assert main(["witt", "decompose", "--field", "Q", "--form=" + ",".join(map(str, entries))]) == 0
    assert capsys.readouterr().out.startswith("hyperbolic planes: 1, anisotropic dimension: 2")
    form = QuadraticForm.diagonal(Q, entries)
    assert_certificate(form, witt_decompose(form))


def test_witt_decompose_rational_random():
    rng = random.Random(515)
    pool = [1, 2, 3, 5, 6, 7, 10, -1, -2, -3, -5, -6, -7, -10]
    for _ in range(18):
        n = rng.randint(1, 4)
        entries = [
            Fraction(rng.choice(pool), rng.choice([1, 1, 1, 2, 3])) for _ in range(n)
        ]
        form = QuadraticForm.diagonal(Q, entries)
        wc = witt_decompose(form)
        assert wc.anisotropic.dim + 2 * wc.hyperbolic == n
        assert_certificate(form, wc)
        # signature is blind to hyperbolic planes
        def signature(f):
            return sum(1 if e.payload > 0 else -1 for e in _diagonal_entries(f))

        assert signature(form) == signature(wc.anisotropic)
        again = witt_decompose(wc.anisotropic)
        assert again.hyperbolic == 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-12, 12).filter(bool), min_size=1, max_size=4),
    st.lists(st.integers(-12, 12).filter(bool), min_size=1, max_size=3),
)
def test_integral_diagonal_forms_over_q(entries, others):
    # int payloads all the way into the isotropic-vector search, whose
    # divisions must stay exact rationals
    form, other = QuadraticForm.diagonal(Q, entries), QuadraticForm.diagonal(Q, others)
    assert all(type(x.payload) is int for row in gram(form) for x in row)
    wc = witt_decompose(form)
    assert_certificate(form, wc)
    assert all(
        isinstance(x.payload, (int, Fraction)) for row in wc.certificate.values() for x in row.values()
    )
    assert invariants(entries).is_isotropic() == (wc.hyperbolic > 0)
    assert witt_equal(form, wc.anisotropic)
    assert witt_equal(form.perp(form.neg()), QuadraticForm(Q, {}, 0))
    assert witt_equal(form.perp(other), other.perp(form))
    assert witt_equal(form, other) == witt_equal(form.perp(other.neg()), QuadraticForm(Q, {}, 0))


@pytest.mark.parametrize("entries", [[6, -1, 3], [3, -1, 6]])
def test_isotropic_ternary_found_in_any_coefficient_order(entries):
    # both forms are isotropic (6 - 9 + 3 = 0); sympy's descent finds no zero
    # of the first in its given order and returns a non-solution for the second
    form = QuadraticForm.diagonal(Q, entries)
    wc = witt_decompose(form)
    assert_certificate(form, wc)
    assert wc.hyperbolic == 1 and invariants(entries).is_isotropic()


def test_rational_dense_gram_decomposes():
    form = form_of(
        Q,
        [
            [0, 1, 2],
            [1, 1, Fraction(1, 2)],
            [2, Fraction(1, 2), -3],
        ],
    )
    wc = witt_decompose(form)
    assert_certificate(form, wc)
    assert wc.hyperbolic >= 1  # isotropic: the (0,0) entry vanishes


def test_definite_forms_are_anisotropic():
    for entries in ([1, 1], [2, 3, 5], [1, 1, 1, 1], [-1, -2, -7]):
        wc = witt_decompose(QuadraticForm.diagonal(Q, entries))
        assert wc.hyperbolic == 0
        assert not invariants(entries).is_isotropic()


# ---------------------------------------------------------------------------
# Witt equality and group structure
# ---------------------------------------------------------------------------


def test_witt_equal_frozen_finite():
    assert witt_equal(
        QuadraticForm.diagonal(F5, [1, 1]), QuadraticForm.diagonal(F5, [2, 2])
    )
    assert witt_equal(
        QuadraticForm.diagonal(F3, [1, 1, 1]), QuadraticForm.diagonal(F3, [2])
    )
    assert not witt_equal(
        QuadraticForm.diagonal(F3, [1, 1, 1]), QuadraticForm.diagonal(F3, [1])
    )
    assert not witt_equal(
        QuadraticForm.diagonal(F5, [1]), QuadraticForm.diagonal(F5, [1, 1])
    )


def test_witt_equal_frozen_rational():
    d = QuadraticForm.diagonal
    assert witt_equal(d(Q, [3, 5]), d(Q, [2, 30]))
    assert witt_equal(d(Q, [1, 1]), d(Q, [2, 2]))
    assert not witt_equal(d(Q, [1, 1]), d(Q, [1, -1]))
    assert not witt_equal(d(Q, [1, 1, -3]), d(Q, [1, -1, 1]))
    assert witt_equal(d(Q, [1, -1, 7, -7]), witt_zero(Q))


def test_witt_equal_respects_decomposition():
    rng = random.Random(77)
    for field in (F3, F5, F9):
        for form in sample_forms(field, rng, 6, max_dim=4):
            wc = witt_decompose(form)
            assert witt_equal(form, wc)
            assert witt_equal(wc.anisotropic, wc)


def test_witt_equal_field_mismatch():
    with pytest.raises(FieldMismatch):
        witt_equal(QuadraticForm.diagonal(F3, [1]), QuadraticForm.diagonal(F5, [1]))


def test_witt_ops_unsupported_field():
    E = FieldSpec.extension(Q, [-2, 0, 1])
    with pytest.raises(UnsupportedField):
        witt_decompose(QuadraticForm.diagonal(E, [1, 1, 1]))
    with pytest.raises(UnsupportedField):
        witt_equal(QuadraticForm.diagonal(E, [1]), QuadraticForm.diagonal(E, [2]))


@pytest.mark.parametrize("field", [F3, F5, F7, F9], ids=str)
def test_witt_ring_axioms(field):
    rng = random.Random(640)
    one = QuadraticForm.diagonal(field, [1])
    zero = witt_zero(field)
    forms = list(sample_forms(field, rng, 5, max_dim=2))
    for a, b, c in zip(forms, forms[1:], forms[2:]):
        assert witt_equal(witt_add(a, b), witt_add(b, a))
        assert witt_equal(witt_add(witt_add(a, b), c), witt_add(a, witt_add(b, c)))
        assert witt_equal(witt_add(a, zero), a)
        assert witt_add(a, witt_neg(a)).is_zero()
        assert witt_equal(witt_mul(a, b), witt_mul(b, a))
        assert witt_equal(witt_mul(witt_mul(a, b), c), witt_mul(a, witt_mul(b, c)))
        assert witt_equal(witt_mul(one, a), a)
        lhs = witt_mul(a, witt_add(b, c))
        rhs = witt_add(witt_mul(a, b), witt_mul(a, c))
        assert witt_equal(lhs, rhs)


def test_witt_ring_axioms_rational_smoke():
    d = QuadraticForm.diagonal
    a, b = d(Q, [2, -3]), d(Q, [5])
    assert witt_equal(witt_add(a, b), witt_add(b, a))
    assert witt_add(a, witt_neg(a)).is_zero()
    assert witt_equal(witt_mul(a, d(Q, [1])), a)


def test_signed_discriminant():
    assert signed_discriminant(QuadraticForm.diagonal(F3, [1, 1])) == F3.from_int(-1)
    assert signed_discriminant(QuadraticForm.diagonal(Q, [2, 3])).payload == Fraction(-6)
    # stable under adding a hyperbolic plane
    form = QuadraticForm.diagonal(F5, [1, 2])
    bigger = form.perp(hyperbolic_plane(F5))
    assert is_square(signed_discriminant(form) * signed_discriminant(bigger))


def test_signature():
    # the invariants keep positives minus negatives of the square classes
    assert invariants([1, 1, 1, 1, -7]).sig == 3
    assert invariants([Fraction(-1, 2), 3, Fraction(-5, 7)]).sig == -1


# ---------------------------------------------------------------------------
# values and products of one form
# ---------------------------------------------------------------------------


def test_evaluate_and_bilinear():
    form = form_of(Q, [[1, 2], [2, -1]])
    assert bilinear(form, [1, 1], [1, 1]).payload == Fraction(4)  # 1 + 2*2 - 1
    assert bilinear(form, [1, 0], [0, 1]).payload == Fraction(2)
    assert form.tensor(form).dim == 4
    assert form.perp(form).dim == 4
