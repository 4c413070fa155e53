"""Chain complexes: signs, duality, cones, homology, graded pieces.

Oracle strategy: over a field every bounded complex splits into
zero-differential summands plus contractible two-term identity pieces, so
``split_complex`` below builds that skeleton with *prescribed* homology and
then conjugates each degree by a random invertible matrix.  Homology is
basis-independent, so the skeleton is an exact oracle for ``homology_dims``
and for quasi-isomorphism detection, while the conjugated matrices look
nothing like the skeleton.  Sign conventions are expanded by hand once in
the frozen-matrix tests and every derived sign (shift, hom, dual, bidual)
is pinned against them.  ``two_term``, ``shift`` and ``direct_sum`` are
built here from dense matrices, as oracles for the library's constructions;
``_sparse_of`` turns dense literals into the sparse matrices the
constructors take.
"""

import hashlib
import itertools
import json
import math
import random

import pytest

from wittforge import complexes, linalg
from wittforge.complexes import (
    RANK_CAP,
    ChainComplex,
    ChainMap,
    DualityDatum,
    adjunction_counit,
    adjunction_triangle_check,
    adjunction_unit,
    associator,
    bidual_involution_check,
    bidual_map,
    cone,
    dualize,
    dualize_map,
    duality_interchange,
    graded_homology_dims,
    hom_complex,
    hom_layout,
    hom_post,
    homology_dims,
    infer_grading,
    left_unitor,
    scale_map,
    single,
    tensor,
    tensor_layout,
    tensor_map,
)
from wittforge.errors import (
    BoundsExceeded,
    GradingInconsistent,
    NotAChainComplex,
    NotAChainMap,
    NotAField,
    NotHomogeneous,
    RingMismatch,
)
from wittforge.fields import FieldSpec
from wittforge.polynomials import PolyRing
from wittforge.verify import random_complex

F5 = FieldSpec.Fp(5)
F7 = FieldSpec.Fp(7)
Q = FieldSpec.Q()
RX = PolyRing(Q, ("x",))
RXY = PolyRing(Q, ("x", "y"))


def _sparse_of(ring, mats):
    """degree -> the sparse matrix of each dense matrix of ``mats``, its
    entries coerced into ``ring``."""
    return {n: linalg.sparse([map(ring.element, row) for row in m]) for n, m in mats.items()}


def dense_rows(x, n):
    """A complex's differential, or a chain map's component, at degree n as
    dense lists (zeros when absent)."""
    ring = x.ring if isinstance(x, ChainComplex) else x.source.ring
    return [list(row) for row in linalg.dense(ring, x._mats.get(n, {}), x._shape(n))]


def components(f):
    """Each given component of a chain map as dense lists, zero ones included."""
    return {n: dense_rows(f, n) for n in f._degrees}


def two_term(ring, matrix):
    """[A_1 -> A_0] given by one matrix."""
    rows, cols = linalg.shape(matrix)
    return ChainComplex(ring, {1: cols, 0: rows}, _sparse_of(ring, {1: matrix}))


def kos1(ring, var):
    """[R --var--> R] in degrees 1, 0."""
    return two_term(ring, [[ring.variable(var)]])


def shift(a, k):
    """(T^k A)_n = A_{n-k}, differential scaled by (-1)^k."""
    sign = -a.ring.one() if k % 2 else a.ring.one()
    diffs = {n + k: [[sign * x for x in row] for row in mat] for n, mat in a.diffs.items()}
    return ChainComplex(a.ring, {n + k: r for n, r in a.terms.items()}, _sparse_of(a.ring, diffs))


def direct_sum(a, b):
    """A + B degreewise, block-diagonal differentials, A's basis first."""
    zero = a.ring.zero()
    diffs = {}
    for n in set(a.diffs) | set(b.diffs):
        da, db = dense_rows(a, n), dense_rows(b, n)
        top = [row + [zero] * b.rank(n) for row in da]
        bottom = [[zero] * a.rank(n) + row for row in db]
        diffs[n] = top + bottom
    terms = {n: a.rank(n) + b.rank(n) for n in set(a.terms) | set(b.terms)}
    return ChainComplex(a.ring, terms, _sparse_of(a.ring, diffs))


# ---------------------------------------------------------------------------
# oracle generators
# ---------------------------------------------------------------------------


def random_invertible(field, rng, n):
    if n == 0:
        return []
    while True:
        m = [[field.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if linalg.inverse(field, m) is not None:
            return m


def _skeleton(field, rng, lo, hi, max_h, max_e, force_h_at=None):
    h = {n: rng.randint(0, max_h) for n in range(lo, hi + 1)}
    if force_h_at is not None:
        h[force_h_at] = max(1, h[force_h_at])
    e = {n: rng.randint(0, max_e) for n in range(lo + 1, hi + 1)}
    terms = {}
    for n in range(lo, hi + 1):
        terms[n] = h[n] + e.get(n, 0) + e.get(n + 1, 0)
    diffs = {}
    for n in range(lo + 1, hi + 1):
        if not terms[n - 1] or not terms[n] or not e.get(n):
            continue
        mat = linalg.zeros(field, terms[n - 1], terms[n])
        for k in range(e[n]):
            mat[h[n - 1] + e.get(n - 1, 0) + k][h[n] + k] = field.one()
        diffs[n] = mat
    return h, e, terms, diffs


def _conjugate(field, terms, diffs, basis):
    new_diffs = {}
    for n, mat in diffs.items():
        p_out = linalg.sparse(basis[n - 1])
        p_in_inv = linalg.inverse(field, basis[n])
        conj = linalg.product(field, p_out, linalg.sparse(mat))
        new_diffs[n] = linalg.product(field, conj, p_in_inv)
    return ChainComplex(field, terms, new_diffs)


def split_complex(field, rng, lo=-1, hi=3, max_h=2, max_e=2):
    """A random complex with known homology: (complex, expected dims)."""
    h, _, terms, diffs = _skeleton(field, rng, lo, hi, max_h, max_e)
    basis = {n: random_invertible(field, rng, r) for n, r in terms.items()}
    cx = _conjugate(field, terms, diffs, basis)
    return cx, {n: r for n, r in h.items() if r and terms[n]}


def chain_map_pair(field, rng, kill_degree=None):
    """Two complexes with the same homology and a map between them.

    The map is the identity on the homology summands (a quasi-isomorphism)
    unless ``kill_degree`` names a degree whose homology block is zeroed,
    which destroys the induced isomorphism exactly there.
    """
    lo, hi = 0, 3
    force = kill_degree if kill_degree is not None else 1
    h = {n: rng.randint(0, 2) for n in range(lo, hi + 1)}
    h[force] = max(1, h[force])

    def build(h):
        e = {n: rng.randint(0, 2) for n in range(lo + 1, hi + 1)}
        terms = {}
        for n in range(lo, hi + 1):
            terms[n] = h[n] + e.get(n, 0) + e.get(n + 1, 0)
        diffs = {}
        for n in range(lo + 1, hi + 1):
            if not terms[n - 1] or not terms[n] or not e.get(n):
                continue
            mat = linalg.zeros(field, terms[n - 1], terms[n])
            for k in range(e[n]):
                mat[h[n - 1] + e.get(n - 1, 0) + k][h[n] + k] = field.one()
            diffs[n] = mat
        return terms, diffs

    terms_a, diffs_a = build(h)
    terms_b, diffs_b = build(h)
    comps = {}
    for n in range(lo, hi + 1):
        if not terms_a[n] or not terms_b[n]:
            continue
        mat = linalg.zeros(field, terms_b[n], terms_a[n])
        if n != kill_degree:
            for k in range(h[n]):
                mat[k][k] = field.one()
        comps[n] = mat
    basis_a = {n: random_invertible(field, rng, r) for n, r in terms_a.items()}
    basis_b = {n: random_invertible(field, rng, r) for n, r in terms_b.items()}
    a = _conjugate(field, terms_a, diffs_a, basis_a)
    b = _conjugate(field, terms_b, diffs_b, basis_b)
    twisted = {}
    for n, mat in comps.items():
        if not terms_a[n] or not terms_b[n]:
            continue
        inv = linalg.inverse(field, basis_a[n])
        p_out = linalg.sparse(basis_b[n])
        twisted[n] = linalg.product(field, linalg.product(field, p_out, linalg.sparse(mat)), inv)
    return ChainMap(a, b, twisted)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_d_squared_enforced():
    with pytest.raises(NotAChainComplex):
        ChainComplex(F5, {0: 1, 1: 1, 2: 1}, _sparse_of(F5, {1: [[1]], 2: [[1]]}))
    # the same shape with a genuine composite-zero differential is fine
    ChainComplex(F5, {0: 1, 1: 1, 2: 1}, _sparse_of(F5, {1: [[1]], 2: [[0]]}))


def test_d_squared_caught_in_last_column_only():
    # d1 . d2 vanishes on the first two columns of d2 and is 1 on the last
    terms = {0: 1, 1: 3, 2: 3}
    d1 = [[1, 1, 0]]
    d2 = [[1, 0, 1], [-1, 0, 0], [0, 1, 0]]
    with pytest.raises(NotAChainComplex):
        ChainComplex(F5, terms, _sparse_of(F5, {1: d1, 2: d2}))
    d2[0][2] = 0
    ChainComplex(F5, terms, _sparse_of(F5, {1: d1, 2: d2}))
    # over a polynomial ring: only the monomial xy of the last column survives
    x, y = RXY.variable("x"), RXY.variable("y")
    terms = {0: 1, 1: 2, 2: 2}
    d1 = [[x, y]]
    d2 = [[y, y], [-x, 0]]
    with pytest.raises(NotAChainComplex):
        ChainComplex(RXY, terms, _sparse_of(RXY, {1: d1, 2: d2}))
    d2[0][1] = RXY.zero()
    ChainComplex(RXY, terms, _sparse_of(RXY, {1: d1, 2: d2}))


def test_trusted_constructors_check_shapes():
    # sparse indices outside the shape, of a complex and of a chain map:
    # the sparse constructors (once the unchecked fast path) check them
    one = F5.one()
    for terms, mats in (
        ({0: 1, 1: 1}, {1: {0: {1: one}}}),
        ({0: 1, 1: 1}, {1: {1: {0: one}}}),
        ({0: 1}, {5: {0: {0: one}}}),
    ):
        with pytest.raises(NotAChainComplex, match="does not fit"):
            ChainComplex(F5, terms, mats)
    a = two_term(F5, [[1]])
    with pytest.raises(NotAChainMap, match="does not fit"):
        ChainMap(a, a, {0: {0: {0: one}}, 1: {0: {2: one}}})


def test_shape_mismatch_rejected():
    # dense rows, read from JSON alone: a wrong shape, and a nonzero
    # differential between missing terms
    ring = F5.to_json()
    with pytest.raises(NotAChainComplex, match="has shape"):
        ChainComplex.from_json({"ring": ring, "terms": {"0": 2, "1": 1}, "diffs": {"1": [[1]]}})
    for rows in ([[1]], [[], [1]]):
        with pytest.raises(NotAChainComplex, match="missing terms"):
            ChainComplex.from_json({"ring": ring, "terms": {"0": 1}, "diffs": {"5": rows}})
    zeros = {"ring": ring, "terms": {"0": 1}, "diffs": {"5": [[], [0]]}}
    assert ChainComplex.from_json(zeros) == single(F5, 0)


def test_negative_rank_rejected():
    with pytest.raises(NotAChainComplex):
        ChainComplex(F5, {0: -1}, {})


def test_rank_cap():
    with pytest.raises(BoundsExceeded):
        ChainComplex(F5, {0: RANK_CAP + 1}, {})


def test_zero_ranks_dropped():
    cx = ChainComplex(F5, {0: 1, 1: 0}, {})
    assert cx.terms == {0: 1}
    assert sorted(cx.terms) == [0]


def test_chain_map_must_commute():
    a = two_term(F5, [[1]])
    b = two_term(F5, [[2]])
    with pytest.raises(NotAChainMap):
        ChainMap(a, b, _sparse_of(F5, {0: [[1]], 1: [[1]]}))
    ChainMap(a, b, _sparse_of(F5, {0: [[2]], 1: [[1]]}))


def test_chain_map_must_commute_polynomial():
    x, y = RXY.variable("x"), RXY.variable("y")
    a = kos1(RXY, "x")
    b = two_term(RXY, [[x * y]])
    ChainMap(a, b, _sparse_of(RXY, {1: [[1]], 0: [[y]]}))  # y . x = xy . 1
    # x + y: the two sides differ in the monomial x^2 alone
    for f0 in (x, x + y, 2 * y, RXY.zero()):
        with pytest.raises(NotAChainMap):
            ChainMap(a, b, _sparse_of(RXY, {1: [[1]], 0: [[f0]]}))


def test_chain_map_identity_and_compose():
    a = two_term(F5, [[2]])
    i = ChainMap.identity(a)
    assert i.compose(i) == i
    assert i.is_identity()


def test_ring_mismatch():
    a = single(F5, 0)
    b = single(Q, 0)
    with pytest.raises(RingMismatch):
        tensor(a, b)
    with pytest.raises(RingMismatch):
        hom_complex(a, b)
    with pytest.raises(RingMismatch):
        ChainMap(a, b, {})


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------


def test_shift_negates_differential():
    kx = kos1(RX, "x")
    x = RX.variable("x")
    assert dense_rows(shift(kx, 1), 2) == [[-x]]
    assert dense_rows(shift(kx, 2), 3) == [[x]]
    assert dense_rows(shift(kx, -1), 0) == [[-x]]


def test_shift_agrees_with_tensor_by_shifted_unit():
    # the Koszul rule applied to (single in degree 1) (x) A reproduces the
    # shift, including its sign -- the two sign sites cannot drift apart
    rng = random.Random(17)
    for _ in range(5):
        cx, _ = split_complex(F5, rng, lo=0, hi=2)
        assert tensor(single(F5, 1), cx) == shift(cx, 1)


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


def test_tensor_unit_is_identity():
    rng = random.Random(91)
    for field in (F5, Q):
        cx, _ = split_complex(field, rng, lo=-1, hi=2)
        l = left_unitor(cx)
        assert l.source == tensor(single(field, 0), cx)
        assert tensor(cx, single(field, 0)) == cx
        for n in cx.terms:
            assert linalg.sparse(dense_rows(l, n)) == linalg.identity(field, cx.rank(n))


def test_tensor_two_term_ranks():
    t = tensor(kos1(RXY, "x"), kos1(RXY, "y"))
    assert t.terms == {0: 1, 1: 2, 2: 1}


def test_tensor_sign_rule_frozen():
    # d(a (x) b) = da (x) b + (-1)^{|a|} a (x) db, expanded by hand for
    # [R -x-> R] (x) [R -y-> R]; degree-1 basis is (1 (x) b, a (x) 1)
    x, y = RXY.variable("x"), RXY.variable("y")
    t = tensor(kos1(RXY, "x"), kos1(RXY, "y"))
    assert dense_rows(t, 2) == [[x], [-y]]
    assert dense_rows(t, 1) == [[y, x]]
    # tensoring in the other order puts the sign on x
    s = tensor(kos1(RXY, "y"), kos1(RXY, "x"))
    assert dense_rows(s, 2) == [[y], [-x]]
    assert dense_rows(s, 1) == [[x, y]]


def test_associator_is_invertible_chain_map():
    rng = random.Random(5)
    a, _ = split_complex(F5, rng, lo=0, hi=1)
    b, _ = split_complex(F5, rng, lo=0, hi=1)
    c, _ = split_complex(F5, rng, lo=-1, hi=1)
    al = associator(a, b, c)
    # permutation components: the transpose is the inverse, and it must
    # itself be a chain map
    transposes = {n: list(zip(*m)) for n, m in components(al).items()}
    inv = ChainMap(al.target, al.source, _sparse_of(al.source.ring, transposes))
    assert al.compose(inv).is_identity()
    assert inv.compose(al).is_identity()


def test_associator_polynomial_ring():
    kx, ky = kos1(RXY, "x"), kos1(RXY, "y")
    al = associator(kx, ky, ky)
    transposes = {n: list(zip(*m)) for n, m in components(al).items()}
    inv = ChainMap(al.target, al.source, _sparse_of(al.source.ring, transposes))
    assert al.compose(inv).is_identity()
    assert inv.compose(al).is_identity()


# ---------------------------------------------------------------------------
# hom
# ---------------------------------------------------------------------------


def test_hom_from_unit_is_identity():
    rng = random.Random(23)
    cx, _ = split_complex(F5, rng, lo=-1, hi=2)
    assert hom_complex(single(F5, 0), cx) == cx


def test_hom_into_unit_is_signed_transpose():
    rng = random.Random(29)
    cx, _ = split_complex(F5, rng, lo=0, hi=3)
    d = hom_complex(cx, single(F5, 0))
    for n in cx.terms:
        assert d.rank(-n) == cx.rank(n)
    for n in list(d.diffs):
        # (df)(a) = -(-1)^{|f|} f(da): the only surviving block
        sign = F5.from_int(1 if n % 2 else -1)
        expected = linalg.scaled(sign, linalg.transpose(linalg.sparse(dense_rows(cx, 1 - n))))
        assert linalg.sparse(dense_rows(d, n)) == expected


def test_adjunction_triangles_small_frozen():
    a = kos1(RX, "x")
    b = two_term(RX, [[RX.variable("x") * RX.variable("x")]])
    c = single(RX, 0)
    assert adjunction_triangle_check(a, b, c)


def test_adjunction_triangles_random():
    rng = random.Random(47)
    for field in (F5, Q):
        for _ in range(6):
            a, _ = split_complex(field, rng, lo=0, hi=1, max_h=1, max_e=1)
            b, _ = split_complex(field, rng, lo=0, hi=1, max_h=1, max_e=1)
            c, _ = split_complex(field, rng, lo=0, hi=1, max_h=1, max_e=1)
            if sum(a.terms.values()) + sum(b.terms.values()) + sum(c.terms.values()) > 8:
                continue
            assert adjunction_triangle_check(a, b, c)


def test_adjunction_unit_counit_are_chain_maps():
    # construction already certifies commutation; pin the shapes too
    rng = random.Random(53)
    a, _ = split_complex(F7, rng, lo=0, hi=2, max_h=1, max_e=1)
    b, _ = split_complex(F7, rng, lo=0, hi=1, max_h=1, max_e=1)
    u = adjunction_unit(a, b)
    assert u.source == a
    assert u.target == hom_complex(b, tensor(a, b))
    e = adjunction_counit(b, a)
    assert e.target == a
    assert e.source == tensor(hom_complex(b, a), b)


# ---------------------------------------------------------------------------
# products and duals kept on the first factor
# ---------------------------------------------------------------------------


def test_tensor_and_hom_are_kept_on_the_first_factor():
    a, b = kos1(RXY, "x"), kos1(RXY, "y")
    assert tensor(a, b) is tensor(a, b)
    assert hom_complex(a, b) is hom_complex(a, b)
    assert tensor(b, a) is not tensor(a, b)


def test_an_equal_but_distinct_second_factor_gets_a_fresh_product():
    a, b = kos1(RXY, "x"), kos1(RXY, "y")
    b2 = kos1(RXY, "y")
    assert b2 == b and b2 is not b
    for op in (tensor, hom_complex):
        first = op(a, b)
        second = op(a, b2)
        assert second is not first and second == first


def test_tensor_and_hom_never_share_an_entry():
    a, b = kos1(RXY, "x"), kos1(RXY, "y")
    fresh_a, fresh_b = kos1(RXY, "x"), kos1(RXY, "y")
    assert hom_complex(fresh_a, fresh_b) != tensor(fresh_a, fresh_b)
    assert tensor(a, b) == tensor(fresh_a, fresh_b)
    assert hom_complex(a, b) == hom_complex(fresh_a, fresh_b)
    assert tensor(b, a) == tensor(fresh_b, fresh_a)
    # dualize keeps its dual in the same memo, by degree
    assert dualize(a, 0) == hom_complex(fresh_a, single(RXY, 0))


def test_instrumented_tensor_and_hom_keep_their_own_entries(monkeypatch):
    # two wrappers of one name around the two operations: the memo key is the
    # operation itself, not a name, so the triangle check still composes
    def instrumented(build):
        def counted(a, b):
            return build(a, b)

        return counted

    for name in ("tensor", "hom_complex"):
        monkeypatch.setattr(complexes, name, instrumented(getattr(complexes, name)))
    rng = random.Random(53)
    a, _ = split_complex(F7, rng, lo=0, hi=2, max_h=1, max_e=1)
    b, _ = split_complex(F7, rng, lo=0, hi=1, max_h=1, max_e=1)
    assert adjunction_triangle_check(a, b, single(F7, 1))


def test_a_square_does_not_keep_its_factor():
    # tensor(a, a) lives in a's own memo: storing a there would be a cycle
    a = kos1(RXY, "x")
    square = tensor(a, a)
    assert tensor(a, a) is square
    assert not any(part is a for _, args in a._memo.values() for part in args)


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def test_duality_datum_requires_unit():
    with pytest.raises(ValueError):
        DualityDatum(F5, twist=0)
    with pytest.raises(ValueError):
        DualityDatum(RX, twist=RX.variable("x"))
    DualityDatum(RX, twist=3, degree=2)


def test_bidual_of_point_is_identity():
    a = single(F5, 0)
    bid = bidual_map(a, 0)
    assert dense_rows(bid, 0) == [[F5.one()]]
    assert dualize(dualize(a, 0), 0) == a


def test_dual_of_two_term_frozen_signs():
    # D[R -x-> R] = [R -(-x)-> R] in degrees 0, -1; the double dual flips
    # the sign back except for the hom-rule sign, leaving -x in degree 1
    x = RX.variable("x")
    kx = kos1(RX, "x")
    d = dualize(kx, 0)
    assert d.terms == {0: 1, -1: 1}
    assert dense_rows(d, 0) == [[-x]]
    dd = dualize(d, 0)
    assert dd.terms == {0: 1, 1: 1}
    assert dense_rows(dd, 1) == [[-x]]
    bid = bidual_map(kx, 0)
    assert dense_rows(bid, 0) == [[RX.one()]]
    assert dense_rows(bid, 1) == [[-RX.one()]]


def test_dual_is_kept_per_degree():
    # one dual per complex and degree
    kx = kos1(RX, "x")
    d0 = dualize(kx, 0)
    d2 = dualize(kx, 2)
    assert d2 is not d0 and d2.terms == {2: 1, 1: 1}
    assert dualize(kx, 2) is d2
    assert dualize(kx, 0) is d0


def test_bidual_is_degreewise_iso():
    rng = random.Random(61)
    for d in (-1, 0, 2):
        cx, _ = split_complex(F5, rng, lo=-1, hi=2)
        bid = bidual_map(cx, d)
        assert bid.source.terms == bid.target.terms
        for n in cx.terms:
            assert linalg.inverse(F5, dense_rows(bid, n)) is not None


def test_bidual_intro_identity_hundred_random():
    rng = random.Random(67)
    checked = 0
    for field in (F5, Q):
        for d in (-1, 0, 1, 2):
            for _ in range(13):
                cx, _ = split_complex(field, rng, lo=-1, hi=2)
                assert bidual_involution_check(cx, d)
                checked += 1
    assert checked >= 100


def test_dualize_map_contravariant():
    rng = random.Random(71)
    f = chain_map_pair(F5, rng)
    g = chain_map_pair(F5, rng)
    # compose g after f by routing through a shared middle complex is not
    # available from the generator, so check contravariance on identities
    ida = ChainMap.identity(f.source)
    assert dualize_map(ida, 1).is_identity()
    df = dualize_map(f, 1)
    assert df.source == dualize(f.target, 1)
    assert df.target == dualize(f.source, 1)
    del g


# ---------------------------------------------------------------------------
# cones and homology
# ---------------------------------------------------------------------------


def test_homology_zero_differentials():
    cx = ChainComplex(F5, {0: 2, 3: 1}, {})
    assert homology_dims(cx) == {0: 2, 3: 1}


def test_homology_iso_two_term():
    cx = two_term(F5, [[2, 1], [1, 1]])
    assert homology_dims(cx) == {}


def test_homology_requires_field():
    with pytest.raises(NotAField):
        homology_dims(kos1(RX, "x"))


def test_homology_matches_split_oracle():
    rng = random.Random(73)
    for field in (F5, F7, Q):
        for _ in range(10):
            cx, expected = split_complex(field, rng)
            assert homology_dims(cx) == expected


def test_cone_of_identity_contractible():
    rng = random.Random(79)
    for _ in range(5):
        cx, _ = split_complex(F5, rng)
        assert homology_dims(cone(ChainMap.identity(cx))) == {}


def test_cone_of_zero_map_is_sum():
    rng = random.Random(83)
    a, _ = split_complex(F5, rng, lo=0, hi=2)
    b, _ = split_complex(F5, rng, lo=0, hi=2)
    assert cone(ChainMap(a, b, {})) == direct_sum(b, shift(a, 1))


def test_koszul_as_iterated_cone():
    # multiplication by x on the unit complex has the length-one Koszul
    # complex as its cone, and multiplication by y on that cone rebuilds the
    # two-variable tensor, matrices and signs included
    x = RXY.variable("x")
    unit = single(RXY, 0)
    kx = cone(ChainMap(unit, unit, _sparse_of(RXY, {0: [[x]]})))
    assert kx == kos1(RXY, "x")
    y = RXY.variable("y")
    mult_y = ChainMap(kx, kx, _sparse_of(RXY, {0: [[y]], 1: [[y]]}))
    assert cone(mult_y) == tensor(kos1(RXY, "y"), kos1(RXY, "x"))


def test_cone_triangle_maps():
    rng = random.Random(89)
    f = chain_map_pair(F5, rng)
    a, b, c = f.source, f.target, cone(f)
    # C(f)_n = B_n + A_{n-1}: the inclusion of B and the projection onto TA
    # are chain maps exactly when the cone's differential is (db + fa, -da)
    one, zero = F5.one(), F5.zero()
    include, project = {}, {}
    for n in c.terms:
        rb, ra = b.rank(n), a.rank(n - 1)
        include[n] = [[one if i == j else zero for j in range(rb)] for i in range(rb + ra)]
        project[n] = [[one if rb + i == j else zero for j in range(rb + ra)] for i in range(ra)]
    inc = ChainMap(b, c, _sparse_of(F5, include))
    proj = ChainMap(c, shift(a, 1), _sparse_of(F5, project))
    # the composite B -> C(f) -> TA is zero
    comp = proj.compose(inc)
    for n in comp.source.terms:
        assert all(x.is_zero() for row in dense_rows(comp, n) for x in row)


def test_quasi_iso_iff_acyclic_cone():
    rng = random.Random(97)
    fields = [F5, F7, Q]
    for k in range(25):
        f = chain_map_pair(fields[k % 3], rng)
        assert homology_dims(cone(f)) == {}
    for k in range(25):
        f = chain_map_pair(fields[k % 3], rng, kill_degree=rng.choice([0, 1, 2]))
        assert homology_dims(cone(f)) != {}


# ---------------------------------------------------------------------------
# graded pieces
# ---------------------------------------------------------------------------


def test_infer_grading_koszul():
    t = tensor(kos1(RXY, "x"), kos1(RXY, "y"))
    grading = infer_grading(t)
    assert grading[(0, 0)] == 0
    assert grading[(1, 0)] == grading[(1, 1)] == 1
    assert grading[(2, 0)] == 2


def test_infer_grading_is_kept_on_the_complex():
    t = tensor(kos1(RXY, "x"), kos1(RXY, "y"))
    grading = infer_grading(t)
    assert graded_homology_dims(t, 3) == {(0, 0): 1}
    assert infer_grading(t) is grading


def test_infer_grading_disconnected_blocks_anchor_at_zero():
    cx = ChainComplex(RX, {0: 1, 5: 1}, {})
    grading = infer_grading(cx)
    assert grading == {(0, 0): 0, (5, 0): 0}


def test_not_homogeneous():
    x = RX.variable("x")
    cx = two_term(RX, [[x + x * x]])
    with pytest.raises(NotHomogeneous):
        infer_grading(cx)
    with pytest.raises(NotHomogeneous):
        graded_homology_dims(two_term(RX, [[x + 1]]), 3)


def test_grading_inconsistent():
    x, y = RXY.variable("x"), RXY.variable("y")
    cx = ChainComplex(RXY, {1: 2, 0: 2}, _sparse_of(RXY, {1: [[x, y], [y, x * x]]}))
    with pytest.raises(GradingInconsistent):
        infer_grading(cx)


@pytest.mark.parametrize("n", range(4))
def test_monomials_of_degree_are_each_exponent_once_in_lex_order(n):
    # a graded piece's basis: no monomial of a negative degree, and one
    # cached tuple per (variables, degree)
    ring = PolyRing(Q, ("x", "y", "z")[:n])
    for degree in range(-2, 5):
        every = itertools.product(range(max(degree, 0) + 1), repeat=n)
        expected = tuple(sorted((e for e in every if sum(e) == degree), reverse=True))
        assert ring.monomials_of_degree(degree) == expected
        assert ring.monomials_of_degree(degree) is ring.monomials_of_degree(degree)


def test_graded_homology_regular_element():
    # x is a nonzerodivisor: [R -x-> R] resolves R/(x), so H_1 vanishes in
    # every internal degree and H_0 is one-dimensional in degree 0 only
    out = graded_homology_dims(kos1(RX, "x"), 6)
    assert out == {(0, 0): 1}


def test_graded_homology_rejects_an_empty_window():
    # [R -x-> R] lives in internal degrees 0 and 1: a bound below 0 reads no
    # graded piece at all, so it raises instead of returning no homology
    cx = kos1(RX, "x")
    with pytest.raises(BoundsExceeded, match="bound -1 is below the lowest internal degree 0"):
        graded_homology_dims(cx, -1)
    assert graded_homology_dims(cx, 0) == {(0, 0): 1}


def test_graded_homology_regular_pair():
    t = tensor(kos1(RXY, "x"), kos1(RXY, "y"))
    out = graded_homology_dims(t, 6)
    assert out == {(0, 0): 1}


def test_graded_homology_nonregular_pair():
    # (x, x) is not regular: H_1 survives
    t = tensor(kos1(RX, "x"), kos1(RX, "x"))
    out = graded_homology_dims(t, 4)
    assert out[(0, 0)] == 1
    assert all(h >= 1 for (n, _), h in out.items() if n == 1)
    assert (1, 1) in out


def piece_dims(cx, bound):
    """(homological degree, internal degree) -> dimension of the graded piece:
    a generator of internal degree g contributes C(t - g + v - 1, v - 1) in
    degree t over v variables."""
    v = len(cx.ring.vars)
    out = {}
    for (n, _), g in infer_grading(cx).items():
        for t in range(g, bound + 1):
            out[(n, t)] = out.get((n, t), 0) + math.comb(t - g + v - 1, v - 1)
    return out


def test_graded_pieces_zero_differential():
    cx = ChainComplex(RXY, {0: 2}, {})
    out = graded_homology_dims(cx, 2)
    assert out == {(0, 0): 2, (0, 1): 4, (0, 2): 6}
    assert piece_dims(cx, 2) == out


def test_graded_euler_characteristic_conserved():
    for cx in (
        tensor(kos1(RXY, "x"), kos1(RXY, "y")),
        tensor(kos1(RX, "x"), kos1(RX, "x")),
        shift(tensor(kos1(RXY, "x"), kos1(RXY, "y")), 2),
    ):
        bound = 5
        hom = graded_homology_dims(cx, bound)
        pieces = piece_dims(cx, bound)
        for t in range(0, bound + 1):
            chi_h = sum((-1) ** n * v for (n, s), v in hom.items() if s == t)
            chi_r = sum((-1) ** n * v for (n, s), v in pieces.items() if s == t)
            assert chi_h == chi_r


def test_graded_needs_polynomial_ring():
    with pytest.raises(NotHomogeneous):
        infer_grading(single(F5, 0))


# ---------------------------------------------------------------------------
# the sparse view and the public matrices
# ---------------------------------------------------------------------------


def _construction_inputs():
    """The complexes over F7, the Koszul lines over Q[x, y], and a map between two."""
    rng = random.Random(2024)
    a, b = random_complex(F7, rng), random_complex(F7, rng)
    x, y = RXY.variable("x"), RXY.variable("y")
    kx, ky = kos1(RXY, "x"), kos1(RXY, "y")
    f = ChainMap(kx, two_term(RXY, [[x * y]]), _sparse_of(RXY, {1: [[1]], 0: [[y]]}))
    return a, b, kx, ky, f


def _constructions():
    """Complexes and maps from every construction, over F7 and Q[x, y]."""
    a, b, kx, ky, f = _construction_inputs()
    kxy = tensor(kx, ky)
    return {
        "tensor": tensor(a, b),
        "hom": hom_complex(a, b),
        "dual": dualize(a, 1),
        "cone_id": cone(ChainMap.identity(a)),
        "kxy": kxy,
        "hom_kxy": hom_complex(kxy, kxy),
        "assoc": associator(kx, ky, kx),
        "tensor_map": tensor_map(f, ChainMap.identity(ky)),
        "unit": adjunction_unit(kx, ky),
        "counit": adjunction_counit(kx, ky),
        "hom_post": hom_post(ky, f),
        "bidual": bidual_map(a, 1),
        "dual_map": dualize_map(bidual_map(a, 1), 1),
        "interchange": duality_interchange(kx, ky, 1, 1),
        "cone_f": cone(f),
        "unitors": left_unitor(kxy),
        "scale": scale_map(f, 0),
        "compose": f.compose(ChainMap.identity(kx)),
    }


#: sha256 prefixes of the JSON of each construction: the public dense form,
#: zero chain-map components included, must not change with the internals
CONSTRUCTION_DIGESTS = {
    "tensor": "b9a485b77fd107b4",
    "hom": "ae85c26ee4631278",
    "dual": "f7f6d3f64d66ef95",
    "cone_id": "06d199a8aea96273",
    "kxy": "7506489e6074fef8",
    "hom_kxy": "6c92370c31175042",
    "assoc": "ca66c2157c64c3f3",
    "tensor_map": "4ed5fc37f93a7640",
    "unit": "9d44653121a342fa",
    "counit": "14790c973604a0dd",
    "hom_post": "7346b1e00c3bfac8",
    "bidual": "4c9bef6ffc0d6bb5",
    "dual_map": "162b235cfcf3f8c0",
    "interchange": "39b5cad3ac8905e5",
    "cone_f": "4f1acee9045610d1",
    "unitors": "07f981e71168b424",
    "scale": "f69c94beb825d3f3",
    "compose": "e8595a5fe3f37edd",
}


def test_layouts_tile_each_term():
    # in basis order, each summand starts where the one before it ends, has
    # the ranks of its two factors, and the summands fill the term exactly
    a, b, kx, ky, f = _construction_inputs()
    over_f7 = (a, b, single(F7, 1))
    over_rxy = (kx, ky, tensor(kx, ky), f.target, single(RXY, 0))
    pairs = [(s, t) for group in (over_f7, over_rxy) for s in group for t in group]
    for s, t in pairs:
        for layout, built in ((tensor_layout, tensor(s, t)), (hom_layout, hom_complex(s, t))):
            for n in range(min(built.terms) - 1, max(built.terms) + 2):
                summands = layout(s, t, n)
                assert list(summands) == sorted(summands)
                end = 0
                for key, (off, ra, rb) in summands.items():
                    i, j = key if layout is tensor_layout else (key, key + n)
                    assert (off, ra, rb) == (end, s.rank(i), t.rank(j))
                    end += ra * rb
                assert end == built.rank(n)


def _digest(obj):
    j = [o.to_json() for o in obj] if isinstance(obj, tuple) else obj.to_json()
    return hashlib.sha256(json.dumps(j, sort_keys=True).encode()).hexdigest()[:16]


def _nonzeros(mat):
    out = {}
    for i, row in enumerate(mat):
        entries = {j: x for j, x in enumerate(row) if not x.is_zero()}
        if entries:
            out[i] = entries
    return out


def test_constructions_keep_their_public_form():
    built = _constructions()
    assert {name: _digest(obj) for name, obj in built.items()} == CONSTRUCTION_DIGESTS


def test_sparse_view_is_the_nonzeros_of_the_public_matrices():
    for obj in _constructions().values():
        for item in obj if isinstance(obj, tuple) else (obj,):
            if isinstance(item, ChainComplex):
                assert item._mats == {n: _nonzeros(m) for n, m in item.diffs.items()}
                assert ChainComplex.from_json(item.to_json())._mats == item._mats
            else:
                nonzero = {n: _nonzeros(m) for n, m in components(item).items()}
                assert item._mats == {n: m for n, m in nonzero.items() if m}
                mats = _sparse_of(item.source.ring, components(item))
                rebuilt = ChainMap(item.source, item.target, mats)
                assert rebuilt == item and components(rebuilt) == components(item)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip_field_complex():
    rng = random.Random(101)
    cx, _ = split_complex(Q, rng)
    assert ChainComplex.from_json(cx.to_json()) == cx


def test_json_round_trip_polynomial_complex():
    t = tensor(kos1(RXY, "x"), kos1(RXY, "y"))
    assert ChainComplex.from_json(t.to_json()) == t


def test_json_literal_shape():
    obj = {
        "ring": {"field": {"kind": "Q"}, "vars": ["x"]},
        "terms": {"0": 1, "1": 1},
        "diffs": {
            "1": [[{"vars": ["x"], "terms": [{"exp": [1], "coef": "1"}]}]]
        },
    }
    cx = ChainComplex.from_json(obj)
    assert cx == kos1(RX, "x")
    assert cx.to_json()["terms"] == {"0": 1, "1": 1}
