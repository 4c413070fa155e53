"""Transfer of forms along finite extensions.

The trace is cross-checked against the Frobenius-orbit sum over finite
fields (an independent oracle: the matrix trace never touches Frobenius),
the two transfer routes (blockwise Scharlau assembly vs. the duality
pairing pushed through the Cartan matrix) are compared Gram-exactly, and
the composition / base-change / projection-formula checks run on towers
over several primes and on real quadratic extensions of Q.
"""

import hashlib
import json
import random

import pytest

from wittforge import linalg, transfer
from wittforge.errors import (
    DegenerateForm,
    DegenerateTraceForm,
    FieldMismatch,
    UnsupportedField,
)
from wittforge.fields import FieldSpec, embed, find_irreducible
from wittforge.quadforms import (
    QuadraticForm,
    _diagonal_entries,
    diagonalize,
    hyperbolic_plane,
    witt_decompose,
)
from wittforge.transfer import (
    ExtensionDatum,
    LinearMapOverF,
    _actions,
    _class_summary,
    base_change_check,
    cartan_isomorphism,
    counit_matrix,
    projection_formula_check,
    pushforward_via_cartan,
    restrict_form,
    scharlau_transfer,
    trace_form,
    transfer_compose_check,
    triangle_identities_check,
    unit_matrix,
)

F3 = FieldSpec.Fp(3)
F5 = FieldSpec.Fp(5)
F7 = FieldSpec.Fp(7)
F9 = FieldSpec.extension(F3, find_irreducible(F3, 2))
F27 = FieldSpec.extension(F3, find_irreducible(F3, 3))
F25 = FieldSpec.extension(F5, find_irreducible(F5, 2))
F49 = FieldSpec.extension(F7, find_irreducible(F7, 2))
F81 = FieldSpec.extension(F9, find_irreducible(F9, 2))
F729 = FieldSpec.extension(F27, find_irreducible(F27, 2))
Q = FieldSpec.Q()
QS2 = FieldSpec.extension(Q, [-2, 0, 1])
QS5 = FieldSpec.extension(Q, [-5, 0, 1])

D93 = ExtensionDatum(F9, F3)
D813 = ExtensionDatum(F81, F3)
DS2 = ExtensionDatum(QS2, Q)


def form_of(field, rows):
    """The form of dense Gram rows, each entry coerced into ``field``."""
    return QuadraticForm(field, linalg.sparse([map(field.element, row) for row in rows]), len(rows))


def random_nondegenerate(field, rng, dim):
    while True:
        g = [[field.random_element(rng) for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(i):
                g[i][j] = g[j][i]
        form = form_of(field, g)
        entries, _ = diagonalize(form)
        if all(not e.is_zero() for e in entries):
            return form


# ---------------------------------------------------------------------------
# trace and trace form
# ---------------------------------------------------------------------------


def test_trace_frozen_values():
    alpha = F9.generator()
    assert D93.trace(alpha).is_zero()
    assert D93.trace(F9.one()) == F3.from_int(2)
    assert DS2.trace(QS2.generator()).is_zero()  # sqrt(2) has trace 0
    assert DS2.trace(QS2.one()) == Q.from_int(2)


@pytest.mark.parametrize(
    "ext",
    [D93, ExtensionDatum(F27, F3), ExtensionDatum(F81, F9), D813],
    ids=lambda e: f"{e.top.order()}/{e.bottom.order()}",
)
def test_trace_equals_frobenius_orbit_sum(ext):
    # over finite fields Tr(e) = e + e^q + ... + e^(q^(n-1)), q = |F|
    rng = random.Random(12)
    q = ext.bottom.order()
    for _ in range(8):
        e = ext.top.random_element(rng)
        conj = e
        total = ext.top.zero()
        for _ in range(ext.degree):
            total = total + conj
            conj = conj**q

        assert embed(ext.trace(e), ext.top) == total


def test_trace_is_f_linear():
    rng = random.Random(7)

    for _ in range(6):
        e1 = F81.random_element(rng)
        e2 = F81.random_element(rng)
        c = F3.random_element(rng)
        lhs = D813.trace(embed(c, F81) * e1 + e2)
        assert lhs == c * D813.trace(e1) + D813.trace(e2)


def test_trace_form_frozen():
    assert trace_form(D93).to_json()["gram"] == [[2, 0], [0, 1]]
    assert trace_form(DS2).to_json()["gram"] == [["2", "0"], ["0", "4"]]
    assert trace_form(ExtensionDatum(F5, F5)).to_json()["gram"] == [[1]]


@pytest.mark.parametrize(
    "ext",
    [D93, ExtensionDatum(F25, F5), ExtensionDatum(F49, F7), D813, DS2],
    ids=repr,
)
def test_trace_form_nondegenerate(ext):
    entries, _ = diagonalize(trace_form(ext))
    assert all(not e.is_zero() for e in entries)


@pytest.mark.parametrize(
    "ext",
    [
        ExtensionDatum(F27, F3),
        ExtensionDatum(F81, F9),
        DS2,
        D813,
    ],
    ids=["F27/F3", "F81/F9", "Qsqrt2/Q", "F81/F3"],
)
def test_trace_form_is_full_trace_matrix(monkeypatch, ext):
    # oracle: every entry Tr(b_i b_j), read off the diagonal of its full
    # multiplication matrix, lower triangle included
    n = ext.degree
    expected = []
    for i in range(n):
        row = []
        for j in range(n):
            m = ext.mult_matrix(ext.basis[i] * ext.basis[j])
            zero = ext.bottom.zero()
            row.append(sum((m.get(k, {}).get(k, zero) for k in range(n)), zero))
        expected.append(row)
    form = trace_form(ext)
    assert form == form_of(ext.bottom, expected)
    assert trace_form(ext) is form
    # nondegeneracy was decided on these entries, kept on the form
    congruence = linalg.congruence
    monkeypatch.setattr(linalg, "congruence", lambda *a: pytest.fail("entries rebuilt"))
    entries = _diagonal_entries(form)
    assert not form.is_degenerate()
    assert entries == tuple(congruence(ext.bottom, form._mat, n, False)[0])


class _DegenerateTraceDatum(ExtensionDatum):
    """A datum whose trace vanishes, as for an inseparable extension."""

    __slots__ = ()

    def _basis_traces(self):
        return [self.bottom.zero()] * self.degree


def test_degenerate_trace_form_raises_on_every_call(monkeypatch):
    ext = _DegenerateTraceDatum(F9, F3)
    grams = []
    build = transfer._trace_gram
    monkeypatch.setattr(transfer, "_trace_gram", lambda e: grams.append(e) or build(e))
    for _ in range(2):
        with pytest.raises(DegenerateTraceForm):
            trace_form(ext)
        with pytest.raises(DegenerateTraceForm):
            scharlau_transfer(ext, QuadraticForm.diagonal(F9, [1]))
    # nothing is kept: each call builds its Gram matrix again
    assert grams == [ext] * 4


class _CountingDatum(ExtensionDatum):
    """A datum that counts its calls of ``mult_matrix``."""

    __slots__ = ("calls",)

    def __init__(self, top, bottom):
        self.calls = 0
        super().__init__(top, bottom)

    def mult_matrix(self, e):
        self.calls += 1
        return super().mult_matrix(e)


@pytest.mark.parametrize(
    "top, bottom",
    [(F9, F3), (F81, F3), (F729, F27)],
    ids=["F9/F3", "F81/F3", "F729/F27"],
)
def test_trace_form_and_adjunction_read_one_multiplication_table(top, bottom):
    # one matrix per basis element, built once, serves the trace, the trace
    # form and every action of the triangle check
    ext = _CountingDatum(top, bottom)
    ext.trace(top.generator())
    trace_form(ext)
    assert triangle_identities_check(ext, 2, 3)
    assert ext.calls == ext.degree


def test_trace_form_cached_per_datum_not_per_field_pair():
    ext = ExtensionDatum(F27, F3)
    twin = ExtensionDatum(F27, F3)
    assert twin == ext and trace_form(twin) is not trace_form(ext)
    assert trace_form(twin) == trace_form(ext)


def test_trace_field_mismatch():
    with pytest.raises(FieldMismatch):
        D93.trace(F3.one())
    with pytest.raises(FieldMismatch):
        D93.trace(F81.one())


# ---------------------------------------------------------------------------
# Scharlau transfer
# ---------------------------------------------------------------------------


def test_transfer_of_unit_form_is_trace_form():
    t = scharlau_transfer(D93, QuadraticForm.diagonal(F9, [1]))
    assert t == trace_form(D93)


def test_transfer_of_generator_form_is_hyperbolic():
    alpha = F9.generator()
    t = scharlau_transfer(D93, QuadraticForm.diagonal(F9, [alpha]))
    assert t.to_json()["gram"] == [[0, 1], [1, 0]]
    assert witt_decompose(t).is_zero()


def test_transfer_along_trivial_extension_is_identity():
    ext = ExtensionDatum(F3, F3)
    q = form_of(F3, [[1, 2], [2, 2]])
    assert scharlau_transfer(ext, q) == q


def test_transfer_rejects_degenerate():
    with pytest.raises(DegenerateForm):
        scharlau_transfer(D93, form_of(F9, [[1, 1], [1, 1]]))
    with pytest.raises(FieldMismatch):
        scharlau_transfer(D93, QuadraticForm.diagonal(F3, [1]))


@pytest.mark.parametrize(
    "ext",
    [D93, ExtensionDatum(F27, F3), ExtensionDatum(F25, F5), D813, DS2],
    ids=repr,
)
def test_transfer_preserves_nondegeneracy(ext):
    rng = random.Random(21)
    for dim in (1, 2):
        q = random_nondegenerate(ext.top, rng, dim)
        t = scharlau_transfer(ext, q)
        assert t.dim == dim * ext.degree
        entries, _ = diagonalize(t)
        assert all(not e.is_zero() for e in entries)


@pytest.mark.parametrize("ext", [D93, ExtensionDatum(F27, F3), D813, DS2], ids=repr)
def test_transfer_gram_is_the_trace_of_each_pair(ext):
    # on the basis b_i e_a the transfer's Gram is Tr(b_i b_j G[a][c]); a full
    # symmetric G puts the same block at (a, c) and (c, a)
    rng = random.Random(57)
    q = random_nondegenerate(ext.top, rng, 3)
    g = linalg.dense(q.field, q._mat, (3, 3))
    assert any(not g[a][c].is_zero() for a in range(3) for c in range(a + 1, 3))
    n = ext.degree
    t = scharlau_transfer(ext, q)
    tg = linalg.dense(t.field, t._mat, (t.dim, t.dim))
    for a in range(3):
        for c in range(3):
            for i, bi in enumerate(ext.basis):
                for j, bj in enumerate(ext.basis):
                    assert tg[a * n + i][c * n + j] == ext.trace(bi * bj * g[a][c])


def test_transfer_is_additive_blockwise():
    rng = random.Random(33)
    q1 = random_nondegenerate(F9, rng, 2)
    q2 = random_nondegenerate(F9, rng, 1)
    lhs = scharlau_transfer(D93, q1.perp(q2))
    rhs = scharlau_transfer(D93, q1).perp(scharlau_transfer(D93, q2))
    assert lhs == rhs


def test_transfer_of_hyperbolic_is_witt_trivial():
    for ext in (D93, ExtensionDatum(F25, F5), DS2):
        t = scharlau_transfer(ext, hyperbolic_plane(ext.top))
        assert witt_decompose(t).is_zero()


# ---------------------------------------------------------------------------
# the two routes to the transfer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "ext",
    [
        D93,
        ExtensionDatum(F27, F3),
        ExtensionDatum(F25, F5),
        ExtensionDatum(F49, F7),
        D813,
        DS2,
        ExtensionDatum(QS5, Q),
    ],
    ids=repr,
)
def test_duality_route_matches_scharlau(ext):
    rng = random.Random(55)
    for dim in (1, 2, 3):
        q = random_nondegenerate(ext.top, rng, dim)
        assert pushforward_via_cartan(ext, q) == scharlau_transfer(ext, q)


def test_cartan_matrix_invertible():
    for ext in (D93, D813, DS2):
        for dim in (1, 2, 3, 4):
            c = cartan_isomorphism(ext, dim)
            assert linalg.inverse(ext.bottom, c.matrix) is not None


def test_cartan_matrix_is_singular_when_the_trace_vanishes():
    # a zero trace generates nothing: the comparison map is singular, not an error
    ext = _DegenerateTraceDatum(F9, F3)
    c = cartan_isomorphism(ext, 2)
    assert c._mat == {} and linalg.inverse(ext.bottom, c.matrix) is None


def test_tautological_pairing_gives_trace_functional():
    # pushing <1> through the duality route lands exactly on the trace form
    assert pushforward_via_cartan(D93, QuadraticForm.diagonal(F9, [1])) == trace_form(
        D93
    )


# ---------------------------------------------------------------------------
# adjunction matrices
# ---------------------------------------------------------------------------


def _unit(ext, dim_e):
    """The unit for V = E^dim_e, as the triangle check builds it."""
    return unit_matrix(ext, _actions(ext, ext._mult_table(), dim_e))


def test_adjunction_trivial_extension_is_identity():
    ext = ExtensionDatum(F3, F3)
    assert _unit(ext, 1) == linalg.identity(F3, 1)
    assert counit_matrix(ext, 1) == linalg.identity(F3, 1)


def test_counit_picks_coefficient_of_one():
    assert counit_matrix(D93, 1) == {0: {0: F3.one()}}
    assert counit_matrix(D93, 3) == {k: {2 * k: F3.one()} for k in range(3)}


def test_adjunction_shapes():
    # over F9/F3 the unit of E^2 maps F^4 into F^8 and the counit of F^3
    # maps F^6 onto F^3; each reaches its last row
    unit, counit = _unit(D93, 2), counit_matrix(D93, 3)
    assert linalg.fits(unit, (8, 4)) and not linalg.fits(unit, (7, 4))
    assert linalg.fits(counit, (3, 6)) and not linalg.fits(counit, (2, 6))


def test_linear_map_keeps_its_sparse_matrix():
    c = cartan_isomorphism(D93, 3)
    assert c.matrix == linalg.dense(F3, c._mat, (6, 6))
    assert c.to_json() == {"matrix": [[x.to_json() for x in row] for row in c.matrix]}
    assert linalg.sparse(c.matrix) == c._mat
    with pytest.raises(ValueError, match="does not fit the shape"):
        LinearMapOverF(F3, {6: {0: F3.one()}}, c.shape)


def test_triangle_report_pinned():
    # sha256 of the sorted-key JSON report, as the dense list-of-lists
    # implementation printed it: both triangles as full 6 x 6 matrices
    report = triangle_identities_check(ExtensionDatum(F27, F3), 2, 3)
    text = json.dumps(report.to_json(), sort_keys=True)
    assert report.equal
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "17e481fd13ba156db24304485d104887dbb77e6b822be5e2c78358349dec13b4"
    )


def _intertwines_every_basis_element(ext, dim_e):
    """Oracle: the unit of E^dim_e intertwines the action of every basis
    element on V and on Hom_F(E, V|_F), two products per basis element."""
    n, field = ext.degree, ext.bottom
    table = ext._mult_table()
    on_v = _actions(ext, table, dim_e)
    unit_v = unit_matrix(ext, on_v)
    on_hom = _actions(ext, [linalg.transpose(m) for m in table], dim_e * n)
    return all(
        linalg.product(field, unit_v, a) == linalg.product(field, h, unit_v)
        for a, h in zip(on_v, on_hom)
    )


F3_9 = FieldSpec.extension(F27, find_irreducible(F27, 3))  # degree 9 over F3, through F27


@pytest.mark.parametrize(
    "ext",
    [
        D93,
        ExtensionDatum(F27, F3),
        D813,
        ExtensionDatum(F3_9, F3),
        DS2,
    ],
    ids=lambda e: f"deg{e.degree}",
)
@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_triangle_identities(ext, dims):
    report = triangle_identities_check(ext, *dims)
    assert report
    assert report.witness["unit_E_linear"]
    assert _intertwines_every_basis_element(ext, dims[0])


@pytest.mark.parametrize(
    "top", [F27, F81, F3_9], ids=lambda top: f"deg{top.absolute_degree()}"
)
def test_unit_reading_b2_as_b1_is_not_E_linear(top):
    # b_2 is x^2, no generator, over F27/F3 and the degree-9 tower through
    # F27, and the top generator y of F81/F9/F3: either way the check must
    # see the corrupted action
    ext = ExtensionDatum(top, F3)
    table = ext._mult_table()
    table[2] = table[1]
    report = triangle_identities_check(ext, 1, 1)
    assert not report.witness["unit_E_linear"] and not report
    assert not _intertwines_every_basis_element(ext, 1)


@pytest.mark.parametrize(
    "top, steps",
    [(FieldSpec.extension(F3, find_irreducible(F3, 9)), 1), (F81, 2), (F3_9, 2)],
    ids=["F3^9/F3", "F81/F9/F3", "F27^3/F27/F3"],
)
def test_triangle_check_makes_two_module_products_per_tower_step(monkeypatch, top, steps):
    # the products whose left factor has more than n rows are the unit-side
    # and Hom-side products of the E-linearity check, the two sides of one
    # products_equal test per step; with one per basis element there were 2n
    ext = ExtensionDatum(top, F3)
    n, product, products_equal, large = ext.degree, linalg.product, linalg.products_equal, []

    def counting(ring, a, b):
        if len(a) > n:
            large.append(len(a))
        return product(ring, a, b)

    def counting_sides(ring, a, b, c, d):
        large.extend(len(left) for left in (a, c) if len(left) > n)
        return products_equal(ring, a, b, c, d)

    monkeypatch.setattr(linalg, "product", counting)
    monkeypatch.setattr(linalg, "products_equal", counting_sides)
    assert triangle_identities_check(ext, 1, 1)
    assert len(large) == 2 * steps


# ---------------------------------------------------------------------------
# theorem checks
# ---------------------------------------------------------------------------


def test_compose_f81_f9_f3():
    inner = ExtensionDatum(F81, F9)
    assert transfer_compose_check(D93, inner, QuadraticForm.diagonal(F81, [1]))


def test_compose_f729_f27_f3():
    rng = random.Random(8)
    inner = ExtensionDatum(F729, F27)
    outer = ExtensionDatum(F27, F3)
    q = QuadraticForm.diagonal(F729, [F729.random_nonzero(rng)])
    assert transfer_compose_check(outer, inner, q)


def test_compose_trivial_middle():
    outer = ExtensionDatum(F3, F3)
    inner = ExtensionDatum(F9, F3)
    assert transfer_compose_check(outer, inner, QuadraticForm.diagonal(F9, [2]))


def test_compose_rational_tower():
    outer = ExtensionDatum(Q, Q)
    inner = DS2
    r2 = QS2.generator()
    q = QuadraticForm.diagonal(QS2, [r2])
    assert transfer_compose_check(outer, inner, q)


def test_compose_random_finite_towers():
    rng = random.Random(100)
    towers = [
        (F3, find_irreducible(F3, 2), 2),
        (F5, find_irreducible(F5, 2), 2),
        (F7, find_irreducible(F7, 2), 2),
        (F3, find_irreducible(F3, 3), 2),
    ]
    for base, mod1, deg2 in towers:
        mid = FieldSpec.extension(base, mod1)
        top = FieldSpec.extension(mid, find_irreducible(mid, deg2))
        inner = ExtensionDatum(top, mid)
        outer = ExtensionDatum(mid, base)
        for _ in range(3):
            q = random_nondegenerate(top, rng, rng.randint(1, 2))
            report = transfer_compose_check(outer, inner, q)
            assert report, report.to_json()


def test_compose_tower_mismatch():
    with pytest.raises(FieldMismatch):
        transfer_compose_check(D93, D93, QuadraticForm.diagonal(F9, [1]))


def test_base_change_split_case():
    # E = L = F9 over F3: E (x) L = L x L, two linear factors
    report = base_change_check(D93, F9, QuadraticForm.diagonal(F9, [1]))
    assert report
    assert sorted(report.witness["factor_dims"]) == [1, 1]


def test_base_change_inert_case():
    # F27 (x) F9 stays a field (degree-3 factor over F9)
    report = base_change_check(
        ExtensionDatum(F27, F3), F9, QuadraticForm.diagonal(F27, [1])
    )
    assert report
    assert report.witness["factor_dims"] == [3]


def test_base_change_trivial():
    alpha = F9.generator()
    report = base_change_check(D93, F3, QuadraticForm.diagonal(F9, [alpha]))
    assert report
    assert report.witness["factor_dims"] == [2]


def test_base_change_rational():
    r2 = QS2.generator()
    report = base_change_check(DS2, Q, QuadraticForm.diagonal(QS2, [r2, 1]))
    assert report


def test_base_change_random_finite():
    rng = random.Random(2024)
    for ext, L in [
        (D93, F9),
        (ExtensionDatum(F27, F3), F27),
        (ExtensionDatum(F25, F5), F25),
        (ExtensionDatum(F49, F7), F7),
    ]:
        for _ in range(3):
            q = random_nondegenerate(ext.top, rng, rng.randint(1, 2))
            report = base_change_check(ext, L, q)
            assert report, report.to_json()


def test_base_change_rejects_towers():
    with pytest.raises(UnsupportedField):
        base_change_check(D813, F9, QuadraticForm.diagonal(F81, [1]))


def test_base_change_rejects_unrelated_field():
    with pytest.raises(FieldMismatch):
        base_change_check(D93, F5, QuadraticForm.diagonal(F9, [1]))


def test_projection_formula_unit_case():
    assert projection_formula_check(
        D93, QuadraticForm.diagonal(F9, [1]), QuadraticForm.diagonal(F3, [1])
    )


def test_projection_formula_frozen():
    assert projection_formula_check(
        D93, QuadraticForm.diagonal(F9, [1]), QuadraticForm.diagonal(F3, [2])
    )


def test_projection_formula_hyperbolic_either_side():
    report = projection_formula_check(
        D93, hyperbolic_plane(F9), QuadraticForm.diagonal(F3, [2])
    )
    assert report
    assert report.lhs["dim"] == 4 and report.rhs["dim"] == 4


def test_projection_formula_random():
    rng = random.Random(321)
    for ext in (D93, ExtensionDatum(F25, F5), DS2):
        for _ in range(3):
            x = random_nondegenerate(ext.top, rng, rng.randint(1, 2))
            y = random_nondegenerate(ext.bottom, rng, rng.randint(1, 2))
            report = projection_formula_check(ext, x, y)
            assert report, report.to_json()


# ---------------------------------------------------------------------------
# bases, serialization, misc
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "ext",
    [
        ExtensionDatum(F27, F3),
        ExtensionDatum(F81, F9),
        DS2,
    ],
    ids=["F27/F3", "F81/F9", "Qsqrt2/Q"],
)
def test_trace_is_diagonal_sum_of_mult_matrix(ext):
    # oracle: the trace of multiplication-by-e read off its full matrix
    rng = random.Random(17)
    samples = list(ext.basis) + [ext.top.random_element(rng) for _ in range(10)]
    for e in samples:
        m = ext.mult_matrix(e)
        diagonal = ext.bottom.zero()
        for i in range(ext.degree):
            diagonal = diagonal + m.get(i, {}).get(i, ext.bottom.zero())
        assert ext.trace(e) == diagonal


def _product_basis(top, bottom):
    """The flattened basis as products in E: embed(b, top) * y^j, b inner."""
    if top == bottom:
        return [top.one()]
    inner, power, out = _product_basis(top.base, bottom), top.one(), []
    for _ in range(top.degree):
        out += [embed(b, top) * power for b in inner]
        power = power * top.generator()
    return out


SHIFT_BUILT = [(F9, F3), (F27, F3), (F81, F9), (F81, F3), (F729, F27), (QS2, Q)]
SHIFT_IDS = ["F9/F3", "F27/F3", "F81/F9", "F81/F3", "F729/F27", "Qsqrt2/Q"]


@pytest.mark.parametrize("top, bottom", SHIFT_BUILT, ids=SHIFT_IDS)
def test_shift_built_table_matches_products_in_E(top, bottom):
    # oracle: column k of M(e) is coordinates(e * b_k), with the product taken in E
    ext = ExtensionDatum(top, bottom)
    assert ext.basis == _product_basis(top, bottom)
    rng = random.Random(31)
    samples = [top.zero(), top.one(), *ext.basis] + [top.random_element(rng) for _ in range(6)]
    for e in samples:
        columns = linalg.sparse([ext.coordinates(e * b) for b in ext.basis])
        assert ext.mult_matrix(e) == linalg.transpose(columns)
    with pytest.raises(FieldMismatch):
        ext.mult_matrix(bottom.one())


@pytest.mark.parametrize("top, bottom", [(F81, F3), (F729, F27)], ids=["F81/F3", "F729/F27"])
def test_table_and_basis_take_no_product_in_E(monkeypatch, top, bottom):
    # the basis and the whole table come from shifts and the modulus tail;
    # the duality route still multiplies in E, so the two routes share no
    # multiplication code
    kernel, calls = top._kernel, []
    mul = kernel.mul

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(kernel, "mul", counting)
    ext = ExtensionDatum(top, bottom)
    ext._mult_table()
    assert calls == []
    pushforward_via_cartan(ext, QuadraticForm.diagonal(top, [1]))
    assert calls


def test_bad_basis_rejected():
    # the basis of E/F exists only when E extends F
    with pytest.raises(FieldMismatch):
        ExtensionDatum(F3, F9)


def test_check_report_shape():
    report = transfer_compose_check(
        ExtensionDatum(F3, F3), D93, QuadraticForm.diagonal(F9, [1])
    )
    blob = report.to_json()
    assert list(blob.keys()) == ["claim", "lhs", "rhs", "equal", "witness"]
    assert blob["equal"] is True


def test_class_summary_surfaces_degenerate_forms():
    assert _class_summary(QuadraticForm.diagonal(F3, [1, 1])) == {"dim": 2, "signed_disc": 2}
    with pytest.raises(DegenerateForm):
        _class_summary(form_of(F3, [[1, 1], [1, 1]]))


def test_restrict_form():
    q = QuadraticForm.diagonal(F3, [1, 2])
    r = restrict_form(q, F9)
    assert r.field == F9 and r.dim == 2
    with pytest.raises(FieldMismatch):
        restrict_form(QuadraticForm.diagonal(F5, [1]), F9)
