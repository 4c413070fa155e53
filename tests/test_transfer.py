"""Transfer of forms along finite extensions.

The trace is cross-checked against the Frobenius-orbit sum over finite
fields (an independent oracle: the matrix trace never touches Frobenius),
the two transfer routes (blockwise Scharlau assembly vs. the duality
pairing pushed through the Cartan matrix) are compared Gram-exactly, and
the composition / base-change / projection-formula checks run on towers
over several primes and on real quadratic extensions of Q.
"""

import random

import pytest

from wittforge import linalg
from wittforge.errors import (
    DegenerateForm,
    DegenerateTraceForm,
    FieldMismatch,
    UnsupportedField,
)
from wittforge.fields import FieldSpec, find_irreducible
from wittforge.quadforms import (
    QuadraticForm,
    diagonalize,
    hyperbolic_plane,
    witt_decompose,
    witt_equal,
)
from wittforge.transfer import (
    ExtensionDatum,
    _class_summary,
    adjunction_data,
    base_change_check,
    cartan_isomorphism,
    projection_formula_check,
    pushforward_via_cartan,
    restrict_form,
    scharlau_transfer,
    trace_form,
    transfer_compose_check,
    triangle_identities_check,
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


def random_nondegenerate(field, rng, dim):
    while True:
        g = [[field.random_element(rng) for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(i):
                g[i][j] = g[j][i]
        form = QuadraticForm(field, g)
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
        from wittforge.fields import embed

        assert embed(ext.trace(e), ext.top) == total


def test_trace_is_f_linear():
    rng = random.Random(7)
    from wittforge.fields import embed

    for _ in range(6):
        e1 = F81.random_element(rng)
        e2 = F81.random_element(rng)
        c = F3.random_element(rng)
        lhs = D813.trace(embed(c, F81) * e1 + e2)
        assert lhs == c * D813.trace(e1) + D813.trace(e2)


def test_trace_form_frozen():
    gram = [[x.to_json() for x in row] for row in trace_form(D93).gram]
    assert gram == [[2, 0], [0, 1]]
    gram = [[x.to_json() for x in row] for row in trace_form(DS2).gram]
    assert gram == [["2", "0"], ["0", "4"]]
    trivial = ExtensionDatum(F5, F5)
    assert [[x.to_json() for x in r] for r in trace_form(trivial).gram] == [[1]]


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
        ExtensionDatum(F9, F3, basis=[F9.one(), F9.one() + F9.generator()]),
        ExtensionDatum(QS2, Q, basis=[QS2.element([1, 1]), QS2.element([2, -1])]),
    ],
    ids=["F27/F3", "F81/F9", "Qsqrt2/Q", "F9/F3-custom", "Qsqrt2/Q-custom"],
)
def test_trace_form_is_full_trace_matrix(ext):
    # oracle: every entry Tr(b_i b_j), read off the diagonal of its full
    # multiplication matrix, lower triangle included
    n = ext.degree
    expected = []
    for i in range(n):
        row = []
        for j in range(n):
            m = ext.mult_matrix(ext.basis[i] * ext.basis[j])
            row.append(sum((m[k][k] for k in range(n)), ext.bottom.zero()))
        expected.append(row)
    form = trace_form(ext)
    assert form == QuadraticForm(ext.bottom, expected)
    assert trace_form(ext) is form
    assert form._entries is not None  # nondegeneracy was decided on these


class _DegenerateTraceDatum(ExtensionDatum):
    """A datum whose trace vanishes, as for an inseparable extension."""

    __slots__ = ()

    def trace(self, e):
        return self.bottom.zero()


def test_degenerate_trace_form_raises_on_every_call():
    ext = _DegenerateTraceDatum(F9, F3)
    for _ in range(2):
        with pytest.raises(DegenerateTraceForm):
            trace_form(ext)
        with pytest.raises(DegenerateTraceForm):
            scharlau_transfer(ext, QuadraticForm.diagonal(F9, [1]))
    assert ext._trace_form is None


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
    assert [[x.to_json() for x in row] for row in t.gram] == [[0, 1], [1, 0]]
    assert witt_decompose(t).is_zero()


def test_transfer_along_trivial_extension_is_identity():
    ext = ExtensionDatum(F3, F3)
    q = QuadraticForm(F3, [[1, 2], [2, 2]])
    assert scharlau_transfer(ext, q) == q


def test_transfer_rejects_degenerate():
    with pytest.raises(DegenerateForm):
        scharlau_transfer(D93, QuadraticForm(F9, [[1, 1], [1, 1]]))
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
    assert any(not q.gram[a][c].is_zero() for a in range(3) for c in range(a + 1, 3))
    n = ext.degree
    t = scharlau_transfer(ext, q)
    for a in range(3):
        for c in range(3):
            for i, bi in enumerate(ext.basis):
                for j, bj in enumerate(ext.basis):
                    assert t.gram[a * n + i][c * n + j] == ext.trace(bi * bj * q.gram[a][c])


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


def test_tautological_pairing_gives_trace_functional():
    # pushing <1> through the duality route lands exactly on the trace form
    assert pushforward_via_cartan(D93, QuadraticForm.diagonal(F9, [1])) == trace_form(
        D93
    )


# ---------------------------------------------------------------------------
# adjunction data
# ---------------------------------------------------------------------------


def test_adjunction_trivial_extension_is_identity():
    ext = ExtensionDatum(F3, F3)
    unit, counit = adjunction_data(ext, 1, 1)
    assert linalg.mat_eq(unit.matrix, linalg.identity(F3, 1))
    assert linalg.mat_eq(counit.matrix, linalg.identity(F3, 1))


def test_counit_picks_coefficient_of_one():
    _, counit = adjunction_data(D93, 1, 1)
    assert [[x.to_json() for x in row] for row in counit.matrix] == [[1, 0]]


def test_adjunction_shapes():
    unit, counit = adjunction_data(D93, 2, 3)
    assert unit.domain["dim_over_base"] == 4
    assert unit.codomain["dim_over_base"] == 8
    assert counit.domain["dim_over_base"] == 6
    assert counit.codomain["dim_over_base"] == 3


@pytest.mark.parametrize(
    "ext",
    [
        D93,
        ExtensionDatum(F27, F3),
        D813,
        ExtensionDatum(FieldSpec.extension(F27, find_irreducible(F27, 3)), F3),  # degree 9
        DS2,
    ],
    ids=lambda e: f"deg{e.degree}",
)
@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_triangle_identities(ext, dims):
    report = triangle_identities_check(ext, *dims)
    assert report
    assert report.witness["unit_E_linear"]


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


def test_custom_basis_changes_gram_but_not_class():
    alpha = F9.generator()
    custom = ExtensionDatum(F9, F3, basis=[F9.one(), F9.one() + alpha])
    q = QuadraticForm.diagonal(F9, [alpha])
    canonical = scharlau_transfer(D93, q)
    other = scharlau_transfer(custom, q)
    assert witt_equal(canonical, other)
    assert witt_equal(trace_form(custom), trace_form(D93))


@pytest.mark.parametrize(
    "ext",
    [
        ExtensionDatum(F27, F3),
        ExtensionDatum(F81, F9),
        DS2,
        ExtensionDatum(F9, F3, basis=[F9.one(), F9.one() + F9.generator()]),
        ExtensionDatum(QS2, Q, basis=[QS2.element([1, 1]), QS2.element([2, -1])]),
    ],
    ids=["F27/F3", "F81/F9", "Qsqrt2/Q", "F9/F3-custom", "Qsqrt2/Q-custom"],
)
def test_trace_is_diagonal_sum_of_mult_matrix(ext):
    # oracle: the trace of multiplication-by-e read off its full matrix
    rng = random.Random(17)
    samples = list(ext.basis) + [ext.top.random_element(rng) for _ in range(10)]
    for e in samples:
        m = ext.mult_matrix(e)
        diagonal = ext.bottom.zero()
        for i in range(ext.degree):
            diagonal = diagonal + m[i][i]
        assert ext.trace(e) == diagonal


def test_custom_basis_coordinates_roundtrip():
    alpha = F9.generator()
    custom = ExtensionDatum(F9, F3, basis=[F9.one(), F9.one() + alpha])
    rng = random.Random(3)
    for _ in range(5):
        x = F9.random_element(rng)
        assert custom.from_coordinates(custom.coordinates(x)) == x


def test_bad_basis_rejected():
    alpha = F9.generator()
    with pytest.raises(ValueError):
        ExtensionDatum(F9, F3, basis=[alpha, alpha + alpha])  # dependent
    with pytest.raises(ValueError):
        ExtensionDatum(F9, F3, basis=[F9.one()])  # wrong length
    with pytest.raises(FieldMismatch):
        ExtensionDatum(F3, F9)


def test_datum_json_roundtrip():
    again = ExtensionDatum.from_json(D93.to_json())
    assert again == D93
    alpha = F9.generator()
    custom = ExtensionDatum(F9, F3, basis=[F9.one(), F9.one() + alpha])
    assert ExtensionDatum.from_json(custom.to_json()) == custom


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
        _class_summary(QuadraticForm(F3, [[1, 1], [1, 1]]))


def test_restrict_form():
    q = QuadraticForm.diagonal(F3, [1, 2])
    r = restrict_form(q, F9)
    assert r.field == F9 and r.dim == 2
    with pytest.raises(FieldMismatch):
        restrict_form(QuadraticForm.diagonal(F5, [1]), F9)
