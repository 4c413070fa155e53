"""Line-bundle cohomology on P^r: decomposition vs. closed formulas.

The monomial route computes exact ranks of simplicial cochain complexes
over the query field; the binomial route is pure arithmetic.  The tests
compare the two across a sweep, pin the paper-scale examples (the
all-negative witness monomial, the vanishing window, the half-canonical
parity obstruction), and exercise the bounds.
"""

import hashlib
import json
from math import comb

import pytest

from wittforge import linalg, projspace, verify
from wittforge.errors import BoundsExceeded, ParityError
from wittforge.fields import FieldSpec
from wittforge.polynomials import exponent_tuples
from wittforge.projspace import (
    CohomologyReport,
    ProjLineBundleQuery,
    closed_formula_dims,
    cohomology,
    pushforward_phi_r,
)

Q = FieldSpec.Q()
F3 = FieldSpec.Fp(3)
F7 = FieldSpec.Fp(7)


def dims(r, m, field=Q):
    return cohomology(ProjLineBundleQuery(r, m, field)).dims


# ---------------------------------------------------------------------------
# query and report plumbing
# ---------------------------------------------------------------------------


def test_dimension_bounds():
    with pytest.raises(BoundsExceeded):
        ProjLineBundleQuery(0, 0, Q)
    with pytest.raises(BoundsExceeded):
        ProjLineBundleQuery(7, 0, Q)
    ProjLineBundleQuery(6, 0, Q)


def test_huge_twist_refused():
    with pytest.raises(BoundsExceeded):
        ProjLineBundleQuery(6, 10**6, Q)


def test_report_rejects_intermediate_cohomology():
    with pytest.raises(ValueError):
        CohomologyReport(2, 0, (1, 1, 0), {})


# ---------------------------------------------------------------------------
# pinned values
# ---------------------------------------------------------------------------


def test_line_minus_one_vanishes():
    assert dims(1, -1) == (0, 0)


def test_plane_quadrics():
    report = cohomology(ProjLineBundleQuery(2, 2, Q))
    assert report.dims == (6, 0, 0)
    assert len(report.witnesses[0]) == 6
    assert (2, 0, 0) in report.witnesses[0]


def test_plane_canonical_witness():
    report = cohomology(ProjLineBundleQuery(2, -3, Q))
    assert report.dims == (0, 0, 1)
    assert report.witnesses[2] == ((-1, -1, -1),)


def test_global_sections_count():
    for r in (1, 2, 3):
        for m in (0, 1, 2, 3):
            assert dims(r, m)[0] == comb(m + r, r)


def test_top_cohomology_count():
    assert dims(3, -6)[3] == comb(5, 3)
    assert dims(2, -4) == (0, 0, 3)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_decomposition_matches_closed_formula():
    for r in (1, 2, 3, 4):
        for m in range(-(r + 3), 4):
            assert dims(r, m) == closed_formula_dims(r, m)


def test_vanishing_window():
    for r in (1, 2, 3, 4):
        for m in range(-r, 0):
            assert not any(dims(r, m))


def test_intermediate_cohomology_always_zero():
    for r in (2, 3, 4):
        for m in range(-(r + 3), 4):
            assert not any(dims(r, m)[1:r])


def test_serre_duality_numerics():
    for r in (1, 2, 3):
        for m in range(-(r + 3), 4):
            here, there = dims(r, m), dims(r, -m - r - 1)
            assert here[0] == there[r]
            assert here[r] == there[0]


def test_field_does_not_change_dimensions():
    for field in (Q, F3, F7):
        assert dims(2, -3, field) == (0, 0, 1)
        assert dims(3, 2, field) == (10, 0, 0, 0)


# ---------------------------------------------------------------------------
# the canonical twist and the half-canonical push-forward
# ---------------------------------------------------------------------------


def test_canonical_twist_has_one_dimensional_top():
    # the canonical bundle of P^r is O(-r-1)
    for r in (1, 2, 3):
        assert dims(r, -r - 1)[r] == 1


def test_pushforward_certificates():
    assert pushforward_phi_r(1, Q).is_zero()
    assert pushforward_phi_r(3, Q).is_zero()
    assert pushforward_phi_r(5, F3).is_zero()


def test_pushforward_certificate_twists():
    assert pushforward_phi_r(1, Q).m == -1
    assert pushforward_phi_r(3, Q).m == -2


def test_pushforward_even_rejected():
    for r in (2, 4):
        with pytest.raises(ParityError):
            pushforward_phi_r(r, Q)


# ---------------------------------------------------------------------------
# each Cech summand computed once
# ---------------------------------------------------------------------------


def test_cohomology_suite_ranks_each_summand_once(monkeypatch):
    # the summand of a support pattern does not depend on the twist m, so one
    # suite run ranks each graded differential of each distinct
    # (field, r, pattern) summand at most once, however many twists share it
    rank_calls = []
    summands = set()
    rank, pattern_cohomology = linalg.rank, projspace._pattern_cohomology

    def counting_rank(field, rows):
        rank_calls.append(len(rows))
        return rank(field, rows)

    def recording(field, r, negative):
        summands.add((field, r, negative))
        return pattern_cohomology(field, r, negative)

    monkeypatch.setattr(linalg, "rank", counting_rank)
    monkeypatch.setattr(projspace, "_pattern_cohomology", recording)
    pattern_cohomology.cache_clear()
    report = verify.run_suite("cohomology")
    assert len(summands) == 120
    assert 0 < len(rank_calls) <= sum(r for _, r, _ in summands)
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "66fdcd0262763a75e1abb27a6f8757e4dba7d5a1df29eec59978708202ff88b0"
    )


def test_the_monomials_of_the_line_keep_no_one_variable_entries():
    # each one-variable enumeration is read once: on P^1 the cache keeps the
    # two-variable entries of h^0 and of the empty h^1 only, not one per degree
    exponent_tuples.cache_clear()
    assert dims(1, 999) == (1000, 0)
    assert exponent_tuples.cache_info().currsize == 2
    assert exponent_tuples(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))
