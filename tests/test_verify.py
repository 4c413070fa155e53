"""The verification-report contract and the suite runners."""

import json
import random

import pytest

from wittforge import linalg, verify
from wittforge.cli import main
from wittforge.errors import NotAChainMap, NotAField
from wittforge.fields import FieldSpec, find_irreducible
from wittforge.transfer import ExtensionDatum
from wittforge.verify import (
    SUITES,
    VerificationReport,
    extension_of,
    field_label,
    qsqrt,
    random_complex,
    random_invertible,
    run_all,
    run_suite,
)

Q = FieldSpec.Q()
F5 = FieldSpec.Fp(5)


def test_report_sorts_cases_by_id():
    cases = [
        {"id": "b", "law": "l", "inputs": {}, "status": "pass"},
        {"id": "a", "law": "l", "inputs": {}, "status": "pass"},
    ]
    report = VerificationReport("demo", cases)
    assert [c["id"] for c in report.cases] == ["a", "b"]


def test_report_requires_witness_on_failure():
    bad = [{"id": "a", "law": "l", "inputs": {}, "status": "fail"}]
    with pytest.raises(ValueError):
        VerificationReport("demo", bad)


def test_report_counts_and_verdict():
    cases = [
        {"id": "a", "law": "l", "inputs": {}, "status": "pass"},
        {"id": "b", "law": "l", "inputs": {}, "status": "fail", "witness": {"x": 1}},
        {"id": "c", "law": "l", "inputs": {}, "status": "inconclusive", "witness": {"y": 2}},
    ]
    report = VerificationReport("demo", cases)
    assert report.summary() == {"pass": 1, "fail": 1, "inconclusive": 1, "total": 3}
    assert not report.passed
    assert [c["id"] for c in report.failures()] == ["b", "c"]


def test_a_law_that_raises_fails_its_suite_with_a_witness(monkeypatch, capsys):
    # a raise inside a theta law is a failed case of that suite, not bad
    # input: every other suite still runs, and the exit code is 1
    def raising(k):
        raise NotAChainMap("does not commute with d at degree 1")

    monkeypatch.setattr(verify, "delta_unital", raising)
    code = main(["--json", "--seed", "42", "verify", "all"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 1 and len(reports) == len(SUITES) == 13
    failed = [case for report in reports for case in report["cases"] if case["status"] != "pass"]
    assert [(case["id"], case["witness"]) for case in failed] == [
        ("theta/raised", {"error": "NotAChainMap", "detail": "does not commute with d at degree 1"})
    ]


def test_report_json_omits_timing():
    report = run_suite("scharlau")
    assert report.wall_time > 0
    payload = report.to_json()
    assert set(payload) == {"suite", "summary", "cases"}


def test_run_suite_rejects_unknown_name():
    with pytest.raises(KeyError):
        run_suite("nope")


def test_suites_are_deterministic_given_a_seed():
    a = run_suite("towers", seed=5, size=6).to_json()
    b = run_suite("towers", seed=5, size=6).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_size_override():
    report = run_suite("hilbert", seed=1, size=10)
    assert report.summary() == {"pass": 10, "fail": 0, "inconclusive": 0, "total": 10}


def test_every_case_names_its_law_and_inputs():
    report = run_suite("witt", seed=3, size=2)
    for case in report.cases:
        assert case["law"]
        assert isinstance(case["inputs"], dict)


def test_run_all_covers_every_suite():
    reports = run_all(seed=9, size=2)
    assert sorted(r.suite for r in reports) == sorted(SUITES)


def test_adjunction_comparison_fails_when_the_basis_traces_vanish(monkeypatch):
    # Tr = 0 generates nothing: every comparison case fails with its singular
    # Cartan matrix as the witness instead of raising, and the triangles hold
    monkeypatch.setattr(ExtensionDatum, "trace", lambda self, e: self.bottom.zero())
    cases = run_suite("adjunction").to_json()["cases"]
    cartan = [c for c in cases if c["id"].startswith("adjunction/cartan/")]
    assert cartan and all(c["status"] == "fail" for c in cartan)
    for case in cartan:  # zeros are 0 over F_p and "0" over Q
        assert {str(x) for row in case["witness"]["matrix"] for x in row} == {"0"}
    assert all(c["status"] == "pass" for c in cases if c not in cartan)


def test_cartan_case_fails_when_the_route_and_the_transfer_differ(monkeypatch):
    # a Cartan route that doubles every form disagrees on <1> already: each
    # cartan case fails with the form and both transfers as its witness
    route = verify.pushforward_via_cartan

    def doubled(ext, q):
        return route(ext, q).perp(route(ext, q))

    monkeypatch.setattr(verify, "pushforward_via_cartan", doubled)
    cases = run_suite("adjunction").to_json()["cases"]
    cartan = [c for c in cases if c["id"].startswith("adjunction/cartan/")]
    assert cartan and all(c["status"] == "fail" for c in cartan)
    for case in cartan:
        witness = case["witness"]
        assert sorted(witness) == ["form", "scharlau", "via_cartan"]
        assert len(witness["form"]["gram"]) == 1
        assert len(witness["via_cartan"]["gram"]) == 2 * len(witness["scharlau"]["gram"])
    assert all(c["status"] == "pass" for c in cases if c not in cartan)


def test_theta_case_names_the_laws_that_fail(monkeypatch):
    # the triangle identities are checked at ranks 1 and 2 only; delta's
    # unitality at every rank
    monkeypatch.setattr(verify, "adjunction_triangle_check", lambda a, b, c: False)
    monkeypatch.setattr(verify, "delta_unital", lambda k: k.rank != 4)
    cases = {c["id"]: c for c in run_suite("theta").to_json()["cases"]}
    failed = {cid: c["witness"]["failed"] for cid, c in cases.items() if c["status"] != "pass"}
    assert failed == {
        "theta/xmap-d1": ["tensor_hom_triangles"],
        "theta/xmap-d2": ["tensor_hom_triangles"],
        "theta/xmap-d4": ["delta_unital"],
    }


def test_random_complex_varies_and_is_valid():
    rng = random.Random(12)
    shapes = set()
    for _ in range(20):
        cx = random_complex(F5, rng)
        assert any(cx.terms.values())
        shapes.add(tuple(sorted(cx.terms.items())))
    assert len(shapes) > 5


@pytest.mark.parametrize("field", [F5, Q], ids=str)
def test_random_invertible_returns_its_inverse(field):
    rng = random.Random(41)
    assert random_invertible(field, rng, 0) == ({}, {})
    for n in (1, 2, 4):
        m, inv = random_invertible(field, rng, n)
        assert linalg.product(field, m, inv) == linalg.identity(field, n)


def test_extension_cache_returns_identical_objects():
    assert extension_of(F5, 3) is extension_of(F5, 3)
    assert extension_of(F5, 1) == F5  # degree one is the base itself


def test_field_labels():
    assert field_label(Q) == "Q"
    assert field_label(F5) == "F5"
    assert field_label(extension_of(F5, 2)) == "F25"
    assert field_label(qsqrt(2)).startswith("Q[")  # falls back to the structural repr


@pytest.mark.parametrize("p", [3, 5, 7])
def test_extension_of_matches_the_checked_extension(p):
    base = FieldSpec.Fp(p)
    for d in range(2, 5):
        assert extension_of(base, d) == FieldSpec.extension(base, find_irreducible(base, d))


def test_reducible_user_modulus_still_rejected():
    # only the searched moduli skip the irreducibility test
    with pytest.raises(NotAField):
        FieldSpec.extension(F5, [-1, 0, 1])
    ext = FieldSpec.extension(F5, find_irreducible(F5, 2)).to_json()
    ext["modulus"] = [4, 0, 1]  # x^2 - 1
    with pytest.raises(NotAField):
        FieldSpec.from_json(ext)
