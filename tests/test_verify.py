"""The verification-report contract and the suite runners."""

import hashlib
import json
import random

import pytest

from wittforge import koszul, linalg, verify
from wittforge.cli import main
from wittforge.errors import (
    Inconclusive,
    NotAChainComplex,
    NotAChainMap,
    NotAField,
    NotRegularSequence,
)
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
    # a raise inside a theta law fails each case whose check ran it, with the
    # error as its witness, not bad input: the split cases and every other
    # suite still pass, and the exit code is 1
    def raising(k):
        raise NotAChainMap("does not commute with d at degree 1")

    monkeypatch.setattr(verify, "delta_unital", raising)
    code = main(["--json", "--seed", "42", "verify", "all"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 1 and len(reports) == len(SUITES) == 13
    failed = [case for report in reports for case in report["cases"] if case["status"] != "pass"]
    witness = {"error": "NotAChainMap", "detail": "does not commute with d at degree 1"}
    assert [(case["id"], case["witness"]) for case in failed] == [
        (f"theta/xmap-d{d}", witness) for d in range(1, 5)
    ]
    theta = next(report for report in reports if report["suite"] == "theta")
    assert theta["summary"] == {"pass": 6, "fail": 4, "inconclusive": 0, "total": 10}


def test_a_complex_fault_in_the_trace_row_fails_its_cases(monkeypatch, capsys):
    # the trace row is built inside each trace case, so a complex-layer fault
    # there fails those five cases in valid JSON with exit 1, not exit 2
    def raising(cx):
        raise NotAChainComplex("d_1 . d_2 != 0")

    monkeypatch.setattr(koszul, "infer_grading", raising)
    code = main(["--json", "--seed", "42", "verify", "all"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 1 and len(reports) == len(SUITES) == 13
    trace = next(report for report in reports if report["suite"] == "trace")
    witness = {"error": "NotAChainComplex", "detail": "d_1 . d_2 != 0"}
    assert [(case["status"], case["witness"]) for case in trace["cases"]] == [("fail", witness)] * 5
    others = [case for report in reports if report is not trace for case in report["cases"]]
    assert all(case["status"] == "pass" for case in others)


def test_a_fault_fails_its_case_and_is_not_a_usage_error(monkeypatch, capsys):
    # a plain ValueError from a law is a failed case with valid JSON and exit
    # 1, not exit 2; the other case of the suite still passes
    def asymmetric(ext):
        raise ValueError("Gram matrix must be symmetric")

    monkeypatch.setattr(verify, "trace_form", asymmetric)
    code = main(["--json", "verify", "scharlau"])
    cases = {case["id"]: case for case in json.loads(capsys.readouterr().out)[0]["cases"]}
    assert code == 1
    assert cases["scharlau/unit-is-trace-form"]["status"] == "fail"
    assert cases["scharlau/unit-is-trace-form"]["witness"] == {
        "error": "ValueError",
        "detail": "Gram matrix must be symmetric",
    }
    assert cases["scharlau/generator-is-hyperbolic"]["status"] == "pass"


def test_each_check_runs_on_the_input_of_its_own_case(monkeypatch):
    # the fifth tower's check raises and fails that case alone; every check
    # ran on the tower its case names, before the suite drew the next one
    real = verify.transfer_compose_check
    seen = []

    def fifth_raises(outer, inner, q):
        tower = (inner.top, inner.bottom, outer.bottom)
        seen.append(("/".join(field_label(field) for field in tower), q.dim))
        if len(seen) == 5:
            raise NotAChainMap("the fifth tower")
        return real(outer, inner, q)

    monkeypatch.setattr(verify, "transfer_compose_check", fifth_raises)
    report = run_suite("towers")
    assert report.summary() == {"pass": 51, "fail": 1, "inconclusive": 0, "total": 52}
    assert [(case["id"], case["witness"]) for case in report.failures()] == [
        ("towers/004", {"error": "NotAChainMap", "detail": "the fifth tower"})
    ]
    # ids sort 000..049, then rational-0 and rational-1: the order of the calls
    assert seen == [(case["inputs"]["tower"], case["inputs"]["dim"]) for case in report.cases]


def test_a_raise_while_building_inputs_keeps_the_cases_filed(monkeypatch):
    # the third tower's form cannot be drawn: the two towers checked before
    # it stay filed, and one raised case ends the suite
    real = verify.random_nondegenerate
    calls = []

    def third_raises(field, rng, dim):
        calls.append(dim)
        if len(calls) == 3:
            raise ValueError("Gram matrix must be symmetric")
        return real(field, rng, dim)

    monkeypatch.setattr(verify, "random_nondegenerate", third_raises)
    cases = run_suite("towers").to_json()["cases"]
    assert [(case["id"], case["status"]) for case in cases] == [
        ("towers/000", "pass"),
        ("towers/001", "pass"),
        ("towers/raised", "fail"),
    ]
    assert cases[-1]["witness"] == {"error": "ValueError", "detail": "Gram matrix must be symmetric"}
    assert cases[-1]["inputs"] == {"suite": "towers"}


def test_an_inconclusive_check_leaves_its_case_inconclusive(monkeypatch):
    def undecided(a, b, v):
        raise Inconclusive("the search cap was reached")

    monkeypatch.setattr(verify, "hilbert_symbol", undecided)
    report = run_suite("hilbert", size=2)
    assert report.summary() == {"pass": 0, "fail": 0, "inconclusive": 2, "total": 2}
    assert all(case["witness"] == {"error": "the search cap was reached"} for case in report.cases)


def test_a_law_that_must_raise_fails_when_its_call_returns(monkeypatch):
    # an even fiber dimension that pushes forward is a failed claim
    _accept_even_r(monkeypatch)
    cases = {case["id"]: case for case in run_suite("phi").to_json()["cases"]}
    assert cases["phi/even-r2"]["status"] == "fail"
    assert cases["phi/even-r2"]["witness"] == {"detail": "even fiber dimension was accepted"}
    assert cases["phi/odd-r1"]["status"] == cases["phi/odd-r3"]["status"] == "pass"


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
    _zero_traces(monkeypatch)
    cases = run_suite("adjunction").to_json()["cases"]
    cartan = [c for c in cases if c["id"].startswith("adjunction/cartan/")]
    assert cartan and all(c["status"] == "fail" for c in cartan)
    for case in cartan:  # zeros are 0 over F_p and "0" over Q
        assert {str(x) for row in case["witness"]["matrix"] for x in row} == {"0"}
    assert all(c["status"] == "pass" for c in cases if c not in cartan)


def _zero_traces(monkeypatch):
    # the trace form and the Cartan map read the basis traces
    monkeypatch.setattr(
        ExtensionDatum, "_basis_traces", lambda self: [self.bottom.zero()] * self.degree
    )


def _false_theta_laws(monkeypatch):
    # the split cases fail with the default witness, the xmap cases name delta
    monkeypatch.setattr(verify, "theta_multiplicative", lambda k, head: False)
    monkeypatch.setattr(verify, "delta_unital", lambda k: False)


def _refuse_every_section(monkeypatch):
    def refuse(k, bound):
        raise NotRegularSequence("homology off the socle degree", {(0, 1): 1}, "homology")

    monkeypatch.setattr(verify, "trace_diagram", refuse)


def _accept_even_r(monkeypatch):
    real = verify.pushforward_phi_r
    monkeypatch.setattr(verify, "pushforward_phi_r", lambda r, f: real(1, f) if r == 2 else real(r, f))


#: sha256 of the ``--json verify <suite>`` stdout with a law broken, each
#: captured while a suite still returned its finished list of cases: every
#: failure witness keeps its layout, ``claimed equality fails`` included
FAILURE_DIGESTS = {
    "adjunction": (_zero_traces, "315841c8e04c6a2c08728f6fcd291ee58f8f80e9d7426ddd5dd8d56edd5b5495"),
    "theta": (_false_theta_laws, "05f0223809d0418b1d2d4ba117f323a7a371d505ea6d8ce542d58ad6cd4c95cc"),
    "trace": (_refuse_every_section, "1085b26724c7035d4c1b536990143519418969754eeb57cb8555249500f13994"),
    "phi": (_accept_even_r, "6c4068b8dc850df253d752a64af5e27c1c6219cb06599d775eb59fe3b2660b6f"),
}


@pytest.mark.parametrize("suite", sorted(FAILURE_DIGESTS))
def test_failure_json_digest_pinned(monkeypatch, capsys, suite):
    breaks, digest = FAILURE_DIGESTS[suite]
    breaks(monkeypatch)
    assert main(["--json", "verify", suite]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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
