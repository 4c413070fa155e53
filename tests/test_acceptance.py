"""Acceptance gate: one test per headline property, each with a time budget.

Every test prints a single ``[PASS]``/``[FAIL]`` line (visible under
``pytest -s`` or in captured output) and then asserts both the property
and its runtime budget.  Randomized sweeps use fixed seeds; sweep sizes
are the stated minimums.
"""

import random
import time

from wittforge import linalg
from wittforge.complexes import DualityDatum, bidual_involution_check
from wittforge.errors import NotRegularSequence, ParityError
from wittforge.fields import FieldSpec
from wittforge.koszul import (
    KoszulDatum,
    koszul_form,
    split_factorization,
    theta_multiplicative,
    trace_diagram,
    x_map,
)
from wittforge.polynomials import PolyRing
from wittforge.projspace import (
    ProjLineBundleQuery,
    closed_formula_dims,
    cohomology,
    pushforward_phi_r,
)
from wittforge.quadforms import (
    QuadraticForm,
    hilbert_symbol,
    relevant_places,
    witt_add,
    witt_decompose,
    witt_equal,
    witt_mul,
    witt_neg,
    witt_zero,
)
from wittforge.transfer import (
    ExtensionDatum,
    base_change_check,
    cartan_isomorphism,
    projection_formula_check,
    scharlau_transfer,
    trace_form,
    transfer_compose_check,
    triangle_identities_check,
)
from wittforge.verify import (
    coordinate_datum,
    extension_of,
    field_label,
    qsqrt,
    random_complex,
    random_nondegenerate,
)

Q = FieldSpec.Q()
F3 = FieldSpec.Fp(3)
F5 = FieldSpec.Fp(5)
F7 = FieldSpec.Fp(7)


def _gate(number, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {number:2d}. {label}  ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"{label}: property failed"
    assert elapsed < budget, f"{label}: {elapsed:.2f}s exceeded the {budget:.0f}s budget"


def test_01_scharlau_transfer_frozen_values():
    start = time.perf_counter()
    ext = ExtensionDatum(extension_of(F3, 2), F3)

    unit_pushed = scharlau_transfer(ext, QuadraticForm.diagonal(ext.top, [1]))
    ok = unit_pushed == QuadraticForm.diagonal(F3, [2, 1])
    ok = ok and unit_pushed == trace_form(ext)

    alpha = ext.top.generator()
    gen_pushed = scharlau_transfer(ext, QuadraticForm.diagonal(ext.top, [alpha]))
    wc = witt_decompose(gen_pushed)
    ok = ok and wc.is_zero() and wc.hyperbolic == 1

    _gate(
        1,
        "transfer of <1> along F9/F3 is the trace form; transfer of <alpha> is hyperbolic",
        ok,
        time.perf_counter() - start,
        1.0,
    )


def test_02_adjunction_triangles_and_invertible_comparison():
    start = time.perf_counter()
    exts = [ExtensionDatum(extension_of(p, d), p) for p in (F3, F5, F7) for d in range(1, 10)]
    exts += [ExtensionDatum(qsqrt(2), Q), ExtensionDatum(qsqrt(5), Q)]

    ok = True
    for ext in exts:
        if not triangle_identities_check(ext, 1, 1):
            ok = False
        if linalg.inverse(ext.bottom, cartan_isomorphism(ext, 1).matrix) is None:
            ok = False
    # spot-check a larger module on one finite and one rational extension
    ok = ok and bool(triangle_identities_check(ExtensionDatum(extension_of(F3, 2), F3), 2, 3))
    ok = ok and bool(triangle_identities_check(ExtensionDatum(qsqrt(2), Q), 2, 3))

    _gate(
        2,
        "triangle identities and invertible comparison map for degrees <= 9 "
        "over F3, F5, F7 and for Qsqrt2, Qsqrt5",
        ok,
        time.perf_counter() - start,
        5.0,
    )


def test_03_transfer_composes_along_towers():
    start = time.perf_counter()
    rng = random.Random(2026)
    failures = []
    for k in range(50):
        base = (F3, F5, F7)[rng.randrange(3)]
        mid = extension_of(base, rng.randint(1, 3))
        top = extension_of(mid, rng.randint(1, 3))
        q = random_nondegenerate(top, rng, rng.randint(1, 2))
        report = transfer_compose_check(
            ExtensionDatum(mid, base), ExtensionDatum(top, mid), q
        )
        if not report:
            failures.append((field_label(top), field_label(mid), field_label(base), k))

    _gate(
        3,
        "transfer along 50 randomized towers equals the composite of the steps "
        f"({len(failures)} failures)",
        not failures,
        time.perf_counter() - start,
        10.0,
    )


def test_04_base_change_and_projection_formula():
    start = time.perf_counter()
    rng = random.Random(2027)
    failures = []

    for k in range(50):
        if k % 10 == 9:
            ext = ExtensionDatum(qsqrt(rng.choice([2, 5])), Q)
            other = Q
        else:
            base = (F3, F5, F7)[rng.randrange(3)]
            ext = ExtensionDatum(extension_of(base, rng.randint(2, 3)), base)
            other = extension_of(base, rng.randint(1, 3))
        q = random_nondegenerate(ext.top, rng, rng.randint(1, 2))
        if not base_change_check(ext, other, q):
            failures.append(("base-change", k))

    for k in range(50):
        if k % 10 == 9:
            ext = ExtensionDatum(qsqrt(rng.choice([2, 5])), Q)
        else:
            base = (F3, F5, F7)[rng.randrange(3)]
            ext = ExtensionDatum(extension_of(base, rng.randint(2, 3)), base)
        x = random_nondegenerate(ext.top, rng, rng.randint(1, 2))
        y = random_nondegenerate(ext.bottom, rng, rng.randint(1, 2))
        if not projection_formula_check(ext, x, y):
            failures.append(("projection", k))

    _gate(
        4,
        "base change and the projection formula on 50 randomized cases each "
        f"({len(failures)} failures)",
        not failures,
        time.perf_counter() - start,
        20.0,
    )


def test_05_multiplication_adjunct_equals_pairing():
    start = time.perf_counter()
    ok = True
    for d in range(1, 5):
        k = coordinate_datum(d)
        if x_map(k) != koszul_form(k).form:
            ok = False
    for d in range(2, 5):
        k = coordinate_datum(d)
        for head in range(1, d):
            if not theta_multiplicative(k, head):
                ok = False

    _gate(
        5,
        "adjunct of Koszul multiplication equals the pairing for d <= 4, "
        "and the pairing of every split is the tensor of the factors",
        ok,
        time.perf_counter() - start,
        10.0,
    )


def test_06_koszul_exactness_and_rejection():
    start = time.perf_counter()
    ok = True
    for d in range(1, 5):
        diagram = trace_diagram(coordinate_datum(d), bound=6)
        cert = diagram.certificate
        # regular: all graded homology through degree 6 sits in the socle,
        # and the socle is exactly the rank-one twisted quotient
        if cert != {"bound": 6, "socle_degree": -d, "socle_dims": {-d: 1}}:
            ok = False

    ring = PolyRing(Q, ("x", "y"))
    x = ring.variable("x")
    try:
        trace_diagram(KoszulDatum(ring, [x, x]), bound=6)
        ok = False  # a dependent section must not be accepted
    except NotRegularSequence as err:
        if not (err.witness and any(err.witness.values())):
            ok = False

    _gate(
        6,
        "augmented Koszul complexes for coordinate sections d <= 4 are exact "
        "through internal degree 6; the section (x, x) is rejected with a witness",
        ok,
        time.perf_counter() - start,
        10.0,
    )


def test_07_split_factorization_certificates():
    start = time.perf_counter()
    certs = {d: split_factorization(coordinate_datum(d)) for d in (1, 2, 3)}
    ok = all(bool(c) for c in certs.values())
    ok = ok and certs[1].cone_matches and certs[1].iso.is_identity()
    ok = ok and all(certs[d].form_factorizes and certs[d].iso_invertible for d in (2, 3))

    _gate(
        7,
        "splitting off the last entry: cone identification at d = 1, "
        "matrix-exact tensor factorization at d = 2, 3",
        ok,
        time.perf_counter() - start,
        5.0,
    )


def test_08_projective_vanishing_window_and_pushforward():
    start = time.perf_counter()
    ok = True
    for r in range(1, 5):
        for m in range(-r, 0):
            formula = closed_formula_dims(r, m)
            if any(formula):
                ok = False
            for field in (Q, F7):
                report = cohomology(ProjLineBundleQuery(r, m, field))
                if not report.is_zero() or list(report.dims) != list(formula):
                    ok = False

    ok = ok and pushforward_phi_r(1, Q).is_zero()
    ok = ok and pushforward_phi_r(3, Q).is_zero()
    try:
        pushforward_phi_r(2, Q)
        ok = False
    except ParityError:
        pass

    _gate(
        8,
        "h^i(P^r, O(m)) = 0 on the window -r <= m <= -1 for r <= 4 by both routes; "
        "push-forward certificate for r = 1, 3 and parity rejection for r = 2",
        ok,
        time.perf_counter() - start,
        5.0,
    )


def test_09_witt_ring_axioms_and_hilbert_product():
    start = time.perf_counter()
    rng = random.Random(2028)
    ok = True

    for field in (F3, F5, F7):
        one = QuadraticForm.diagonal(field, [1])
        zero = witt_zero(field)
        for _ in range(6):
            a, b, c = (random_nondegenerate(field, rng, rng.randint(1, 2)) for _ in range(3))
            ok = ok and witt_equal(witt_add(a, b), witt_add(b, a))
            ok = ok and witt_equal(witt_add(witt_add(a, b), c), witt_add(a, witt_add(b, c)))
            ok = ok and witt_equal(witt_add(a, zero), a)
            ok = ok and witt_add(a, witt_neg(a)).is_zero()
            ok = ok and witt_equal(witt_mul(a, b), witt_mul(b, a))
            ok = ok and witt_equal(witt_mul(witt_mul(a, b), c), witt_mul(a, witt_mul(b, c)))
            ok = ok and witt_equal(witt_mul(one, a), a)
            ok = ok and witt_equal(
                witt_mul(a, witt_add(b, c)), witt_add(witt_mul(a, b), witt_mul(a, c))
            )

    for field in (F3, F5):
        wc = witt_decompose(QuadraticForm.diagonal(field, [1, 1, 1, 1]))
        ok = ok and wc.is_zero() and wc.hyperbolic == 2

    nonzero = [s for s in range(-30, 31) if s != 0]
    for _ in range(200):
        a, b = rng.choice(nonzero), rng.choice(nonzero)
        product = 1
        for place in relevant_places([a, b]):
            product *= hilbert_symbol(a, b, place)
        ok = ok and product == 1

    _gate(
        9,
        "Witt-ring axioms over F3, F5, F7; <1,1,1,1> splits completely over "
        "F3 and F5; Hilbert product formula on 200 random pairs",
        ok,
        time.perf_counter() - start,
        10.0,
    )


def test_10_bidual_involution_on_random_complexes():
    start = time.perf_counter()
    rng = random.Random(2029)
    ok = True
    for k in range(100):
        field = (F5, Q)[k % 2]
        datum = DualityDatum(
            field, twist=field.from_int(rng.choice([1, 2, 3])), degree=rng.randint(-1, 2)
        )
        if not bidual_involution_check(random_complex(field, rng), datum.degree):
            ok = False

    _gate(
        10,
        "dual of the bidual map composed with the bidual map of the dual "
        "is the identity on 100 random bounded free complexes",
        ok,
        time.perf_counter() - start,
        5.0,
    )
