"""Batch verification suites behind ``wittforge verify``.

Each suite is a generator of named cases.  A case yields its id, the law it
checks in plain language, the inputs it runs on, and a check: a thunk that
returns a witness a reader can replay when the law fails, or ``None`` when it
holds.  :func:`run_suite` passes a suite only the keywords its ``SUITES``
entry names (a sized sweep its seed and size, the trace suite its bound),
runs each check as soon as it is yielded and files the case's status.  All
randomized sweeps draw from a caller-supplied seed, and case ids are stable,
so a report is reproducible byte for byte in JSON mode.  A check that raises
decides its own case only: ``Inconclusive`` files it as inconclusive, any
other error fails it with the error's type and message as the witness.  A
raise while a suite builds its inputs keeps the cases filed so far and adds
one failed ``<suite>/raised`` case.  Only ``BoundsExceeded`` ends the run as
a refused request.
"""

import functools
import random
import time

from . import linalg
from .complexes import (
    ChainComplex,
    adjunction_triangle_check,
    bidual_involution_check,
    dual_line,
)
from .errors import BoundsExceeded, Inconclusive, NotRegularSequence, ParityError
from .fields import FieldSpec, find_irreducible
from .koszul import (
    DEFAULT_BOUND,
    KoszulDatum,
    delta_associative,
    delta_unital,
    koszul_complex,
    koszul_form,
    split_factorization,
    theta_multiplicative,
    trace_diagram,
    x_map,
)
from .polynomials import PolyRing
from .projspace import ProjLineBundleQuery, closed_formula_dims, cohomology, pushforward_phi_r
from .quadforms import (
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
from .transfer import (
    ExtensionDatum,
    base_change_check,
    cartan_isomorphism,
    projection_formula_check,
    pushforward_via_cartan,
    scharlau_transfer,
    trace_form,
    transfer_compose_check,
    triangle_identities_check,
)

Q = FieldSpec.Q()
PRIMES = (3, 5, 7)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class VerificationReport:
    """Outcome of one suite: named cases plus summary counts.

    ``wall_time`` is measured but deliberately left out of :meth:`to_json`
    so that two runs with the same seed serialize identically.
    """

    __slots__ = ("suite", "cases", "wall_time")

    def __init__(self, suite, cases, wall_time=0.0):
        self.suite = suite
        self.cases = sorted(cases, key=lambda c: c["id"])
        self.wall_time = wall_time
        for case in self.cases:
            if case["status"] != "pass" and case.get("witness") is None:
                raise ValueError(f"case {case['id']} did not pass but has no witness")

    def summary(self):
        counts = {"pass": 0, "fail": 0, "inconclusive": 0}
        for case in self.cases:
            counts[case["status"]] += 1
        counts["total"] = len(self.cases)
        return counts

    @property
    def passed(self):
        return all(case["status"] == "pass" for case in self.cases)

    def failures(self):
        return [case for case in self.cases if case["status"] != "pass"]

    def to_json(self):
        return {
            "suite": self.suite,
            "summary": self.summary(),
            "cases": [
                {k: case[k] for k in ("id", "law", "inputs", "status", "witness") if k in case}
                for case in self.cases
            ],
        }

    def __repr__(self):
        s = self.summary()
        return f"VerificationReport({self.suite}: {s['pass']}/{s['total']} pass)"


#: the witness of a claimed equality that fails and has no data of its own
_FAILS = {"detail": "claimed equality fails"}


def _refuted(report):
    """The witness of a CheckReport-style object (truthy, with to_json), or None when it holds."""
    return None if report else report.to_json()


def _raises(error, call, accepted, judge=lambda err: None):
    """A check that ``call()`` raises ``error``: the witness is what ``judge``
    makes of the error, or ``{"detail": accepted}`` when the call returns."""

    def check():
        try:
            call()
        except error as err:
            return judge(err)
        return {"detail": accepted}

    return check


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------


def field_label(field):
    if field.kind == "Q":
        return "Q"
    if field.is_finite:
        return f"F{field.order()}"
    return repr(field)


_EXT_CACHE = {}


def extension_of(base, degree):
    """A deterministic degree-``degree`` extension of ``base`` (cached)."""
    key = (base, degree)
    if key not in _EXT_CACHE:
        if degree == 1:
            _EXT_CACHE[key] = base
        else:
            # find_irreducible has just proven the modulus with the same test
            modulus = find_irreducible(base, degree)
            _EXT_CACHE[key] = FieldSpec.extension(base, modulus, assume_irreducible=True)
    return _EXT_CACHE[key]


def qsqrt(n):
    return FieldSpec.extension(Q, [-n, 0, 1])


def random_nondegenerate(field, rng, dim):
    """A random symmetric Gram matrix with no radical."""
    while True:
        g = [[field.random_element(rng) for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(i):
                g[i][j] = g[j][i]
        form = QuadraticForm(field, linalg.sparse(g), dim)
        if not form.is_degenerate():
            return form


def random_invertible(field, rng, n):
    """A random invertible n x n matrix with small entries, and its inverse (sparse)."""
    while True:
        m = [[field.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        inv = linalg.inverse(field, m)
        if inv is not None:
            return linalg.sparse(m), inv


def random_complex(field, rng):
    """A random bounded complex of free modules over a field, in degrees -1..2.

    Built as a direct sum of zero-differential homology blocks and
    contractible identity pairs (at most two of each per degree), then
    conjugated degreewise by random invertible matrices, so it is free,
    bounded, and never degenerate by construction.
    """
    lo, hi = -1, 2
    h = {n: rng.randint(0, 2) for n in range(lo, hi + 1)}
    force = rng.randint(lo, hi)
    h[force] = max(1, h[force])
    e = {n: rng.randint(0, 2) for n in range(lo + 1, hi + 1)}
    terms = {n: h[n] + e.get(n, 0) + e.get(n + 1, 0) for n in range(lo, hi + 1)}
    # degree n -> (P_n, P_n^-1)
    basis = {n: random_invertible(field, rng, r) for n, r in terms.items()}
    mats = {}
    for n in range(lo + 1, hi + 1):
        if not (terms[n - 1] and terms[n] and e.get(n)):
            continue
        mat = {h[n - 1] + e.get(n - 1, 0) + k: {h[n] + k: field.one()} for k in range(e[n])}
        p_out, p_in_inv = basis[n - 1][0], basis[n][1]
        mats[n] = linalg.product(field, linalg.product(field, p_out, mat), p_in_inv)
    return ChainComplex(field, terms, mats)


def coordinate_datum(d):
    ring = PolyRing(Q, tuple("xyzw")[:d])
    return KoszulDatum(ring, [ring.variable(i) for i in range(d)])


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def verify_scharlau():
    F3 = FieldSpec.Fp(3)
    F9 = extension_of(F3, 2)
    ext = ExtensionDatum(F9, F3)

    def unit_is_trace_form():
        pushed = scharlau_transfer(ext, QuadraticForm.diagonal(F9, [1]))
        if pushed != QuadraticForm.diagonal(F3, [2, 1]):
            return pushed.to_json()
        return None if pushed == trace_form(ext) else _FAILS

    yield (
        "scharlau/unit-is-trace-form",
        "the transfer of the unit form along F9/F3 is the trace form, matrix-exactly",
        {"ext": "F9/F3", "form": "<1>"},
        unit_is_trace_form,
    )

    def generator_is_hyperbolic():
        wc = witt_decompose(scharlau_transfer(ext, QuadraticForm.diagonal(F9, [F9.generator()])))
        if not wc.is_zero():
            return wc.to_json()
        return None if wc.hyperbolic == 1 else _FAILS

    yield (
        "scharlau/generator-is-hyperbolic",
        "the transfer of the generator form along F9/F3 is hyperbolic",
        {"ext": "F9/F3", "form": "<alpha>"},
        generator_is_hyperbolic,
    )


def _cartan_refuted(ext):
    """The comparison matrix when it is singular, else a witness to the Cartan
    route and the Scharlau transfer differing on <1> or, above degree 1, on
    <generator>; None when the matrix is invertible and both agree."""
    cartan = cartan_isomorphism(ext, 1)
    if linalg.inverse(ext.bottom, cartan.matrix) is None:
        return cartan.to_json()
    for a in [1] if ext.degree == 1 else [1, ext.top.generator()]:
        q = QuadraticForm.diagonal(ext.top, [a])
        via_cartan, scharlau = pushforward_via_cartan(ext, q), scharlau_transfer(ext, q)
        if via_cartan != scharlau:
            return {
                "form": q.to_json(),
                "via_cartan": via_cartan.to_json(),
                "scharlau": scharlau.to_json(),
            }
    return None


def verify_adjunction():
    """Triangle identities, and comparison-map invertibility followed by the
    Cartan route against the Scharlau transfer, degree by degree.  The route
    is compared only once the matrix is invertible, since a degenerate trace
    form has no Scharlau transfer."""
    bottoms = [(FieldSpec.Fp(p), range(1, 10)) for p in PRIMES]
    bottoms += [(Q, ())]
    exts = []
    for bottom, degrees in bottoms:
        for d in degrees:
            exts.append(ExtensionDatum(extension_of(bottom, d), bottom))
    exts.append(ExtensionDatum(qsqrt(2), Q))
    exts.append(ExtensionDatum(qsqrt(5), Q))

    for ext in exts:
        label = f"{field_label(ext.top)}/{field_label(ext.bottom)}"
        yield (
            f"adjunction/triangles/{label}",
            "restriction and transfer satisfy both triangle identities",
            {"ext": label, "dims": [1, 1]},
            lambda: _refuted(triangle_identities_check(ext, 1, 1)),
        )
        yield (
            f"adjunction/cartan/{label}",
            "the comparison map between the two internal-hom descriptions is invertible",
            {"ext": label, "dim": 1},
            lambda: _cartan_refuted(ext),
        )


def verify_towers(seed, size):
    """Transfer along a two-step tower against the composite of the steps."""
    rng = random.Random(seed)
    law = "transfer along a tower equals the composite of the stepwise transfers"
    for k in range(size):
        p = rng.choice(PRIMES)
        base = FieldSpec.Fp(p)
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        mid = extension_of(base, d1)
        top = extension_of(mid, d2)
        inner = ExtensionDatum(top, mid)
        outer = ExtensionDatum(mid, base)
        q = random_nondegenerate(top, rng, rng.randint(1, 2))
        label = f"{field_label(top)}/{field_label(mid)}/{field_label(base)}"
        yield (
            f"towers/{k:03d}",
            law,
            {"tower": label, "dim": q.dim},
            lambda: _refuted(transfer_compose_check(outer, inner, q)),
        )
    # two rational towers with a trivial step each, for the char-0 path
    r2 = qsqrt(2)
    for k, (outer, inner, q) in enumerate(
        [
            (ExtensionDatum(Q, Q), ExtensionDatum(r2, Q), QuadraticForm.diagonal(r2, [r2.generator()])),
            (ExtensionDatum(r2, Q), ExtensionDatum(r2, r2), QuadraticForm.diagonal(r2, [1, r2.generator()])),
        ]
    ):
        label = f"{field_label(inner.top)}/{field_label(inner.bottom)}/{field_label(outer.bottom)}"
        yield (
            f"towers/rational-{k}",
            law,
            {"tower": label, "dim": q.dim},
            lambda: _refuted(transfer_compose_check(outer, inner, q)),
        )


def verify_base_change(seed, size):
    """Transfer commutes with extending scalars, split algebra and all."""
    rng = random.Random(seed)
    law = "transferring then extending scalars matches extending then transferring"
    for k in range(size):
        if k % 10 == 9:
            ext = ExtensionDatum(qsqrt(rng.choice([2, 5])), Q)
            other = Q
        else:
            base = FieldSpec.Fp(rng.choice(PRIMES))
            ext = ExtensionDatum(extension_of(base, rng.randint(2, 3)), base)
            other = extension_of(base, rng.randint(1, 3))
        q = random_nondegenerate(ext.top, rng, rng.randint(1, 2))
        label = f"{field_label(ext.top)}/{field_label(ext.bottom)}"
        yield (
            f"base-change/{k:03d}",
            law,
            {"ext": label, "scalars": field_label(other), "dim": q.dim},
            lambda: _refuted(base_change_check(ext, other, q)),
        )


def verify_projection(seed, size):
    """The projection formula in the Witt ring."""
    rng = random.Random(seed)
    law = "transfer(x . restricted y) equals transfer(x) . y up to Witt equivalence"
    for k in range(size):
        if k % 10 == 9:
            ext = ExtensionDatum(qsqrt(rng.choice([2, 5])), Q)
        else:
            base = FieldSpec.Fp(rng.choice(PRIMES))
            ext = ExtensionDatum(extension_of(base, rng.randint(2, 3)), base)
        x = random_nondegenerate(ext.top, rng, rng.randint(1, 2))
        y = random_nondegenerate(ext.bottom, rng, rng.randint(1, 2))
        label = f"{field_label(ext.top)}/{field_label(ext.bottom)}"
        yield (
            f"projection/{k:03d}",
            law,
            {"ext": label, "dims": [x.dim, y.dim]},
            lambda: _refuted(projection_formula_check(ext, x, y)),
        )


def verify_theta():
    """The unit adjunct of the Koszul multiplication against the pairing,
    with the laws it is built from: delta is unital, and up to rank 2 it is
    associative and the tensor-hom adjunction satisfies its triangle
    identities (at rank 3 the triangle check alone outweighs the suite)."""
    for d in range(1, 5):
        k = coordinate_datum(d)

        def laws():
            held = {"x_map": x_map(k) == koszul_form(k).form, "delta_unital": delta_unital(k)}
            if d <= 2:
                kos = koszul_complex(k)
                held["delta_associative"] = delta_associative(k)
                held["tensor_hom_triangles"] = adjunction_triangle_check(kos, kos, dual_line(kos, d))
            failed = [name for name, ok in held.items() if not ok]
            return {"failed": failed} if failed else None

        yield (
            f"theta/xmap-d{d}",
            "the adjunct of multiplication into the shifted line equals the duality pairing",
            {"rank": d, "section": "coordinates"},
            laws,
        )
    for d in range(2, 5):
        k = coordinate_datum(d)
        for head in range(1, d):
            yield (
                f"theta/split-d{d}h{head}",
                "the pairing of a split section is the tensor product of the factor pairings",
                {"rank": d, "head": head},
                lambda: None if theta_multiplicative(k, head) else _FAILS,
            )


def verify_trace(bound):
    """Exactness of the augmented Koszul complex, and rejection without it.

    The rank-1 case comes first: its terms off the socle start at internal
    degree 0, the highest of the five data, so a bound that leaves any
    checked window empty is refused there."""
    for d in range(1, 5):
        k = coordinate_datum(d)

        def exact():
            try:
                certificate = trace_diagram(k, bound=bound).certificate
            except NotRegularSequence as err:
                return {"error": str(err), **err.witness_json()}
            return None if certificate["socle_degree"] == -d else certificate

        yield (
            f"trace/exact-d{d}",
            "the augmented Koszul complex of a coordinate section has homology "
            "only in the socle degree",
            {"rank": d, "section": "coordinates", "bound": bound},
            exact,
        )
    x = PolyRing(Q, ("x", "y")).variable("x")
    yield (
        "trace/reject-dependent",
        "a linearly dependent section is rejected with a nonzero-homology witness",
        {"rank": 2, "section": "x,x", "bound": bound},
        _raises(
            NotRegularSequence,
            lambda: trace_diagram(KoszulDatum(x.ring, [x, x]), bound=bound),
            "a dependent section was accepted",
            lambda err: None
            if any((err.witness or {}).values())
            else {"detail": "rejection carried no homology witness"},
        ),
    )


def verify_split():
    for d in range(1, 4):
        k = coordinate_datum(d)
        yield (
            f"split/d{d}",
            "splitting off the last section entry factors the pairing, "
            "with the split-off factor a cone (hence trivial in the Witt group)",
            {"rank": d},
            lambda: _refuted(split_factorization(k)),
        )


def _formula_mismatch(r, twists, fields, differs):
    """The last twist and field where ``differs(dims, formula)`` between the
    monomial decomposition and the closed formulas, as a witness; None if none."""
    witness = None
    for m in twists:
        for field in fields:
            dims = list(cohomology(ProjLineBundleQuery(r, m, field)).dims)
            formula = list(closed_formula_dims(r, m))
            if differs(dims, formula):
                witness = {"r": r, "m": m, "dims": dims, "formula": formula}
    return witness


def verify_cohomology():
    """Line bundles on projective space: decomposition vs closed formulas."""
    F7 = FieldSpec.Fp(7)
    for r in range(1, 5):
        yield (
            f"cohomology/window-r{r}",
            "every twist in the window -r..-1 has vanishing cohomology, by "
            "monomial decomposition and by the closed formulas",
            {"r": r, "window": [-r, -1]},
            lambda: _formula_mismatch(
                r, range(-r, 0), (Q, F7), lambda dims, formula: any(dims) or any(formula)
            ),
        )
        yield (
            f"cohomology/sweep-r{r}",
            "monomial-decomposition dimensions match the closed formulas across the sweep",
            {"r": r, "m_range": [-r - 3, 3]},
            lambda: _formula_mismatch(r, range(-r - 3, 4), (Q,), lambda dims, formula: dims != formula),
        )


def verify_phi():
    for r in (1, 3):

        def pushes_to_zero():
            report = pushforward_phi_r(r, Q)
            return None if report.is_zero() else report.to_json()

        yield (
            f"phi/odd-r{r}",
            "the half-canonical form pushes forward to zero: its target twist "
            "has no cohomology at all",
            {"r": r, "twist": -(r + 1) // 2},
            pushes_to_zero,
        )
    yield (
        "phi/even-r2",
        "even fiber dimension admits no half-canonical twist and is rejected",
        {"r": 2},
        _raises(ParityError, lambda: pushforward_phi_r(2, Q), "even fiber dimension was accepted"),
    )


_WITT_LAWS = (
    ("add-commutes", lambda a, b, c, one, zero: witt_equal(witt_add(a, b), witt_add(b, a))),
    (
        "add-associates",
        lambda a, b, c, one, zero: witt_equal(witt_add(witt_add(a, b), c), witt_add(a, witt_add(b, c))),
    ),
    ("add-unit", lambda a, b, c, one, zero: witt_equal(witt_add(a, zero), a)),
    ("add-inverse", lambda a, b, c, one, zero: witt_add(a, witt_neg(a)).is_zero()),
    ("mul-commutes", lambda a, b, c, one, zero: witt_equal(witt_mul(a, b), witt_mul(b, a))),
    (
        "mul-associates",
        lambda a, b, c, one, zero: witt_equal(witt_mul(witt_mul(a, b), c), witt_mul(a, witt_mul(b, c))),
    ),
    ("mul-unit", lambda a, b, c, one, zero: witt_equal(witt_mul(one, a), a)),
    (
        "distributes",
        lambda a, b, c, one, zero: witt_equal(
            witt_mul(a, witt_add(b, c)), witt_add(witt_mul(a, b), witt_mul(a, c))
        ),
    ),
)


def verify_witt(seed, size):
    """Ring axioms on random Witt classes, plus the split of <1,1,1,1>."""
    rng = random.Random(seed)
    for p in PRIMES:
        field = FieldSpec.Fp(p)
        one = QuadraticForm.diagonal(field, [1])
        zero = witt_zero(field)
        for k in range(size):
            a, b, c = (random_nondegenerate(field, rng, rng.randint(1, 2)) for _ in range(3))

            def ring_laws():
                failed = [name for name, law in _WITT_LAWS if not law(a, b, c, one, zero)]
                return {"laws": failed, "forms": [f.to_json() for f in (a, b, c)]} if failed else None

            yield (
                f"witt/axioms-F{p}-{k}",
                "Witt classes form a commutative ring",
                {"field": f"F{p}", "dims": [a.dim, b.dim, c.dim]},
                ring_laws,
            )
    for p in (3, 5):
        field = FieldSpec.Fp(p)

        def splits():
            wc = witt_decompose(QuadraticForm.diagonal(field, [1, 1, 1, 1]))
            return None if wc.is_zero() and wc.hyperbolic == 2 else wc.to_json()

        yield (
            f"witt/four-units-F{p}",
            "the four-fold unit form splits into two hyperbolic planes",
            {"field": f"F{p}", "form": "<1,1,1,1>"},
            splits,
        )


def verify_hilbert(seed, size):
    """The product formula for Hilbert symbols over the rationals."""
    rng = random.Random(seed)
    nonzero = [s for s in range(-30, 31) if s != 0]
    for k in range(size):
        a, b = rng.choice(nonzero), rng.choice(nonzero)

        def product_formula():
            prod = 1
            locals_seen = {}
            for v in relevant_places([a, b]):
                sym = hilbert_symbol(a, b, v)
                locals_seen[str(v)] = sym
                prod *= sym
            return None if prod == 1 else {"locals": locals_seen, "product": prod}

        yield (
            f"hilbert/{k:03d}",
            "the product of local Hilbert symbols over all relevant places is 1",
            {"a": a, "b": b},
            product_formula,
        )


def verify_bidual(seed, size):
    """The dual of the bidual map inverts the bidual map of the dual."""
    rng = random.Random(seed)
    F5 = FieldSpec.Fp(5)
    for k in range(size):
        field = (F5, Q)[k % 2]
        rng.choice([1, 2, 3])  # unread twist draw, kept for bench/digests.json bidual/0..3 and sha 5d8d236c
        degree = rng.randint(-1, 2)
        cx = random_complex(field, rng)
        yield (
            f"bidual/{k:03d}",
            "dualizing the bidual map gives a matrix-exact inverse of the "
            "bidual map of the dual",
            {
                "field": field_label(field),
                "degree": degree,
                "ranks": {str(n): r for n, r in sorted(cx.terms.items())},
            },
            lambda: None
            if bidual_involution_check(cx, degree)
            else {"detail": "composite is not the identity"},
        )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: name -> (suite, default size, the keywords run_suite passes it); a suite
#: without a default size runs a fixed set of cases
SUITES = {
    "scharlau": (verify_scharlau, None, ()),
    "adjunction": (verify_adjunction, None, ()),
    "towers": (verify_towers, 50, ("seed", "size")),
    "base-change": (verify_base_change, 50, ("seed", "size")),
    "projection": (verify_projection, 50, ("seed", "size")),
    "theta": (verify_theta, None, ()),
    "trace": (verify_trace, None, ("bound",)),
    "split": (verify_split, None, ()),
    "cohomology": (verify_cohomology, None, ()),
    "phi": (verify_phi, None, ()),
    "witt": (verify_witt, 6, ("seed", "size")),
    "hilbert": (verify_hilbert, 200, ("seed", "size")),
    "bidual": (verify_bidual, 100, ("seed", "size")),
}


def _check_size(name, size):
    """A size is given only to a suite with a default one, is at least 0, and
    is at most ten times that default (:class:`BoundsExceeded` above it)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    default = SUITES[name][1]
    if size is None:
        return
    if default is None:
        raise ValueError(f"suite {name!r} runs a fixed set of cases and takes no size")
    if size < 0:
        raise ValueError(f"size {size} must be >= 0")
    if size > 10 * default:
        raise BoundsExceeded(
            f"size {size} is above {10 * default}, ten times the {name} suite's default"
        )


def _filed(cid, law, inputs, check):
    """The case of one check, run now: ``check()`` returns the failure witness,
    or None on a pass.  A check that raises decides its own case only:
    ``Inconclusive`` leaves it inconclusive, any other error fails it with the
    error's type and message as the witness.  ``BoundsExceeded`` is a refused
    request and propagates."""
    try:
        witness = check()
    except BoundsExceeded:
        raise
    except Inconclusive as err:
        status, witness = "inconclusive", {"error": str(err)}
    except Exception as err:
        status, witness = "fail", {"error": type(err).__name__, "detail": str(err)}
    else:
        status = "pass" if witness is None else "fail"
    case = {"id": cid, "law": law, "inputs": inputs, "status": status}
    if witness is not None:
        case["witness"] = witness
    return case


def _reraise(err):
    raise err


def run_suite(name, seed=0, size=None, bound=DEFAULT_BOUND):
    """One suite's report; ``size`` is checked by :func:`_check_size` before any
    case runs.  Each check runs as soon as its case is yielded, before the
    suite builds the next input."""
    _check_size(name, size)
    suite, default, keywords = SUITES[name]
    given = {"seed": seed, "size": default if size is None else size, "bound": bound}
    start = time.perf_counter()
    cases = []
    try:
        for cid, law, inputs, check in suite(**{k: given[k] for k in keywords}):
            cases.append(_filed(cid, law, inputs, check))
    except BoundsExceeded:
        raise
    except Exception as err:
        # building an input raised: the cases filed so far stay
        raised = functools.partial(_reraise, err)
        law = "every law of the suite reaches a verdict"
        cases.append(_filed(f"{name}/raised", law, {"suite": name}, raised))
    return VerificationReport(name, cases, wall_time=time.perf_counter() - start)


def run_all(seed=0, size=None, bound=DEFAULT_BOUND):
    """Every suite's report, in name order, with ``size`` given to the suites
    that take one.  A size that one of them rejects raises before the first
    suite runs.  The trace suite runs first, so a bound that it refuses raises
    before any other suite's work."""
    sizes = {name: size if default else None for name, (_, default, _) in sorted(SUITES.items())}
    for name, n in sizes.items():
        _check_size(name, n)
    reports = {
        name: run_suite(name, seed=seed, size=sizes[name], bound=bound)
        for name in sorted(sizes, key=lambda name: name != "trace")
    }
    return [reports[name] for name in sizes]
