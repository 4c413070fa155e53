"""Command-line surface: queries, single checks, and the batch verifier.

Exit codes: 0 when every requested case passes (or the command is a pure
query), 1 when a mathematical claim fails — always with a witness in the
output — and 2 for usage problems (unparseable input, out-of-bounds
requests).  ``--json`` switches to machine output, which is byte-for-byte
reproducible for a fixed ``--seed``; any flag value of the form
``@file.json`` is read from that file first.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .complexes import (
    ChainComplex,
    DualityDatum,
    dualize,
    graded_homology_dims,
    hom_complex,
    homology_dims,
    tensor,
)
from .errors import (
    BoundsExceeded,
    Inconclusive,
    NotRegularSequence,
    ParityError,
    WittforgeError,
)
from .fields import FieldSpec
from .koszul import (
    DEFAULT_BOUND,
    KoszulDatum,
    koszul_complex,
    koszul_form,
    split_factorization,
    trace_diagram,
    x_map,
)
from .polynomials import PolyRing
from .projspace import ProjLineBundleQuery, cohomology, pushforward_phi_r
from .quadforms import (
    Place,
    QuadraticForm,
    diagonalize,
    hilbert_symbol,
    witt_decompose,
    witt_equal,
)
from .transfer import (
    ExtensionDatum,
    base_change_check,
    projection_formula_check,
    scharlau_transfer,
    trace_form,
    transfer_compose_check,
)
from .verify import SUITES, extension_of, field_label, qsqrt, run_suite

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

_USAGE_ERRORS = (
    ValueError,
    TypeError,
    KeyError,
    OSError,
    json.JSONDecodeError,
)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _resolve(value):
    """``@path`` pulls the actual value from a file."""
    if isinstance(value, str) and value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return value


def parse_field(text):
    """``Q``, ``F<q>`` (q an odd prime power), ``Qsqrt<n>``, ``Qcbrt<n>``."""
    text = _resolve(text).strip()
    if text == "Q":
        return FieldSpec.Q()
    if text.startswith("Qsqrt"):
        return qsqrt(int(text[len("Qsqrt") :]))
    if text.startswith("Qcbrt"):
        n = int(text[len("Qcbrt") :])
        return FieldSpec.extension(FieldSpec.Q(), [-n, 0, 0, 1])
    if text.startswith("F"):
        q = int(text[1:])
        if q < 3 or q % 2 == 0:
            raise ValueError(f"no odd finite field of order {q}")
        p = next(d for d in range(3, q + 1) if q % d == 0)
        k = 0
        power = 1
        while power < q:
            power *= p
            k += 1
        if power != q:
            raise ValueError(f"{q} is not a prime power")
        return extension_of(FieldSpec.Fp(p), k)
    raise ValueError(f"unknown field shorthand {text!r}")


def parse_extension(text):
    """``TOP/BOTTOM`` with both sides in field shorthand, bottom first.

    A finite top like ``F81`` over bottom ``F9`` is built as the
    deterministic degree-2 step over the bottom, so the pair is always a
    simple extension datum, never a flattened tower.
    """
    text = _resolve(text).strip()
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"extension shorthand must be TOP/BOTTOM, got {text!r}")
    bottom = parse_field(parts[1])
    top = _step_over(bottom, parts[0])
    return ExtensionDatum(top, bottom)


def _step_over(bottom, top_text):
    top_text = top_text.strip()
    if bottom.is_finite and top_text.startswith("F"):
        q_top = int(top_text[1:])
        q_bot = bottom.order()
        degree = 0
        power = 1
        while power < q_top:
            power *= q_bot
            degree += 1
        if power != q_top or degree == 0:
            raise ValueError(f"{top_text} is not an extension of F{q_bot}")
        return extension_of(bottom, degree)
    top = parse_field(top_text)
    if top == bottom:
        return bottom
    if top.kind == "ext" and top.base == bottom:
        return top
    raise ValueError(f"{top_text} does not sit directly over {field_label(bottom)}")


def parse_tower(text):
    """``TOP/MID/BOTTOM`` -> (outer datum MID/BOTTOM, inner datum TOP/MID)."""
    text = _resolve(text).strip()
    parts = text.split("/")
    if len(parts) != 3:
        raise ValueError(f"tower shorthand must be TOP/MID/BOTTOM, got {text!r}")
    bottom = parse_field(parts[2])
    mid = _step_over(bottom, parts[1])
    top = _step_over(mid, parts[0])
    return ExtensionDatum(mid, bottom), ExtensionDatum(top, mid)


def parse_form(field, text):
    """A Gram matrix as JSON rows, or comma-separated diagonal entries."""
    text = _resolve(text).strip()
    if text.startswith("["):
        return QuadraticForm(field, json.loads(text))
    return QuadraticForm.diagonal(field, [e.strip() for e in text.split(",")])


_FACTOR = re.compile(r"^([A-Za-z_]\w*)(?:\^(\d+))?$")


def parse_poly(ring, text):
    """Sums of integer- or fraction-weighted monomials: ``2*x^2*y - z``."""
    text = _resolve(text).replace(" ", "")
    if not text:
        raise ValueError("empty polynomial")
    terms, buf = [], ""
    for ch in text:
        if ch == "+" and buf:
            terms.append(buf)
            buf = ""
        elif ch == "-" and buf and buf[-1] not in "*^+-":
            terms.append(buf)
            buf = "-"
        else:
            buf += ch
    terms.append(buf)
    total = ring.zero()
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("+-")
        if not term:
            raise ValueError(f"dangling sign in {text!r}")
        value = ring.from_int(sign)
        for factor in term.split("*"):
            hit = _FACTOR.match(factor)
            if hit:
                name, power = hit.group(1), int(hit.group(2) or 1)
                if name not in ring.vars:
                    raise ValueError(f"unknown variable {name!r} (have {ring.vars})")
                for _ in range(power):
                    value = value * ring.variable(name)
            else:
                value = value * ring.constant(ring.field.element(Fraction(factor)))
        total = total + value
    return total


def parse_datum(args):
    """The ``--vars``/``--section``/``--field``/``--twist`` flag cluster."""
    names = tuple(v.strip() for v in _resolve(args.vars).split(",") if v.strip())
    if not names:
        raise ValueError("--vars needs at least one variable name")
    field = parse_field(args.field)
    ring = PolyRing(field, names)
    section = [parse_poly(ring, s) for s in _split_top_level(_resolve(args.section))]
    twist = None if args.twist is None else ring.from_int(args.twist)
    return KoszulDatum(ring, section, twist=twist)


def _split_top_level(text):
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty section")
    return parts


def parse_complex(text):
    obj = json.loads(_resolve(text))
    return ChainComplex.from_json(obj)


def parse_element(field, text):
    text = _resolve(text).strip()
    if text.startswith("["):
        return field.element(json.loads(text))
    return field.element(text)


def _effective_bound(args):
    env = os.environ.get("WITTFORGE_BOUND")
    if env is not None:
        return int(env)
    if getattr(args, "bound", None) is not None:
        return args.bound
    return DEFAULT_BOUND


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _gram_json(form):
    return [[x.to_json() for x in row] for row in form.gram]


def _emit(args, payload, human):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _emit_check(args, report):
    payload = report.to_json()
    status = "pass" if report else "fail"
    human = f"{status}: {report.claim}"
    if not report:
        human += f"\n  witness: {json.dumps(payload, sort_keys=True)}"
    _emit(args, {"status": status, "report": payload}, human)
    return EXIT_PASS if report else EXIT_FAIL


# ---------------------------------------------------------------------------
# witt
# ---------------------------------------------------------------------------


def cmd_witt_diag(args):
    field = parse_field(args.field)
    form = parse_form(field, args.form)
    entries, basis = diagonalize(form)
    payload = {
        "field": field.to_json(),
        "entries": [e.to_json() for e in entries],
        "basis": [[x.to_json() for x in row] for row in basis],
    }
    human = "diagonal entries: " + ", ".join(repr(e) for e in entries)
    _emit(args, payload, human)
    return EXIT_PASS


def cmd_witt_decompose(args):
    field = parse_field(args.field)
    form = parse_form(field, args.form)
    wc = witt_decompose(form)
    payload = wc.to_json()
    payload["is_zero"] = wc.is_zero()
    human = (
        f"hyperbolic planes: {wc.hyperbolic}, anisotropic dimension: "
        f"{wc.anisotropic.dim}" + (" (Witt-trivial)" if wc.is_zero() else "")
    )
    _emit(args, payload, human)
    return EXIT_PASS


def cmd_witt_equal(args):
    field = parse_field(args.field)
    left = parse_form(field, args.left)
    right = parse_form(field, args.right)
    equal = witt_equal(left, right)
    payload = {
        "equal": equal,
        "left": _gram_json(left),
        "right": _gram_json(right),
    }
    _emit(args, payload, "equal in the Witt group" if equal else "NOT equal in the Witt group")
    return EXIT_PASS if equal else EXIT_FAIL


def cmd_witt_hilbert(args):
    place = Place.parse(_resolve(args.place))
    symbol = hilbert_symbol(args.a, args.b, place)
    payload = {"a": args.a, "b": args.b, "place": str(place), "symbol": symbol}
    _emit(args, payload, str(symbol))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------


def cmd_transfer_trace(args):
    ext = parse_extension(args.ext)
    value = parse_element(ext.top, args.value)
    out = ext.trace(value)
    _emit(
        args,
        {"ext": args.ext, "value": value.to_json(), "trace": out.to_json()},
        repr(out),
    )
    return EXIT_PASS


def cmd_transfer_form(args):
    ext = parse_extension(args.ext)
    form = trace_form(ext)
    _emit(args, {"ext": args.ext, "gram": _gram_json(form)}, json.dumps(_gram_json(form)))
    return EXIT_PASS


def cmd_transfer_push(args):
    ext = parse_extension(args.ext)
    form = parse_form(ext.top, args.form)
    pushed = scharlau_transfer(ext, form)
    _emit(
        args,
        {"ext": args.ext, "form": _gram_json(form), "pushed": _gram_json(pushed)},
        json.dumps(_gram_json(pushed)),
    )
    return EXIT_PASS


def cmd_transfer_check_compose(args):
    outer, inner = parse_tower(args.tower)
    form = (
        QuadraticForm.diagonal(inner.top, [1])
        if args.form is None
        else parse_form(inner.top, args.form)
    )
    return _emit_check(args, transfer_compose_check(outer, inner, form))


def cmd_transfer_check_basechange(args):
    ext = parse_extension(args.ext)
    other = parse_field(args.scalars)
    form = (
        QuadraticForm.diagonal(ext.top, [1])
        if args.form is None
        else parse_form(ext.top, args.form)
    )
    return _emit_check(args, base_change_check(ext, other, form))


def cmd_transfer_check_projection(args):
    ext = parse_extension(args.ext)
    x = (
        QuadraticForm.diagonal(ext.top, [1])
        if args.top_form is None
        else parse_form(ext.top, args.top_form)
    )
    y = (
        QuadraticForm.diagonal(ext.bottom, [1])
        if args.bottom_form is None
        else parse_form(ext.bottom, args.bottom_form)
    )
    return _emit_check(args, projection_formula_check(ext, x, y))


# ---------------------------------------------------------------------------
# complex
# ---------------------------------------------------------------------------


def cmd_complex_tensor(args):
    out = tensor(parse_complex(args.a), parse_complex(args.b))
    _emit(args, out.to_json(), repr(out))
    return EXIT_PASS


def cmd_complex_hom(args):
    out = hom_complex(parse_complex(args.a), parse_complex(args.b))
    _emit(args, out.to_json(), repr(out))
    return EXIT_PASS


def cmd_complex_dual(args):
    cx = parse_complex(args.a)
    datum = DualityDatum(cx.ring, twist=cx.ring.from_int(args.twist), degree=args.degree)
    out = dualize(cx, datum)
    _emit(args, out.to_json(), repr(out))
    return EXIT_PASS


def cmd_complex_homology(args):
    cx = parse_complex(args.a)
    if getattr(cx.ring, "is_field", False):
        dims = {str(n): d for n, d in sorted(homology_dims(cx).items())}
    else:
        bound = _effective_bound(args)
        dims = {
            f"{n},{t}": d
            for (n, t), d in sorted(graded_homology_dims(cx, bound).items())
        }
    _emit(args, {"dims": dims}, json.dumps(dims, sort_keys=True) if dims else "exact")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# koszul
# ---------------------------------------------------------------------------


def cmd_koszul_build(args):
    out = koszul_complex(parse_datum(args))
    _emit(args, out.to_json(), repr(out))
    return EXIT_PASS


def cmd_koszul_form(args):
    space = koszul_form(parse_datum(args))
    _emit(args, space.to_json(), repr(space))
    return EXIT_PASS


def cmd_koszul_verify_xmap(args):
    k = parse_datum(args)
    ok = x_map(k) == koszul_form(k).form
    payload = {
        "law": "the adjunct of multiplication into the shifted line equals the duality pairing",
        "rank": k.rank,
        "status": "pass" if ok else "fail",
    }
    if not ok:
        payload["witness"] = {"detail": "components differ", "datum": k.to_json()}
    _emit(args, payload, payload["status"])
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_koszul_verify_trace(args):
    k = parse_datum(args)
    diagram = trace_diagram(k, bound=_effective_bound(args))
    payload = {"status": "pass", "certificate": diagram.certificate}
    human = (
        f"pass: homology concentrated in degree {diagram.certificate['socle_degree']}"
        f" through internal degree {diagram.certificate['bound']}"
    )
    _emit(args, payload, human)
    return EXIT_PASS


def cmd_koszul_verify_split(args):
    cert = split_factorization(parse_datum(args))
    payload = {"status": "pass" if cert else "fail", "certificate": cert.to_json()}
    _emit(args, payload, repr(cert))
    return EXIT_PASS if cert else EXIT_FAIL


# ---------------------------------------------------------------------------
# proj
# ---------------------------------------------------------------------------


def cmd_proj_cohomology(args):
    field = parse_field(args.field)
    report = cohomology(ProjLineBundleQuery(args.r, args.m, field))
    human = f"h^* = {list(report.dims)}"
    if report.witnesses:
        human += f", witnesses: {report.to_json()['witnesses']}"
    _emit(args, report.to_json(), human)
    return EXIT_PASS


def cmd_proj_phi_r(args):
    field = parse_field(args.field)
    report = pushforward_phi_r(args.r, field)
    payload = {"status": "pass", "certificate": report.to_json()}
    _emit(
        args,
        payload,
        f"pass: the target twist O({report.m}) on P^{report.r} has no cohomology",
    )
    return EXIT_PASS


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args):
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    reports = [
        run_suite(name, seed=args.seed, size=args.size, bound=_effective_bound(args))
        for name in names
    ]
    all_pass = all(r.passed for r in reports)
    if args.json:
        payload = [r.to_json() for r in reports]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        width = max(len(r.suite) for r in reports)
        for r in reports:
            s = r.summary()
            line = (
                f"{r.suite:<{width}}  pass {s['pass']:4d}  fail {s['fail']:3d}  "
                f"inconclusive {s['inconclusive']:3d}  ({r.wall_time:.2f}s)"
            )
            print(line)
            for case in r.failures():
                print(f"  {case['status'].upper()} {case['id']}: {case['law']}")
                print(f"    inputs:  {json.dumps(case['inputs'], sort_keys=True)}")
                print(f"    witness: {json.dumps(case.get('witness'), sort_keys=True)}")
        total = sum(r.summary()["total"] for r in reports)
        verdict = "all cases pass" if all_pass else "FAILURES PRESENT"
        print(f"{total} cases across {len(reports)} suites: {verdict}")
    return EXIT_PASS if all_pass else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wittforge",
        description="Exact quadratic-form transfers, Koszul dualities, and their verifier.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    parser.add_argument(
        "--bound",
        type=int,
        default=None,
        help=f"internal-degree bound for graded exactness (default {DEFAULT_BOUND}; "
        "the WITTFORGE_BOUND environment variable wins)",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    witt = groups.add_parser("witt", help="quadratic forms and Witt classes").add_subparsers(
        dest="command", required=True
    )
    p = witt.add_parser("diag", help="diagonalize a Gram matrix")
    p.add_argument("--field", required=True)
    p.add_argument("--form", required=True, help="JSON Gram matrix or comma diagonal")
    p.set_defaults(handler=cmd_witt_diag)
    p = witt.add_parser("decompose", help="split off hyperbolic planes")
    p.add_argument("--field", required=True)
    p.add_argument("--form", required=True)
    p.set_defaults(handler=cmd_witt_decompose)
    p = witt.add_parser("equal", help="decide Witt equivalence (exit 1 when inequivalent)")
    p.add_argument("--field", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(handler=cmd_witt_equal)
    p = witt.add_parser("hilbert", help="a local Hilbert symbol over Q")
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-b", type=int, required=True)
    p.add_argument("--place", required=True, help="'inf' or a prime")
    p.set_defaults(handler=cmd_witt_hilbert)

    transfer = groups.add_parser("transfer", help="trace forms and transfers").add_subparsers(
        dest="command", required=True
    )
    p = transfer.add_parser("trace", help="field trace of an element")
    p.add_argument("--ext", required=True, help="TOP/BOTTOM, e.g. F9/F3")
    p.add_argument("--value", required=True, help="int or JSON coefficient list")
    p.set_defaults(handler=cmd_transfer_trace)
    p = transfer.add_parser("form", help="the trace form of an extension")
    p.add_argument("--ext", required=True)
    p.set_defaults(handler=cmd_transfer_form)
    p = transfer.add_parser("push", help="transfer a form along an extension")
    p.add_argument("--ext", required=True)
    p.add_argument("--form", required=True)
    p.set_defaults(handler=cmd_transfer_push)
    p = transfer.add_parser("check-compose", help="tower transfer vs composite")
    p.add_argument("--tower", required=True, help="TOP/MID/BOTTOM, e.g. F81/F9/F3")
    p.add_argument("--form", default=None, help="form over TOP (default <1>)")
    p.set_defaults(handler=cmd_transfer_check_compose)
    p = transfer.add_parser("check-basechange", help="transfer vs extended scalars")
    p.add_argument("--ext", required=True)
    p.add_argument("--scalars", required=True, help="the second field over BOTTOM")
    p.add_argument("--form", default=None)
    p.set_defaults(handler=cmd_transfer_check_basechange)
    p = transfer.add_parser("check-projection", help="the projection formula")
    p.add_argument("--ext", required=True)
    p.add_argument("--top-form", default=None)
    p.add_argument("--bottom-form", default=None)
    p.set_defaults(handler=cmd_transfer_check_projection)

    complexes = groups.add_parser("complex", help="bounded complexes of free modules").add_subparsers(
        dest="command", required=True
    )
    p = complexes.add_parser("tensor", help="tensor product of two complexes")
    p.add_argument("--a", required=True, help="complex JSON (use @file.json)")
    p.add_argument("--b", required=True)
    p.set_defaults(handler=cmd_complex_tensor)
    p = complexes.add_parser("hom", help="internal hom of two complexes")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=cmd_complex_hom)
    p = complexes.add_parser("dual", help="dual against a twist in a degree")
    p.add_argument("--a", required=True)
    p.add_argument("--twist", type=int, default=1)
    p.add_argument("--degree", type=int, default=0)
    p.set_defaults(handler=cmd_complex_dual)
    p = complexes.add_parser("homology", help="homology dimensions (graded when needed)")
    p.add_argument("--a", required=True)
    p.set_defaults(handler=cmd_complex_homology)

    koszul = groups.add_parser("koszul", help="Koszul complexes and their pairings").add_subparsers(
        dest="command", required=True
    )

    def koszul_datum_flags(p):
        p.add_argument("--vars", required=True, help="comma-separated variable names")
        p.add_argument("--section", required=True, help="comma-separated polynomials")
        p.add_argument("--field", default="Q")
        p.add_argument("--twist", type=int, default=None)

    p = koszul.add_parser("build", help="the Koszul complex of a section")
    koszul_datum_flags(p)
    p.set_defaults(handler=cmd_koszul_build)
    p = koszul.add_parser("form", help="the duality pairing as a symmetric space")
    koszul_datum_flags(p)
    p.set_defaults(handler=cmd_koszul_form)
    p = koszul.add_parser("verify-xmap", help="multiplication adjunct vs pairing")
    koszul_datum_flags(p)
    p.set_defaults(handler=cmd_koszul_verify_xmap)
    p = koszul.add_parser("verify-trace", help="exactness of the augmented complex")
    koszul_datum_flags(p)
    p.set_defaults(handler=cmd_koszul_verify_trace)
    p = koszul.add_parser("verify-split", help="factorization along the last entry")
    koszul_datum_flags(p)
    p.set_defaults(handler=cmd_koszul_verify_split)

    proj = groups.add_parser("proj", help="line bundles on projective space").add_subparsers(
        dest="command", required=True
    )
    p = proj.add_parser("cohomology", help="h^*(P^r, O(m)) with monomial witnesses")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--field", default="Q")
    p.set_defaults(handler=cmd_proj_cohomology)
    p = proj.add_parser("phi-r", help="push-forward vanishing of the half-canonical form")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--field", default="Q")
    p.set_defaults(handler=cmd_proj_phi_r)

    verify = groups.add_parser("verify", help="batch verification suites")
    verify.add_argument("suite", help="'all' or one of: " + ", ".join(sorted(SUITES)))
    verify.add_argument("--size", type=int, default=None, help="override sweep sizes")
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (NotRegularSequence, ParityError, Inconclusive) as err:
        payload = {
            "status": "fail",
            "error": type(err).__name__,
            "witness": _witness_of(err),
        }
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"fail ({type(err).__name__}): {err}", file=sys.stderr)
        return EXIT_FAIL
    except BoundsExceeded as err:
        print(f"out of bounds: {err}", file=sys.stderr)
        return EXIT_USAGE
    except WittforgeError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_USAGE
    except _USAGE_ERRORS as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE


def _witness_of(err):
    witness = getattr(err, "witness", None)
    if witness is None:
        return {"detail": str(err)}
    return {
        "detail": str(err),
        "homology": {str(k): v for k, v in sorted(witness.items())}
        if isinstance(witness, dict)
        else witness,
    }


if __name__ == "__main__":
    sys.exit(main())
