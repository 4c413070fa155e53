"""Command-line surface: queries, single checks, and the batch verifier.

Exit codes: 0 when every requested case passes (or the command is a pure
query), 1 when a mathematical claim fails — always with a witness in the
output — and 2 for usage problems (unparseable input, out-of-bounds
requests).  ``--json`` switches to machine output, which is byte-for-byte
reproducible for a fixed ``--seed``.  argparse reads a text flag's ``@path``
value from that file (:func:`_text`), inside :func:`main`'s ``try``; an ``@``
within a value is text.  ``--bound`` alone sets the internal-degree bound, and
a prime from ``F<q>``, ``--place`` or a JSON ring is refused at or above
``fields.MR_BOUND`` before any primality test.

Each ``cmd_*`` handler maps the parsed ``args`` to its answer
``(held, payload, human)`` and prints nothing.  :func:`main` alone writes
stdout: ``payload`` as sorted, indented JSON under ``--json``, ``human``
otherwise; it exits 0 when the answer holds and 1 when it does not.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from . import linalg
from .complexes import (
    ChainComplex,
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
from .fields import FieldSpec, prime_power, require_exact_primality
from .koszul import (
    DEFAULT_BOUND,
    KoszulDatum,
    koszul_complex,
    koszul_form,
    split_factorization,
    trace_diagram,
    x_map,
)
from .polynomials import MultiPolynomial, PolyRing
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
from .verify import SUITES, extension_of, field_label, qsqrt, run_all, run_suite

EXIT_PASS, EXIT_FAIL, EXIT_USAGE = 0, 1, 2

_USAGE_ERRORS = (ValueError, TypeError, KeyError, OSError)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _text(value):
    """A text flag's value; ``@path`` reads it from that file.  A file that is
    not UTF-8 raises ``OSError``, which argparse lets through to :func:`main`."""
    if value.startswith("@"):
        with open(value[1:], encoding="utf-8") as fh:
            try:
                return fh.read()
            except UnicodeDecodeError as err:
                raise OSError(f"{value[1:]!r} is not UTF-8 text: {err.reason}") from None
    return value


def parse_field(text):
    """``Q``, ``F<q>`` (q an odd prime power below ``MR_BOUND``), ``Qsqrt<n>``, ``Qcbrt<n>``."""
    text = text.strip()
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
        power = prime_power(require_exact_primality(q, "F<q> takes q"))
        if power is None:
            raise ValueError(f"{q} is not a prime power")
        return extension_of(FieldSpec.Fp(power[0]), power[1])
    raise ValueError(f"unknown field shorthand {text!r}")


def _exponent(q, base):
    """The k with base**k == q, or None."""
    k, power = 0, 1
    while power < q:
        power, k = power * base, k + 1
    return k if power == q else None


def parse_extension(text):
    """``TOP/BOTTOM`` with both sides in field shorthand, bottom first.

    A finite top like ``F81`` over bottom ``F9`` is built as the
    deterministic degree-2 step over the bottom, so the pair is always a
    simple extension datum, never a flattened tower.
    """
    text = text.strip()
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"extension shorthand must be TOP/BOTTOM, got {text!r}")
    bottom = parse_field(parts[1])
    top = _step_over(bottom, parts[0])
    return ExtensionDatum(top, bottom)


def _step_over(bottom, top_text):
    top_text = top_text.strip()
    if bottom.is_finite and top_text.startswith("F"):
        q_top, q_bot = int(top_text[1:]), bottom.order()
        degree = _exponent(q_top, q_bot)
        if not degree:
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
    text = text.strip()
    parts = text.split("/")
    if len(parts) != 3:
        raise ValueError(f"tower shorthand must be TOP/MID/BOTTOM, got {text!r}")
    bottom = parse_field(parts[2])
    mid = _step_over(bottom, parts[1])
    top = _step_over(mid, parts[0])
    return ExtensionDatum(mid, bottom), ExtensionDatum(top, mid)


def parse_form(field, text):
    """A Gram matrix as JSON rows, or comma-separated diagonal entries:
    the one reader of dense Gram rows."""
    text = text.strip()
    if text.startswith("["):
        rows = json.loads(text)
        if not all(isinstance(row, list) for row in rows):
            raise ValueError("a Gram matrix is a list of rows, each a list of entries")
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("Gram matrix must be square")
        mat = linalg.sparse([map(field.element, row) for row in rows])
        return QuadraticForm(field, mat, len(rows))
    return QuadraticForm.diagonal(field, [e.strip() for e in text.split(",")])


def _form_or_unit(field, text):
    """The form ``text`` gives, or the unit form <1> when its flag was omitted."""
    return QuadraticForm.diagonal(field, [1]) if text is None else parse_form(field, text)


_NAME = re.compile(r"[A-Za-z_]\w*")
_FACTOR = re.compile(rf"^({_NAME.pattern})(?:\^(\d+))?$")


def parse_poly(ring, text):
    """Sums of integer- or fraction-weighted monomials: ``2*x^2*y - z``."""
    text = text.replace(" ", "")
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
                exp = [0] * len(ring.vars)
                exp[ring.vars.index(name)] = power
                value = value * MultiPolynomial(ring, {tuple(exp): ring.field.one()})
            else:
                try:
                    coeff = Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"{factor!r} has a zero denominator") from None
                value = value * ring.constant(ring.field.element(coeff))
        total = total + value
    return total


def parse_datum(args):
    """The ``--vars``/``--section``/``--field`` flag cluster.  An empty
    entry, or a variable name that :func:`parse_poly` cannot read, is refused."""
    for flag, text in (("--vars", args.vars), ("--section", args.section)):
        if not all(entry.strip() for entry in text.split(",")):
            raise ValueError(f"{flag} {text!r} has an empty entry")
    names = tuple(v.strip() for v in args.vars.split(","))
    if unreadable := [n for n in names if not _NAME.fullmatch(n)]:
        raise ValueError(f"{unreadable[0]!r} is not a variable name: it must match {_NAME.pattern}")
    ring = PolyRing(parse_field(args.field), names)
    return KoszulDatum(ring, [parse_poly(ring, s) for s in args.section.split(",")])


def parse_complex(text):
    """A complex from JSON text, checked by :meth:`ChainComplex.from_json`."""
    return ChainComplex.from_json(json.loads(text))


def parse_element(field, text):
    text = text.strip()
    return field.element(json.loads(text) if text.startswith("[") else text)


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------


def _check_answer(report):
    """The answer of a :class:`CheckReport` claim: it holds when the report passes."""
    payload = report.to_json()
    status = "pass" if report else "fail"
    human = f"{status}: {report.claim}"
    if not report:
        human += f"\n  witness: {json.dumps(payload, sort_keys=True)}"
    return bool(report), {"status": status, "report": payload}, human


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
        "basis": linalg.dense_json(field, basis, (form.dim,) * 2),
    }
    return True, payload, "diagonal entries: " + ", ".join(repr(e) for e in entries)


def cmd_witt_decompose(args):
    field = parse_field(args.field)
    form = parse_form(field, args.form)
    wc = witt_decompose(form)
    payload = wc.to_json()
    payload["is_zero"] = wc.is_zero()
    human = (
        f"hyperbolic planes: {wc.hyperbolic}, anisotropic dimension: "
        f"{wc.anisotropic.dim}" + (" (Witt-trivial)" if payload["is_zero"] else "")
    )
    return True, payload, human


def cmd_witt_equal(args):
    field = parse_field(args.field)
    left = parse_form(field, args.left)
    right = parse_form(field, args.right)
    equal = witt_equal(left, right)
    payload = {"equal": equal, "left": left.to_json()["gram"], "right": right.to_json()["gram"]}
    return equal, payload, "equal in the Witt group" if equal else "NOT equal in the Witt group"


def cmd_witt_hilbert(args):
    place = Place.parse(args.place)
    symbol = hilbert_symbol(args.a, args.b, place)
    return True, {"a": args.a, "b": args.b, "place": str(place), "symbol": symbol}, str(symbol)


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------


def cmd_transfer_trace(args):
    ext = parse_extension(args.ext)
    value = parse_element(ext.top, args.value)
    out = ext.trace(value)
    return True, {"ext": args.ext, "value": value.to_json(), "trace": out.to_json()}, repr(out)


def cmd_transfer_form(args):
    gram = trace_form(parse_extension(args.ext)).to_json()["gram"]
    return True, {"ext": args.ext, "gram": gram}, json.dumps(gram)


def cmd_transfer_push(args):
    ext = parse_extension(args.ext)
    form = parse_form(ext.top, args.form)
    pushed = scharlau_transfer(ext, form).to_json()["gram"]
    payload = {"ext": args.ext, "form": form.to_json()["gram"], "pushed": pushed}
    return True, payload, json.dumps(pushed)


def cmd_transfer_check_compose(args):
    outer, inner = parse_tower(args.tower)
    form = _form_or_unit(inner.top, args.form)
    return _check_answer(transfer_compose_check(outer, inner, form))


def cmd_transfer_check_basechange(args):
    ext = parse_extension(args.ext)
    other = parse_field(args.scalars)
    form = _form_or_unit(ext.top, args.form)
    return _check_answer(base_change_check(ext, other, form))


def cmd_transfer_check_projection(args):
    ext = parse_extension(args.ext)
    x = _form_or_unit(ext.top, args.top_form)
    y = _form_or_unit(ext.bottom, args.bottom_form)
    return _check_answer(projection_formula_check(ext, x, y))


# ---------------------------------------------------------------------------
# complex
# ---------------------------------------------------------------------------


def cmd_complex_tensor(args):
    out = tensor(parse_complex(args.a), parse_complex(args.b))
    return True, out.to_json(), repr(out)


def cmd_complex_hom(args):
    out = hom_complex(parse_complex(args.a), parse_complex(args.b))
    return True, out.to_json(), repr(out)


def cmd_complex_dual(args):
    out = dualize(parse_complex(args.a), args.degree)
    return True, out.to_json(), repr(out)


def cmd_complex_homology(args):
    cx = parse_complex(args.a)
    if getattr(cx.ring, "is_field", False):
        dims = {str(n): d for n, d in sorted(homology_dims(cx).items())}
    else:
        graded = graded_homology_dims(cx, args.bound)
        dims = {f"{n},{t}": d for (n, t), d in sorted(graded.items())}
    return True, {"dims": dims}, json.dumps(dims, sort_keys=True) if dims else "exact"


# ---------------------------------------------------------------------------
# koszul
# ---------------------------------------------------------------------------


def cmd_koszul_build(args):
    out = koszul_complex(parse_datum(args))
    return True, out.to_json(), repr(out)


def cmd_koszul_form(args):
    space = koszul_form(parse_datum(args))
    return True, space.to_json(), repr(space)


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
    return ok, payload, payload["status"]


def cmd_koszul_verify_trace(args):
    k = parse_datum(args)
    cert = trace_diagram(k, bound=args.bound).certificate
    human = (
        f"pass: homology concentrated in degree {cert['socle_degree']}"
        f" through internal degree {cert['bound']}"
    )
    return True, {"status": "pass", "certificate": cert}, human


def cmd_koszul_verify_split(args):
    cert = split_factorization(parse_datum(args))
    payload = {"status": "pass" if cert else "fail", "certificate": cert.to_json()}
    return bool(cert), payload, repr(cert)


# ---------------------------------------------------------------------------
# proj
# ---------------------------------------------------------------------------


def cmd_proj_cohomology(args):
    field = parse_field(args.field)
    payload = cohomology(ProjLineBundleQuery(args.r, args.m, field)).to_json()
    human = f"h^* = {payload['dims']}"
    if payload["witnesses"]:
        human += f", witnesses: {payload['witnesses']}"
    return True, payload, human


def cmd_proj_phi_r(args):
    report = pushforward_phi_r(args.r, parse_field(args.field))
    human = f"pass: the target twist O({report.m}) on P^{report.r} has no cohomology"
    return True, {"status": "pass", "certificate": report.to_json()}, human


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args):
    kwargs = {"seed": args.seed, "size": args.size, "bound": args.bound}
    if args.suite == "all":
        reports = run_all(**kwargs)
    elif args.suite in SUITES:
        reports = [run_suite(args.suite, **kwargs)]
    else:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)} or 'all'")
    all_pass = all(r.passed for r in reports)
    width = max(len(r.suite) for r in reports)
    lines = []
    for r in reports:
        s = r.summary()
        lines.append(
            f"{r.suite:<{width}}  pass {s['pass']:4d}  fail {s['fail']:3d}  "
            f"inconclusive {s['inconclusive']:3d}  ({r.wall_time:.2f}s)"
        )
        for case in r.failures():
            lines += [
                f"  {case['status'].upper()} {case['id']}: {case['law']}",
                f"    inputs:  {json.dumps(case['inputs'], sort_keys=True)}",
                f"    witness: {json.dumps(case.get('witness'), sort_keys=True)}",
            ]
    total = sum(r.summary()["total"] for r in reports)
    verdict = "all cases pass" if all_pass else "FAILURES PRESENT"
    lines.append(f"{total} cases across {len(reports)} suites: {verdict}")
    return all_pass, [r.to_json() for r in reports], "\n".join(lines)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _arg(name, **kwargs):
    """``(name, add_argument keywords)``; a flag without a default is required,
    and one without a type is text (:func:`_text`)."""
    if name.startswith("-") and "default" not in kwargs:
        kwargs["required"] = True
    kwargs.setdefault("type", _text)
    return name, kwargs


_FIELD, _FORM, _EXT, _A, _B = (_arg(f"--{n}") for n in ("field", "form", "ext", "a", "b"))
_OVER_Q, _R = _arg("--field", default="Q"), _arg("--r", type=int)
_DATUM = [_arg("--vars", help="comma-separated variable names"),
          _arg("--section", help="comma-separated polynomials"),
          _OVER_Q]

#: group -> (help, command -> (help, handler, arguments)); verify -> (help, (handler, arguments))
COMMANDS = {
    "witt": ("quadratic forms and Witt classes", {
        "diag": ("diagonalize a Gram matrix", cmd_witt_diag,
                 [_FIELD, _arg("--form", help="JSON Gram matrix or comma diagonal")]),
        "decompose": ("split off hyperbolic planes", cmd_witt_decompose, [_FIELD, _FORM]),
        "equal": ("decide Witt equivalence (exit 1 when inequivalent)", cmd_witt_equal,
                  [_FIELD, _arg("--left"), _arg("--right")]),
        "hilbert": ("a local Hilbert symbol over Q", cmd_witt_hilbert, [
            _arg("-a", type=int), _arg("-b", type=int), _arg("--place", help="'inf' or a prime")]),
    }),
    "transfer": ("trace forms and transfers", {
        "trace": ("field trace of an element", cmd_transfer_trace, [
            _arg("--ext", help="TOP/BOTTOM, e.g. F9/F3"),
            _arg("--value", help="int or JSON coefficient list")]),
        "form": ("the trace form of an extension", cmd_transfer_form, [_EXT]),
        "push": ("transfer a form along an extension", cmd_transfer_push, [_EXT, _FORM]),
        "check-compose": ("tower transfer vs composite", cmd_transfer_check_compose, [
            _arg("--tower", help="TOP/MID/BOTTOM, e.g. F81/F9/F3"),
            _arg("--form", default=None, help="form over TOP (default <1>)")]),
        "check-basechange": ("transfer vs extended scalars", cmd_transfer_check_basechange, [
            _EXT, _arg("--scalars", help="the second field over BOTTOM"),
            _arg("--form", default=None)]),
        "check-projection": ("the projection formula", cmd_transfer_check_projection, [
            _EXT, _arg("--top-form", default=None), _arg("--bottom-form", default=None)]),
    }),
    "complex": ("bounded complexes of free modules", {
        "tensor": ("tensor product of two complexes", cmd_complex_tensor,
                   [_arg("--a", help="complex JSON (use @file.json)"), _B]),
        "hom": ("internal hom of two complexes", cmd_complex_hom, [_A, _B]),
        "dual": ("dual into the ring in a degree", cmd_complex_dual,
                 [_A, _arg("--degree", type=int, default=0)]),
        "homology": ("homology dimensions (graded when needed)", cmd_complex_homology, [_A]),
    }),
    "koszul": ("Koszul complexes and their pairings", {
        "build": ("the Koszul complex of a section", cmd_koszul_build, _DATUM),
        "form": ("the duality pairing as a symmetric space", cmd_koszul_form, _DATUM),
        "verify-xmap": ("multiplication adjunct vs pairing", cmd_koszul_verify_xmap, _DATUM),
        "verify-trace": ("exactness of the augmented complex", cmd_koszul_verify_trace, _DATUM),
        "verify-split": ("factorization along the last entry", cmd_koszul_verify_split, _DATUM),
    }),
    "proj": ("line bundles on projective space", {
        "cohomology": ("h^*(P^r, O(m)) with monomial witnesses", cmd_proj_cohomology,
                       [_R, _arg("--m", type=int), _OVER_Q]),
        "phi-r": ("push-forward vanishing of the half-canonical form", cmd_proj_phi_r,
                  [_R, _OVER_Q]),
    }),
    "verify": ("batch verification suites", (cmd_verify, [
        _arg("suite", help="'all' or one of: " + ", ".join(sorted(SUITES))),
        _arg("--size", type=int, default=None, help="override sweep sizes")])),
}


def _path_parser(listed, **kwargs):
    """A parser, or ``None`` for a name ``add_parser`` only lists with its help."""
    return None if listed else argparse.ArgumentParser(**kwargs)


def build_parser(argv):
    """The parser for ``argv``, which lists every group and command but builds only
    argv's path: its first group name (before it come only global flags and their
    int values), then the first name of one of that group's commands, as argparse
    dispatches.  So a command builds 3 parsers, ``verify`` 2 and no group 1."""
    parser = argparse.ArgumentParser(
        prog="wittforge",
        description="Exact quadratic-form transfers, Koszul dualities, and their verifier.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    parser.add_argument(
        "--bound",
        type=int,
        default=DEFAULT_BOUND,
        help=f"internal-degree bound for graded exactness (default {DEFAULT_BOUND})",
    )
    group = next((a for a in argv if a in COMMANDS), None)
    groups = parser.add_subparsers(dest="group", required=True, parser_class=_path_parser)
    for name, (help_text, body) in COMMANDS.items():
        sub = groups.add_parser(name, help=help_text, listed=name != group)
        if name == group and isinstance(body, dict):
            command = next((a for a in argv[argv.index(group) + 1 :] if a in body), None)
            commands = sub.add_subparsers(dest="command", required=True, parser_class=_path_parser)
            for key, (command_help, handler, arguments) in body.items():
                leaf = commands.add_parser(key, help=command_help, listed=key != command)
                if key == command:
                    _fill(leaf, handler, arguments)
        elif name == group:
            _fill(sub, *body)
    return parser


def _fill(parser, handler, arguments):
    for name, kwargs in arguments:
        parser.add_argument(name, **kwargs)
    parser.set_defaults(handler=handler)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        # inside the try: reading an @path value is parsing, and may fail
        args = build_parser(argv).parse_args(argv)
        try:
            held, payload, human = args.handler(args)
        except (NotRegularSequence, ParityError, Inconclusive) as err:
            # a refuted claim: its witness is the answer under --json, one stderr line otherwise
            held, human = False, None
            witness = err.witness_json() if isinstance(err, NotRegularSequence) else {}
            payload = {"status": "fail", "error": type(err).__name__,
                       "witness": {"detail": str(err), **witness}}
            if not args.json:
                print(f"fail ({type(err).__name__}): {err}", file=sys.stderr)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        elif human is not None:
            print(human)
        return EXIT_PASS if held else EXIT_FAIL
    except BoundsExceeded as err:
        print(f"out of bounds: {err}", file=sys.stderr)
        return EXIT_USAGE
    except WittforgeError as err:
        print(f"invalid input: {err}", file=sys.stderr)
        return EXIT_USAGE
    except _USAGE_ERRORS as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
