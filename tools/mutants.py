"""Mutation check: every listed fault in ``src/wittforge`` must fail a test.

Each mutant rewrites one function of a fresh copy of ``src/`` in a temporary
directory.  The function is located through ``ast`` and the edit is made on
its ``ast.unparse`` text, so comments and formatting in the real source do
not matter; an edit that does not match exactly once is an error, not a
survivor.  The test modules (or test node ids) listed with the mutant then
run against the copy, with a time limit.  A mutant is killed when they fail
or run out of time.

Run it from the repository root (stdlib only, nothing is written outside
the temporary directory)::

    python3 tools/mutants.py

It prints each mutant's outcome and time, then the kills per module.  It
exits 0 when every mutant is killed, 1 when any survives (they are
listed), and 2 when the unmutated copy fails or an edit site is missing.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELD_TESTS = ("tests/test_fields.py", "tests/test_transfer.py")
FORM_TESTS = ("tests/test_quadforms.py", "tests/test_transfer.py")
#: the field tests with ``test_transfer`` first: under ``-x`` a mutant it
#: kills stops there, before the slower ``test_fields`` runs
TRANSFER_FIRST = ("tests/test_transfer.py", "tests/test_fields.py")
COMPLEX_TESTS = ("tests/test_complexes.py", "tests/test_koszul.py")
TIMEOUT_S = 300
#: the path-rule matrix, whose argvs name the tests that kill the parser mutants
PATH_RULE = "tests/test_cli.py::test_the_path_rule_keeps_every_byte"

#: (description, module under src/wittforge, function name (``Class.method`` for
#: a method), old text, new text, test modules or node ids)
MUTANTS = [
    (
        "Ben-Or loop one short: the distinct-degree loop stops at i = n // 2 - 1",
        "fields.py",
        "_distinct_degree",
        "while 2 * i <= len(f) - 1",
        "while 2 * (i + 1) <= len(f) - 1",
        FIELD_TESTS,
    ),
    (
        "division without its cancellation raise",
        "fields.py",
        "_divmod_raw",
        "if not is_zero(f[i + dg]):\n            raise",
        "if False:\n            raise",
        FIELD_TESTS,
    ),
    (
        "extension inverse skips its final scale by 1/r",
        "fields.py",
        "inv",
        "[base.mul(c, x) for x in s]",
        "[x for x in s]",
        FIELD_TESTS,
    ),
    (
        "the gcd that no caller reads a cofactor of still builds one",
        "fields.py",
        "_euclid",
        "if with_cofactor else (None, None)",
        "if with_cofactor else ([], [k.one])",
        FIELD_TESTS,
    ),
    (
        "the companion tail of the multiplication table not negated: y^n = +(m_0 + ... )",
        "transfer.py",
        "_times_basis",
        "k.neg(c.payload)",
        "c.payload",
        TRANSFER_FIRST,
    ),
    (
        "the flattened basis in outer-index-fastest order",
        "transfer.py",
        "_times_basis",
        "return out",
        "return [out[j * len(out) // spec.degree + i] for i in range(len(out) // spec.degree) for j in range(spec.degree)]",
        TRANSFER_FIRST,
    ),
    (
        "the distinct-degree loop starts at degree 2",
        "fields.py",
        "_distinct_degree",
        "power, i = (x, 1)",
        "power, i = (x, 2)",
        FIELD_TESTS,
    ),
    (
        "the rational inverse returns every a with |a| <= 2 as it is, not only the units",
        "fields.py",
        "_rational_kernel",
        "a if a in (1, -1) else",
        "a if abs(a) <= 2 else",
        ("tests/test_fields.py",),
    ),
    (
        "rational_roots tries only sign +1",
        "fields.py",
        "rational_roots",
        "(1, -1)",
        "(1,)",
        FIELD_TESTS,
    ),
    (
        "perp places the second block at offset 0",
        "quadforms.py",
        "perp",
        "(self._mat, (n, n))",
        "(self._mat, (0, 0))",
        # test_quadforms catches it only after a hypothesis search and shrink,
        # over ten times as long as test_transfer takes
        ("tests/test_transfer.py",),
    ),
    (
        "the form constructor without its symmetry check",
        "quadforms.py",
        "QuadraticForm.__init__",
        "if mat != linalg.transpose(mat):",
        "if False:",
        FORM_TESTS,
    ),
    (
        "scharlau_transfer writes only the (a, c) block",
        "transfer.py",
        "scharlau_transfer",
        "linalg.kron(1, block, (n, n), out, (c * n, a * n))",
        "pass",
        FORM_TESTS,
    ),
    (
        "_orthogonal_complement flips the sign of the b(x,v) u term",
        "quadforms.py",
        "_orthogonal_complement",
        "{n: bu, n + 1: bv}",
        "{n: bu, n + 1: {k: -x for k, x in bv.items()}}",
        FORM_TESTS,
    ),
    (
        "witt_decompose skips its certificate check",
        "quadforms.py",
        "witt_decompose",
        "if _restrict_gram(field, form._mat, pt) != linalg.block_diag(blocks):",
        "if False:",
        FORM_TESTS,
    ),
    (
        "the Hasse running product never advances its prefix",
        "quadforms.py",
        "_QInvariants.__init__",
        "_hilbert(prefix, d, p)",
        "_hilbert(1, d, p)",
        FORM_TESTS,
    ),
    (
        "the product of two square classes skips the gcd reduction",
        "quadforms.py",
        "_class_product",
        "a * b // math.gcd(a, b) ** 2",
        "a * b",
        FORM_TESTS,
    ),
    (
        "the local-square test at p = 2 reads d % 4",
        "quadforms.py",
        "_is_local_square",
        "d % 8 == 1",
        "d % 4 == 1",
        FORM_TESTS,
    ),
    (
        "the rational split tries only the head pair <d_0, d_1>",
        "quadforms.py",
        "_q_isotropic_vector",
        "for j in range(1, n):",
        "for j in range(1, 2):",
        ("tests/test_quadforms.py",),
    ),
    (
        "the rational split gives up on the first t whose sub-descent is inconclusive",
        "quadforms.py",
        "_q_isotropic_vector",
        "except Inconclusive:\n                    continue",
        "except Inconclusive:\n                    raise",
        ("tests/test_quadforms.py",),
    ),
    (
        "base change factors E's modulus over scalars it cannot decide on",
        "transfer.py",
        "base_change_check",
        "require_witt_decision(L)",
        "pass",
        ("tests/test_cli.py",),
    ),
    (
        "every row of the trace form reads M(b_0)",
        "transfer.py",
        "_trace_gram",
        "for m in ext._mult_table()",
        "for m in [ext._mult_table()[0]] * ext.degree",
        TRANSFER_FIRST,
    ),
    (
        "the Hom side of the E-linearity check uses the untransposed actions",
        "transfer.py",
        "_unit_is_E_linear",
        "linalg.kron(dim_e * n, a_t, (n, n), {}, (0, 0))",
        "linalg.kron(dim_e * n, a, (n, n), {}, (0, 0))",
        TRANSFER_FIRST,
    ),
    (
        # b_2 is no tower generator of a one-step extension
        "b_2 acts like b_1 in the triangle check's unit",
        "transfer.py",
        "triangle_identities_check",
        "_actions(ext, table, dim_e)",
        "_actions(ext, [table[1] if l == 2 else m for l, m in enumerate(table)], dim_e)",
        TRANSFER_FIRST,
    ),
    (
        # on a two-step tower the words in the top generator miss E: the span
        # sub-check fails
        "only the top step's generator is checked",
        "transfer.py",
        "_unit_is_E_linear",
        "spec = spec.base",
        "spec = ext.bottom",
        TRANSFER_FIRST,
    ),
    (
        "the unit uses b_0's action for every l",
        "transfer.py",
        "unit_matrix",
        "enumerate(actions)",
        "enumerate([actions[0]] * n)",
        TRANSFER_FIRST,
    ),
    (
        "tensor_layout advances the offset by ra + rb",
        "complexes.py",
        "tensor_layout",
        "offset += ra * rb",
        "offset += ra + rb",
        COMPLEX_TESTS,
    ),
    (
        "a complex without its d . d = 0 check",
        "complexes.py",
        "ChainComplex.__init__",
        "if n - 1 in clean and (not linalg.products_equal(ring, clean[n - 1], mat, {}, {})):",
        "if False:",
        COMPLEX_TESTS,
    ),
    (
        "a chain map without its commutation check",
        "complexes.py",
        "ChainMap.__init__",
        "if not linalg.products_equal(ring, f, d_src, d_tgt, clean.get(n, {})):",
        "if False:",
        COMPLEX_TESTS,
    ),
    (
        "the merge sign with its parity flipped",
        "koszul.py",
        "_shuffle_sign",
        "return -1 if inversions % 2 else 1",
        "return 1 if inversions % 2 else -1",
        COMPLEX_TESTS,
    ),
    (
        "theta dualizes the split map into the head's degree alone",
        "koszul.py",
        "theta_multiplicative",
        "dualize_map(c, d1 + d2)",
        "dualize_map(c, d1)",
        COMPLEX_TESTS,
    ),
    (
        "the symmetric space measures its sign against the dual in degree 0",
        "koszul.py",
        "SymmetricSpace.__init__",
        "dualize_map(form, degree)",
        "dualize_map(form, 0)",
        COMPLEX_TESTS,
    ),
    (
        "the duality interchange targets the dual in degree da - db",
        "complexes.py",
        "duality_interchange",
        "dualize(tensor(a, b), degree_a + degree_b)",
        "dualize(tensor(a, b), degree_a - degree_b)",
        COMPLEX_TESTS,
    ),
    (
        "the trace bound also counts the socle degree",
        "koszul.py",
        "trace_diagram",
        " if n != -d",
        "",
        COMPLEX_TESTS + ("tests/test_cli.py",),
    ),
    (
        "the memo key without its arguments: one entry per operation",
        "fields.py",
        "kept",
        "key = (key, a if type(a) is int else id(a))",
        "key = key",
        COMPLEX_TESTS,
    ),
    (
        "the memo key without the operation: products, lines and splits share entries",
        "fields.py",
        "kept",
        "key = build",
        "key = ()",
        COMPLEX_TESTS,
    ),
    (
        "the memo answers any key with its first entry",
        "fields.py",
        "kept",
        "entry = obj._memo.get(key)",
        "entry = obj._memo.get(next(iter(obj._memo), key))",
        COMPLEX_TESTS,
    ),
    (
        "the memo stores the object itself with its own square",
        "fields.py",
        "kept",
        "if id(obj) in map(id, args):",
        "if False:",
        COMPLEX_TESTS,
    ),
    (
        "the polynomial product keeps a cancelled coefficient",
        "linalg.py",
        "product",
        "if not is_zero(c):",
        "if True:",
        COMPLEX_TESTS + ("tests/test_linalg.py",),
    ),
    (
        "the zero test counts a cancelled coefficient as nonzero",
        "linalg.py",
        "products_equal",
        "if not all(map(kernel.is_zero, acc.values())):",
        "if acc:",
        COMPLEX_TESTS + ("tests/test_linalg.py",),
    ),
    (
        "the row sums add c . d over k[x] where they subtract it",
        "linalg.py",
        "_accumulate",
        "c1 = neg(c1.payload) if negate else c1.payload",
        "c1 = c1.payload",
        COMPLEX_TESTS + ("tests/test_linalg.py",),
    ),
    (
        "products_equal reads only the rows of a",
        "linalg.py",
        "products_equal",
        "for i in a.keys() | c.keys():",
        "for i in a:",
        ("tests/test_linalg.py",),
    ),
    (
        "kron's identity branch steps its columns by the row count",
        "linalg.py",
        "kron",
        "r, c = (r0 + p * rb, c0 + p * cb)",
        "r, c = (r0 + p * rb, c0 + p * rb)",
        COMPLEX_TESTS + ("tests/test_linalg.py",),
    ),
    (
        "the congruence's zero-diagonal repair updates the row but not the columns",
        "linalg.py",
        "congruence",
        "_subtract_multiple(kernel, g[r], minus_one, {a: x})",
        "pass",
        FORM_TESTS,
    ),
    (
        "the congruence's pivot search takes the last later nonzero diagonal",
        "linalg.py",
        "congruence",
        "for i in range(k + 1, n) if",
        "for i in reversed(range(k + 1, n)) if",
        FORM_TESTS,
    ),
    (
        # the other branch, y + factor * x, never clears a pivot column, so
        # extend_pivots would loop until the time limit.  test_linalg kills
        # this one too, but only after a hypothesis shrink of about 30 s
        "_subtract_multiple adds factor * x where the row had no entry",
        "linalg.py",
        "_subtract_multiple",
        "row[j] = kernel.neg(mul(factor, x))",
        "row[j] = mul(factor, x)",
        FORM_TESTS + ("tests/test_linalg.py",),
    ),
    (
        "the Cartan map is the identity again",
        "transfer.py",
        "cartan_isomorphism",
        "linalg.kron(dim_e, _trace_gram(ext), (n, n), {}, (0, 0))",
        "linalg.identity(ext.bottom, dim_e * n)",
        TRANSFER_FIRST,
    ),
    (
        "psi with the coordinate index i and the basis index k swapped",
        "transfer.py",
        "pushforward_via_cartan",
        "psi.setdefault(a * n + i, {})[c * n + k] = x",
        "psi.setdefault(a * n + k, {})[c * n + i] = x",
        TRANSFER_FIRST,
    ),
    (
        "the counit reads phi's basis index transposed",
        "complexes.py",
        "adjunction_counit",
        "(off_h + q * rc + u) * rb + q",
        "(off_h + u * rb + q) * rb + q",
        ("tests/test_cli.py",),
    ),
    (
        "the associator without the offset of (j, k) inside B (x) C",
        "complexes.py",
        "associator",
        "(off_dst + off_jk, off_src + off_ab * r_c)",
        "(off_dst, off_src + off_ab * r_c)",
        ("tests/test_cli.py",),
    ),
    (
        "the one-variable enumeration accepts a negative degree",
        "polynomials.py",
        "exponent_tuples",
        "if degree >= 0 else ()",
        "if degree >= -1 else ()",
        COMPLEX_TESTS,
    ),
    (
        "a linear map without its fit check",
        "transfer.py",
        "LinearMapOverF.__init__",
        "if not linalg.fits(mat, shape):",
        "if False:",
        TRANSFER_FIRST,
    ),
    (
        "a refuted claim (NotRegularSequence, ParityError, Inconclusive) exits 0",
        "cli.py",
        "main",
        "held, human = (False, None)",
        "held, human = (True, None)",
        ("tests/test_cli.py",),
    ),
    (
        "an answer that does not hold exits 0",
        "cli.py",
        "main",
        "EXIT_PASS if held else EXIT_FAIL",
        "EXIT_PASS",
        ("tests/test_cli.py",),
    ),
    (
        "run_suite re-raises a failed law instead of filing it",
        "verify.py",
        "_filed",
        "except BoundsExceeded:",
        "except Exception:",
        ("tests/test_verify.py",),
    ),
    (
        "`verify all` runs the suites in name order",
        "verify.py",
        "run_all",
        "sorted(sizes, key=lambda name: name != 'trace')",
        "sizes",
        ("tests/test_cli.py",),
    ),
    (
        "run_suite hands a sized suite its default size whatever was asked",
        "verify.py",
        "run_suite",
        "'size': default if size is None else size",
        "'size': default",
        ("tests/test_verify.py",),
    ),
    (
        "an expected-raise check accepts a call that returns",
        "verify.py",
        "_raises",
        "return {'detail': accepted}",
        "return None",
        ("tests/test_verify.py",),
    ),
    (
        "the constant-entry refusal files its witness under homology",
        "koszul.py",
        "trace_diagram",
        "key='constant_entries'",
        "key='homology'",
        ("tests/test_cli.py",),
    ),
    (
        "the closed formula for h^0 off by one",
        "projspace.py",
        "closed_formula_dims",
        "comb(m + r, r)",
        "comb(m + r - 1, r)",
        ("tests/test_projspace.py",),
    ),
    (
        "Miller-Rabin passes a 1 reached by squaring (the Carmichael number 211 * 421 * 631 passes)",
        "fields.py",
        "isprime",
        "if x == n - 1:",
        "if x in (1, n - 1):",
        ("tests/test_fields.py",),
    ),
    (
        "prime_power never tries k = 1, so no prime is a prime power",
        "fields.py",
        "prime_power",
        "range(1, q.bit_length())",
        "range(2, q.bit_length())",
        ("tests/test_fields.py",),
    ),
    (
        "a repeated exponent in polynomial JSON keeps only its last term",
        "polynomials.py",
        "MultiPolynomial.from_json",
        "terms.get(e, ring.field.zero()) + ring.field.element",
        "ring.field.element",
        ("tests/test_cli.py",),
    ),
    (
        "a flag without a type is not text: argparse leaves @path unread",
        "cli.py",
        "_arg",
        "kwargs.setdefault('type', _text)",
        "pass",
        ("tests/test_cli.py",),
    ),
    (
        "the primality cap lets MR_BOUND itself through",
        "fields.py",
        "require_exact_primality",
        "n >= MR_BOUND",
        "n > MR_BOUND",
        ("tests/test_cli.py",),
    ),
    (
        "build_parser reads the group as the last group name in argv",
        "cli.py",
        "build_parser",
        "next((a for a in argv if a in COMMANDS), None)",
        "next((a for a in reversed(argv) if a in COMMANDS), None)",
        (f"{PATH_RULE}[koszul build --vars witt --section witt]",),
    ),
    (
        "build_parser reads the command as the last command name after the group",
        "cli.py",
        "build_parser",
        "next((a for a in argv[argv.index(group) + 1:] if a in body), None)",
        "next((a for a in reversed(argv[argv.index(group) + 1:]) if a in body), None)",
        (f"{PATH_RULE}[transfer check-compose --tower F81/F9/F3 --form push]",),
    ),
    (
        "every listed group and command is built as a real parser",
        "cli.py",
        "_path_parser",
        "None if listed else argparse.ArgumentParser(**kwargs)",
        "argparse.ArgumentParser(**kwargs)",
        ("tests/test_cli.py::test_help_builds_only_its_path",),
    ),
    (
        "the complex JSON reader skips its container check",
        "complexes.py",
        "ChainComplex.from_json",
        "if not isinstance(obj, dict) or any(",
        "if False and any(",
        ("tests/test_cli.py",),
    ),
]


def mutate(source, function, old, new):
    """``source`` with ``old`` replaced by ``new`` inside the one def named ``function``."""
    tree = ast.parse(source)
    scope, _, name = function.rpartition(".")
    roots = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == scope] if scope else [tree]
    defs = [n for root in roots for n in ast.walk(root) if isinstance(n, ast.FunctionDef) and n.name == name]
    if len(defs) != 1:
        raise LookupError(f"{len(defs)} functions named {function!r}")
    text = ast.unparse(defs[0])
    if text.count(old) != 1:
        raise LookupError(f"{old!r} occurs {text.count(old)} times in {function}")
    replacement = ast.parse(text.replace(old, new)).body[0]
    for parent in ast.walk(tree):
        for _, value in ast.iter_fields(parent):
            if isinstance(value, list) and defs[0] in value:
                value[value.index(defs[0])] = replacement
    return ast.unparse(tree)


def run(workdir, *args, timeout=None):
    """Run Python in ``workdir`` with ``workdir/src`` on the import path."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src")}
    return subprocess.run(
        [sys.executable, *args], cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout
    )


def run_tests(workdir, tests):
    """'passed', 'failed' or 'timeout' for the test modules against ``workdir/src``."""
    try:
        result = run(workdir, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if result.returncode == 0 else "failed"


def main():
    with tempfile.TemporaryDirectory(prefix="wittforge-mutants-") as tmp:
        workdir = Path(tmp)
        shutil.copytree(ROOT / "src", workdir / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", workdir / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        package = workdir / "src" / "wittforge"
        imported = run(workdir, "-c", "import wittforge; print(wittforge.__file__)").stdout.strip()
        if Path(imported).parent != package:
            print(f"the tests would import {imported or 'nothing'}, not the copy", file=sys.stderr)
            return 2
        if run_tests(workdir, sorted({t for *_, tests in MUTANTS for t in tests})) != "passed":
            print("the unmutated copy does not pass its tests", file=sys.stderr)
            return 2
        survivors, kills = [], {}
        for description, module, function, old, new, tests in MUTANTS:
            path = package / module
            original = path.read_text(encoding="utf-8")
            try:
                path.write_text(mutate(original, function, old, new), encoding="utf-8")
            except LookupError as err:
                print(f"mutation site missing for {description!r}: {err}", file=sys.stderr)
                return 2
            start = time.perf_counter()
            outcome = run_tests(workdir, tests)
            path.write_text(original, encoding="utf-8")
            killed = outcome != "passed"
            tally = kills.setdefault(module, [0, 0])
            tally[0] += killed
            tally[1] += 1
            verdict = f"killed ({outcome})" if killed else "SURVIVED"
            print(f"{verdict:18} {time.perf_counter() - start:6.1f} s  {description}")
            if not killed:
                survivors.append(description)
        for module, (killed, total) in sorted(kills.items()):
            print(f"{module:14} {killed}/{total} killed")
        print(f"{len(MUTANTS) - len(survivors)}/{len(MUTANTS)} mutants killed")
        for description in survivors:
            print(f"survivor: {description}")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
