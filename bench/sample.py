"""One benchmark worker, in a fresh interpreter.

Usage: ``python3 bench/sample.py SPEC.json RESULT.json``.  The runner writes
the spec (mode, units, time budget, whether to trace) and reads the result.
The import of sympy and of wittforge is timed first, before anything else is
loaded, because that import is what every ``wittforge`` invocation pays.

The worker runs its units in rounds until its budget is spent, at least one
round.  Before every unit it empties each ``lru_cache`` in wittforge's
modules and ``verify._EXT_CACHE``, so every unit pays its own modulus search
as a fresh ``wittforge`` invocation does, and its time does not depend on
which units ran before it in the process.
"""

import sys
import time

clock = time.perf_counter
_t0 = clock()
import sympy  # noqa: E402

_t1 = clock()
import wittforge.cli  # noqa: E402

_t2 = clock()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pkgutil  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from fractions import Fraction  # noqa: E402

import wittforge  # noqa: E402
# functions are looked up on their modules at call time, so that the
# wrappers a traced run installs see every call
from wittforge import fields, koszul, linalg, transfer, verify  # noqa: E402
from wittforge.errors import NotRegularSequence  # noqa: E402
from wittforge.fields import FieldSpec  # noqa: E402
from wittforge.koszul import KoszulDatum  # noqa: E402
from wittforge.polynomials import PolyRing  # noqa: E402
from wittforge.transfer import ExtensionDatum  # noqa: E402

Q = FieldSpec.Q()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True, default=str)


def report_bytes(report):
    """A suite report exactly as ``wittforge --json verify`` prints one."""
    return json.dumps(report.to_json(), indent=2, sort_keys=True)


def cache_clearers():
    """``clear`` of every lru_cache in the wittforge modules and of
    ``verify._EXT_CACHE``, taken before tracing rebinds any name."""
    found = {}
    for info in pkgutil.iter_modules(wittforge.__path__):
        module = importlib.import_module(f"wittforge.{info.name}")
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj.cache_clear
    return list(found.values()) + [verify._EXT_CACHE.clear]


# ---------------------------------------------------------------------------
# the unit kinds; each returns (status, output text)
# ---------------------------------------------------------------------------


def run_suite(unit):
    report = verify.run_suite(unit["name"], seed=unit["seed"], size=unit["size"])
    return ("pass" if report.passed else "fail"), report_bytes(report)


def run_adjunction(unit):
    """One extension of the adjunction suite: both triangle identities and
    the invertibility of the comparison map."""
    if "qsqrt" in unit:
        ext = ExtensionDatum(verify.qsqrt(unit["qsqrt"]), Q)
    else:
        bottom = FieldSpec.Fp(unit["p"])
        ext = ExtensionDatum(verify.extension_of(bottom, unit["d"]), bottom)
    report = transfer.triangle_identities_check(ext, 1, 1)
    cartan = transfer.cartan_isomorphism(ext, 1)
    invertible = linalg.inverse(ext.bottom, cartan.matrix) is not None
    ok = bool(report) and invertible
    return ("pass" if ok else "fail"), dumps({"triangles": report.to_json(), "cartan_invertible": invertible})


def run_tower(unit):
    """One case of the towers suite: transfer along F_p^(d1 d2)/F_p^d1/F_p
    against the composite of the two steps."""
    base = FieldSpec.Fp(unit["p"])
    mid = verify.extension_of(base, unit["d1"])
    top = verify.extension_of(mid, unit["d2"])
    q = verify.random_nondegenerate(top, random.Random(unit["seed"]), unit["dim"])
    report = transfer.transfer_compose_check(ExtensionDatum(mid, base), ExtensionDatum(top, mid), q)
    return ("pass" if report else "fail"), dumps(report.to_json())


def run_theta_xmap(unit):
    k = verify.coordinate_datum(unit["d"])
    ok = koszul.x_map(k) == koszul.koszul_form(k).form
    return ("pass" if ok else "fail"), dumps(ok)


def run_theta_split(unit):
    ok = bool(koszul.theta_multiplicative(verify.coordinate_datum(unit["d"]), unit["head"]))
    return ("pass" if ok else "fail"), dumps(ok)


def run_trace_exact(unit):
    diagram = koszul.trace_diagram(verify.coordinate_datum(unit["d"]), bound=verify.DEFAULT_BOUND)
    ok = diagram.certificate["socle_degree"] == -unit["d"]
    return ("pass" if ok else "fail"), dumps(diagram.certificate)


def run_trace_reject(unit):
    ring = PolyRing(Q, ("x", "y"))
    x = ring.variable("x")
    try:
        koszul.trace_diagram(KoszulDatum(ring, [x, x]), bound=verify.DEFAULT_BOUND)
    except NotRegularSequence as err:
        stray = err.witness or {}
        ok = any(v for v in stray.values())
        return ("pass" if ok else "fail"), dumps(sorted(stray.items()))
    return "fail", "a dependent section was accepted"


def run_cli(unit):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = wittforge.cli.main(unit["argv"])
    status = "pass" if code == unit["exit"] else f"exit:{code}"
    return status, f"exit {code}\n{out.getvalue()}"


KINDS = {
    "suite": run_suite,
    "adjunction": run_adjunction,
    "tower": run_tower,
    "theta-xmap": run_theta_xmap,
    "theta-split": run_theta_split,
    "trace-exact": run_trace_exact,
    "trace-reject": run_trace_reject,
    "cli": run_cli,
}


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------


def reference():
    """A fixed piece of pure-Python work that shares nothing with wittforge:
    exact Gaussian elimination over the rationals and polynomial products
    mod 7, the kinds of work the program does.  Its time, taken right before
    a unit, measures how fast the host runs the interpreter at that moment."""
    n = 12
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = next(r for r in range(k, n) if m[r][k] != 0)
        m[k], m[pivot] = m[pivot], m[k]
        inv = 1 / m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[k])]
    polys = {}
    f = (1, 3, 0, 5, 2, 1)
    for e in range(150):
        g = [0] * (len(f) * 2)
        for i, a in enumerate(f):
            for j, b in enumerate(f):
                g[i + j] = (g[i + j] + a * b * (e + 1)) % 7
        polys[(e, tuple(g))] = sum(g)
    return m[n - 1][n - 1], len(polys)


def execute(unit):
    """``(seconds, status, output text)`` of one call of ``unit``."""
    run = KINDS[unit["kind"]]
    start = clock()
    try:
        status, text = run(unit)
        return clock() - start, status, text
    except Exception as err:  # a raise is an outcome to count, not a crash
        return clock() - start, f"raise:{type(err).__name__}", f"{type(err).__name__}: {err}"


def run_rounds(spec, on_unit):
    """Rounds over ``spec["units"]`` until ``spec["budget_s"]`` is spent.
    Every call of a unit comes right after one call of ``reference``, whose
    time is kept with the unit's."""
    units = spec["units"]
    calls = {unit["id"]: [] for unit in units}
    start, rounds = clock(), 0
    while True:
        round_start = clock()
        for unit in units:
            on_unit()
            t = clock()
            reference()
            ref_s = clock() - t
            seconds, status, text = execute(unit)
            calls[unit["id"]].append([seconds, status, digest(text), text[:200] if status != "pass" else None, ref_s])
        rounds += 1
        spent, last = clock() - start, clock() - round_start
        # stop when the next round would more likely end after the budget than before
        if rounds >= spec.get("max_rounds", 10**9) or spent + last / 2 > spec["budget_s"]:
            break
    return {"calls": calls, "rounds": rounds}


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(wittforge.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"wittforge was imported from {wittforge.cli.__file__}, not from {src}")

    clearers = cache_clearers()
    lru = fields.find_irreducible
    misses = [0]

    def on_unit():
        misses[0] += lru.cache_info().misses
        for clear in clearers:
            clear()

    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer(spec["sample_id"])
        tracing.install(tracer)

    result = run_rounds(spec, on_unit) if spec["units"] else {"calls": {}, "rounds": 0}
    on_unit()
    result.update({
        "setup_s": _t2 - _t0,
        "sympy_s": _t1 - _t0,
        "wittforge_s": _t2 - _t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "sympy": sympy.__version__,
    })
    if spec.get("probes"):
        import probes

        result["probes"] = probes.run(spec["seed"])
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
        result["counters"] = dict(tracer.counters)
        result["maxima"] = dict(tracer.maxima)
        result["misses"] = {"fields.find_irreducible": misses[0]}
        result["trace_form_in_compose"] = tracer.calls_within("transfer.trace_form", "transfer.transfer_compose_check")
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
