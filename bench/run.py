"""The wittforge benchmark: one workload, fresh worker processes, one JSON line out.

Usage, from the repository root:

    python3 bench/run.py --workload NAME [--seed 42] [--seconds 40] [--trace 0|1]

A workload is a list of units, short calls into wittforge's public API drawn
from the seed.  A run starts a few fresh interpreters that import
``src/wittforge``, one at a time; each runs the units in rounds, empties the
module caches before every unit and times each unit on its own.  A unit's
time is the median of its calls, each scaled by a reference loop timed just
before it, and the workload's times are sums of those.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it runs one plain and one traced round plus the layer
probes and reports the per-layer metrics.  The last line of stdout is the
result object, the lines before it a readable report; a record with the
environment goes to ``bench/out/``.  ``--record-digests`` rewrites
``bench/digests.json`` from the default seed, for a change that alters the
outputs on purpose.
"""

import argparse
import compileall
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

from stats import median, tail
from workloads import DEFAULT_SEED, UNITS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"

#: fresh worker processes per run, one after another
WORKERS = 2
#: import-only processes per run; with the workers, setup_s is a median of six imports
SETUP_PROBES = 4
#: start-up of a worker before its budget starts: spawn and import
SPAWN_S = 0.8
#: the time of ``sample.reference`` that the reported times are scaled to:
#: each call's time is multiplied by REFERENCE_S / (the reference's time just
#: before the call), so a host that runs the interpreter 1.5x slower for a
#: while does not read as a 1.5x slower program
REFERENCE_S = 0.003
#: no single child may run longer than this
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
    "focus_a_ms": "ms",
    "focus_b_ms": "ms",
}

#: traced public functions reported as ``<label>.calls`` and ``<label>.self_s``
SPANNED = (
    "fields.find_irreducible", "fields.FieldSpec.extension", "fields.factor_univariate",
    "linalg.rank", "linalg.inverse", "linalg.mat_mul", "linalg.kron",
    "complexes.ChainComplex.__init__", "complexes.tensor", "complexes.hom_complex",
    "complexes.dualize", "complexes.bidual_map", "complexes.homology_dims",
    "complexes.graded_homology_dims",
    "koszul.koszul_complex", "koszul.koszul_form", "koszul.x_map",
    "koszul.theta_multiplicative", "koszul.trace_diagram", "koszul.split_factorization",
    "transfer.trace_form", "transfer.scharlau_transfer", "transfer.transfer_compose_check",
    "transfer.base_change_check", "transfer.projection_formula_check",
    "transfer.triangle_identities_check", "transfer.cartan_isomorphism",
    "quadforms.diagonalize", "quadforms.witt_decompose", "quadforms.witt_equal",
    "quadforms.hilbert_symbol",
    "projspace.cohomology", "projspace.closed_formula_dims", "projspace.pushforward_phi_r",
    "verify.run_suite", "verify.random_nondegenerate", "verify.random_complex",
    "cli.main",
)
COUNTED = (
    "fields.mul.Q", "fields.mul.Fp", "fields.mul.ext",
    "fields.inv.Q", "fields.inv.Fp", "fields.inv.ext",
    "polynomials.mul",
)
PROBES = (
    "fields.find_irreducible_s.F7d9",
    "fields.mul_us.F7", "fields.mul_us.F7d9", "fields.mul_us.F27d3", "fields.mul_us.Qsqrt2",
    "fields.inv_us.F7", "fields.inv_us.F7d9", "fields.inv_us.F27d3", "fields.inv_us.Qsqrt2",
    "linalg.rank_s.kos4-t6",
    "complexes.hom_complex_s.kos4",
    "complexes.graded_homology_s.kos4-t6",
    "transfer.scharlau_s.F27-F3",
)


def per_layer_units():
    units = {}
    for label in SPANNED:
        units[f"{label}.calls"] = "count"
        units[f"{label}.self_s"] = "s"
    units["fields.find_irreducible.misses"] = "count"
    units["linalg.rank.max_rows"] = "count"
    units["linalg.rank.max_cols"] = "count"
    for label in COUNTED:
        units[label] = "count"
    units["transfer.trace_form.per_compose"] = "ratio"
    units["setup.sympy_s"] = "s"
    units["setup.wittforge_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["host.reference_ms"] = "ms"
    for label in PROBES:
        units[label] = "us" if "_us." in label else "s"
    return units


clock = time.perf_counter


def load_digests():
    return json.loads(DIGESTS.read_text())


class Runner:
    """Spawns the processes of one benchmark run, one at a time."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.deadline = clock() + seconds
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.spawned = 0
        self.samples = []

    def child(self, argv):
        """Run one child to completion; return its exit code and stderr."""
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return proc.returncode, err.decode(errors="replace")

    def sample(self, spec):
        """One ``sample.py`` process; returns the result it wrote."""
        self.spawned += 1
        tag = f"{self.workload}-{self.seed}-{self.spawned}"
        spec = dict(spec, src=str(SRC), seed=self.seed, sample_id=tag)
        spec_path, result_path = OUT / f"spec-{tag}.json", OUT / f"result-{tag}.json"
        spec_path.write_text(json.dumps(spec))
        code, err = self.child([sys.executable, str(BENCH / "sample.py"), str(spec_path), str(result_path)])
        spec_path.unlink()
        if code != 0:
            raise RuntimeError(f"sample {tag} exited with {code}:\n{err}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        self.samples.append(result)
        return result

    def measured(self, units):
        """Import-only processes, then WORKERS workers that share what is
        left of the run's time."""
        for _ in range(SETUP_PROBES):
            self.sample({"units": []})
        results = []
        for k in range(WORKERS):
            budget = (self.deadline - clock()) / (WORKERS - k) - SPAWN_S
            results.append(self.sample({"units": units, "budget_s": budget}))
        return results

    def one_round(self, units, trace):
        spec = {"units": units, "budget_s": 0, "max_rounds": 1, "trace": trace}
        if trace:
            spec["spans_path"] = str(OUT / f"spans-{self.workload}-{self.seed}.tsv.gz")
        return self.sample(spec)


def merged_calls(results):
    """``{unit id: [[seconds, status, digest, detail, reference seconds], ...]}`` over all workers."""
    calls = {}
    for result in results:
        for uid, each in result["calls"].items():
            calls.setdefault(uid, []).extend(each)
    return calls


def check(units, calls, expected):
    """Failed calls, and per failing unit one line saying why.

    A call fails when its status is not ``pass``, when its output bytes
    differ from the unit's first call, or when they differ from the recorded
    digest (``expected`` holds the units that have one)."""
    failed, problems = 0, []
    for unit in units:
        uid, each = unit["id"], calls[unit["id"]]
        first = each[0][2]
        whys = []
        for seconds, status, text_digest, detail, _ in each:
            why = None
            if status != "pass":
                why = f"{status} {detail or ''}".strip()
            elif text_digest != first:
                why = "output bytes differ between calls"
            elif uid in expected and text_digest != expected[uid]:
                why = "output bytes differ from the recorded digest"
            if why:
                failed += 1
                if why not in whys:
                    whys.append(why)
        if whys:
            problems.append(f"{uid}: {'; '.join(whys)}")
    return failed, problems


def scaled(calls):
    """Per unit whose every call passed: the median over its calls of the
    call's time divided by the reference time taken just before it, in
    seconds at the reference speed REFERENCE_S."""
    return {
        uid: median([c[0] / c[4] for c in each]) * REFERENCE_S
        for uid, each in calls.items()
        if all(c[1] == "pass" for c in each)
    }


def as_timed(calls):
    """Per unit, the median of its calls' own times."""
    return {uid: median([c[0] for c in each]) for uid, each in calls.items()}


def focus(workload, units, best):
    """The workload's two headline times, in ms, and report lines about them."""
    if workload in ("transfer-towers", "koszul-complexes"):
        a = sum(best[u["id"]] for u in units if u["group"] == "a")
        b = sum(best[u["id"]] for u in units if u["group"] == "b")
        return a * 1e3, b * 1e3, []
    times = [best[u["id"]] for u in units]
    p, tail_s = tail(times)
    notes = [f"cli.tail_ms = p{p} of {len(times)} commands"]
    return median(times) * 1e3, tail_s * 1e3, notes


def expected_digests(workload, seed):
    """Recorded digests that apply: every unit's at the default seed, and
    the CLI's on every seed, since no CLI command depends on the seed."""
    if seed == DEFAULT_SEED or workload == "cli-oneshot":
        return load_digests()["units"][workload]
    return {}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run
# ---------------------------------------------------------------------------


def layer_metrics(traced, probe_values):
    """Sum the traced samples' spans and counters into the per-layer metrics."""
    spans, counters, maxima, misses, nested = {}, {}, {}, 0, 0
    for sample in traced:
        for label, (calls, own) in sample["layers"].items():
            c, s = spans.get(label, (0, 0.0))
            spans[label] = (c + calls, s + own)
        for key, n in sample["counters"].items():
            counters[key] = counters.get(key, 0) + n
        for key, n in sample["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), n)
        misses += sample["misses"]["fields.find_irreducible"]
        nested += sample["trace_form_in_compose"]
    out = {}
    for label in SPANNED:
        calls, own = spans.get(label, (0, 0.0))
        out[f"{label}.calls"] = calls
        out[f"{label}.self_s"] = own
    out["fields.find_irreducible.misses"] = misses
    out["linalg.rank.max_rows"] = maxima.get("linalg.rank.max_rows", 0)
    out["linalg.rank.max_cols"] = maxima.get("linalg.rank.max_cols", 0)
    for label in COUNTED:
        out[label] = counters.get(label, 0)
    composes = out["transfer.transfer_compose_check.calls"]
    out["transfer.trace_form.per_compose"] = nested / composes if composes else 0.0
    out.update(probe_values)
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def environment(run):
    sha_text = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            sha_text = proc.stdout.strip()
    last = run.samples[-1] if run.samples and "python" in run.samples[-1] else {}
    return {
        "git_sha": sha_text,
        "python": last.get("python", platform.python_version()),
        "sympy": last.get("sympy", "unknown"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure(workload, seed, seconds, trace):
    run = Runner(workload, seed, seconds)
    units = UNITS[workload](seed)
    expected = expected_digests(workload, seed)
    if trace:
        plain, traced = run.one_round(units, False), run.one_round(units, True)
        results = [plain, traced]
        probe = run.sample({"units": [], "probes": True})
        values = layer_metrics([traced], probe["probes"])
        values["setup.sympy_s"] = median([s["sympy_s"] for s in run.samples])
        values["setup.wittforge_s"] = median([s["wittforge_s"] for s in run.samples])
        round_s = [sum(c[0] or 0 for each in r["calls"].values() for c in each) for r in results]
        values["trace.overhead_s"] = round_s[1] - round_s[0]
        values["host.reference_ms"] = median([c[4] for each in plain["calls"].values() for c in each]) * 1e3
        units_of = per_layer_units()
        notes = [f"one plain round {round_s[0]:.4f} s, one traced round {round_s[1]:.4f} s"]
    else:
        results = run.measured(units)
        calls = merged_calls(results)
        per_unit = scaled(calls)
        values = {"wall_s": sum(per_unit.values())}
        values["focus_a_ms"], values["focus_b_ms"], notes = focus(workload, units, per_unit)
        values["setup_s"] = median([s["setup_s"] for s in run.samples])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        units_of = END_TO_END
        ref = median([c[4] for each in calls.values() for c in each])
        notes[:0] = [
            f"{len(results)} workers, rounds {[r['rounds'] for r in results]}, {len(units)} units",
            f"reference: median {ref * 1e3:.4f} ms; wall_s as timed {sum(as_timed(calls).values()):.4f}",
        ]
    calls = merged_calls(results)
    failed, problems = check(units, calls, expected)
    attempted = sum(len(each) for each in calls.values())
    correct = failed == 0
    if not trace:
        values["pass_ratio"] = 1 - len(problems) / len(units)
    notes.append(f"failing units: {len(problems)} of {len(units)}; calls failed: {failed} of {attempted}")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(run), "notes": notes, "problems": problems,
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": values,
        "unit_s": scaled(calls),
    }
    (OUT / f"record-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2))
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: {json.dumps(record['environment'])}")
    for line in notes + problems:
        print(f"  {line}")
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units_of.items()},
    }


def record_digests():
    """Digests of every unit's output at the default seed."""
    recorded = {}
    for workload in WORKLOADS:
        run = Runner(workload, DEFAULT_SEED, 0)
        result = run.one_round(UNITS[workload](DEFAULT_SEED), False)
        recorded[workload] = {}
        for uid, each in result["calls"].items():
            seconds, status, text_digest, detail, _ = each[0]
            if status != "pass":
                raise SystemExit(f"{workload} unit {uid} did not pass: {status} {detail}")
            recorded[workload][uid] = text_digest
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "units": recorded}, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "wittforge" / "__init__.py").is_file():
        print(f"no wittforge sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    compileall.compile_dir(str(SRC), quiet=1)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
