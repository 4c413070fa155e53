"""Self-tests of the benchmark's own arithmetic and wiring.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from stats import median, self_times, tail, union_length  # noqa: E402
from workloads import UNITS, WORKLOADS  # noqa: E402


# -- self time: duration minus the union of the child intervals --------------


@pytest.mark.parametrize(
    "intervals, covered",
    [
        ([], 0.0),
        ([(0.0, 1.0)], 1.0),
        ([(0.0, 1.0), (2.0, 3.0)], 2.0),
        ([(0.0, 2.0), (1.0, 3.0)], 3.0),  # overlap counted once
        ([(0.0, 4.0), (1.0, 2.0)], 4.0),  # nested inside another
        ([(2.0, 3.0), (0.0, 1.0), (0.5, 2.5)], 3.0),  # unsorted, chained
        ([(0.0, 1.0), (1.0, 2.0)], 2.0),  # touching
    ],
)
def test_union_length(intervals, covered):
    assert union_length(intervals) == pytest.approx(covered)


def test_self_time_subtracts_children_not_grandchildren():
    # 0: [0,10] root; 1: [1,4] and 2: [5,6] its children; 3: [2,3] under 1
    starts = [0.0, 1.0, 5.0, 2.0]
    ends = [10.0, 4.0, 6.0, 3.0]
    parents = [-1, 0, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_takes_union_of_overlapping_children():
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 5.0, 6.0]
    parents = [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    starts = [0.0, 8.0]
    ends = [10.0, 12.0]
    parents = [-1, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(8.0)


# -- the tail percentile -----------------------------------------------------


@pytest.mark.parametrize("n, percentile", [(11, 9), (36, 72), (45, 77), (150, 93), (915, 98), (1000, 99), (5000, 99)])
def test_tail_leaves_ten_samples_beyond(n, percentile):
    values = list(range(1, n + 1))
    random.Random(n).shuffle(values)
    p, value = tail(values)
    assert p == percentile
    assert sum(v > value for v in values) >= 10
    # one percentile higher would leave fewer than ten
    assert p == 99 or n - -(-(p + 1) * n // 100) < 10


def test_tail_without_enough_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (100, 3.0)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


# -- inputs and the per-unit estimate -------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_units_are_seeded_and_uniquely_named(workload):
    units = UNITS[workload](7)
    assert units == UNITS[workload](7)
    ids = [u["id"] for u in units]
    assert len(ids) == len(set(ids))
    assert all(u["group"] in (None, "a", "b") for u in units)
    if workload != "cli-oneshot":
        assert units != UNITS[workload](8)
        assert {u["group"] for u in units} >= {"a", "b"}


def test_scaled_takes_the_median_ratio_to_the_reference():
    # (seconds, status, digest, detail, reference seconds)
    calls = {
        "u": [[0.2, "pass", "d", None, 0.002], [0.6, "pass", "d", None, 0.006], [9.0, "pass", "d", None, 0.003]],
        "bad": [[0.1, "fail", "d", "x", 0.003]],
    }
    per_unit = run.scaled(calls)
    assert set(per_unit) == {"u"}  # a unit with a failing call has no time
    assert per_unit["u"] == pytest.approx(100 * run.REFERENCE_S)


def test_check_counts_failures_and_byte_mismatches():
    units = [{"id": "a"}, {"id": "b"}, {"id": "c"}]
    calls = {
        "a": [[0.1, "pass", "x", None, 0.003], [0.1, "pass", "x", None, 0.003]],
        "b": [[0.1, "pass", "x", None, 0.003], [0.1, "pass", "y", None, 0.003]],
        "c": [[0.1, "raise:AssertionError", "z", "boom", 0.003]],
    }
    failed, problems = run.check(units, calls, {"a": "x"})
    assert failed == 2
    assert [p.split(":")[0] for p in problems] == ["b", "c"]
    failed, problems = run.check(units[:1], calls, {"a": "other"})
    assert (failed, problems) == (2, ["a: output bytes differ from the recorded digest"])


# -- the metric names match BENCHMARK.json -------------------------------------


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


# -- tracing leaves the program's output alone -----------------------------------


TRACED_CHECK = """
import json, sys
sys.path.insert(0, {bench!r})
import wittforge.fields, wittforge.verify
plain = json.dumps(wittforge.verify.run_suite("scharlau", seed=3).to_json(), sort_keys=True)
import tracing
tracer = tracing.Tracer("t")
tracing.install(tracer)
assert wittforge.verify.find_irreducible is wittforge.fields.find_irreducible
traced = json.dumps(wittforge.verify.run_suite("scharlau", seed=3).to_json(), sort_keys=True)
assert traced == plain
F5 = wittforge.fields.FieldSpec.Fp(5)
before = wittforge.fields.find_irreducible.cache_info()
wittforge.verify.find_irreducible(F5, 3)
wittforge.fields.find_irreducible(F5, 3)
after = wittforge.fields.find_irreducible.cache_info()
assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
layers = tracer.layer_totals()
assert layers["fields.find_irreducible"][0] == 2
assert layers["verify.run_suite"][0] == 1
assert layers["transfer.scharlau_transfer"][0] >= 1
assert tracer.counters["fields.mul.Fp"] > 0
print("ok")
"""


def test_tracing_keeps_output_and_the_lru_cache():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CHECK.format(bench=str(BENCH))],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
