"""The three workloads: the units of work each one times, drawn from a seed.

A unit is one call, or a few calls, into wittforge's public API that takes
at most about half a second.  ``sample.py`` runs a workload's units in
rounds and times each one on its own, with the module caches emptied first.
Why these three (see README.md for the full argument):

* ``transfer-towers`` -- the half of ``verify all`` whose work is in
  ``fields`` (modulus search and tower arithmetic), ``transfer`` and
  ``quadforms`` over F_p.
* ``koszul-complexes`` -- the other half: ``complexes``, exact ``linalg.rank``
  over Q, ``polynomials``, ``koszul`` and ``projspace``; no extension fields,
  so it bypasses every ``fields`` change and the reverse.
* ``cli-oneshot`` -- README commands through ``cli.main``, the small
  operations a one-shot invocation runs after its import.
"""

import itertools
import random

WORKLOADS = ("transfer-towers", "koszul-complexes", "cli-oneshot")
DEFAULT_SEED = 42
PRIMES = (3, 5, 7)

#: the one tower left out of ``transfer-towers``: a single call of 2.4-3.3 s
#: (the cubic modulus search over F125), too long to time steadily on a
#: shared host, where a lone call's time swings by up to 1.75x
SKIPPED_TOWERS = {(5, 3, 3)}

#: README commands, each run as ``cli.main(["--json", *argv])``
CLI_COMMANDS = (
    ("witt-decompose-F3", ["witt", "decompose", "--field", "F3", "--form", "1,1,1,1"], 0),
    ("witt-equal-Q", ["witt", "equal", "--field", "Q", "--left", "3,5", "--right", "2,30"], 0),
    ("witt-hilbert-inf", ["witt", "hilbert", "-a", "-1", "-b", "-1", "--place", "inf"], 0),
    ("transfer-push-F9", ["transfer", "push", "--ext", "F9/F3", "--form", "[[1]]"], 0),
    ("transfer-compose-F81", ["transfer", "check-compose", "--tower", "F81/F9/F3"], 0),
    ("transfer-basechange-F27", ["transfer", "check-basechange", "--ext", "F27/F3", "--scalars", "F9"], 0),
    ("koszul-trace-xyz", ["koszul", "verify-trace", "--vars", "x,y,z", "--section", "x,y,z"], 0),
    ("proj-cohomology-r2", ["proj", "cohomology", "--r", "2", "--m", "-3"], 0),
    ("proj-phi-r2", ["proj", "phi-r", "--r", "2"], 1),
)

def _unit(uid, kind, group=None, **args):
    return {"id": uid, "kind": kind, "group": group, **args}


def _suite(uid, name, seed, size=None, group=None):
    return _unit(uid, "suite", group, name=name, seed=seed, size=size)


def transfer_units(seed):
    """Adjunction per extension (group a), towers per (p, d1, d2) (group b),
    and the small suites of the half in pieces."""
    rng = random.Random(seed)
    units = [_suite("scharlau", "scharlau", seed)]
    for p, d in itertools.product(PRIMES, range(1, 10)):
        units.append(_unit(f"adjunction/F{p}^{d}", "adjunction", "a", p=p, d=d))
    for n in (2, 5):
        units.append(_unit(f"adjunction/Qsqrt{n}", "adjunction", "a", qsqrt=n))
    for k, (p, d1, d2) in enumerate(itertools.product(PRIMES, (1, 2, 3), (1, 2, 3))):
        if (p, d1, d2) in SKIPPED_TOWERS:
            continue
        # the form's dimension alternates so that every seed has the same mix
        units.append(_unit(f"towers/F{p}-{d1}-{d2}", "tower", "b", p=p, d1=d1, d2=d2,
                           dim=1 + k % 2, seed=rng.randrange(2**31)))
    units.append(_suite("towers/rational", "towers", seed, size=0, group="b"))
    # the seeded suites at their default sizes, in pieces of ten cases
    for name in ("base-change", "projection"):
        for k in range(5):
            units.append(_suite(f"{name}/{k}", name, rng.randrange(2**31), size=10))
    units.append(_suite("witt", "witt", seed))
    units.append(_suite("hilbert", "hilbert", seed))
    return units


def koszul_units(seed):
    """Theta cases (group a) and trace cases (group b) for rank <= 3, the
    pairing splits up to rank 4, and the other suites of the half."""
    rng = random.Random(seed)
    units = []
    for d in (1, 2, 3):
        units.append(_unit(f"theta/xmap-d{d}", "theta-xmap", "a", d=d))
    for d in (2, 3, 4):
        for head in range(1, d):
            units.append(_unit(f"theta/split-d{d}h{head}", "theta-split", "a", d=d, head=head))
    for d in (1, 2, 3):
        units.append(_unit(f"trace/exact-d{d}", "trace-exact", "b", d=d))
    units.append(_unit("trace/reject-dependent", "trace-reject", "b"))
    units.append(_suite("split", "split", seed))
    # 40 of the suite's 100 random complexes: a complex's cost varies by about
    # its own mean, and with as many cases as the rest of the workload costs,
    # the draw alone moved wall_s by 8% (IQR/median) over ten seeds
    for k in range(4):
        units.append(_suite(f"bidual/{k}", "bidual", rng.randrange(2**31), size=10))
    units.append(_suite("cohomology", "cohomology", seed))
    units.append(_suite("phi", "phi", seed))
    return units


def cli_units(seed):
    return [_unit(f"cli/{name}", "cli", argv=["--json", *argv], exit=code) for name, argv, code in CLI_COMMANDS]


UNITS = {
    "transfer-towers": transfer_units,
    "koszul-complexes": koszul_units,
    "cli-oneshot": cli_units,
}
