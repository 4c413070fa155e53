"""Reachability audit: each ``def`` in ``src/wittforge`` that no run reaches.

The source lint ``tests/test_source.py::test_every_method_is_reached``
counts a method as reached when any ``x.<name>`` names it, so a method that
shares its name with a called one passes.  This tool records which
functions actually run, under a call profile, in one process:

* ``--seed 42 verify all``, in both output modes;
* README-style commands through ``cli.main``, in both output modes, with
  their refusals (``proj phi-r --r 0|2|8``, a projective dimension past the
  cap, a dependent Koszul section), a complex over a field for ``complex
  homology`` and forms over Q for the rational witness search;
* every unit of the three ``bench/workloads.py`` workloads once, through
  ``bench/sample.py``'s ``execute``, and ``bench/probes.run``.

Run it from the repository root (stdlib only; the two complex JSON files
the commands read go to a temporary directory)::

    python3 tools/reach.py

It prints each unreached def as ``module:line qualified.name``, dunders
included, then how many defs ran.  A def on a failure path (a witness
writer, a refusal nothing here provokes) is expected in the list; any
other is a member nothing reads.  Exit status 0.
"""

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wittforge"

#: a field complex with homology in degrees 0 and 2, and k[x] -x^2-> k[x]
FIELD_COMPLEX = {
    "ring": {"kind": "Q"},
    "terms": {"0": 2, "1": 2, "2": 1},
    "diffs": {"1": [[1, 0], [0, 0]], "2": [[0], [0]]},
}
X_SQUARED = {"vars": ["x"], "terms": [{"exp": [2], "coef": 1}]}
GRADED_COMPLEX = {
    "ring": {"field": {"kind": "Q"}, "vars": ["x"]},
    "terms": {"0": 1, "1": 1},
    "diffs": {"1": [[X_SQUARED]]},
}

#: README commands and their refusals; ``{cx}`` and ``{px}`` name the two files
COMMANDS = (
    "witt diag --field Q --form [[0,1],[1,0]]",
    "witt decompose --field F3 --form 1,1,1,1",
    "witt decompose --field F5 --form 1,1,1,1",
    "witt equal --field Q --left 3,5 --right 2,30",
    "witt equal --field Q --left 1,1 --right 1,-1",
    "witt equal --field Q --left 1,2 --right 3,6",
    "witt decompose --field Q --form 1,1,-3",
    "witt decompose --field Q --form 3,5,-7,11,-2,6",
    "witt hilbert -a -1 -b -1 --place inf",
    "transfer trace --ext F9/F3 --value [0,1]",
    "transfer form --ext Qsqrt2/Q",
    "transfer push --ext F9/F3 --form [[1]]",
    "transfer check-compose --tower F81/F9/F3",
    "transfer check-basechange --ext F27/F3 --scalars F9",
    "transfer check-projection --ext F9/F3 --top-form 1,2 --bottom-form 2",
    "complex homology --a @{cx}",
    "complex homology --a @{px}",
    "complex dual --a @{cx} --degree 1",
    "complex tensor --a @{cx} --b @{px}",
    "complex hom --a @{px} --b @{px}",
    "koszul build --vars x,y --section x,y",
    "koszul form --vars x,y --section x,y",
    "koszul verify-xmap --vars x,y --section x,y",
    "koszul verify-trace --vars x,y,z --section x,y,z",
    "koszul verify-trace --vars x,y --section x,x",
    "koszul verify-split --vars x,y --section x+y,y",
    "proj cohomology --r 2 --m -3",
    "proj cohomology --r 1 --m 3000",
    "proj cohomology --r 7 --m 1",
    "proj phi-r --r 0",
    "proj phi-r --r 2",
    "proj phi-r --r 3",
    "proj phi-r --r 8",
)


def definitions():
    """(file, first line) -> (module, line, qualified name) of every def in the
    package; the first line is a decorator's when there is one, as in the
    code object."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = (path.stem, child.lineno, prefix + child.name)
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def run_cli(main, argv):
    """``main(argv)`` with its output and its usage exits swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:
            pass


def profile_runs(tmp):
    """Every run of the audit; the profile is on before wittforge is imported,
    so what its import calls counts too."""
    from wittforge import cli

    cx, px = tmp / "cx.json", tmp / "px.json"
    cx.write_text(json.dumps(FIELD_COMPLEX), encoding="utf-8")
    px.write_text(json.dumps(GRADED_COMPLEX), encoding="utf-8")
    for mode in ([], ["--json"]):
        run_cli(cli.main, [*mode, "--seed", "42", "verify", "all"])
        for command in COMMANDS:
            run_cli(cli.main, mode + command.format(cx=cx, px=px).split())

    import probes
    import sample
    import workloads

    for name in workloads.WORKLOADS:
        for unit in workloads.UNITS[name](workloads.DEFAULT_SEED):
            _, status, _ = sample.execute(unit)
            if status != "pass":
                print(f"bench unit {unit['id']}: {status}", file=sys.stderr)
    probes.run(workloads.DEFAULT_SEED)


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    with tempfile.TemporaryDirectory(prefix="wittforge-reach-") as tmp:
        sys.setprofile(record)
        try:
            profile_runs(Path(tmp))
        finally:
            sys.setprofile(None)
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}
    defs = definitions()
    unreached = sorted(where for key, where in defs.items() if key not in reached)
    for module, line, name in unreached:
        print(f"{module}:{line} {name}")
    print(f"{len(defs) - len(unreached)}/{len(defs)} defs in src/wittforge reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
