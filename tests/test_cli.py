"""End-to-end tests of the command-line interface."""

import argparse
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wittforge import cli, fields, koszul, quadforms, transfer, verify
from wittforge.cli import (
    COMMANDS,
    build_parser,
    main,
    parse_extension,
    parse_field,
    parse_poly,
    parse_tower,
)
from wittforge.fields import MR_BOUND, FieldSpec
from wittforge.polynomials import MultiPolynomial, PolyRing

Q = FieldSpec.Q()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def test_parse_field_shorthand():
    assert parse_field("Q") == Q
    assert parse_field("F7") == FieldSpec.Fp(7)
    assert parse_field("F9").order() == 9
    assert parse_field("F27").order() == 27
    assert parse_field("Qsqrt2").degree == 2
    assert parse_field("Qcbrt2").degree == 3


@pytest.mark.parametrize("bad", ["F4", "F6", "F12", "R", "Qsqrtx", ""])
def test_parse_field_rejects(bad):
    with pytest.raises(ValueError):
        parse_field(bad)


def test_parse_extension_stacks_on_the_bottom():
    ext = parse_extension("F81/F9")
    assert ext.bottom.order() == 9
    assert ext.top.order() == 81
    assert ext.top.base == ext.bottom  # a direct step, not a flattened tower
    assert parse_extension("Qsqrt5/Q").top.degree == 2


def test_parse_extension_rejects_non_steps():
    with pytest.raises(ValueError):
        parse_extension("F9")
    with pytest.raises(ValueError):
        parse_extension("F27/F9")  # 27 is not a power of 9
    with pytest.raises(ValueError):
        parse_extension("Qsqrt2/Qsqrt5")


def test_parse_tower():
    outer, inner = parse_tower("F81/F9/F3")
    assert outer.bottom == FieldSpec.Fp(3)
    assert outer.top == inner.bottom
    assert inner.top.order() == 81


def test_parse_poly_terms():
    ring = PolyRing(Q, ("x", "y", "z"))
    x, y, z = (ring.variable(v) for v in "xyz")
    assert parse_poly(ring, "x") == x
    assert parse_poly(ring, "2*x^2*y-z") == ring.from_int(2) * x * x * y - z
    assert parse_poly(ring, "x+y") == x + y
    assert parse_poly(ring, "-x") == -x
    assert parse_poly(ring, "1/2*x") == ring.constant(Q.element("1/2")) * x


def test_parse_poly_builds_each_power_in_one_product(monkeypatch):
    ring = PolyRing(Q, ("x", "y"))
    calls = []
    mul = MultiPolynomial.__mul__

    def counting_mul(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(MultiPolynomial, "__mul__", counting_mul)
    value = parse_poly(ring, "x^50*y^3")
    monkeypatch.undo()
    assert value == MultiPolynomial(ring, {(50, 3): Q.one()})
    assert len(calls) <= 2


def test_parse_poly_rejects():
    ring = PolyRing(Q, ("x",))
    with pytest.raises(ValueError):
        parse_poly(ring, "w")
    with pytest.raises(ValueError):
        parse_poly(ring, "")
    with pytest.raises(ValueError):
        parse_poly(ring, "x+")


# ---------------------------------------------------------------------------
# frozen command examples
# ---------------------------------------------------------------------------


def test_hilbert_symbol_at_infinity(capsys):
    code, out, _ = run(capsys, "witt", "hilbert", "-a", "-1", "-b", "-1", "--place", "inf")
    assert code == 0
    assert out == "-1"


def test_transfer_push_unit_form(capsys):
    code, out, _ = run(capsys, "transfer", "push", "--ext", "F9/F3", "--form", "[[1]]")
    assert code == 0
    assert json.loads(out) == [[2, 0], [0, 1]]


def test_koszul_verify_xmap_coordinates(capsys):
    code, out, _ = run(capsys, "koszul", "verify-xmap", "--vars", "x,y", "--section", "x,y")
    assert code == 0
    assert out == "pass"


def test_transfer_trace_of_generator(capsys):
    code, out, _ = run(capsys, "transfer", "trace", "--ext", "F9/F3", "--value", "[0,1]")
    assert code == 0
    assert out == "0"


def test_transfer_form_rational(capsys):
    code, out, _ = run(capsys, "--json", "transfer", "form", "--ext", "Qsqrt2/Q")
    assert code == 0
    assert json.loads(out)["gram"] == [["2", "0"], ["0", "4"]]


# ---------------------------------------------------------------------------
# parser text
# ---------------------------------------------------------------------------

#: sha256 of the ``--help`` output at 80 columns of the top level, of each group
#: and of each command: help, usage and choice text change only on purpose
HELP_DIGESTS = {
    "": "cf8695d6ba6f78c6da4d3bfabdadb6dcadd2681cfb7a397966548701f067c47c",
    "witt": "d0fc776da17aca9c600831d0237101ed7259dc8f6a60eb4f8ddefda451d06a8d",
    "transfer": "79340f42ea02e08b380a82059add513625831d68bc939e18f60b509dfdbc8699",
    "complex": "6cdb9de37dc38276b2dd2f6d1d05dd8b6c7c71dc539096920bda93e8ec7aee29",
    "koszul": "bf5cc37abb895a954784180b089f0631074f0dc1cccf4e4766477c900a066eff",
    "proj": "4fff6810955e19f05567e822f41ac3d71707bd2d557c7e09a8c4807723164dab",
    "verify": "2212f0565b3ee94c6428b44c00b329581737b1ea3ce34b42ca6d1a071ea7043a",
    "witt diag": "3c84965274925ab0b1450d0812d68c733a600806c1435ccc3832476ea15d3cf8",
    "witt decompose": "534d8a3b50041ba1c7bb64e5fe465fbaa3e90250d6c0a8c8f6342eb1a628c8f7",
    "witt equal": "d0859e2291ab5bd2753dc14471a08a6316e8bd37a72d922bc75ac364ed31c183",
    "witt hilbert": "1445b050eebc61f8c0b540ecf6dc69ef33aa66d70c120674795c76a8550a4c7f",
    "transfer trace": "1e61e0fb9ba5c1105334892046fe170dfc82d23c94ced00f67ebaa93376136ab",
    "transfer form": "fffc3f8a9616f7e94c4892f7bd2a998a6eee4fe4a309a2d993d75d674796eeca",
    "transfer push": "9337d9278d548001eb1d114a93d02b207c98ac992f5cfd932a19c21629830061",
    "transfer check-compose": "6db847bdd3c82ab6f60392816be280f80994d5b5cb84062636453b3527c85aab",
    "transfer check-basechange": "f3c2e44757cad6fdfe6f8279418267163240a9bb893dd54b2141ac001ff8ee39",
    "transfer check-projection": "de667fde2eef2126ba2be5e379472a3a6361760861913fc29a623bd94a115724",
    "complex tensor": "573a22caaa0a57f22f9bd70796449e76a5d4c64fc61bf9ff80c42a8ee0e3676f",
    "complex hom": "f7fce5232e60d4ad280fb51ac29863db27bd5a0b50204bd7b542d263eace8882",
    "complex dual": "d6706fb30dfcf6bcf54db2c59e9bd38a6e4d38dd003bbb7242bc057cdf888cb1",
    "complex homology": "023cae50a236ac01764fe745c44e0ed97ab0bbbf3b32c1a62e6edbdb802885e0",
    "koszul build": "86639d6bcdadb8ff9ee1f27b47a32966829d3d6afaa4b94fa9416c436f44bd7a",
    "koszul form": "7841ac0431a3054a4709cf1b68576ea68956bfdfa8f78dce52a6b6149ee28b85",
    "koszul verify-xmap": "d2178bd232a0b41a6e75758506e12238d441d63ff1e126cf0bbcb0c1e3f00ef1",
    "koszul verify-trace": "1403eaa8dad81a9d8e5d172b837a0680d777e20007ab05e3cea473ef58968f23",
    "koszul verify-split": "0dd03f2d372128094a0e9740145a97a57fc4e265015191322ca9573643a44aaf",
    "proj cohomology": "65b562da6e0bf2b0c0e05000fa60a59afe6b92acc983a971ad70fc306623e0a6",
    "proj phi-r": "a0f1b34f4383db925d9579b6df16d21ba107e2b5352d2af9b6774a0811baa3a0",
}


def _help(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def test_help_text_is_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    commands = [f"{g} {c}" for g, (_, body) in COMMANDS.items() if isinstance(body, dict) for c in body]
    assert sorted(HELP_DIGESTS) == sorted(["", *COMMANDS, *commands])
    got = {
        name: hashlib.sha256(_help(capsys, name.split()).encode()).hexdigest()
        for name in HELP_DIGESTS
    }
    assert got == HELP_DIGESTS


def _subparsers(parser):
    """name -> parser for the sub-commands ``parser`` dispatches to."""
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


@pytest.mark.parametrize(
    "argv, stderr",
    [
        (
            ["witt", "diag", "--field", "F5"],
            "usage: wittforge witt diag [-h] --field FIELD --form FORM\n"
            "wittforge witt diag: error: the following arguments are required: --form\n",
        ),
        (
            ["--json", "frob", "witt"],
            "usage: wittforge [-h] [--json] [--seed SEED] [--bound BOUND]\n"
            "                 {witt,transfer,complex,koszul,proj,verify} ...\n"
            "wittforge: error: argument group: invalid choice: 'frob' (choose from "
            "'witt', 'transfer', 'complex', 'koszul', 'proj', 'verify')\n",
        ),
        (
            ["witt", "frob"],
            "usage: wittforge witt [-h] {diag,decompose,equal,hilbert} ...\n"
            "wittforge witt: error: argument command: invalid choice: 'frob' (choose from "
            "'diag', 'decompose', 'equal', 'hilbert')\n",
        ),
        (
            ["--seed", "verify", "witt"],
            "usage: wittforge [-h] [--json] [--seed SEED] [--bound BOUND]\n"
            "                 {witt,transfer,complex,koszul,proj,verify} ...\n"
            "wittforge: error: argument --seed: invalid int value: 'verify'\n",
        ),
    ],
    ids=["missing-flag", "unknown-group", "unknown-command", "group-as-flag-value"],
)
def test_argparse_errors_are_pinned(capsys, monkeypatch, argv, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr() == ("", stderr)


# ---------------------------------------------------------------------------
# the path rule: build_parser(argv) builds only argv's group and command
# ---------------------------------------------------------------------------


#: a text with verify's per-suite seconds masked
untimed = functools.partial(re.sub, r"\(\d+\.\d\ds\)", "(t)")


def _outcome(capsys, argv):
    """``(exit code, first 16 hex digits of the sha256 of stdout NUL stderr)``
    of ``main(argv)``; an argparse exit is its code, verify's seconds are masked."""
    try:
        code = main(argv)
    except SystemExit as exit_info:
        code = exit_info.code
    out, err = capsys.readouterr()
    return code, hashlib.sha256(untimed(f"{out}\0{err}").encode()).hexdigest()[:16]


def _parsers_built(monkeypatch):
    """The list each new ``ArgumentParser`` appends its prog to."""
    built, init = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


#: argv -> (exit code, parsers built, ``_outcome`` digest), each code and digest
#: as the full parser gave them: no argv, groups alone, the pinned argparse
#: errors, flag values that name a group or a command, and ``--`` separators
PATH_CASES = {
    "": (2, 1, "f2c0fdb5d2819e7a"),
    "--json --seed 3": (2, 1, "f2c0fdb5d2819e7a"),
    "witt": (2, 2, "65242863de050906"),
    "koszul": (2, 2, "e6342b21817d72c0"),
    "verify": (2, 2, "c958efbd360eecd6"),
    "witt diag --field F5": (2, 3, "9c9c69a738511b42"),
    "--json frob witt": (2, 2, "4678fc4ae41bb1a0"),
    "witt frob": (2, 2, "91e186664e6a9ab5"),
    "--seed verify witt": (2, 2, "2b74ec4cd92417e1"),
    "koszul build --vars witt --section witt": (0, 3, "68b00c7350f7d776"),
    "--json koszul build --vars witt --section witt": (0, 3, "bd0ce7c31db725ba"),
    "transfer check-compose --tower F81/F9/F3 --form push": (2, 3, "6874547108c031fb"),
    "transfer check-compose --tower F81/F9/F3 --form witt,push": (2, 3, "d3869f2c4f0c2dc4"),
    "witt frob diag": (2, 3, "91e186664e6a9ab5"),
    "-- witt diag --field F5 --form 1,2": (2, 3, "d786783d8c2bde0c"),
    "witt diag --field F5 -- --form 1,2": (2, 3, "9c9c69a738511b42"),
    "verify -- scharlau": (0, 2, "2a0c225c5ae9d203"),
}


@pytest.mark.parametrize("argv", list(PATH_CASES))
def test_the_path_rule_keeps_every_byte(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    built = _parsers_built(monkeypatch)
    code, parsers, digest = PATH_CASES[argv]
    assert (*_outcome(capsys, argv.split()), len(built)) == (code, digest, parsers)


@pytest.mark.parametrize("name", list(HELP_DIGESTS))
def test_help_builds_only_its_path(capsys, monkeypatch, name):
    # --help at each level: the bytes of HELP_DIGESTS from one parser per level
    monkeypatch.setenv("COLUMNS", "80")
    built = _parsers_built(monkeypatch)
    assert hashlib.sha256(_help(capsys, name.split()).encode()).hexdigest() == HELP_DIGESTS[name]
    assert len(built) == 1 + len(name.split())


# ---------------------------------------------------------------------------
# the answer contract
# ---------------------------------------------------------------------------

#: a complex over F5, which ``{cx}`` names in README_INPUTS
README_CX = {"ring": {"kind": "Fp", "p": 5}, "terms": {"0": 1, "1": 2}, "diffs": {"1": [[1, 2]]}}

#: a README input for every handler in COMMANDS
README_INPUTS = {
    "witt diag": "--field Q --form [[0,1],[1,0]]",
    "witt decompose": "--field F3 --form 1,1,1,1",
    "witt equal": "--field Q --left 1,1 --right 1,-1",
    "witt hilbert": "-a -1 -b -1 --place inf",
    "transfer trace": "--ext F9/F3 --value [0,1]",
    "transfer form": "--ext Qsqrt2/Q",
    "transfer push": "--ext F9/F3 --form [[1]]",
    "transfer check-compose": "--tower F81/F9/F3",
    "transfer check-basechange": "--ext F27/F3 --scalars F9",
    "transfer check-projection": "--ext F9/F3 --top-form 1,2 --bottom-form 2",
    "complex tensor": "--a @{cx} --b @{cx}",
    "complex hom": "--a @{cx} --b @{cx}",
    "complex dual": "--a @{cx} --degree 1",
    "complex homology": "--a @{cx}",
    "koszul build": "--vars x,y --section x,y",
    "koszul form": "--vars x,y --section x,y",
    "koszul verify-xmap": "--vars x,y --section x,y",
    "koszul verify-trace": "--vars x,y,z --section x,y,z",
    "koszul verify-split": "--vars x,y --section x+y,y",
    "proj cohomology": "--r 2 --m -3",
    "proj phi-r": "--r 3",
    "verify": "scharlau",
}


def test_every_handler_has_a_readme_input():
    commands = [f"{g} {c}" for g, (_, body) in COMMANDS.items() if isinstance(body, dict) for c in body]
    assert sorted(README_INPUTS) == sorted([*commands, "verify"])


@pytest.mark.parametrize("command", sorted(README_INPUTS))
def test_a_handler_returns_its_answer_and_main_prints_it(capsys, tmp_path, command):
    # the handler prints nothing; main prints its payload under --json, its
    # human text otherwise, and exits 0 exactly when the answer holds
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps(README_CX))
    argv = command.split() + README_INPUTS[command].format(cx=cx).split()
    args = build_parser(argv).parse_args(argv)
    held, payload, human = args.handler(args)
    assert capsys.readouterr() == ("", "")
    assert isinstance(held, bool) and isinstance(human, str)
    for mode, text in (([], human), (["--json"], json.dumps(payload, indent=2, sort_keys=True))):
        assert main(mode + argv) == (0 if held else 1)
        out = capsys.readouterr()
        assert (untimed(out.out), out.err) == (untimed(text) + "\n", "")


#: command -> (exit code, plain and --json ``_outcome`` digests) of its
#: README input, as the full parser gave them
README_DIGESTS = {
    "witt diag": (0, "d4dc3f4dd057d8ff", "9ba99dd0ebad32b4"),
    "witt decompose": (0, "38d6b6506b487587", "9d597b848f2c7db9"),
    "witt equal": (1, "082549a6d84243a4", "a265b2560fbe4ea2"),
    "witt hilbert": (0, "be73955e586d880d", "9eea9c13603d0ae1"),
    "transfer trace": (0, "07976480d80506ad", "9bf7e140ffbed524"),
    "transfer form": (0, "b5c1ac80c6bd6de4", "325511383489b9d9"),
    "transfer push": (0, "129b6a7ebe440899", "65ce1cc4c397ac6d"),
    "transfer check-compose": (0, "d8121ad8f759afe1", "48f0d759d92d5046"),
    "transfer check-basechange": (0, "3a2bb3239ce6cc49", "30c0f516df2be0ef"),
    "transfer check-projection": (0, "8948367ae5775b6a", "592e68c8e4390cf7"),
    "complex tensor": (0, "29e103197feaf765", "deeb77f748789676"),
    "complex hom": (0, "ba968426e6200c1c", "58ca68e947fa7815"),
    "complex dual": (0, "a917b05e30e58c96", "7a67e2db170e51b0"),
    "complex homology": (0, "53d058aa348b76c7", "b9f6240435c9d5b1"),
    "koszul build": (0, "4a00617cde2aa3be", "f6c1932fb5f00ef8"),
    "koszul form": (0, "7ce80499b50c45b3", "5655e7b95e78e066"),
    "koszul verify-xmap": (0, "563f33b845b25bba", "3006ebb635def019"),
    "koszul verify-trace": (0, "e66910f878074931", "36f3d527e1133739"),
    "koszul verify-split": (0, "5fffc7eabc75ccc9", "d022153eafda6e02"),
    "proj cohomology": (0, "c4106f871d816805", "a301716e16cce2b7"),
    "proj phi-r": (0, "8d68158c06b62708", "c7b467521cb23603"),
    "verify": (0, "2a0c225c5ae9d203", "aa90c40ff2703041"),
}


@pytest.mark.parametrize("command", sorted(README_INPUTS))
@pytest.mark.parametrize("mode", ["plain", "json"])
def test_a_readme_command_builds_only_its_path(capsys, monkeypatch, tmp_path, mode, command):
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps(README_CX))
    argv = command.split() + README_INPUTS[command].format(cx=cx).split()
    built = _parsers_built(monkeypatch)
    code, *digests = README_DIGESTS[command]
    assert _outcome(capsys, ["--json"] * (mode == "json") + argv) == (code, digests[mode == "json"])
    # the top level, the group and the command; verify has no command level
    words = command.split()
    assert built == [" ".join(["wittforge", *words[:i]]) for i in range(len(words) + 1)]


def _text_values(command):
    """The README argv of ``command`` with each ``@{cx}`` inlined, and the
    positions in it of the values its text flags take."""
    group, _, name = command.partition(" ")
    parser = _subparsers(_subparsers(build_parser(command.split()))[group]).get(name)
    flags = {o for a in getattr(parser, "_actions", ()) if a.type is cli._text for o in a.option_strings}
    argv = command.split() + [
        json.dumps(README_CX) if t == "@{cx}" else t for t in README_INPUTS[command].split()
    ]
    return argv, [i + 1 for i, t in enumerate(argv) if t in flags]


@pytest.mark.parametrize("command", [c for c in sorted(README_INPUTS) if _text_values(c)[1]])
def test_every_text_flag_reads_the_same_from_a_file(capsys, tmp_path, command):
    # argparse reads @path for every flag without a type: each such value,
    # passed as a file, prints the bytes and exit code it gives inline
    argv, at = _text_values(command)
    inline = [run(capsys, *mode, *argv) for mode in ([], ["--json"])]
    for i in at:
        path = tmp_path / f"value{i}.txt"
        path.write_text(argv[i], encoding="utf-8")
        from_file = [*argv[:i], f"@{path}", *argv[i + 1 :]]
        assert [run(capsys, *mode, *from_file) for mode in ([], ["--json"])] == inline


def test_a_missing_file_is_one_usage_line(capsys, tmp_path):
    # argparse opens the file inside main's try, so a missing one is one line
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "witt", "diag", "--field", f"@{missing}", "--form", "1,2")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and len(err.splitlines()) == 1


def test_a_file_that_is_not_utf8_is_one_usage_line(capsys, tmp_path):
    # a decode error is raised as OSError, which argparse does not reformat
    binary = tmp_path / "bin.txt"
    binary.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "witt", "diag", "--field", f"@{binary}", "--form", "1")
    assert (code, out) == (2, "")
    assert err == f"usage error: {str(binary)!r} is not UTF-8 text: invalid start byte"


def test_complex_dual_prints_what_it_printed_with_a_twist(capsys, tmp_path):
    # the bytes of the former `--twist 2 --degree 1`: the twist never entered a matrix
    cx = tmp_path / "cx.json"
    cx.write_text(json.dumps(README_CX))
    argv = ["complex", "dual", "--a", f"@{cx}", "--degree", "1"]
    assert run(capsys, *argv) == (0, "ChainComplex({0:2, 1:1})", "")
    code, out, err = run(capsys, "--json", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(f"{out}\n".encode()).hexdigest() == (
        "862baf6d9da83ca8f14e551e10916f8ed564ec1b7c635e15eb225fdf4897d783"
    )


#: replaces stdout by one whose every write raises, then runs main on argv
BROKEN_STDOUT = """
import sys
import wittforge.cli as cli

class Broken:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

sys.stdout = Broken()
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        ("witt hilbert -a -1 -b -1 --place inf", 2, "usage error: [Errno 32] Broken pipe"),
        ("--json transfer push --ext F9/F3 --form [[1]]", 2, "usage error: [Errno 32] Broken pipe"),
        ("proj phi-r --r 2", 1, "fail (ParityError): "),
        ("--json proj phi-r --r 2", 2, "usage error: [Errno 32] Broken pipe"),
    ],
    ids=["query", "json-query", "refuted", "json-refuted"],
)
def test_a_broken_stdout_is_one_stderr_line(argv, code, stderr):
    # a write to stdout that raises maps like any OSError from a command: one
    # stderr line, a nonzero exit and no traceback; a refuted claim writes its
    # plain line to stderr only, and its --json witness goes through the same print
    src = str(Path(cli.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", BROKEN_STDOUT, *argv.split()],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == code
    assert len(result.stderr.splitlines()) == 1 and result.stderr.startswith(stderr)
    assert "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_witt_equal_exit_codes(capsys):
    code, _, _ = run(capsys, "witt", "equal", "--field", "Q", "--left", "3,5", "--right", "2,30")
    assert code == 0
    code, out, _ = run(capsys, "witt", "equal", "--field", "Q", "--left", "1,1", "--right", "1,-1")
    assert code == 1
    assert "NOT" in out


def test_phi_r_parity(capsys):
    code, out, _ = run(capsys, "--json", "proj", "phi-r", "--r", "3")
    assert code == 0
    assert json.loads(out)["certificate"]["dims"] == [0, 0, 0, 0]
    code, out, _ = run(capsys, "--json", "proj", "phi-r", "--r", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "ParityError"
    assert "witness" in payload


def test_non_regular_section_fails_with_witness(capsys):
    code, out, _ = run(capsys, "--json", "koszul", "verify-trace", "--vars", "x,y", "--section", "x,x")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "NotRegularSequence"
    assert payload["witness"]["homology"]  # nonzero homology dimensions listed


@pytest.mark.parametrize(
    "variables, section, constants",
    [("x", "1", {"1": "1"}), ("x,y", "3,y", {"1": "3"}), ("x", "x^7", None)],
    ids=["unit", "constant-first", "x^7"],
)
def test_constant_section_entry_is_not_regular(capsys, variables, section, constants):
    # a nonzero constant entry makes R/(s) = 0: refused before any graded
    # piece is built; x^7 is regular, with R/(x^7) in internal degrees -7..-1
    argv = ("--vars", variables, "--section", section)
    code, out, _ = run(capsys, "--json", "koszul", "verify-trace", *argv)
    payload = json.loads(out)
    if constants is None:
        assert code == 0 and payload["status"] == "pass"
        assert payload["certificate"]["socle_dims"] == {str(-t): 1 for t in range(1, 8)}
    else:
        assert code == 1
        assert payload["error"] == "NotRegularSequence"
        assert payload["witness"]["constant_entries"] == constants
        assert "homology" not in payload["witness"]
    for command in ("build", "form", "verify-xmap", "verify-split"):
        assert run(capsys, "koszul", command, *argv)[0] == 0


def test_out_of_bounds_is_usage(capsys):
    code, _, err = run(capsys, "proj", "cohomology", "--r", "9", "--m", "1")
    assert code == 2
    assert "out of bounds" in err


def test_xmap_past_the_rank_cap_is_refused_before_any_complex(capsys, monkeypatch):
    # Kos (x) Kos has total rank 4^9 = 262144 at rank 9: the refusal comes
    # from the section's length, before the Koszul complex is built
    monkeypatch.setattr(koszul, "koszul_complex", lambda k: pytest.fail("complex built"))
    names = ",".join(f"x{i}" for i in range(9))
    code, out, err = run(capsys, "koszul", "verify-xmap", "--vars", names, "--section", names)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["out of bounds: total rank 262144 exceeds cap 4096"]


@pytest.mark.parametrize(
    "vars_, section, message",
    [
        ("x,y", "x,,y", "usage error: --section 'x,,y' has an empty entry"),
        ("x,y,", "x,y", "usage error: --vars 'x,y,' has an empty entry"),
        ("x", " ", "usage error: --section ' ' has an empty entry"),
        ("2", "2", r"usage error: '2' is not a variable name: it must match [A-Za-z_]\w*"),
        ("x,y^2", "x", r"usage error: 'y^2' is not a variable name: it must match [A-Za-z_]\w*"),
    ],
    ids=["empty-section-entry", "empty-vars-entry", "blank-section", "digit-name", "power-name"],
)
def test_a_datum_entry_parse_poly_cannot_read_is_refused(capsys, monkeypatch, vars_, section, message):
    # an empty entry used to be dropped, and a name like '2' made a variable
    # no polynomial can name: both are refused before the ring is built
    monkeypatch.setattr(cli, "PolyRing", lambda *a: pytest.fail("ring built"))
    for command in ("build", "verify-trace"):
        assert run(capsys, "koszul", command, "--vars", vars_, "--section", section) == (
            2, "", message
        )


def test_field_past_the_tower_cap_is_usage(capsys):
    # F_{3^17}: rejected by the degree cap before any modulus search
    code, _, err = run(capsys, "witt", "diag", "--field", "F129140163", "--form", "1,1")
    assert code == 2
    assert "out of bounds" in err


@pytest.mark.parametrize("field", ["F1000000007", "F2305843009213693951"])
def test_large_prime_fields_parse_in_log_steps(capsys, field):
    # the characteristic comes from integer roots, not from trial division up to q
    start = time.perf_counter()
    for argv in (
        ("witt", "diag", "--field", field, "--form", "1,2"),
        ("witt", "decompose", "--field", field, "--form", "1,2,3"),
        ("witt", "equal", "--field", field, "--left", "1,2", "--right", "3,6"),
    ):
        code, _, err = run(capsys, "--json", *argv)
        assert code == 0, err
    assert time.perf_counter() - start < 1
    assert parse_field(field) == FieldSpec.Fp(int(field[1:]))


def test_field_orders_past_the_primality_bound_are_refused_first(capsys, monkeypatch):
    # from MR_BOUND up isprime is sympy's: 10^3999 + 1 (4,000 digits) spent
    # seconds in it before its usage error; the cap refuses q before any test
    monkeypatch.setattr(cli, "prime_power", lambda q: pytest.fail(f"prime_power({q}) ran"))
    start = time.perf_counter()
    for q in (MR_BOUND, 10**3999 + 1):
        code, out, err = run(capsys, "--json", "witt", "diag", "--field", f"F{q}", "--form", "1,2")
        assert (code, out) == (2, "")
        assert err.startswith("out of bounds:") and "\n" not in err and str(MR_BOUND) in err
    assert time.perf_counter() - start < 1
    monkeypatch.undo()
    argv = ("--json", "witt", "diag", "--field", "F2305843009213693951", "--form", "1,2")
    assert run(capsys, *argv)[0] == 0


def test_places_past_the_primality_bound_are_refused_first(capsys, monkeypatch):
    # from MR_BOUND up isprime is sympy's: --place 10^3999 + 1 spent seconds
    # in it, and its usage error echoed all 4,000 digits
    monkeypatch.setattr(quadforms, "isprime", lambda p: pytest.fail(f"isprime({p}) ran"))
    argv = ("witt", "hilbert", "-a", "3", "-b", "5", "--place")
    start = time.perf_counter()
    for p in (MR_BOUND, 10**3999 + 1):
        code, out, err = run(capsys, *argv, str(p))
        assert (code, out) == (2, "")
        assert err.startswith("out of bounds:") and "\n" not in err and len(err) < 200
    assert time.perf_counter() - start < 1
    monkeypatch.undo()
    assert run(capsys, *argv, str(MR_BOUND - 2))[0] == 2  # below the bound: tested, not prime
    assert run(capsys, *argv, "5")[:2] == (0, "-1")


def test_json_primes_past_the_primality_bound_are_refused_first(capsys, tmp_path, monkeypatch):
    # a JSON ring's p meets the cap of F<q> and --place: 10^999 + 7 went
    # through sympy's probabilistic test, and complex homology exited 0
    monkeypatch.setattr(fields, "isprime", lambda p: pytest.fail(f"isprime({p}) ran"))
    path = tmp_path / "cx.json"
    start = time.perf_counter()
    for p in (10**999 + 7, MR_BOUND):
        path.write_text(json.dumps({"ring": {"kind": "Fp", "p": p}, "terms": {"0": 1}}))
        code, out, err = run(capsys, "complex", "homology", "--a", f"@{path}")
        assert (code, out) == (2, "")
        assert err.startswith("out of bounds:") and "\n" not in err and len(err) < 200
    assert time.perf_counter() - start < 1
    monkeypatch.undo()
    path.write_text(json.dumps({"ring": {"kind": "Fp", "p": 5}, "terms": {"0": 1}}))
    assert run(capsys, "complex", "homology", "--a", f"@{path}")[:2] == (0, '{"0": 1}')


def test_bad_field_is_usage(capsys):
    code, _, err = run(capsys, "witt", "diag", "--field", "F4", "--form", "1,1")
    assert code == 2
    assert "usage error" in err


def test_reducible_user_modulus_is_usage(capsys):
    # x^3 - 8 = (x - 2)(x^2 + 2x + 4): the user's modulus is still checked
    code, _, err = run(capsys, "witt", "diag", "--field", "Qcbrt8", "--form", "1,1")
    assert code == 2
    assert "reducible" in err


@pytest.mark.parametrize(
    "ext, scalars, modulus",
    [("Qsqrt2/Q", "Qsqrt8", "-8"), ("Qsqrt2/Q", "Qsqrt5", "-5"), ("Qcbrt2/Q", "Qsqrt2", "-2")],
)
def test_base_change_without_a_witt_decision_is_refused_first(capsys, monkeypatch, ext, scalars, modulus):
    # witt_equal decides over finite fields and Q alone: the scalars are
    # refused before E's modulus is factored over them
    def never(*args):
        raise AssertionError("the base change factored before its refusal")

    monkeypatch.setattr(transfer, "split_algebra", never)
    monkeypatch.setattr(transfer, "factor_univariate", never)
    monkeypatch.setattr(fields, "factor_univariate", never)
    code, out, err = run(capsys, "transfer", "check-basechange", "--ext", ext, "--scalars", scalars)
    assert (code, out) == (2, "")
    assert err == f"invalid input: no Witt equality decision over Q[x]/({modulus}+1*x^2)"


def test_unknown_suite_is_usage(capsys):
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 2
    assert "unknown suite" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "towers", "--size", "-1"), "usage error: size -1 must be >= 0"),
        (("proj", "phi-r", "--r", "0"), "out of bounds: projective dimension r=0 outside 1..6"),
        # even and past the cap: r is refused before its parity is tested
        (("proj", "phi-r", "--r", "8"), "out of bounds: projective dimension r=8 outside 1..6"),
        (
            ("witt", "diag", "--field", "Q", "--form", "1/0,1"),
            "usage error: '1/0' has a zero denominator",
        ),
        (
            ("witt", "diag", "--field", "F5", "--form", "1/5,1"),
            "usage error: 1/5 has no image in F5: p divides its denominator",
        ),
        (
            ("koszul", "form", "--vars", "x", "--section", "1/0*x"),
            "usage error: '1/0' has a zero denominator",
        ),
        (
            ("witt", "diag", "--field", "F5", "--form", "[1,2]"),
            "usage error: a Gram matrix is a list of rows, each a list of entries",
        ),
    ],
    ids=[
        "negative-size", "phi-r-zero", "phi-r-even-past-cap", "q-zero-den", "fp-zero-den",
        "poly-zero-den", "flat-gram",
    ],
)
def test_bad_bounds_are_one_line_usage_errors(capsys, argv, message):
    # rejected before any work: no stdout, exit 2, one line on stderr
    assert run(capsys, *argv) == (2, "", message)


# ---------------------------------------------------------------------------
# queries and checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, text",
    [
        (("witt", "diag", "--field", "F5", "--form", "push"), "push"),
        (("witt", "diag", "--field", "F5", "--form", "1/2/3"), "1/2/3"),
        (("witt", "diag", "--field", "Q", "--form", "1/,1"), "1/"),
        (("transfer", "trace", "--ext", "F9/F3", "--value", "1/2/3"), "1/2/3"),
    ],
    ids=["word", "two-slashes", "no-denominator", "trace-value"],
)
def test_an_entry_that_is_no_number_is_named(capsys, argv, text):
    assert run(capsys, *argv) == (2, "", f"usage error: {text!r} is not an integer or a fraction n/d")


def test_witt_decompose_four_units(capsys):
    code, out, _ = run(capsys, "--json", "witt", "decompose", "--field", "F3", "--form", "1,1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["hyperbolic"] == 2
    assert payload["is_zero"] is True


def test_witt_diag_json_pinned(capsys):
    code, out, _ = run(
        capsys, "--json", "witt", "diag", "--field", "F3", "--form", "[[0,1,2],[1,0,1],[2,1,0]]"
    )
    assert code == 0
    assert json.loads(out) == {
        "basis": [[1, 1, 2], [1, 2, 1], [0, 0, 1]],
        "entries": [2, 1, 2],
        "field": {"kind": "Fp", "p": 3},
    }


def test_witt_diag_antidiagonal(capsys):
    code, out, _ = run(capsys, "--json", "witt", "diag", "--field", "Q", "--form", "[[0,1],[1,0]]")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert len(entries) == 2


def test_proj_cohomology_witness(capsys):
    code, out, _ = run(capsys, "--json", "proj", "cohomology", "--r", "2", "--m", "-3")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [0, 0, 1]
    assert payload["witnesses"]["2"] == [[-1, -1, -1]]


def test_proj_cohomology_on_the_line_is_linear_in_the_twist(capsys):
    # on P^1 the count is |m| + 1, inside the monomial cap up to m = 99,999:
    # the enumeration must cost time linear in it, not in its square
    start = time.perf_counter()
    code, out, _ = run(capsys, "--json", "proj", "cohomology", "--r", "1", "--m", "20000")
    assert time.perf_counter() - start < 2
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [20001, 0]
    assert payload["witnesses"]["0"][:2] == [[0, 20000], [1, 19999]]


def test_transfer_checks_pass(capsys):
    assert run(capsys, "transfer", "check-compose", "--tower", "F81/F9/F3")[0] == 0
    assert (
        run(
            capsys,
            "transfer",
            "check-basechange",
            "--ext",
            "F27/F3",
            "--scalars",
            "F9",
            "--form",
            "[[1]]",
        )[0]
        == 0
    )
    assert (
        run(
            capsys,
            "transfer",
            "check-projection",
            "--ext",
            "F9/F3",
            "--top-form",
            "1,2",
            "--bottom-form",
            "2",
        )[0]
        == 0
    )


def test_complex_roundtrip_through_files(capsys, tmp_path):
    from wittforge.complexes import ChainComplex

    F5 = FieldSpec.Fp(5)
    cx = ChainComplex(F5, {0: 1, 1: 2}, {1: {0: {0: F5.from_int(1), 1: F5.from_int(2)}}})
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(cx.to_json()))

    code, out, _ = run(capsys, "--json", "complex", "homology", "--a", f"@{path}")
    assert code == 0
    assert json.loads(out)["dims"] == {"1": 1}

    code, out, _ = run(capsys, "--json", "complex", "dual", "--a", f"@{path}", "--degree", "1")
    assert code == 0
    assert json.loads(out)["terms"] == {"0": 2, "1": 1}

    code, out, _ = run(capsys, "--json", "complex", "tensor", "--a", f"@{path}", "--b", f"@{path}")
    assert code == 0
    assert json.loads(out)["terms"] == {"0": 1, "1": 4, "2": 4}

    code, out, _ = run(capsys, "--json", "complex", "hom", "--a", f"@{path}", "--b", f"@{path}")
    assert code == 0
    assert json.loads(out)["terms"] == {"-1": 2, "0": 5, "1": 2}


def test_repeated_exponents_in_complex_json_are_added(capsys, tmp_path):
    # x - x + x^2 is read as x^2, not as -x + x^2 (which is not homogeneous)
    def complex_with(*terms):
        poly = {"vars": ["x"], "terms": [{"exp": [e], "coef": c} for e, c in terms]}
        ring = {"field": {"kind": "Q"}, "vars": ["x"]}
        path = tmp_path / f"cx{len(terms)}.json"
        path.write_text(json.dumps({"ring": ring, "terms": {"0": 1, "1": 1}, "diffs": {"1": [[poly]]}}))
        return run(capsys, "--json", "complex", "homology", "--a", f"@{path}")

    square = complex_with((2, "1"))
    assert square[0] == 0 and json.loads(square[1])["dims"]
    assert complex_with((1, "1"), (1, "-1"), (2, "1")) == square


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"terms": {"0": 1}}', "the complex JSON has no 'ring' key"),
        ('[{"kind": "Q"}, {"0": 1}]', "a complex is a JSON object"),
        ('{"ring": {"kind": "Q"}, "terms": [1, 2]}', "'terms' and 'diffs' objects"),
        (
            '{"ring": {"kind": "Q"}, "terms": {"0": 1}, "diffs": {"1": 3}}',
            "the differential at degree 1 must be a list of rows",
        ),
        (
            '{"ring": {"kind": "Q"}, "terms": {"0": 1, "1": 1}, "diffs": {"1": [3]}}',
            "the differential at degree 1 must be a list of rows",
        ),
    ],
    ids=["missing-ring", "list", "terms-list", "diff-int", "diff-flat-row"],
)
def test_malformed_complex_is_one_line_usage(capsys, tmp_path, text, message):
    path = tmp_path / "cx.json"
    path.write_text(text)
    code, out, err = run(capsys, "complex", "homology", "--a", f"@{path}")
    assert code == 2 and not out
    assert err.startswith("usage error: ") and message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"ring": {"kind": "Q"}, "terms": {"0": 1.5}}', "the rank at degree 0 must be an integer, not 1.5"),
        ('{"ring": {"kind": "Q"}, "terms": {"0": true}}', "the rank at degree 0 must be an integer, not True"),
        ('{"ring": {"kind": "Q"}, "terms": {"0": "2"}}', "the rank at degree 0 must be an integer, not '2'"),
        ('{"ring": {"kind": "Q"}, "terms": {"0.7": 1}}', "degree key '0.7' is not an integer"),
        ('{"ring": {"kind": "Q"}, "terms": {"0": 1}, "diffs": {"one": []}}', "degree key 'one' is not an integer"),
    ],
    ids=["float-rank", "bool-rank", "string-rank", "fractional-term-key", "word-diff-key"],
)
def test_a_rank_or_degree_that_is_no_integer_is_named(capsys, text, message):
    # JSON floats, bools and strings are no ranks, as they are no entries
    assert run(capsys, "complex", "homology", "--a", text) == (2, "", f"usage error: {message}")


# the flat rows [1,2] are pinned with the bad bounds above
@pytest.mark.parametrize(
    "form, message",
    [
        ("[[1,2],[2]]", "usage error: Gram matrix must be square"),
        ("[[1,2]]", "usage error: Gram matrix must be square"),
        ("[[1,2],[0,1]]", "usage error: Gram matrix must be symmetric"),
    ],
    ids=["ragged", "one-row", "not-symmetric"],
)
def test_malformed_gram_is_one_line_usage(capsys, form, message):
    assert run(capsys, "witt", "diag", "--field", "F5", "--form", form) == (2, "", message)


@pytest.mark.parametrize(
    "terms, diffs, message",
    [
        ({"0": 2, "1": 1}, {"1": [[1]]}, "differential at degree 1 has shape (1, 1), expected (2, 1)"),
        ({"0": 1}, {"5": [[1]]}, "differential at degree 5 maps between missing terms"),
        ({"0": 1, "1": 1, "2": 1}, {"1": [[1]], "2": [[1]]}, "d_1 . d_2 != 0"),
        # the ranks are checked before the shape they give
        ({"0": -1, "1": 1}, {"1": [[1]]}, "negative rank -1 in degree 0"),
    ],
    ids=["wrong-shape", "missing-terms", "d-squared", "negative-rank"],
)
def test_invalid_complex_is_one_line_invalid_input(capsys, tmp_path, terms, diffs, message):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"ring": {"kind": "Fp", "p": 5}, "terms": terms, "diffs": diffs}))
    code, out, err = run(capsys, "complex", "homology", "--a", f"@{path}")
    assert (code, out, err) == (2, "", f"invalid input: {message}")


F3_JSON = {"kind": "Fp", "p": 3}
#: F3[x]/(x^2 - 1), whose 1 + x is a zero divisor
REDUCIBLE_JSON = {"kind": "ext", "base": F3_JSON, "modulus": [2, 0, 1]}


@pytest.mark.parametrize(
    "obj",
    [
        # JSON cannot vouch for a modulus: the key is not read, so the
        # modulus is tested and refused before 1 + x is ever inverted
        {"ring": {**REDUCIBLE_JSON, "irreducible": True}, "terms": {"0": 1, "1": 1}, "diffs": {"1": [[[1, 1]]]}},
        {"ring": REDUCIBLE_JSON, "terms": {"0": 1, "1": 1}, "diffs": {"1": [[[1, 1]]]}},
        # x^4 + 2 is irreducible, but over Q only degrees up to 3 are decided
        {"ring": {"kind": "ext", "base": {"kind": "Q"}, "modulus": [2, 0, 0, 0, 1]}, "terms": {"0": 1}},
        {"ring": {"kind": "Fp", "p": 2}, "terms": {"0": 1}},
        {"ring": {"kind": "Fp", "p": 9}, "terms": {"0": 1}},
        {"ring": {"kind": "Fp"}, "terms": {"0": 1}},
        {"ring": F3_JSON},
        {"ring": F3_JSON, "terms": {"0": 1, "1": 1}, "diffs": {"1": [1]}},
        {"ring": F3_JSON, "terms": {"0": 1, "1": 1}, "diffs": [[[1]]]},
    ],
    ids=[
        "vouched-reducible",
        "reducible",
        "Q-degree-4",
        "p-2",
        "p-9",
        "no-p",
        "no-terms",
        "row-not-list",
        "diffs-list",
    ],
)
def test_near_miss_complex_json_is_one_line_exit_2(capsys, tmp_path, obj):
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "complex", "homology", "--a", f"@{path}")
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("exp", [[1, 5], [-3], [1.5]], ids=["two-for-one-variable", "negative", "non-integer"])
def test_exponent_the_ring_cannot_have_is_one_line_exit_2(capsys, tmp_path, exp):
    # over Q[x] an entry's exponent is one natural number; these were read
    # as they stood and gave graded homology of an entry the ring cannot have
    entry = {"vars": ["x"], "terms": [{"exp": exp, "coef": "1"}]}
    ring = {"field": {"kind": "Q"}, "vars": ["x"]}
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"ring": ring, "terms": {"0": 1, "1": 1}, "diffs": {"1": [[entry]]}}))
    code, out, err = run(capsys, "complex", "homology", "--a", f"@{path}")
    assert (code, out) == (2, "")
    assert err == f"usage error: exponent {exp} is not one natural number per variable"
    entry["terms"][0]["exp"] = [1]
    path.write_text(json.dumps({"ring": ring, "terms": {"0": 1, "1": 1}, "diffs": {"1": [[entry]]}}))
    assert run(capsys, "complex", "homology", "--a", f"@{path}")[0] == 0


#: Q(sqrt 2), over which no modulus is decided
QSQRT2_JSON = {"kind": "ext", "base": {"kind": "Q"}, "modulus": [-2, 0, 1]}


@pytest.mark.parametrize(
    "ring",
    [
        {"kind": "ext", "base": {"kind": "Q"}, "modulus": [2, 0, 0, 0, 1]},
        {"kind": "ext", "base": QSQRT2_JSON, "modulus": [1, 0, 0, 1]},
    ],
    ids=["Q-degree-4", "cubic-over-Q-sqrt2"],
)
def test_an_undecided_modulus_names_no_python_keyword(capsys, tmp_path, ring):
    # an irreducibility test that cannot decide refuses the modulus, naming
    # nothing that a flag or a JSON key could set
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({"ring": ring, "terms": {"0": 1}}))
    code, out, err = run(capsys, "complex", "homology", "--a", f"@{path}")
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and "assume_irreducible" not in err


def test_form_file_input(capsys, tmp_path):
    path = tmp_path / "form.json"
    path.write_text("[[1]]")
    code, out, _ = run(capsys, "transfer", "push", "--ext", "F9/F3", "--form", f"@{path}")
    assert code == 0
    assert json.loads(out) == [[2, 0], [0, 1]]


def test_koszul_build_and_form(capsys):
    code, out, _ = run(capsys, "--json", "koszul", "build", "--vars", "x,y", "--section", "x,y")
    assert code == 0
    assert json.loads(out)["terms"] == {"0": 1, "1": 2, "2": 1}

    code, out, _ = run(capsys, "--json", "koszul", "form", "--vars", "x,y", "--section", "x,y")
    assert code == 0
    payload = json.loads(out)
    assert payload["symmetry_sign"] == 1
    assert payload["degree"] == 2


@pytest.mark.parametrize("twist", ["0", "2"])
@pytest.mark.parametrize("command", list(COMMANDS["koszul"][1]))
def test_koszul_takes_no_twist(capsys, command, twist):
    # the degree is the whole duality datum: --twist is an unknown flag
    with pytest.raises(SystemExit) as exit_info:
        main(["koszul", command, "--vars", "x", "--section", "x", "--twist", twist])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert err.endswith(f": error: unrecognized arguments: --twist {twist}\n")
    assert "Traceback" not in err


def test_koszul_verify_split(capsys):
    code, out, _ = run(
        capsys, "--json", "koszul", "verify-split", "--vars", "x,y,z", "--section", "x,y,z"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["certificate"]["witt_trivial_factor"] is True


# ---------------------------------------------------------------------------
# the bound flag
# ---------------------------------------------------------------------------


def test_bound_flag(capsys):
    code, out, _ = run(
        capsys, "--json", "--bound", "3", "koszul", "verify-trace", "--vars", "x", "--section", "x"
    )
    assert code == 0
    assert json.loads(out)["certificate"]["bound"] == 3


XX_TRACE = ("koszul", "verify-trace", "--vars", "x,y", "--section", "x,x")
XX_OUT_OF_BOUNDS = (
    "out of bounds: internal-degree bound {} is below -1, the lowest at which "
    "homology away from degree -2 can live"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--bound", "-2", *XX_TRACE), XX_OUT_OF_BOUNDS.format(-2)),
        (("--bound", "-5", *XX_TRACE), XX_OUT_OF_BOUNDS.format(-5)),
        (
            ("--bound", "-3", "verify", "trace"),
            "out of bounds: internal-degree bound -3 is below 0, the lowest at which "
            "homology away from degree -1 can live",
        ),
    ],
    ids=["xx-bound-2", "xx-bound-5", "verify-trace-bound-3"],
)
def test_empty_bound_window_is_one_line_usage(capsys, argv, message):
    # a window that holds none of the checked homology certifies nothing:
    # exit 2 with one line on stderr, never a pass
    assert run(capsys, *argv) == (2, "", message)


def test_graded_window_past_the_cap_is_one_line_usage(capsys):
    # the window -2000000..6 would be walked degree by degree (about 10 s,
    # one socle entry per degree); it is refused before any graded piece
    argv = ("--json", "koszul", "verify-trace", "--vars", "x", "--section", "x^2000000")
    assert run(capsys, *argv) == (
        2,
        "",
        "out of bounds: internal-degree window -2000000..6 holds 2000007 degrees, "
        "above the cap 4096",
    )


@pytest.mark.parametrize(
    "bound, message",
    [
        (
            "-3",
            "out of bounds: internal-degree bound -3 is below 0, the lowest at which "
            "homology away from degree -1 can live",
        ),
        (
            "100000",
            "out of bounds: internal-degree window -1..100000 holds 100002 degrees, "
            "above the cap 4096",
        ),
    ],
    ids=["empty-window", "past-the-cap"],
)
def test_verify_all_checks_the_bound_before_any_suite(capsys, monkeypatch, bound, message):
    # the trace suite runs first, so an empty window or one past the cap is
    # refused before any other suite's work
    suites = []
    run_suite = verify.run_suite

    def counted(name, **kwargs):
        suites.append(name)
        return run_suite(name, **kwargs)

    monkeypatch.setattr(verify, "run_suite", counted)
    assert run(capsys, "--bound", bound, "verify", "all") == (2, "", message)
    assert suites == ["trace"]
    suites.clear()
    # a valid bound reaches the suites through the counted path
    monkeypatch.setattr(verify, "SUITES", {"trace": verify.SUITES["trace"]})
    assert run(capsys, "verify", "all")[0] == 0
    assert suites == ["trace"]


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "scharlau")
    assert code == 0
    assert "all cases pass" in out


def test_verify_json_is_reproducible(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--json", "--seed", "7", "verify", "hilbert", "--size", "20")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload[0]["summary"] == {"pass": 20, "fail": 0, "inconclusive": 0, "total": 20}
    assert all("wall" not in key for key in payload[0])


#: sha256 of the full ``--json verify <suite>`` stdout at the default seed,
#: each captured from the implementation before the routines it exercises
#: were rewritten (dense list-of-lists matrices, boxed polynomials, dense Grams).
#: The adjunction and theta pins also guard the conjuncts added to their cases
#: later (the Cartan route; the laws of delta and the tensor-hom triangles),
#: which write nothing on a pass and a witness on a failure.
VERIFY_DIGESTS = {
    "adjunction": "1dd1f338384659a2d4838b49c5a8989140a3f304ddd4f2691c09cfd9b2a12f8b",
    "scharlau": "de6085c285ba07d414d97ddfc0bdbca20a4f71a23a9f15934b5870c8637d5793",
    "towers": "4de72fa1aba83cd0061b6b1b4ebca73776ff27905fb97469941aa775449f96a6",
    "base-change": "2cc8e7d00d47756fe47ca5c1d6c600fc35076074993f13fbcbdbde22f615b6b7",
    "witt": "ac6c90577de4ee9e2ab97d51536435796a7c41fa5f99aafcc96a0362d7f60ee6",
    "projection": "0ca227d772b92a762e842305a4618b1b55044911c2322f65634fc98d14af5ed8",
    "theta": "7142dc6883a8be780f4d3c91c8587af26e222ad0288cee59dddd11ba2b311b03",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_json_digest_pinned(capsys, suite):
    assert main(["--json", "verify", suite]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[suite]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("verify", "towers", "--size", "100000"),
            "out of bounds: size 100000 is above 500, ten times the towers suite's default",
        ),
        (
            ("verify", "all", "--size", "61"),
            "out of bounds: size 61 is above 60, ten times the witt suite's default",
        ),
        (
            ("verify", "theta", "--size", "100000000"),
            "usage error: suite 'theta' runs a fixed set of cases and takes no size",
        ),
    ],
    ids=["towers-above-bound", "all-above-witt-bound", "theta-takes-none"],
)
def test_verify_size_is_checked_before_any_suite(capsys, monkeypatch, argv, message):
    # a size above ten times a suite's default, or given to a suite without
    # one, is exit 2 with one line; no suite function is entered
    entered = []

    def counted(fn):
        @functools.wraps(fn)
        def suite(**kwargs):
            entered.append(fn.__name__)
            return fn(**kwargs)

        return suite

    suites = {name: (counted(fn), *rest) for name, (fn, *rest) in verify.SUITES.items()}
    monkeypatch.setattr(verify, "SUITES", suites)
    assert run(capsys, *argv) == (2, "", message)
    assert entered == []
    # the counted suites still run when the size is in bounds
    assert run(capsys, "verify", "towers", "--size", "1")[0] == 0
    assert entered == ["verify_towers"]


def test_verify_size_override(capsys):
    code, out, _ = run(capsys, "--json", "verify", "bidual", "--size", "5")
    assert code == 0
    assert json.loads(out)[0]["summary"]["total"] == 5
