import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import commuting_multiply
from sdpcert.cli import (
    EXIT_CHECK_FAILURE, EXIT_NOT_COVERED, EXIT_OK, EXIT_USAGE, main, render, render_text,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coverage_dihedral_full(capsys):
    code, out, _ = run_cli(
        capsys, "coverage", "--n", "5", "--r", "4", "--format", "json"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["results"]["coverage"]["subgroup"] == [1, 2, 3, 4]
    assert report["results"]["coverage"]["is_full"] is True


def test_coverage_with_exhaustive_oracle(capsys):
    code, out, _ = run_cli(
        capsys,
        "coverage", "--n", "5", "--r", "1", "--exhaustive", "2", "--format", "json",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    oracle = report["results"]["oracle"]
    assert oracle["bound"] == 2
    assert oracle["agrees"] is True
    assert oracle["subgroup"] == report["results"]["coverage"]["subgroup"]


def test_oracle_that_finds_less_is_not_a_failure(capsys):
    # the B = 2 oracle misses the report's residues 4 and 13 at (17, 2)
    code, out, _ = run_cli(
        capsys, "coverage", "--n", "17", "--r", "2", "--exhaustive", "2", "--format", "json"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    oracle = report["results"]["oracle"]
    assert report["status"] == "ok"
    assert report["results"]["coverage"]["subgroup"] == [1, 4, 13, 16]
    assert oracle["subgroup"] == [1, 16]
    assert oracle["agrees"] is False
    assert oracle["oracle_only"] == [] and oracle["report_only"] == [4, 13]


def test_oracle_that_finds_more_is_a_failure(capsys, monkeypatch):
    from sdpcert import coverage
    from sdpcert.quotient import SElement

    # 1 + rho has residue 2, which the report {1, 4} at (5, 2) lacks
    one_plus_rho = SElement.from_exponents(5, (0, 1))
    monkeypatch.setattr(coverage, "exhaustive_fixed_units", lambda n, r, bound: [one_plus_rho])
    code, out, _ = run_cli(
        capsys, "coverage", "--n", "5", "--r", "2", "--exhaustive", "2", "--format", "json"
    )
    assert code == EXIT_CHECK_FAILURE
    report = json.loads(out)
    oracle = report["results"]["oracle"]
    assert report["status"] == "check-failure"
    assert oracle["agrees"] is False
    assert oracle["oracle_only"] == [2, 3] and oracle["report_only"] == []


def test_coverage_usage_error(capsys):
    code, out, err = run_cli(capsys, "coverage", "--n", "4", "--r", "2")
    assert code == EXIT_USAGE
    assert out == ""
    assert "coprime" in err


@pytest.mark.parametrize("bound", ["-1", "2"])
def test_coverage_exhaustive_bound_usage_error(capsys, bound):
    # -1 is negative; 2 at n = 40 asks for 5^12 orbit-weight vectors, past the oracle's guard
    code, out, err = run_cli(
        capsys, "coverage", "--n", "40", "--r", "3", "--exhaustive", bound
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_exhaustive_guard_error_names_the_orbit_count(capsys):
    code, _, err = run_cli(capsys, "coverage", "--n", "40", "--r", "3", "--exhaustive", "2")
    assert code == EXIT_USAGE
    assert "(2*2+1)^12" in err and "d = 12 free <r>-orbits" in err


def test_oversized_exhaustive_is_refused_before_any_coverage_work(capsys, monkeypatch):
    # (6200, 1): 5^6199 has more decimal digits than int-to-str conversion allows,
    # so the message gives the orbit count and not the total
    from sdpcert import coverage

    def no_coverage_work(n, r):
        raise AssertionError("coverage_subgroup ran before the oracle's guard")

    monkeypatch.setattr(coverage, "coverage_subgroup", no_coverage_work)
    for n, r in ((1009, 1008), (6200, 1)):
        code, out, err = run_cli(capsys, "coverage", "--n", str(n), "--r", str(r), "--exhaustive", "2")
        assert code == EXIT_USAGE, (n, r)
        assert out == ""
        assert err.startswith("error: --exhaustive 2: ") and len(err.splitlines()) == 1
        assert len(err) < 200, err


def test_oracle_agreement_check_names_the_first_disagreement(monkeypatch):
    from sdpcert import coverage, suites

    name = "generator coverage agrees with the bounded oracle"
    check = next(c for c in suites.suite_coverage() if c.name == name)
    assert check.passed and check.detail == "10 cases"
    monkeypatch.setattr(coverage, "exhaustive_fixed_units", lambda n, r, bound: [])
    check = next(c for c in suites.suite_coverage() if c.name == name)
    assert not check.passed
    assert check.detail == (
        "10 cases; first disagreement: "
        "{'n': 3, 'r': 1, 'generator': (1, 2), 'oracle': (1,)}"
    )


def _coverage_check(name):
    from sdpcert import suites

    return next(c for c in suites.suite_coverage() if c.name == name)


def test_dihedral_coverage_check_names_the_first_failure(monkeypatch):
    from sdpcert import coverage

    name = "dihedral coverage is the full unit group for odd n <= 15"
    assert _coverage_check(name).detail == "7 cases"
    monkeypatch.setattr(coverage, "verify_report", lambda report: ["injected"])
    check = _coverage_check(name)
    assert not check.passed
    assert check.detail == "7 cases; first disagreement: {'n': 3, 'r': 2, 'subgroup': (1, 2)}"


def test_tau_symmetrization_check_compares_the_closed_forms(monkeypatch):
    from sdpcert import suites
    from sdpcert.group_ring import partial_norm

    name = "tau-symmetrization lands in the fixed ring"
    check = _coverage_check(name)
    assert check.passed and check.detail == "25 cases"
    # a partial norm in place of its orbit product is wrong wherever m > 1
    monkeypatch.setattr(suites, "partial_norm_product", lambda n, steps, j: partial_norm(n, 1, j))
    check = _coverage_check(name)
    assert not check.passed
    assert check.detail.startswith("25 cases; first disagreement: {'n': ")
    assert "'s': SElement(" in check.detail


def test_tau_symmetrization_check_compares_the_cyclotomic_units(monkeypatch):
    from sdpcert import coverage
    from sdpcert.group_ring import TauData

    name = "tau-symmetrization lands in the fixed ring"
    def all_steps(n, r):
        # the norm over all of <r> in place of the norm over <r>/{+-1}
        return [pow(r, k, n) for k in range(TauData(n, r).m)]

    monkeypatch.setattr(coverage, "coset_steps", all_steps)
    check = _coverage_check(name)
    assert not check.passed
    assert check.detail.startswith("25 cases; first disagreement: {'n': ")


def test_prime_case_reduction_check_names_the_first_failure(monkeypatch):
    from sdpcert import coverage

    name = "prime-case reduction returns a generator of the action image"
    assert _coverage_check(name).detail == "20 cases"
    monkeypatch.setattr(coverage, "reduce_to_cyclic", lambda p, images: (2, 1))
    check = _coverage_check(name)
    assert not check.passed
    assert check.detail.startswith("20 cases; first disagreement: {'p': ")
    assert "'images': [" in check.detail


def test_depth_flag_is_gone(capsys):
    for command in (["coverage", "--n", "5", "--r", "4"],
                    ["certificate", "--n", "5", "--r", "4", "--l", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--depth", "0"])
        assert exc.value.code == EXIT_USAGE
        assert "--depth" in capsys.readouterr().err


def test_certificate_success(capsys):
    code, out, _ = run_cli(
        capsys, "certificate", "--n", "3", "--r", "2", "--l", "2", "--format", "json"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    cert = report["results"]["certificate"]
    verification = report["results"]["verification"]
    assert verification["passed"] is True
    assert cert["n"] == 3 and cert["l"] == 2
    names = [c["name"] for c in verification["checks"]]
    assert "exponent-identity" in names
    assert all(c["passed"] for c in verification["checks"])


def test_certificate_identity(capsys):
    code, out, _ = run_cli(
        capsys, "certificate", "--n", "5", "--r", "2", "--l", "1", "--format", "json"
    )
    assert code == EXIT_OK
    cert = json.loads(out)["results"]["certificate"]
    assert cert["alpha_tilde"] == [1, 0, 0, 0, 0]
    assert cert["k"] == 0 and cert["s"] == 0


def test_certificate_not_covered(capsys):
    code, out, _ = run_cli(
        capsys, "certificate", "--n", "7", "--r", "2", "--l", "3", "--format", "json"
    )
    assert code == EXIT_NOT_COVERED
    report = json.loads(out)
    assert report["status"] == "not-covered"
    assert "not covered" in report["results"]["message"]


ENVELOPES = {
    "certificate-not-covered": (["certificate", "--n", "7", "--r", "2", "--l", "3"],
                                {"l": 3, "n": 7, "r": 2, "seed": 0}, "not-covered"),
    "certificate": (["certificate", "--n", "13", "--r", "12", "--l", "5", "--seed", "4"],
                    {"l": 5, "n": 13, "r": 12, "seed": 4}, "ok"),
    "verify": (["verify", "--suite", "monomial", "--seed", "3"], {"seed": 3, "suite": "monomial"}, "ok"),
    "coverage": (["coverage", "--n", "7", "--r", "2", "--exhaustive", "1", "--seed", "5"],
                 {"exhaustive": 1, "n": 7, "r": 2, "seed": 5}, "ok"),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv, inputs, status", ENVELOPES.values(), ids=ENVELOPES)
def test_every_report_is_the_envelope_of_the_command_options(capsys, argv, inputs, status, fmt):
    # inputs holds the options but --format, and never the command
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == (EXIT_OK if status == "ok" else EXIT_NOT_COVERED)
    if fmt == "json":
        report = json.loads(out)
        assert sorted(report) == ["command", "inputs", "results", "status"]
        assert (report["command"], report["inputs"], report["status"]) == (argv[0], inputs, status)
    else:
        head = ["command: " + argv[0], *render_text({"inputs": inputs}), "results:"]
        assert out.split("\n")[:len(head)] == head
        assert out.endswith(f"\nstatus: {status}\n")


def test_certificate_usage_error(capsys):
    code, _, err = run_cli(capsys, "certificate", "--n", "6", "--r", "5", "--l", "3")
    assert code == EXIT_USAGE
    assert "coprime" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("n", [10**20, 2**63])
@pytest.mark.parametrize("command", [["coverage"], ["certificate", "--l", "1"]],
                         ids=["coverage", "certificate"])
def test_an_n_too_large_to_index_is_a_usage_error(capsys, command, n, fmt):
    # past sys.maxsize no array of n entries can be made: refused before any work
    code, out, err = run_cli(capsys, *command, "--n", str(n), "--r", "1", "--format", fmt)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: --n must be at most {sys.maxsize}, the platform's largest size\n"


def test_verify_tower_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "tower", "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    names = [c["name"] for c in report["results"]["suites"]["tower"]]
    assert "tau-hat commutes with fixed monomials" in names
    assert report["results"]["passed"] is True


def test_verify_seeded_determinism(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "crossed", "--seed", "7", "--format", "json"
        )
        assert code == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_coverage_text_determinism(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "coverage", "--n", "7", "--r", "6")
        assert code == EXIT_OK
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "is_full: true" in outputs[0]


def test_verify_all_aggregates(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "all", "--format", "json"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert set(report["results"]["suites"]) == {
        "coverage", "crossed", "group-ring", "monomial", "quotient", "tower",
    }


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == EXIT_USAGE


def dumps(value):
    """The JSON text render must write, from json's own encoder."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# quotes, backslashes, control characters, non-ASCII and astral code points
JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600') | st.characters(),
                    max_size=8)
JSON_INTS = st.integers() | st.integers(min_value=-2**200, max_value=2**200)
JSON_SCALARS = st.none() | st.booleans() | JSON_INTS | JSON_TEXT
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(JSON_INTS, max_size=4)
                   # an int list with true, false or null among its items
                   | st.lists(JSON_INTS | st.booleans() | st.none(), max_size=5)
                   | st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_is_what_json_dumps_writes(value):
    assert render(value, "json") == dumps(value)


def test_json_of_the_edge_cases_is_what_json_dumps_writes():
    value = {
        "z": [], "a": {}, "m": [[], {}, [[]], {"e": {}}],
        "ints": [0, -1, 2**100, -2**100],
        "mixed": [1, True, 0, False, None, -3],
        "text": "\"quoted\" back\\slash \x00\x1f \u00e9 \U0001f600",
        "\u00e9\n": None,
    }
    assert render(value, "json") == dumps(value)
    assert render([True, False], "json") == "[\n  true,\n  false\n]\n"
    assert render({"b": {}, "a": []}, "json") == '{\n  "a": [],\n  "b": {}\n}\n'


@pytest.mark.parametrize("value", [
    1.0, float("nan"), (1, 2), {1, 2}, frozenset(), {1: "a"}, {None: 1}, {("a",): 1},
    [1, 2.5], [1, (2,)], {"a": [{"b": 0.5}]}, {"a": 1, 2: "b"}, b"bytes",
], ids=repr)
def test_json_refuses_what_no_report_holds(value):
    with pytest.raises(TypeError):
        render(value, "json")


def test_main_builds_no_parser(capsys, monkeypatch):
    # the parser is built once, at import
    from sdpcert import cli

    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    monkeypatch.setattr(cli, "_build_parsers", no_parser)
    assert run_cli(capsys, "coverage", "--n", "7", "--r", "6")[0] == EXIT_OK
    assert run_cli(capsys, "certificate", "--n", "5", "--r", "4", "--l", "2")[0] == EXIT_OK


def test_main_runs_the_command_bound_in_the_module_now(capsys, monkeypatch):
    # a tracer rebinds cli.cmd_*; a handler bound into the parser at import would bypass it
    from sdpcert import cli

    calls = []
    original = cli.cmd_coverage

    def counting(args):
        calls.append(args.command)
        return original(args)

    monkeypatch.setattr(cli, "cmd_coverage", counting)
    code, out, _ = run_cli(capsys, "coverage", "--n", "7", "--r", "6", "--format", "json")
    assert code == EXIT_OK and json.loads(out)["command"] == "coverage"
    assert calls == ["coverage"]


def test_the_shared_parser_keeps_no_options_of_an_earlier_call(capsys):
    assert run_cli(capsys, "coverage", "--n", "7", "--r", "2", "--exhaustive", "1",
                   "--seed", "5")[0] == EXIT_OK
    code, out, _ = run_cli(capsys, "coverage", "--n", "7", "--r", "2", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["inputs"] == {"exhaustive": None, "n": 7, "r": 2, "seed": 0}


def test_a_usage_error_leaves_the_shared_parser_as_it_was(capsys):
    from sdpcert.cli import build_parser

    valid = ["coverage", "--n", "7", "--r", "2", "--format", "json"]
    before = run_cli(capsys, *valid)
    errors = []
    for parse in (main, build_parser().parse_args, main):
        with pytest.raises(SystemExit) as exc:
            parse(["coverage", "--n", "5"])
        assert exc.value.code == EXIT_USAGE
        errors.append(capsys.readouterr())
    assert errors[0] == errors[1] == errors[2]
    assert errors[0].out == "" and "required: --r" in errors[0].err
    assert run_cli(capsys, *valid) == before


def load_tool(name):
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_cli_digest():
    return load_tool("cli_digest")


CODE_LINES_SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class Point:
    """Class docstring."""

    def norm(self):
        """Function docstring,

        over three lines."""
        total = (
            1 + 2
        )
        text = """a string over
        two lines"""
        return total, text
'''


def test_code_lines_counts_only_code(tmp_path, capsys):
    code_lines = load_tool("code_lines")
    # import, class, def, the three-line statement, the two-line string and return
    assert code_lines.code_lines(CODE_LINES_SAMPLE) == 1 + 1 + 1 + 3 + 2 + 1
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "a.py").write_text(CODE_LINES_SAMPLE)
    (tmp_path / "notes.txt").write_text("x = 1\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        f"9 {tmp_path / 'a.py'}", f"2 {tmp_path / 'pkg' / 'b.py'}", "11 total",
    ]


def test_the_digest_refuses_a_failing_verify(capsys, monkeypatch):
    from sdpcert import coverage

    digest = load_cli_digest()
    argv = ["verify", "--suite", "coverage", "--seed", "0", "--format", "text"]
    monkeypatch.setattr(digest, "invocations", lambda: [argv, ["verify", "--suite", "nope"]])
    monkeypatch.setattr(digest, "DEMOS", ())
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "path", sys.path[:])  # main puts src first on it
    digest.main()
    assert capsys.readouterr().out.startswith("2 outputs, sha256 ")
    monkeypatch.setattr(coverage, "cyclotomic_unit_inverse", off_by_one_inverse)
    with pytest.raises(SystemExit) as exc:
        digest.main()
    assert exc.value.code == f"verify exited 1: {argv}"
    assert capsys.readouterr().out == ""


# beyond the digest's argument lists: leftovers, "--" tails, an attached value, an
# abbreviated option, help after a command, options before the command, no command
PARSE_EXTRAS = (
    ["coverage", "--n", "5", "--r", "1", "extra"],
    ["verify", "--suite", "all", "extra", "more"],
    ["coverage", "extra", "--n", "5", "--r", "1"],
    ["certificate", "--n", "5", "--r", "4", "--l", "2", "--", "--x"],
    ["coverage", "--n", "5", "--r", "1", "--"],
    ["coverage", "--", "--n", "5", "--r", "1"],
    ["coverage", "--n=5", "--r=1"],
    ["coverage", "--n", "5", "--r", "1", "--form", "json"],
    ["coverage", "--n", "5", "--r", "1", "--ex", "1", "--se", "3"],
    ["coverage", "--n", "5", "--r", "1", "--n", "7"],
    ["coverage", "--n", "5", "--r", "1", "--format", "xml"],
    ["coverage", "--n", "5", "--r", "1", "--seed"],
    ["coverage", "--n", "5", "--r", "1", "--bogus", "1"],
    ["certificate", "-h"],
    ["verify", "--suite", "all", "--help"],
    ["coverage", "--he"],
    ["--n", "5", "coverage", "--r", "1"],
    ["--format", "json", "verify", "--suite", "all"],
    ["-h", "coverage"],
    ["--", "coverage", "--n", "5", "--r", "1"],
    ["nope", "--n", "5"],
    ["coverage"],
    [],
)


def parse_outcome(parse, argv):
    """(vars of the namespace or None, exit code or None, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    namespace = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


def test_a_command_is_parsed_as_the_top_level_parser_parses_it(monkeypatch):
    # the command's own subparser, then the top-level report of leftovers, must give
    # what argparse's two nested passes give, help texts and usage errors included
    from sdpcert import cli

    monkeypatch.setenv("COLUMNS", "80")
    argvs = [*load_cli_digest().invocations(), *PARSE_EXTRAS]
    assert len(argvs) > 2200
    exits = 0
    for argv in argvs:
        expected = parse_outcome(cli._PARSER.parse_args, argv)
        assert parse_outcome(cli._parse, argv) == expected, argv
        exits += expected[1] is not None
    assert exits >= 25


def test_leftovers_after_a_command_are_reported_under_the_top_level_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certificate", "--n", "5", "--r", "4", "--l", "2", "--", "--x"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage: sdpcert [-h] {coverage,certificate,verify} ...\n")
    assert err.endswith("sdpcert: error: unrecognized arguments: -- --x\n")


def test_the_commands_are_the_subparsers_of_the_parser():
    from sdpcert import cli

    assert list(cli._COMMANDS) == ["coverage", "certificate", "verify"]
    assert all(parser.prog == f"sdpcert {name}" for name, parser in cli._COMMANDS.items())


CASE_COUNTS = {
    "group-ring": {
        "ring laws on random triples": 60,
        "augmentation is a ring homomorphism": 40,
        "partial-norm identity": 60,
        "tau acts as a ring automorphism of order dividing m": 40,
    },
    "quotient": {
        "reduction kernel is exactly the norm line": 40,
        "eps-bar commutes with reduction mod n": 60,
        "unit criterion matches the linear-solve oracle": 150,
        "canonical lifts of fixed elements are fixed": 100,
        "tau preserves units and eps-bar": 40,
        "modular norm equals the Bareiss resultant up to sign": 60,
    },
    "coverage": {
        "dihedral coverage is the full unit group for odd n <= 15": 7,
        "tau-symmetrization lands in the fixed ring": 25,
        "generator coverage agrees with the bounded oracle": 10,
        "prime-case reduction returns a generator of the action image": 20,
    },
    "monomial": {
        "composition of norm-set maps is associative": 40,
        "tau-conjugation is multiplicative": 40,
        "shift maps compose additively": 40,
        "monomials commute with shifts via the augmentation": 40,
        "canonical and raw forms act identically on points": 25,
        "certificates verify for every covered residue": 16,
    },
    "tower": {
        "s3 construction self-checks": 8,
        "norm is sigma-fixed and multiplicative": 20,
        "tau-hat preserves norm sets": 12,
        "tau-hat squares to the identity": 12,
        "tau-hat commutes with fixed monomials": 288,
        "phi_k commutes with tau-hat": 84,
        "monomial/shift commutation and norm bookkeeping on points": 20,
        "fixture round trip reproduces the tower": 1,
    },
    "crossed": {
        "partial-norm chains satisfy delta z = c": 26,
        "chain/ideal round trips are mutually inverse": 26,
        "ideals have dimension n^2 - n": 26,
        "corrupted cocycle breaks associativity": 1,
        "corrupted chains are rejected": 26,
        "norm-element identity on a spanning set": 30,
        "tau(u)*tau(x) = tau(sigma(x))*tau(u)": 6,
        "tau is multiplicative on the algebra": 81,
        "tau^m fixes u": 1,
        "v^n = b^l": 1,
        "v*x = sigma(x)*v": 2,
    },
}
# one fact each, whose detail states the compared values
PROSE_CHECKS = {
    "tau(u^n) = tau(b)",
    "subalgebra has dimension n^2",
    "fixed subfields have degrees m and n",
}


def counted_details(suite):
    return {name: f"{count} case" + "s" * (count != 1) for name, count in CASE_COUNTS[suite].items()}


@pytest.mark.parametrize("suite", sorted(CASE_COUNTS))
def test_seeded_checks_report_their_case_counts(suite):
    from sdpcert import suites

    details = {c.name: c.detail for c in suites.SUITES[suite]() if c.name in CASE_COUNTS[suite]}
    assert details == counted_details(suite)


def test_every_check_but_three_reports_a_case_count():
    from sdpcert import suites

    outcome = suites.run_suites(sorted(suites.SUITES))
    assert sorted(outcome) == sorted(CASE_COUNTS)
    prose = {c.name for suite, checks in outcome.items() for c in checks
             if c.name not in CASE_COUNTS[suite]}
    assert prose == PROSE_CHECKS
    assert sum(map(len, outcome.values())) == 42


def off_by_one_inverse(n, steps, a):
    """coverage.cyclotomic_unit_inverse with one term too many in its partial norm."""
    from sdpcert.group_ring import GroupRingElement, partial_norm_product
    from sdpcert.quotient import reduce

    rotation = GroupRingElement.sigma_power(n, (a - 1) // 2 * sum(steps))
    return reduce(rotation * partial_norm_product(n, [a * t % n for t in steps], pow(a, -1, n) + 1))


def test_verify_reports_a_check_that_raises(capsys, monkeypatch):
    from sdpcert import coverage, suites

    monkeypatch.setattr(coverage, "cyclotomic_unit_inverse", off_by_one_inverse)
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == EXIT_CHECK_FAILURE and err == ""
    reported = json.loads(out)["results"]["suites"]
    assert sorted(reported) == sorted(suites.SUITES)
    failed = {c["name"]: c["detail"]
              for checks in reported.values() for c in checks if not c["passed"]}
    assert sorted(failed) == [
        "certificates verify for every covered residue",
        "dihedral coverage is the full unit group for odd n <= 15",
        "generator coverage agrees with the bounded oracle",
    ]
    assert failed["dihedral coverage is the full unit group for odd n <= 15"] == (
        "2 cases; first disagreement: case 2 raised "
        "RuntimeError('cyclotomic unit for a = 3 failed its check at n = 5')"
    )
    for detail in failed.values():
        count = detail.split(" ")[0]
        assert f"; first disagreement: case {count} raised RuntimeError('cyclotomic unit" in detail


def test_verify_reports_a_suite_that_raises_outside_its_cases(capsys, monkeypatch):
    from sdpcert import tower

    def no_tower():
        raise RuntimeError("injected")

    _, out, _ = run_cli(capsys, "verify", "--suite", "crossed", "--format", "json")
    unfaulted = json.loads(out)["results"]["suites"]["crossed"]
    monkeypatch.setattr(tower, "builtin_s3", no_tower)
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == EXIT_CHECK_FAILURE and err == ""
    reported = json.loads(out)["results"]["suites"]
    assert reported["tower"] == [
        {"name": "tower suite", "passed": False, "detail": "raised RuntimeError('injected')"}
    ]
    # the crossed suite builds the same tower inside the cases of its four tau-action
    # checks and of its four chain checks, after their 20 finite instances: those eight
    # fail and name the error, and its other five checks are as without the fault
    raised = "raised RuntimeError('injected')"
    counted = f"1 case; first disagreement: case 1 {raised}"
    chains = f"21 cases; first disagreement: case 21 {raised}"
    failed = {"tau(u)*tau(x) = tau(sigma(x))*tau(u)": counted, "tau(u^n) = tau(b)": raised,
              "tau is multiplicative on the algebra": counted, "tau^m fixes u": counted,
              "partial-norm chains satisfy delta z = c": chains,
              "chain/ideal round trips are mutually inverse": chains,
              "ideals have dimension n^2 - n": chains, "corrupted chains are rejected": chains}
    assert reported["crossed"] == [
        {"name": c["name"], "passed": False, "detail": failed[c["name"]]}
        if c["name"] in failed else c
        for c in unfaulted
    ]
    assert len(unfaulted) == 13 and all(c["passed"] for c in unfaulted)
    for suite in ("group-ring", "quotient", "coverage", "monomial"):
        assert {c["name"]: c["detail"] for c in reported[suite]} == counted_details(suite), suite


def test_crossed_tau_action_checks_name_the_first_failure(monkeypatch):
    from sdpcert import crossed, tower

    s3 = tower.builtin_s3()
    algebra = crossed.CrossedProduct(s3)
    # lambda = 1 breaks tau(u)^3 = tau(b), first in u * u^2 = b
    monkeypatch.setattr(s3, "lam", s3.one)
    checks = {c.name: c for c in crossed.tau_action_check(algebra)}
    check = checks["tau is multiplicative on the algebra"]
    assert not check.passed
    assert check.detail == "81 cases; first disagreement: {'basis pair': (3, 6)}"
    assert checks["tau(u)*tau(x) = tau(sigma(x))*tau(u)"].detail == "6 cases"


def test_crossed_checks_of_u_x_name_the_first_failure(monkeypatch):
    import random

    from sdpcert import crossed, tower

    s3_algebra = crossed.CrossedProduct(tower.builtin_s3())
    small, _, _ = crossed.random_cyclic_instance(3, 2, random.Random(0))

    # u x = x u in place of u x = sigma(x) u fails at the first x outside the base field
    monkeypatch.setattr(crossed.CrossedProduct, "multiply", commuting_multiply)
    check = next(c for c in crossed.tau_action_check(s3_algebra)
                 if c.name == "tau(u)*tau(x) = tau(sigma(x))*tau(u)")
    assert not check.passed
    assert check.detail == (
        "6 cases; first disagreement: {'x': TowerElement(['0', '1', '0', '0', '0', '0'])}"
    )
    check = next(c for c in crossed.tensor_power_check(small, 2) if c.name == "v*x = sigma(x)*v")
    assert not check.passed
    assert check.detail == "2 cases; first disagreement: {'x': ExtFieldElement([0, 1])}"


def test_group_ring_check_names_the_first_failure(monkeypatch):
    from sdpcert import suites

    # a partial norm one term short breaks the identity wherever the length is positive
    real = suites.partial_norm
    monkeypatch.setattr(suites, "partial_norm", lambda n, g, j: real(n, g, max(j - 1, 0)))
    check = next(c for c in suites.suite_group_ring() if c.name == "partial-norm identity")
    assert not check.passed
    assert check.detail.startswith("60 cases; first disagreement: {'n': ")
    assert "'g': " in check.detail and "'j': " in check.detail


def test_quotient_check_names_the_first_failure(monkeypatch):
    from sdpcert import suites

    monkeypatch.setattr(suites, "eps_bar", lambda s: sum(s.coeffs) % s.n + 1)
    name = "eps-bar commutes with reduction mod n"
    check = next(c for c in suites.suite_quotient() if c.name == name)
    assert not check.passed
    assert check.detail.startswith("60 cases; first disagreement: {'n': ")
    assert "'p': (" in check.detail


def test_monomial_check_names_the_first_failure(monkeypatch):
    from sdpcert import monomial, suites

    failed = monomial.VerificationRecord((monomial.CheckResult("injected", False),))
    monkeypatch.setattr(monomial, "verify_certificate", lambda cert: failed)
    name = "certificates verify for every covered residue"
    check = next(c for c in suites.suite_monomial() if c.name == name)
    assert not check.passed
    assert check.detail == "16 cases; first disagreement: {'n': 3, 'r': 1, 'l': 1}"


def test_tower_check_names_the_first_failure(monkeypatch):
    from sdpcert import suites, tower

    # tau-hat followed by multiplication with the norm-1 unit zeta stays in the norm
    # set but is not an involution
    real = tower.tau_hat

    def tau_hat_times_zeta(tw, pt):
        image = real(tw, pt)
        return dataclasses.replace(image, x=image.x * tw.basis_element(3))

    monkeypatch.setattr(tower, "tau_hat", tau_hat_times_zeta)
    check = next(c for c in suites.suite_tower() if c.name == "tau-hat squares to the identity")
    assert not check.passed
    assert check.detail == (
        "12 cases; first disagreement: "
        "{'x': TowerElement(['1', '0', '0', '0', '0', '0']), 'k': 0}"
    )


def test_tower_fixed_degrees_check_fails_alone_when_rank_raises(monkeypatch):
    from sdpcert import linalg, suites

    name = "fixed subfields have degrees m and n"
    others = [c for c in suites.suite_tower() if c.name != name]
    real = linalg.rank_rational

    def rank_raising_in_suites(rows):
        # building a tower ranks matrices too; only the suite's own rank call raises
        if sys._getframe(1).f_globals["__name__"] == "sdpcert.suites":
            raise ArithmeticError("rank failed")
        return real(rows)

    monkeypatch.setattr(linalg, "rank_rational", rank_raising_in_suites)
    checks = suites.suite_tower()
    assert [c for c in checks if c.name != name] == others
    check = next(c for c in checks if c.name == name)
    assert not check.passed
    assert check.detail == "raised ArithmeticError('rank failed')"


def test_crossed_check_names_the_first_failure(monkeypatch):
    from sdpcert import crossed, suites

    monkeypatch.setattr(crossed, "corrupt_chain", lambda algebra, chain: chain)
    check = next(c for c in suites.suite_crossed() if c.name == "corrupted chains are rejected")
    assert not check.passed
    assert check.detail.startswith("26 cases; first disagreement: {'tower': 'FiniteTower(q=")
    assert "'chain': (ExtFieldElement(" in check.detail


NUMPY_PROBE = """
import contextlib, io, sys
import sdpcert, sdpcert.cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        sdpcert.cli.main(list(argv))
    return "numpy" in sys.modules

print(run("coverage", "--n", "21", "--r", "20"),
      run("certificate", "--n", "13", "--r", "12", "--l", "5"),
      run("coverage", "--n", "1009", "--r", "1008", "--exhaustive", "2"),
      run("coverage", "--n", "5", "--r", "4", "--exhaustive", "1"))
"""


def test_numpy_loads_only_when_the_oracle_runs():
    # a fresh interpreter: the test session itself has numpy loaded already
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", NUMPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # the refused oracle, third, stops at its guard before numpy is imported
    assert done.stdout.split() == ["False", "False", "False", "True"]


TRACE_PROBE = """
import contextlib, io
import sdpcert.cli
from perfbench.tracer import profile_counts

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        sdpcert.cli.main(list(argv))

for argv in (("coverage", "--n", "25", "--r", "24"),
             ("certificate", "--n", "13", "--r", "12", "--l", "5"),
             ("coverage", "--n", "7", "--r", "1", "--exhaustive", "2")):
    first = profile_counts(lambda: run(*argv))
    second = profile_counts(lambda: run(*argv))
    print(bool(first) and first == second)
"""


def test_a_command_makes_the_same_traced_calls_cold_and_warm():
    # a traced benchmark run requires equal per-layer call counts in every round; a
    # cache whose miss path calls a traced function makes the cold first round differ.
    # A fresh interpreter, so that every cache starts cold
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    done = subprocess.run([sys.executable, "-c", TRACE_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True", "True"]


MODULES_PROBE = """
import contextlib, io, sys
import sdpcert

argv = sys.argv[1:]
if argv:
    import sdpcert.cli
    with contextlib.redirect_stdout(io.StringIO()):
        sdpcert.cli.main(argv)
print(" ".join(sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("sdpcert."))))
"""

SRC = Path(__file__).resolve().parent.parent / "src"
COMMAND_MODULES = "_element _primes checks cli coverage group_ring monomial quotient"
ALL_MODULES = " ".join(sorted(p.stem for p in (SRC / "sdpcert").glob("*.py")
                              if p.stem not in ("__init__", "__main__")))


@pytest.mark.parametrize("argv, modules", [
    ([], ""),
    (["coverage", "--n", "21", "--r", "20"], COMMAND_MODULES),
    (["certificate", "--n", "13", "--r", "12", "--l", "5"], COMMAND_MODULES),
    (["verify", "--suite", "all"], ALL_MODULES),
    (["verify", "--suite", "group-ring"], " ".join(sorted([*COMMAND_MODULES.split(), "suites"]))),
    (["verify", "--suite", "tower"], " ".join(sorted(
        [*COMMAND_MODULES.split(), "finitefield", "linalg", "suites", "tower"]))),
], ids=["import", "coverage", "certificate", "verify", "verify-group-ring", "verify-tower"])
def test_each_command_loads_only_its_modules(argv, modules):
    # a fresh interpreter: the test session itself has every module loaded already
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", MODULES_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == modules


# The package's public names and the modules they come from, as its eager
# imports bound them; norm is tower.norm, not quotient.norm.
EXPORTED_FROM = {
    "checks": "CheckResult all_passed",
    "coverage": "CoverageReport SearchSpaceTooLargeError coverage_subgroup exhaustive_fixed_units "
                "fixed_unit_generators reduce_to_cyclic subgroup_closure tau_symmetrize "
                "unit_witness",
    "crossed": "CrossedProduct LeftIdeal SplittingChain chain_from_ideal chain_from_unit "
               "cocycle_condition_holds ideal_from_chain is_splitting_chain norm_element_check "
               "random_cyclic_instance standard_cyclic_cocycle tau_action_check tensor_power_check",
    "group_ring": "GroupRingElement OrderMismatchError TauData full_norm partial_norm",
    "monomial": "Certificate ExponentMismatchError NormSetMap NotCoveredError VerificationRecord "
                "compose is_identity make_certificate monomial_map shift_map tau_conjugate "
                "verify_certificate",
    "quotient": "NotInvertibleError SElement eps_bar invert is_unit lift reduce tau_apply_s",
    "tower": "FiniteTower NormSetPoint NumberTower apply_monomial apply_monomial_point "
             "builtin_s3 dump_tower load_tower make_norm_point norm phi_k_apply "
             "radical_tower tau_hat",
}
EXPORTS = {name: module for module, names in EXPORTED_FROM.items() for name in names.split()}


def test_every_export_is_the_object_of_its_module():
    import importlib

    import sdpcert
    from sdpcert import quotient, tower

    assert len(EXPORTS) == 62
    assert sorted(sdpcert.__all__) == sorted(EXPORTS)
    for name, module in EXPORTS.items():
        expected = getattr(importlib.import_module(f"sdpcert.{module}"), name)
        assert getattr(sdpcert, name) is expected, name
    assert sdpcert.norm is tower.norm and sdpcert.norm is not quotient.norm


def test_star_import_and_dir_list_every_export():
    import sdpcert

    namespace = {}
    exec("from sdpcert import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert all(namespace[name] is getattr(sdpcert, name) for name in EXPORTS)
    assert set(EXPORTS) <= set(dir(sdpcert))


def test_unknown_name_is_an_attribute_error():
    import sdpcert

    with pytest.raises(AttributeError, match="no_such_name"):
        sdpcert.no_such_name  # noqa: B018
    assert not hasattr(sdpcert, "no_such_name")


def test_suite_choices_are_the_suites():
    import argparse

    from sdpcert import cli, suites

    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert list(suite.choices) == sorted(suites.SUITES) + ["all"]
