"""Command-line front end: coverage reports, certificates, verification suites."""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii
from math import gcd

from . import coverage as cov
from .checks import all_passed
from .monomial import NotCoveredError, make_certificate, verify_certificate
from .quotient import eps_bar

# sorted(suites.SUITES), spelled out so that suites, and with it the model
# layers, is imported only when verify runs
SUITE_NAMES = ("coverage", "crossed", "group-ring", "monomial", "quotient", "tower")

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NOT_COVERED = 3

_STATUS_TO_EXIT = {
    "ok": EXIT_OK,
    "check-failure": EXIT_CHECK_FAILURE,
    "usage-error": EXIT_USAGE,
    "not-covered": EXIT_NOT_COVERED,
}


class UsageError(ValueError):
    pass


def _coverage_payload(report):
    return {
        "n": report.n,
        "r": report.r,
        "m": report.m,
        "strategy": report.strategy,
        "generators": [
            {"coeffs": list(unit.coeffs), "residue": residue}
            for unit, residue in report.generators
        ],
        "subgroup": list(report.subgroup),
        "is_full": report.is_full,
    }


def _check_n_r(args):
    if args.n < 2:
        raise UsageError("--n must be at least 2")
    if not 1 <= args.r < args.n or gcd(args.r, args.n) != 1:
        raise UsageError(f"--r must lie in [1, {args.n - 1}] and be coprime to --n")


def cmd_coverage(args):
    _check_n_r(args)
    if args.exhaustive is not None and args.exhaustive < 0:
        raise UsageError("--exhaustive must be non-negative")
    if args.exhaustive is not None:
        # the oracle first, so that its size guard refuses before any coverage work
        try:
            units = cov.exhaustive_fixed_units(args.n, args.r, args.exhaustive)
        except cov.SearchSpaceTooLargeError as exc:
            raise UsageError(f"--exhaustive {args.exhaustive}: {exc}") from exc
    report = cov.coverage_subgroup(args.n, args.r)
    problems = cov.verify_report(report)
    results = {"coverage": _coverage_payload(report)}
    status = "ok" if not problems else "check-failure"
    if problems:
        results["problems"] = sorted(problems)
    if args.exhaustive is not None:
        residues = sorted({eps_bar(u) for u in units})
        oracle_subgroup = cov.subgroup_closure(residues, args.n)
        # the report is a verified lower bound: only a residue beyond it is a failure
        oracle_only = sorted(set(oracle_subgroup) - set(report.subgroup))
        results["oracle"] = {
            "bound": args.exhaustive,
            "residues": residues,
            "subgroup": list(oracle_subgroup),
            "unit_count": len(units),
            "agrees": oracle_subgroup == report.subgroup,
            "oracle_only": oracle_only,
            "report_only": sorted(set(report.subgroup) - set(oracle_subgroup)),
        }
        if oracle_only:
            status = "check-failure"
    return {
        "command": "coverage",
        "inputs": {
            "exhaustive": args.exhaustive,
            "n": args.n,
            "r": args.r,
            "seed": args.seed,
        },
        "results": results,
        "status": status,
    }


def cmd_certificate(args):
    _check_n_r(args)
    if gcd(args.l, args.n) != 1:
        raise UsageError("--l must be coprime to --n")
    inputs = {
        "l": args.l,
        "n": args.n,
        "r": args.r,
        "seed": args.seed,
    }
    try:
        cert = make_certificate(args.n, args.r, args.l)
    except NotCoveredError as exc:
        return {
            "command": "certificate",
            "inputs": inputs,
            "results": {"message": str(exc)},
            "status": "not-covered",
        }
    record = verify_certificate(cert)
    return {
        "command": "certificate",
        "inputs": inputs,
        "results": {
            "certificate": {
                "alpha_tilde": list(cert.alpha_tilde.coeffs),
                "beta_tilde": list(cert.beta_tilde.coeffs),
                "k": cert.k,
                "l": cert.l,
                "n": cert.n,
                "r": cert.r,
                "s": cert.s,
            },
            "verification": {
                "checks": [c.as_dict() for c in record.checks],
                "passed": record.passed,
            },
        },
        "status": "ok" if record.passed else "check-failure",
    }


def cmd_verify(args):
    from .suites import run_suites

    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    outcome = run_suites(names, args.seed)
    passed = all(all_passed(checks) for checks in outcome.values())
    return {
        "command": "verify",
        "inputs": {"seed": args.seed, "suite": args.suite},
        "results": {
            "passed": passed,
            "suites": {
                name: [c.as_dict() for c in checks] for name, checks in outcome.items()
            },
        },
        "status": "ok" if passed else "check-failure",
    }


def _render_scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


def render_text(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.extend(render_text(item, indent + 1))
            else:
                rendered = "[]" if isinstance(item, list) else "{}" if isinstance(item, dict) else _render_scalar(item)
                lines.append(f"{pad}{key}: {rendered}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_render_scalar(item)}")
    else:
        lines.append(f"{pad}{_render_scalar(value)}")
    return lines


def _write_json(value, pad, out):
    """Append value as JSON to the list of strings out, its lines after the first indented by pad.

    The text is json.dumps(value, sort_keys=True, indent=2): strings go
    through json's own C escaper, and keys are written sorted. Only dicts
    with str keys, lists, str, int, True, False and None are written; any
    other value, a float or a tuple included, raises TypeError.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        separator = "{\n" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            out.append(separator)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(value[key], inner, out)
            separator = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        # exact ints only: a bool is an int, but is written true or false
        if all(type(item) is int for item in value):
            out.append("[\n" + inner + (",\n" + inner).join(map(int.__repr__, value)) + "\n" + pad + "]")
            return
        separator = "[\n" + inner
        for item in value:
            out.append(separator)
            _write_json(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + pad + "]")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"cannot write {type(value).__name__} as JSON")


def render(report, fmt):
    if fmt == "json":
        out = []
        _write_json(report, "", out)
        out.append("\n")
        return "".join(out)
    return "\n".join(render_text(report)) + "\n"


def build_parser():
    return _build_parsers()[0]


def _build_parsers():
    """The sdpcert parser, and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="sdpcert",
        description=(
            "Exact computations for cyclic crossed products: coverage of unit "
            "residues, birational-map certificates, and module verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cov = sub.add_parser("coverage", help="report the covered subgroup of (Z/nZ)*")
    p_cov.add_argument("--n", type=int, required=True, help="cyclic group order")
    p_cov.add_argument("--r", type=int, required=True, help="conjugation exponent, coprime to n")
    p_cov.add_argument(
        "--exhaustive",
        type=int,
        default=None,
        metavar="B",
        help="also run the exhaustive oracle with coefficient bound B",
    )

    p_cert = sub.add_parser("certificate", help="build and verify a certificate for residue l")
    p_cert.add_argument("--n", type=int, required=True)
    p_cert.add_argument("--r", type=int, required=True)
    p_cert.add_argument("--l", type=int, required=True, help="target residue, coprime to n")

    p_verify = sub.add_parser("verify", help="run a module property suite")
    p_verify.add_argument(
        "--suite",
        choices=[*SUITE_NAMES, "all"],
        required=True,
    )

    for p in (p_cov, p_cert, p_verify):
        p.add_argument("--seed", type=int, default=0, help="seed for all randomized checks")
        p.add_argument("--format", choices=["json", "text"], default="text")
    return parser, sub.choices


# built once, eagerly at import: no call of main pays for it, and every call
# makes the same traced calls
_PARSER, _COMMANDS = _build_parsers()


def _parse(argv):
    """The namespace _PARSER.parse_args(argv) returns, parsed by the command's own subparser.

    When argv[0] names a command, argparse's top-level pass would hand every
    later argument to that command's subparser and only report what it left
    over. Anything else (--help, no command, an unknown one) takes that pass.
    """
    if not argv or argv[0] not in _COMMANDS:
        return _PARSER.parse_args(argv)
    args, extras = _COMMANDS[argv[0]].parse_known_args(argv[1:])
    if extras:
        # the top-level parser reports leftovers, under its own usage line
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    # looked up per call, so that a rebound cli.cmd_* is the one that runs
    handler = {"certificate": cmd_certificate, "coverage": cmd_coverage, "verify": cmd_verify}
    try:
        report = handler[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(render(report, args.format))
    return _STATUS_TO_EXIT[report["status"]]


if __name__ == "__main__":
    raise SystemExit(main())
