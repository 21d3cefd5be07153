"""One SHA-256 digest over the outputs of the sdpcert command and the demos.

A change meant to keep every output byte-identical must print the same count
and digest as its parent. Run from anywhere:

    python tools/cli_digest.py

The commands run in this process, through cli.main; each record is the
argument list, the exit code, the stdout and the stderr. Besides the valid
commands and the help texts they include usage errors, argparse's and the
program's own, so that a change in what the parser reports shows. The four
demos then run in fresh processes. Help texts are rendered at a fixed width
of 80 columns.

Every JSON stdout is also read back and must equal
json.dumps(json.loads(stdout), sort_keys=True, indent=2) + "\n", the text
the CLI's own writer is meant to reproduce; if one does not, the script
names its argument list and exits 1 without printing the digest. It does the
same when a verify invocation outside the usage errors exits non-zero, so
that a digest never records a failing check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("coverage_tour.py", "certificate_tour.py", "tower_tour.py", "crossed_product_tour.py")
# one of each: argparse's errors (no command, a missing or unparsable option, a
# bad choice, arguments left over after a command, a "--" tail among them) and
# the program's own (UsageError)
USAGE_ERRORS = (
    [],
    ["coverage", "--n", "5"],
    ["coverage", "--n", "x", "--r", "1"],
    ["coverage", "--n", "1", "--r", "1"],
    ["coverage", "--n", "7", "--r", "2", "--exhaustive", "-1"],
    ["certificate", "--n", "13", "--r", "12", "--l", "13"],
    ["verify", "--suite", "nope"],
    ["coverage", "--n", "5", "--r", "1", "extra"],
    ["certificate", "--n", "5", "--r", "4", "--l", "2", "--", "--x"],
)


def coprime_pairs(top):
    return [(n, r) for n in range(2, top + 1) for r in range(1, n) if gcd(n, r) == 1]


def invocations():
    for n, r in coprime_pairs(33):
        yield ["coverage", "--n", str(n), "--r", str(r), "--format", "json"]
    for n, r in coprime_pairs(10):
        yield ["coverage", "--n", str(n), "--r", str(r), "--exhaustive", "2", "--format", "json"]
    for n, r in coprime_pairs(21):
        for l in range(1, n):
            yield ["certificate", "--n", str(n), "--r", str(r), "--l", str(l), "--format", "json"]
    for seed in (0, 1, 7):
        for fmt in ("text", "json"):
            yield ["verify", "--suite", "all", "--seed", str(seed), "--format", fmt]
    yield ["--help"]
    for command in ("coverage", "certificate", "verify"):
        yield [command, "--help"]
    yield from USAGE_ERRORS



def run_cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends --help and its usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, done.stderr


def json_dumps_of(out):
    """json.dumps of what out parses to, or None if out is not JSON."""
    try:
        value = json.loads(out)
    except ValueError:
        return None
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def main():
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, str(ROOT / "src"))
    from sdpcert.cli import main as cli_main

    records = [(argv, *run_cli(cli_main, argv)) for argv in invocations()]
    for argv, code, out, _ in records:
        # a usage error writes nothing to stdout
        if "json" in argv and out and out != json_dumps_of(out):
            sys.exit(f"JSON output differs from json.dumps: {argv}")
        if argv[:1] == ["verify"] and code and argv not in USAGE_ERRORS:
            sys.exit(f"verify exited {code}: {argv}")
    records += [(["demos/" + name], *run_demo(name)) for name in DEMOS]
    digest = hashlib.sha256()
    for record in records:
        digest.update(json.dumps(record).encode() + b"\n")
    print(f"{len(records)} outputs, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
