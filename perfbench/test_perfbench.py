"""Tests of the benchmark itself: checkers reject corrupted outputs, the tracer misses no call."""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

from perfbench import checkers, expected, workloads
from perfbench.tracer import LAYERS, Tracer, layer_of, profile_counts

ROOT = Path(__file__).resolve().parent.parent
FakeUnit = namedtuple("FakeUnit", "coeffs")


def _oracle_op(n, r):
    capture = workloads.UnitCapture()
    return workloads.oracle_op(n, r, capture), capture


def _run_oracle(op, capture):
    capture.install()
    try:
        return op.run()
    finally:
        capture.uninstall()


def _small_ops():
    """One cheap op of each kind, covering all four workloads."""
    from sdpcert import tower

    s3 = tower.builtin_s3()
    x, k, coeffs, shift = workloads.s3_point_inputs(random.Random(3), s3)
    return {
        "coverage": workloads.coverage_op(9, 8),
        "certificate": workloads.certificate_op(7, 6, 3),
        "oracle": _oracle_op(5, 1),
        "s3-point": workloads.s3_point_op(s3, x, k, coeffs, shift),
        "s3-tau-action": workloads.tau_action_op(s3),
        "finite": workloads.finite_op(3, 2, 11),
    }


@pytest.fixture(scope="module")
def small_ops():
    return _small_ops()


def _run(op):
    if isinstance(op, tuple):
        return _run_oracle(*op)
    return op.run()


def _plain(op):
    return op[0] if isinstance(op, tuple) else op


def _edit_json(output, edit):
    code, text = output
    report = json.loads(text)
    edit(report["results"])
    return code, json.dumps(report)


def test_checkers_accept_program_outputs(small_ops):
    for kind, op in small_ops.items():
        assert checkers.check(_plain(op), _run(op)) == [], kind


def test_coverage_checker_rejects_corruption(small_ops):
    op = small_ops["coverage"]
    output = op.run()

    def bump_coefficient(results):
        results["coverage"]["generators"][0]["coeffs"][0] += 1

    def drop_residue(results):
        results["coverage"]["subgroup"].pop()

    for edit in (bump_coefficient, drop_residue):
        assert checkers.check(op, _edit_json(output, edit)), edit.__name__
    # r = n-1 with n odd must be full; a report claiming otherwise fails
    assert checkers.check_coverage_payload(
        {"n": 9, "r": 8, "generators": [], "subgroup": [1], "is_full": False}, 9, 8)


def test_coverage_checker_rejects_lost_coverage():
    # Dropping the generator of residue 6 leaves a self-consistent report
    # with a smaller subgroup; only the recorded coverage catches it.
    code, text = workloads.coverage_op(7, 2).run()
    payload = json.loads(text)["results"]["coverage"]
    assert checkers.check_coverage_payload(payload, 7, 2) == []
    kept = [g for g in payload["generators"] if g["residue"] != 6]
    shrunk = dict(payload, generators=kept, is_full=False,
                  subgroup=list(checkers.closure([g["residue"] for g in kept], 7)))
    problems = checkers.check_coverage_payload(shrunk, 7, 2)
    assert problems == ["subgroup does not contain the recorded coverage (1, 6)"]


def test_every_drawn_pair_has_recorded_coverage():
    for seed in range(1, 11):
        for name in ("coverage", "certificates"):
            for op in workloads.build(name, seed):
                assert expected.covered(op.params["n"], op.params["r"]), op.label
    for n, r in workloads.oracle_pairs():
        assert expected.covered(n, r)


def test_certificate_residues_are_the_recorded_coverage():
    ops = workloads.build("certificates", 1)
    pairs = {(op.params["n"], op.params["r"]) for op in ops}
    assert [op.params["l"] for op in ops if (op.params["n"], op.params["r"]) == (13, 12)] \
        == list(range(1, 13))
    assert sum(len(expected.covered(n, r)) for n, r in pairs) == len(ops)


def test_certificate_checker_rejects_corruption(small_ops):
    op = small_ops["certificate"]
    output = op.run()

    def bump_k(results):
        results["certificate"]["k"] += 1

    def break_inverse(results):
        results["certificate"]["beta_tilde"][0] += 1

    def break_fixedness(results):
        alpha = results["certificate"]["alpha_tilde"]
        alpha[1] += 1
        alpha[0] -= 1

    for edit in (bump_k, break_inverse, break_fixedness):
        assert checkers.check(op, _edit_json(output, edit)), edit.__name__


def test_oracle_checker_rejects_corruption(small_ops):
    op, capture = small_ops["oracle"]
    code, text, units = _run_oracle(op, capture)
    assert checkers.check(op, (code, text, units[1:])), "a missing unit"
    moved = [FakeUnit(tuple(c + 1 for c in units[0].coeffs))] + list(units[1:])
    assert checkers.check(op, (code, text, moved)), "a unit replaced by a non-unit"
    outside = [FakeUnit((3,) + tuple(units[0].coeffs[1:]))] + list(units[1:])
    assert checkers.check(op, (code, text, outside)), "a unit outside the box"


def test_s3_point_checker_rejects_corruption(small_ops):
    from sdpcert.tower import NormSetPoint

    op = small_ops["s3-point"]
    output = op.run()
    image = output["tau_hat"]
    bad = dict(output, tau_hat=NormSetPoint(-image.x, image.k))
    assert checkers.check(op, bad)
    mono = output["monomial"]
    bad = dict(output, monomial=NormSetPoint(mono.x * 2, mono.k))
    assert checkers.check(op, bad)


def test_tau_action_checker_rejects_corruption(small_ops):
    op = small_ops["s3-tau-action"]
    output = op.run()
    bad = [dataclasses.replace(output[0], passed=False)] + list(output[1:])
    assert checkers.check(op, bad)
    assert checkers.check(op, output[1:])


def test_finite_checker_rejects_corruption(small_ops):
    from sdpcert import crossed

    op = small_ops["finite"]
    output = op.run()
    bad_chain = crossed.corrupt_chain(output["algebra"], output["chain"])
    assert checkers.check(op, dict(output, recovered=bad_chain))
    assert checkers.check(op, dict(output, chain=bad_chain, recovered=bad_chain))


def test_orbit_enumeration_matches_brute_force():
    from sdpcert.quotient import SElement, is_unit, tau_apply_s
    from sdpcert.group_ring import TauData

    import itertools

    n, r, bound = 5, 4, 2
    tau = TauData(n, r)
    brute = {
        coeffs
        for coeffs in itertools.product(range(-bound, bound + 1), repeat=n - 1)
        if tau_apply_s(SElement(n, coeffs), tau) == SElement(n, coeffs)
        and is_unit(SElement(n, coeffs))
    }
    assert checkers.fixed_units_by_orbits(n, r, bound) == brute


def _traced_counts(op):
    tracer = Tracer()
    tracer.install()
    try:
        before, _, _ = tracer.snapshot()
        _run(op)
        after, _, _ = tracer.snapshot()
    finally:
        tracer.uninstall()
    return {name: b - a for name, a, b in zip(tracer.names, before, after) if b - a}


def test_tracer_counts_match_setprofile(small_ops):
    for kind, op in small_ops.items():
        traced = _traced_counts(op)
        profiled = profile_counts(lambda: _run(op))
        assert traced == profiled, kind
        assert traced == _traced_counts(op), kind
        per_layer = {layer: sum(c for s, c in traced.items() if layer_of(s) == layer)
                     for layer in LAYERS}
        assert sum(per_layer.values()) == sum(traced.values())


def test_tracer_uninstall_restores_the_program():
    import sdpcert
    from sdpcert import coverage, quotient

    originals = (coverage.is_unit, quotient.is_unit, sdpcert.is_unit, quotient.SElement.__mul__)
    tracer = Tracer()
    tracer.install()
    assert coverage.is_unit is not originals[0] and quotient.is_unit is not originals[1]
    tracer.uninstall()
    assert (coverage.is_unit, quotient.is_unit, sdpcert.is_unit,
            quotient.SElement.__mul__) == originals


def test_reference_kernel_does_not_import_the_program():
    code = "import sys, perfbench.reference; print('sdpcert' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, env={"PYTHONPATH": ""})
    assert done.stdout.strip() == "False", done.stderr


def test_setup_probe_loads_only_the_workloads():
    code = ("import runpy, sys; sys.argv = ['setup_probe.py', 'models', '1']; "
            "runpy.run_path('perfbench/setup_probe.py'); "
            "print(sorted(m for m in sys.modules if m.startswith('perfbench')))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, env={"PYTHONPATH": ""})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "ready", "['perfbench', 'perfbench.expected', 'perfbench.workloads']"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "models", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env={"PYTHONPATH": ""})
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_traced_models_run_is_correct_and_bypasses_s():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "models", "--seed", "2",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, env={"PYTHONPATH": ""})
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    for name in ("coverage.calls", "quotient.calls", "linalg.resultant.calls", "cli.calls"):
        assert metrics[name]["value"] == 0, name
    for name in ("tower.mul.calls", "crossed.multiply.calls", "finitefield.mul.calls"):
        assert metrics[name]["value"] > 0, name
