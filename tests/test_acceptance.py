"""Acceptance gate: one test per reference criterion.

Each test delegates to the matching golden-suite check so pytest -v
prints a single pass/fail line per criterion; the detail string carries
the measured values and tolerances on failure. The suite runner itself
is tested on stub criteria, so every criterion runs once per test run.
"""

import io

from reachkit import golden


def _run(check):
    ok, detail = check()
    assert ok, detail


def test_a1_conservative_bound_constants():
    _run(golden.check_a1)


def test_a2_assembled_halfspace_table():
    _run(golden.check_a2)


def test_a3_subsystem_vertex_list():
    _run(golden.check_a3)


def test_a4_hull_bloat_constants():
    _run(golden.check_a4)


def test_a5_containment_soundness_sweep():
    _run(golden.check_a5)


def test_a6_subsystem_boundedness():
    _run(golden.check_a6)


def test_a7_boundary_classification():
    _run(golden.check_a7)


def test_a8_boundary_sweep_equivalence():
    _run(golden.check_a8)


def test_a9_termination_behavior():
    _run(golden.check_a9)


def test_a10_mode_ordering():
    _run(golden.check_a10)


def test_a11_numerical_kernels():
    _run(golden.check_a11)


def test_a12_hybrid_semi_decision():
    _run(golden.check_a12)


def test_suite_runs_exactly_the_tested_checks():
    # the per-criterion tests above call these same functions
    want = [(f"A{i}", getattr(golden, f"check_a{i}")) for i in range(1, 13)]
    assert [(cid, fn) for cid, _, fn in golden.CRITERIA] == want


def _run_stub_suite(monkeypatch, *checks):
    criteria = [(f"S{i}", "stub", fn) for i, fn in enumerate(checks, 1)]
    monkeypatch.setattr(golden, "CRITERIA", criteria)
    out = io.StringIO()
    code = golden.run_golden_suite(out)
    return code, out.getvalue().splitlines()


def test_suite_reports_all_pass(monkeypatch):
    code, lines = _run_stub_suite(monkeypatch, lambda: (True, "fine"), lambda: (True, "also fine"))
    assert code == 0
    assert lines[-1] == "2/2 criteria passed"
    assert lines[1].split()[:2] == ["S1", "PASS"] and lines[1].endswith("fine")


def test_suite_counts_a_failure_and_a_crash(monkeypatch):
    def crash():
        raise RuntimeError("boom")

    code, lines = _run_stub_suite(monkeypatch, lambda: (True, "ok"), lambda: (False, "off"), crash)
    assert code == 1
    assert lines[-1] == "1/3 criteria passed"
    assert lines[2].split()[:2] == ["S2", "FAIL"] and lines[2].endswith("off")
    assert lines[3].split()[:2] == ["S3", "FAIL"] and lines[3].endswith("RuntimeError: boom")
