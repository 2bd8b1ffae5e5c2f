"""End-to-end runs of the batch front end: exit codes, output files,
report determinism, and the plot emitters."""

import hashlib
import json
import math
import os
import re
import warnings

import pytest

import reachkit.golden as golden
from reachkit.cli import run
from reachkit.facelift import classify_boundary
from reachkit.flow import ExpressionDynamics
from reachkit.modelfile import bundled_model_path, load_model


DRIFT = ExpressionDynamics.parse(["1", "1"])


def read_report(out):
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_lines(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return fh.read().splitlines()


def model(name):
    return bundled_model_path(name)


def write_model(tmp_path, data, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# reach


def test_reach_example_two_segments(tmp_path):
    out = str(tmp_path)
    assert run(["reach", model("example1.json"), "--out", out]) == 0
    rep = read_report(out)
    # tau = 2 dt in the bundled file: exactly two tube segments
    assert rep["diagnostics"]["segments"] == 2
    assert rep["diagnostics"]["path"] == "front"
    assert rep["settings"]["tau"] == 1.0
    lines = read_lines(out, "segments.csv")
    assert lines[0] == "segment,t0,t1,x1,x2"
    assert len(lines) > 100
    assert {line.split(",")[0] for line in lines[1:]} == {"0", "1"}


def test_reach_flag_overrides_model_grid(tmp_path):
    out = str(tmp_path)
    assert run(["reach", model("example1.json"), "--out", out, "--tau", "0.25", "--dt", "0.25"]) == 0
    rep = read_report(out)
    assert rep["settings"]["tau"] == 0.25
    assert rep["diagnostics"]["segments"] == 1


def test_reach_under_mode(tmp_path):
    out = str(tmp_path)
    assert run(["reach", model("example1.json"), "--out", out, "--under"]) == 0
    assert read_report(out)["settings"]["mode"] == "under"


def test_reach_linear_polyhedral_path(tmp_path):
    out = str(tmp_path)
    assert run(["reach", model("rotation_square.json"), "--out", out]) == 0
    rep = read_report(out)
    assert rep["diagnostics"]["path"] == "polyhedral"
    assert rep["diagnostics"]["segments"] == 4
    lines = read_lines(out, "polyhedra.csv")
    assert lines[0] == "segment,t0,t1,member,row,kind,a1,a2,b"
    assert len(lines) > 20


def test_reach_kind_mismatch_exits_2(tmp_path):
    assert run(["reach", model("example2.json"), "--out", str(tmp_path)]) == 2


def test_missing_model_exits_2(tmp_path):
    assert run(["reach", str(tmp_path / "ghost.json"), "--out", str(tmp_path)]) == 2


def test_malformed_rows_exit_2(tmp_path):
    path = write_model(
        tmp_path,
        {
            "schema": 1,
            "kind": "reach",
            "dynamics": {"expressions": ["1", "1"]},
            "initial": {"rows": [["a", "b", "c"]]},
            "grid": {"tau": 1.0},
        },
    )
    assert run(["reach", path, "--out", str(tmp_path / "o")]) == 2


def test_assumption_violation_exits_3(tmp_path):
    # rotation flows inward through part of a face centered on the origin
    path = write_model(
        tmp_path,
        {
            "schema": 1,
            "kind": "polyapprox",
            "dynamics": {"matrix": [[0.0, -1.0], [1.0, 0.0]]},
            "face": {"sides": [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]], "base": [0.0, 1.0, 0.0]},
            "grid": {"delta": math.pi / 6.0},
        },
    )
    assert run(["polyapprox", path, "--out", str(tmp_path / "o")]) == 3


def test_initial_outside_invariant_exits_3(tmp_path):
    path = write_model(
        tmp_path,
        {
            "schema": 1,
            "kind": "reach-inv",
            "dynamics": {"expressions": ["1", "0"]},
            "initial": {"box": [[2.5, 0.0], [3.5, 1.0]]},
            "invariant": {"box": [[0.0, 0.0], [3.0, 1.0]]},
            "grid": {"dt": 0.25},
        },
    )
    assert run(["reach-inv", path, "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize(
    "component", ["1/(x1-x1)", "1/0", "0/0"], ids=["reads-x1", "const-1-over-0", "const-0-over-0"]
)
def test_nonfinite_field_exits_3_without_traceback(tmp_path, capfd, component):
    # a constant 1/0 or 0/0 is inf or nan, as over a point batch, not a ZeroDivisionError
    path = write_model(
        tmp_path,
        {
            "schema": 1,
            "kind": "reach",
            "dynamics": {"expressions": [component, "1"]},
            "initial": {"box": [[0.0, 0.0], [1.0, 1.0]]},
            "grid": {"cell": 0.05, "dt": 0.5, "tau": 1.0},
        },
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy warning would raise
        assert run(["reach", path, "--out", str(tmp_path / "o")]) == 3
    err = capfd.readouterr().err
    assert "NonFiniteState" in err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("assumption violated: ")


def test_too_coarse_step_exits_3_and_names_dt(tmp_path, capfd):
    # x1' = x1^2 from x1 = 2 blows up at t = 0.5, inside the one step
    path = write_model(
        tmp_path,
        {
            "schema": 1,
            "kind": "reach",
            "dynamics": {"expressions": ["x1*x1", "0"]},
            "initial": {"box": [[2.0, 0.0], [3.0, 1.0]]},
            "grid": {"cell": 0.05, "dt": 1.0, "tau": 1.0},
        },
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # a numpy warning would raise
        assert run(["reach", path, "--out", str(tmp_path / "o")]) == 3
    err = capfd.readouterr().err
    assert "StepTooCoarse" in err
    assert "the field sped up within one step; lower --dt" in err
    assert "time grid" not in err
    (line,) = err.splitlines()
    assert line.startswith("assumption violated: ")


def test_unbounded_initial_set_exits_2_without_traceback(tmp_path, capfd):
    # the single row x1 <= 1 leaves the initial set without a bounding box
    path = write_model(
        tmp_path,
        {
            "schema": 1,
            "kind": "reach",
            "dynamics": {"expressions": ["1", "1"]},
            "initial": {"rows": [[1, 0, 1]]},
            "grid": {"cell": 0.05, "dt": 0.5, "tau": 1.0},
        },
    )
    assert run(["reach", path, "--out", str(tmp_path / "o")]) == 2
    err = capfd.readouterr().err
    assert "Unbounded2D" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path_kind", ["front", "polyhedral"])
def test_redundant_parallel_row_is_not_a_face(tmp_path, path_kind):
    # x1 <= 1 is implied by 2 x1 <= 1: the face on it is never tight
    rows = [[1, 0, 1], [2, 0, 1], [-1, 0, 0], [0, 1, 1], [0, -1, 0]]
    dynamics = {"expressions": ["1", "1"]}
    box = [[0, 0], [0.5, 1]]
    if path_kind == "polyhedral":
        # shifted off the origin so every face is strictly in- or outflow
        rows = [[a1, a2, b + a1 + a2] for a1, a2, b in rows]
        dynamics = {"matrix": [[0.0, -1.0], [1.0, 0.0]]}
        box = [[1, 1], [1.5, 2]]
    data = {
        "schema": 1,
        "kind": "reach",
        "dynamics": dynamics,
        "grid": {"cell": 0.05, "dt": 0.5, "tau": 1.0},
    }
    # a scaled copy of 2 x1 <= 1 is the same facet and must not be sampled
    # twice; an implied row that is not parallel to a facet is dropped too
    inits = {
        "box": {"box": box},
        "rows": {"rows": rows},
        "scaled": {"rows": rows + [[c / 2 for c in rows[1]]]},
        "diag": {"rows": rows + [[1, 1, 10]]},
    }
    samples, outs = {}, {}
    for tag, init in inits.items():
        path = write_model(tmp_path, {**data, "initial": init}, f"{tag}.json")
        outs[tag] = str(tmp_path / tag)
        assert run(["reach", path, "--out", outs[tag]]) == 0
        assert read_report(outs[tag])["diagnostics"]["path"] == path_kind
        samples[tag] = classify_boundary(load_model(path).initial, DRIFT, 0.025).points.tolist()
    for tag in inits:
        assert samples[tag] == samples["box"], tag
    if path_kind == "front":
        want = read_lines(outs["box"], "segments.csv")
        assert read_lines(outs["rows"], "segments.csv") == want
        assert read_lines(outs["scaled"], "segments.csv") == want
        return

    def values(d):
        # coefficients parsed, so a signed zero compares equal to zero
        rows = [line.split(",") for line in read_lines(d, "polyhedra.csv")]
        return [r[:6] + [float(c) for c in r[6:]] for r in rows[1:]]

    # redundant rows never reach an enclosure: the tube equals the box's
    want = values(outs["box"])
    assert len(want) == 96
    for tag in ("rows", "scaled", "diag"):
        assert values(outs[tag]) == want, tag


def test_degenerate_polyapprox_side_exits_2_without_traceback(tmp_path, capfd):
    with open(model("example2.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    # the second side is parallel to the base row and cuts the face away
    data["face"]["sides"] = [[1, 0, 1.4142135623730951], [0, 1, -1]]
    data["face"]["base"] = [0, 1, 0]
    path = write_model(tmp_path, data)
    assert run(["polyapprox", path, "--out", str(tmp_path / "o")]) == 2
    err = capfd.readouterr().err
    assert "DegenerateNormal" in err
    assert "Traceback" not in err


def test_unbounded_hybrid_invariant_exits_2_without_traceback(tmp_path, capfd):
    with open(model("hybrid_drift.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["locations"][0]["invariant"] = {"rows": [[-1, 0, 0.5], [0, -1, 0.5]]}
    path = write_model(tmp_path, data)
    assert run(["hybrid-reach", path, "--out", str(tmp_path / "o")]) == 2
    err = capfd.readouterr().err
    assert "Unbounded2D" in err
    assert "Traceback" not in err


def test_reset_outside_target_invariant_exits_2_without_traceback(tmp_path, capfd):
    with open(model("hybrid_drift.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    # x1 >= 2 jumps to x1 + 5 >= 7, past the handoff invariant's x1 <= 4
    data["edges"][0]["reset_offset"] = [5.0, 0.0]
    path = write_model(tmp_path, data)
    assert run(["hybrid-reach", path, "--out", str(tmp_path / "o")]) == 2
    err = capfd.readouterr().err
    assert "outside the invariant of 'handoff'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,value", [("cell", -0.05), ("dt", 0.0)])
def test_nonpositive_grid_step_exits_2_without_traceback(tmp_path, capfd, key, value):
    grid = {"cell": 0.05, "dt": 0.5, "tau": 1.0}
    data = {
        "schema": 1,
        "kind": "reach",
        "dynamics": {"expressions": ["1", "1"]},
        "initial": {"box": [[0.0, 0.0], [1.0, 1.0]]},
        "grid": {**grid, key: value},
    }
    assert run(["reach", write_model(tmp_path, data), "--out", str(tmp_path / "o")]) == 2
    err = capfd.readouterr().err
    assert f"grid.{key}" in err
    assert "Traceback" not in err
    # the same value as a flag is refused while parsing the arguments
    ok = write_model(tmp_path, {**data, "grid": grid}, name="ok.json")
    with pytest.raises(SystemExit) as exc:
        run(["reach", ok, "--out", str(tmp_path / "o"), f"--{key}", str(value)])
    assert exc.value.code == 2
    assert f"--{key}" in capfd.readouterr().err


# ---------------------------------------------------------------------------
# reach-inv


def test_reach_inv_drift_terminates(tmp_path):
    out = str(tmp_path)
    assert run(["reach-inv", model("drift_invariant.json"), "--out", out]) == 0
    rep = read_report(out)
    assert rep["diagnostics"]["front_collapse"] is True
    assert rep["diagnostics"]["iteration_cap"] is False
    assert rep["diagnostics"]["iterations"] <= 13
    assert read_lines(out, "segments.csv")[0] == "segment,t0,t1,x1,x2"


def test_reach_inv_cap_exits_4_with_outputs(tmp_path):
    out = str(tmp_path)
    assert run(["reach-inv", model("rotation_cap.json"), "--out", out]) == 4
    rep = read_report(out)
    assert rep["diagnostics"]["iteration_cap"] is True
    assert rep["settings"]["max_iters"] == 10
    assert os.path.exists(os.path.join(out, "segments.csv"))


def test_reach_inv_max_iters_override_avoids_cap(tmp_path):
    out = str(tmp_path)
    assert run(["reach-inv", model("drift_invariant.json"), "--out", out, "--max-iters", "2"]) == 4
    assert read_report(out)["diagnostics"]["iteration_cap"] is True


# ---------------------------------------------------------------------------
# polyapprox


def test_polyapprox_report_carries_golden_bounds(tmp_path):
    out = str(tmp_path)
    assert run(["polyapprox", model("example2.json"), "--out", out]) == 0
    rep = read_report(out)
    bounds = rep["diagnostics"]["bounds"][0]
    assert bounds["l"][0] == pytest.approx(2.7566424, abs=1e-4)
    assert bounds["l"][2] == pytest.approx(1.249999, abs=5e-5)
    assert rep["diagnostics"]["candidate_rows"] == [12]
    assert rep["diagnostics"]["delta_shrunk"] is False
    lines = read_lines(out, "bounds.csv")
    assert lines[0] == "step,index,label,l,l_prime"
    assert len(lines) == 7  # header + 2k rows for k = 3
    labels = [line.split(",")[2] for line in lines[1:]]
    assert labels == ["rotation_0", "rotation_1", "cap", "slab_0", "slab_1", "cap_repeat"]
    hs = read_lines(out, "halfspaces.csv")
    assert hs[0] == "step,row,kind,a1,a2,b"


def test_polyapprox_sampled_mode(tmp_path):
    out = str(tmp_path)
    assert run(["polyapprox", model("example2.json"), "--out", out, "--bounds", "sampled"]) == 0
    rep = read_report(out)
    assert rep["settings"]["bounds"] == "sampled"
    # the sampled cap distance is the true max height sqrt(2)/2
    assert rep["diagnostics"]["bounds"][0]["l"][2] == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-6)


# ---------------------------------------------------------------------------
# hybrid


def test_hybrid_drift_yes_with_replay(tmp_path):
    out = str(tmp_path)
    assert run(["hybrid-reach", model("hybrid_drift.json"), "--out", out]) == 0
    rep = read_report(out)
    v = rep["diagnostics"]["verdict"]
    assert v["verdict"] == "yes" and v["k"] == 1
    assert v["witness_location"] == "handoff"
    replay = rep["diagnostics"]["replay"]
    assert replay["success"] is True and replay["invalid_steps"] == 0
    lines = read_lines(out, "cells.csv")
    assert lines[0] == "location,x1,x2"
    locs = {line.split(",")[0] for line in lines[1:]}
    assert locs == {"cruise", "handoff"}


def test_hybrid_disjoint_unknown_exits_4(tmp_path):
    out = str(tmp_path)
    assert run(["hybrid-reach", model("hybrid_disjoint.json"), "--out", out]) == 4
    rep = read_report(out)
    assert rep["diagnostics"]["verdict"]["verdict"] == "unknown"
    assert "replay" not in rep["diagnostics"]


def test_hybrid_needs_target(tmp_path):
    data = json.loads(open(model("hybrid_drift.json"), encoding="utf-8").read())
    del data["target"]
    path = write_model(tmp_path, data)
    assert run(["hybrid-reach", path, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize(
    "cmd,name",
    [
        (["reach-inv", "drift_invariant.json"], "segments.csv"),
        (["polyapprox", "example2.json"], "halfspaces.csv"),
        (["hybrid-reach", "hybrid_drift.json"], "cells.csv"),
    ],
)
def test_runs_are_byte_identical(tmp_path, cmd, name):
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert run([cmd[0], model(cmd[1]), "--out", out]) in (0, 4)
        outs.append(out)
    for fname in ("report.json", name):
        with open(os.path.join(outs[0], fname), "rb") as fh:
            first = fh.read()
        with open(os.path.join(outs[1], fname), "rb") as fh:
            second = fh.read()
        assert first == second


def test_report_excludes_timings(tmp_path):
    out = str(tmp_path)
    run(["reach", model("example1.json"), "--out", out])
    rep = read_report(out)
    assert set(rep) == {"command", "model", "kind", "settings", "diagnostics", "outputs"}


# Exit code and sha256 prefix of every output file for the bundled models at
# their shipped settings. report.json is hashed without its "model" line,
# the only one that depends on where the package lives. A refactor must
# leave all of them unchanged; a change of numbers on purpose re-records
# the table and names the moved files.
PINNED_OUTPUTS = {
    ("reach", "example1.json"): (
        0,
        {"report.json": "0f5925d76b4d94b3", "segments.csv": "b77c837fd599186a"},
    ),
    ("reach", "example1.json", "--under"): (
        0,
        {"report.json": "97d2bc3ee3b1db39", "segments.csv": "3a29bae5e8d853a9"},
    ),
    ("reach", "rotation_disk.json"): (
        0,
        {"report.json": "d2ae84b653bbbc9a", "segments.csv": "503e12d738cb31dc"},
    ),
    ("reach", "rotation_square.json"): (
        0,
        {"polyhedra.csv": "4a50f7c51cb58a70", "report.json": "e18918a47b890a67"},
    ),
    ("reach-inv", "drift_invariant.json"): (
        0,
        {"report.json": "2dd00ddd29c45ea6", "segments.csv": "f112aeeaa132cfe1"},
    ),
    ("reach-inv", "drift_invariant.json", "--under"): (
        0,
        {"report.json": "8289609051ca6282", "segments.csv": "0ec253b40bb62a0a"},
    ),
    ("reach-inv", "rotation_cap.json"): (
        4,
        {"report.json": "3b6853467044f8fb", "segments.csv": "97342e3713128b7a"},
    ),
    ("polyapprox", "example2.json"): (
        0,
        {
            "bounds.csv": "9d53ae3fec7d84c1",
            "halfspaces.csv": "8982ad8f3f838050",
            "report.json": "f2f42213a8e4a493",
        },
    ),
    ("hybrid-reach", "hybrid_drift.json"): (
        0,
        {"cells.csv": "a87f527b70d71ca6", "report.json": "75a4fdd9a22e08f4"},
    ),
    ("hybrid-reach", "hybrid_disjoint.json"): (
        4,
        {"cells.csv": "b9dd7b51baf61185", "report.json": "991808f1ecfa8d49"},
    ),
}


def test_bundled_outputs_are_pinned(tmp_path):
    for i, (cmd, (code, digests)) in enumerate(PINNED_OUTPUTS.items()):
        out = str(tmp_path / str(i))
        assert run([cmd[0], model(cmd[1]), *cmd[2:], "--out", out]) == code, cmd
        got = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                data = fh.read()
            if name == "report.json":
                data = re.sub(rb'\n  "model": [^\n]*', b"", data)
            got[name] = hashlib.sha256(data).hexdigest()[:16]
        assert got == digests, cmd


# ---------------------------------------------------------------------------
# plot


def test_plot_csv_one_row_per_cell_center(tmp_path):
    out = str(tmp_path)
    assert run(["plot", model("example1.json"), "--out", out, "--format", "csv"]) == 0
    lines = read_lines(out, "plot.csv")
    assert lines[0] == "group,item,vertex,x1,x2"
    seg_rows = [l for l in lines[1:] if l.startswith("segment")]
    # cell groups emit exactly one row per cell
    rep = read_report(out)
    counted = sum(n for tag, n in rep["diagnostics"]["groups"] if tag.startswith("segment"))
    assert len(seg_rows) == counted


@pytest.mark.parametrize(
    "name,digest",
    [("example1.json", "d950bb86676f20e3"), ("drift_invariant.json", "efc06babb6e20aa5")],
)
def test_plot_csv_is_pinned(tmp_path, name, digest):
    # sha256 prefix recorded when every cell-center coordinate was
    # formatted on its own; the per-axis string tables must match it
    out = str(tmp_path)
    assert run(["plot", model(name), "--out", out, "--format", "csv"]) == 0
    with open(os.path.join(out, "plot.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest()[:16] == digest


def test_plot_csv_empty_tube_has_header_only_segments(tmp_path):
    out = str(tmp_path)
    assert run(["plot", model("example1.json"), "--out", out, "--format", "csv", "--tau", "0"]) == 0
    lines = read_lines(out, "plot.csv")
    assert lines[0] == "group,item,vertex,x1,x2"
    assert not [l for l in lines[1:] if l.startswith("segment")]


def test_plot_svg_example2_active_edges(tmp_path):
    out = str(tmp_path)
    assert run(["plot", model("example2.json"), "--out", out, "--format", "svg"]) == 0
    svg = open(os.path.join(out, "plot.svg"), encoding="utf-8").read()
    assert svg.startswith("<svg")
    # candidate rows recorded in the run report; the drawn polygon keeps
    # at least 5 active edges
    assert read_report(out)["diagnostics"]["run"]["candidate_rows"] == [12]
    step0 = re.search(r'<g id="step0"[^>]*>(.*?)</g>', svg, re.S).group(1)
    pts = re.search(r'<polygon points="([^"]+)"', step0).group(1)
    assert len(pts.split()) >= 5


def test_plot_svg_groups_are_ordered_and_stroked(tmp_path):
    out = str(tmp_path)
    assert run(["plot", model("hybrid_drift.json"), "--out", out]) == 0
    svg = open(os.path.join(out, "plot.svg"), encoding="utf-8").read()
    ids = re.findall(r'<g id="([^"]+)"', svg)
    assert ids == ["location:cruise", "location:handoff", "target"]
    assert svg.count("stroke=") >= 3
    assert "<rect" in svg and "<polygon" in svg


def test_plot_rejects_3d_models(tmp_path):
    path = write_model(
        tmp_path,
        {
            "schema": 1,
            "kind": "reach",
            "dynamics": {"expressions": ["1", "0", "0"]},
            "initial": {"box": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]},
            "grid": {"tau": 0.5},
        },
    )
    assert run(["plot", path, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# golden command


def test_golden_command_passes(monkeypatch, capsys):
    # the real criteria run in tests/test_acceptance.py; this checks the command
    def passing():
        return True, "fine"

    def failing():
        return False, "drifted"

    def raising():
        raise RuntimeError("boom")

    monkeypatch.setattr(golden, "CRITERIA", [("B1", "", passing), ("B2", "", passing)])
    assert run(["golden"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^B1\s+PASS\s+\S+\s+fine$", out, re.M)
    assert "2/2 criteria passed" in out

    for bad, detail in ((failing, "drifted"), (raising, "RuntimeError: boom")):
        monkeypatch.setattr(golden, "CRITERIA", [("B1", "", passing), ("B2", "", bad)])
        assert run(["golden"]) == 1
        out = capsys.readouterr().out
        assert re.search(rf"^B2\s+FAIL\s+\S+\s+{detail}$", out, re.M)
        assert "1/2 criteria passed" in out


def test_golden_is_sensitive_to_value_drift(monkeypatch, capsys):
    monkeypatch.setattr(golden, "GOLD_L_ROT", golden.GOLD_L_ROT * 1.01)
    ok, detail = golden.check_a1()
    assert not ok


def test_golden_missing_example_fails_explicitly(monkeypatch, capsys):
    def missing(name):
        from reachkit.errors import ModelError

        raise ModelError(f"no bundled model named {name!r}")

    monkeypatch.setattr(golden, "bundled_model_path", missing)
    assert golden.run_golden_suite() == 1
    out = capsys.readouterr().out
    assert re.search(r"^A1\s+FAIL\s+\S+\s+model error", out, re.M)
