"""End-to-end runs of the batch front end: exit codes, output files,
report determinism, and the plot emitters."""

import copy
import functools
import hashlib
import json
import math
import operator
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reachkit
import reachkit.golden as golden
from reachkit.cli import run
from reachkit.facelift import classify_boundary, reach_bounded_time
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


@pytest.mark.parametrize("x1", [0.0, 1e6])
def test_reach_far_from_the_origin(tmp_path, x1):
    # a blank region far out must keep its template's layout, or the
    # sweep cannot add it back and the run exits 2 with DimMismatch
    path = write_model(
        tmp_path,
        {
            "schema": 1,
            "kind": "reach",
            "dynamics": {"expressions": ["1", "1"]},
            "initial": {"box": [[x1, 0.0], [x1, 1.0]]},
            "grid": {"cell": 0.05, "dt": 0.5, "tau": 1.0},
        },
    )
    out = str(tmp_path / "o")
    assert run(["reach", path, "--out", out]) == 0
    assert read_report(out)["diagnostics"]["cells"] == 441


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
    # the single row x1 <= 1 and the strip 0 <= x1 <= 1 leave the initial
    # set without a bounding box, on the front path (an expression field)
    # and on the polyhedral path (a matrix) alike
    for dynamics in ({"expressions": ["1", "1"]}, {"matrix": [[0.0, -1.0], [1.0, 0.0]]}):
        for rows in ([[1, 0, 1]], [[1, 0, 1], [-1, 0, 0]]):
            path = write_model(
                tmp_path,
                {
                    "schema": 1,
                    "kind": "reach",
                    "dynamics": dynamics,
                    "initial": {"rows": rows},
                    "grid": {"cell": 0.05, "dt": 0.5, "tau": 1.0},
                },
            )
            assert run(["reach", path, "--out", str(tmp_path / "o")]) == 2, (dynamics, rows)
            err = capfd.readouterr().err
            assert "Unbounded2D" in err
            assert "Traceback" not in err


def test_empty_initial_polytope_exits_3_on_both_paths(tmp_path, capfd):
    # x1 <= 1 and x1 >= 2 leave nothing: the front path and the
    # polyhedral path (a matrix field) both refuse it before any sweep
    for dynamics in ({"expressions": ["1", "1"]}, {"matrix": [[0.0, -1.0], [1.0, 0.0]]}):
        spec = {
            "schema": 1,
            "kind": "reach",
            "dynamics": dynamics,
            "initial": {"rows": [[1, 0, 1], [-1, 0, -2], [0, 1, 1], [0, -1, 1]]},
            "grid": {"cell": 0.05, "dt": 0.5, "tau": 1.0},
        }
        assert run(["reach", write_model(tmp_path, spec), "--out", str(tmp_path / "o")]) == 3, dynamics
        assert "EmptyPolyhedron" in capfd.readouterr().err


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


@pytest.mark.parametrize(
    "key,value",
    [("cell", -0.05), ("dt", 0.0), ("tau", -1.0), ("tau", math.inf), ("tau", math.nan)],
)
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


@pytest.mark.parametrize(
    "data,limit",
    [
        ({"grid": {"cell": 0.05, "dt": 0.5, "tau": 1e300}}, "time steps exceed the budget of 1,000,000"),
        # eight steps of tau/8, but the grid the field's speed sizes outgrows its budget
        ({"grid": {"cell": 0.05, "tau": 1e300}}, "grid cells exceed the budget of 100,000,000"),
        ({"grid": {"cell": 1e-12, "dt": 0.5, "tau": 1.0}}, "grid cells exceed the budget of 100,000,000"),
        ({"initial": {"box": [[0.0, 0.0], [1e300, 1.0]]}}, "grid cells exceed the budget of 100,000,000"),
        # sample lattices: the interior lattice of the invariant check, the
        # Newton scan of a 3D level set and the facets of a 3D box
        (
            {
                "kind": "reach-inv",
                "dynamics": {"matrix": [[0.0, -1.0], [1.0, 0.0]]},
                "initial": {"levelset": "x1*x1 + x2*x2 - 1", "lo": [-1.4, -1.4], "hi": [1.4, 1.4]},
                "invariant": {"box": [[-2.0, -2.0], [2.0, 2.0]]},
                "grid": {"cell": 0.05, "dt": 0.25, "boundary_spacing": 1e-7},
            },
            "lattice samples exceed the budget of 100,000,000",
        ),
        (
            {
                "dynamics": {"expressions": ["1", "0", "0"]},
                "initial": {"levelset": "x1*x1 + x2*x2 + x3*x3 - 0.25", "lo": [-0.7] * 3, "hi": [0.7] * 3},
                "grid": {"cell": 0.05, "dt": 0.5, "tau": 1.0, "boundary_spacing": 1e-4},
            },
            "lattice samples exceed the budget of 100,000,000",
        ),
        (
            {
                "dynamics": {"expressions": ["1", "1", "1"]},
                "initial": {"box": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]},
                "grid": {"cell": 0.05, "dt": 0.5, "tau": 1.0, "boundary_spacing": 1e-5},
            },
            "lattice samples exceed the budget of 100,000,000",
        ),
    ],
    ids=["tau-1e300", "tau-1e300-eighths", "cell-1e-12", "box-1e300", "disk-inv-1e-7", "sphere-1e-4", "box3d-1e-5"],
)
def test_grid_budget_exits_2_without_traceback(tmp_path, capfd, data, limit):
    # each input is refused before numpy allocates its arrays
    base = {
        "schema": 1,
        "kind": "reach",
        "dynamics": {"expressions": ["1", "1"]},
        "initial": {"box": [[0.0, 0.0], [1.0, 1.0]]},
        "grid": {"cell": 0.05, "dt": 0.5, "tau": 1.0},
    }
    spec = {**base, **data}
    assert run([spec["kind"], write_model(tmp_path, spec), "--out", str(tmp_path / "o")]) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: BudgetExceeded: ") and limit in err
    assert "Traceback" not in err


def test_invariant_grid_budget_exits_2(tmp_path, capfd):
    with open(model("drift_invariant.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["invariant"] = {"box": [[-1e300, -1.0], [1e300, 3.0]]}
    assert run(["reach-inv", write_model(tmp_path, data), "--out", str(tmp_path / "o")]) == 2
    assert "exceed the budget" in capfd.readouterr().err
    assert run(["reach-inv", model("drift_invariant.json"), "--out", str(tmp_path), "--cell", "1e-12"]) == 2
    assert "facet lattice samples exceed the budget" in capfd.readouterr().err


@pytest.mark.parametrize(
    "key,limit", [("dt", "substeps exceed the budget"), ("tau", "replay steps exceed the budget")]
)
def test_hybrid_step_budgets_exit_2(tmp_path, capfd, key, limit):
    # a step of 1e300 would flow each front sample in 4e301 substeps, and
    # a horizon of 1e300 would replay the witness in as many steps
    with open(model("hybrid_drift.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["grid"][key] = 1e300
    assert run(["hybrid-reach", write_model(tmp_path, data), "--out", str(tmp_path / "o")]) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: BudgetExceeded: ") and limit in err


@pytest.mark.parametrize(
    "index,reason",
    [
        # a face 1e300 from the origin certifies a horizon that rounds to 0
        (2, "NumericRange: the certified horizon underflows to 0.0"),
        # a base normal of norm 1e300: loading the model overflows the
        # orthonormality check, which must not warn on stderr either
        (0, "AssumptionA2Violated"),
    ],
    ids=["offset", "normal"],
)
def test_huge_face_coefficients_exit_3(tmp_path, capfd, index, reason):
    with open(model("example2.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    data["face"]["base"][index] = 1e300
    assert run(["polyapprox", write_model(tmp_path, data), "--out", str(tmp_path / "o")]) == 3
    err = capfd.readouterr().err
    assert err.startswith("assumption violated: ") and reason in err
    assert "Warning" not in err and "Traceback" not in err


@pytest.mark.parametrize("cmd,name", [("reach-inv", "drift_invariant.json"), ("hybrid-reach", "hybrid_drift.json")])
def test_iteration_caps_below_zero_exit_2_and_zero_exits_4(tmp_path, capfd, cmd, name):
    with pytest.raises(SystemExit) as exc:
        run([cmd, model(name), "--out", str(tmp_path / "o"), "--max-iters", "-3"])
    assert exc.value.code == 2
    assert "--max-iters: expected a nonnegative integer" in capfd.readouterr().err
    assert not (tmp_path / "o").exists()
    # a cap of zero runs no step and reports the cap
    assert run([cmd, model(name), "--out", str(tmp_path), "--max-iters", "0"]) == 4


# Every bundled model with one or two of its nodes replaced or deleted.
# No small positive value is drawn: the budget tests cover those, and a
# cell just under the budget runs for minutes.
_DELETE = object()
_MUTATIONS = (math.nan, math.inf, -math.inf, 1e300, -1, 0, "x", [], None, _DELETE)
_COMMANDS = {"reach": "reach", "reach-inv": "reach-inv", "polyapprox": "polyapprox", "hybrid": "hybrid-reach"}


def json_paths(node, path=()):
    """The key or index path of every node of a JSON tree below its root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


@pytest.mark.filterwarnings("ignore::reachkit.geometry.GeometryWarning")
@pytest.mark.parametrize("name", sorted(os.listdir(os.path.dirname(model("example1.json")))))
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_models_exit_with_a_documented_code(tmp_path, name, data):
    with open(model(name), encoding="utf-8") as fh:
        spec = json.load(fh)
    cmd = _COMMANDS[spec["kind"]]
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        path = data.draw(st.sampled_from(list(json_paths(spec))), label="path")
        value = data.draw(st.sampled_from(_MUTATIONS), label="value")
        parent = functools.reduce(operator.getitem, path[:-1], spec)
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    # any exception escaping run fails the test on its own
    assert run([cmd, write_model(tmp_path, spec), "--out", str(tmp_path / "o")]) in (0, 2, 3, 4)


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
    ("reach", "rotation_disk.json", "--under"): (
        0,
        {"report.json": "972d1c20eb931056", "segments.csv": "e3c5257699db1ebc"},
    ),
    ("reach", "rotation_disk.json"): (
        0,
        {"report.json": "d2ae84b653bbbc9a", "segments.csv": "503e12d738cb31dc"},
    ),
    ("reach", "rotation_square.json"): (
        0,
        {"polyhedra.csv": "4a50f7c51cb58a70", "report.json": "e18918a47b890a67"},
    ),
    ("reach", "rotation_square.json", "--under"): (
        0,
        {"report.json": "0d12d27421f1503f", "segments.csv": "1b0f32e5efb9912f"},
    ),
    ("reach-inv", "drift_invariant.json"): (
        0,
        {"report.json": "2dd00ddd29c45ea6", "segments.csv": "f112aeeaa132cfe1"},
    ),
    ("reach-inv", "drift_invariant.json", "--under"): (
        0,
        {"report.json": "8289609051ca6282", "segments.csv": "0ec253b40bb62a0a"},
    ),
    ("reach-inv", "drift_invariant.json", "--cell", "0.02"): (
        0,
        {"report.json": "c2a9085575b74112", "segments.csv": "df15b812ad64ce75"},
    ),
    ("reach-inv", "rotation_cap.json"): (
        4,
        {"report.json": "3b6853467044f8fb", "segments.csv": "97342e3713128b7a"},
    ),
    ("reach-inv", "rotation_cap.json", "--under"): (
        4,
        {"report.json": "0db5eb3c14663d5b", "segments.csv": "97342e3713128b7a"},
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
    ("hybrid-reach", "hybrid_drift.json", "--cell", "0.02"): (
        0,
        {"cells.csv": "6cde6fd201cd3b9a", "report.json": "81baa929e13484a0"},
    ),
    ("hybrid-reach", "hybrid_disjoint.json"): (
        4,
        {"cells.csv": "b9dd7b51baf61185", "report.json": "991808f1ecfa8d49"},
    ),
    # the four grid-fine benchmark jobs
    ("reach", "example1.json", "--cell", "0.01"): (
        0,
        {"report.json": "7dff33a3ce162959", "segments.csv": "74fdffeaed9ef6a1"},
    ),
    ("reach", "example1.json", "--cell", "0.02", "--under"): (
        0,
        {"report.json": "4af85641f65c819a", "segments.csv": "1493d9e1cea75ce6"},
    ),
    ("reach", "rotation_disk.json", "--cell", "0.01"): (
        0,
        {"report.json": "f447a9d99c16da17", "segments.csv": "f7a0cc3acfe21702"},
    ),
    ("reach-inv", "drift_invariant.json", "--cell", "0.01"): (
        0,
        {"report.json": "1b108af52f27f3a7", "segments.csv": "2c48fabe2edb1a8c"},
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


# Non-constant expression fields, with the model written to tmp. Recorded
# before the sweep advected a step's chains together: the grouping by
# substep count and the flat front must leave every byte as it was.
NONLINEAR_MODELS = {
    "pendulum.json": {
        "schema": 1,
        "kind": "reach",
        "dynamics": {"expressions": ["x2", "-sin(x1)"]},
        "grid": {"cell": 0.04, "dt": 0.2, "tau": 1.2},
        "initial": {
            "levelset": "(x1 - 1)*(x1 - 1) + x2*x2 - 0.09",
            "lo": [0.5, -0.5],
            "hi": [1.5, 0.5],
        },
    },
    "van_der_pol.json": {
        "schema": 1,
        "kind": "reach-inv",
        "dynamics": {"expressions": ["x2", "(1 - x1*x1)*x2 - x1"]},
        "grid": {"cell": 0.05, "dt": 0.25},
        "flags": {"max_iters": 8},
        "initial": {"box": [[0.2, 0.2], [0.5, 0.5]]},
        "invariant": {"box": [[-2.5, -2.5], [2.5, 2.5]]},
    },
}
PINNED_NONLINEAR_OUTPUTS = {
    ("reach", "pendulum.json"): (
        0,
        {"report.json": "ac1616926b88d1a8", "segments.csv": "005fd3de528f2b2f"},
    ),
    ("reach", "pendulum.json", "--under"): (
        0,
        {"report.json": "102b8b8d6aed72fd", "segments.csv": "f0ae1dc798f2d7db"},
    ),
    ("reach-inv", "van_der_pol.json"): (
        4,
        {"report.json": "3011a234be8c4fec", "segments.csv": "6575099237c91e47"},
    ),
    ("reach-inv", "van_der_pol.json", "--under"): (
        4,
        {"report.json": "41c0a19db3c9e0f5", "segments.csv": "6575099237c91e47"},
    ),
}


def output_digests(out):
    got = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name == "report.json":
            data = re.sub(rb'\n  "model": [^\n]*', b"", data)
        got[name] = hashlib.sha256(data).hexdigest()[:16]
    return got


def test_nonlinear_outputs_are_pinned(tmp_path):
    for i, (cmd, (code, digests)) in enumerate(PINNED_NONLINEAR_OUTPUTS.items()):
        path = write_model(tmp_path, NONLINEAR_MODELS[cmd[1]], cmd[1])
        out = str(tmp_path / str(i))
        assert run([cmd[0], path, *cmd[2:], "--out", out]) == code, cmd
        assert output_digests(out) == digests, cmd


# ---------------------------------------------------------------------------
# argument parsing


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nosuch"],
        ["reach"],
        ["reach", "m.json", "--cell", "-1"],
        ["plot", "--help"],
        ["reach-inv", "m.json", "--max-iters", "x"],
        ["reach", "m.json", "--cell", "x"],
        ["reach", "m.json", "--dt", "abc"],
        ["reach", "m.json", "--tau", "x"],
    ],
    ids=["empty", "unknown-command", "no-model", "bad-cell", "help", "max-iters-x", "cell-x", "dt-abc", "tau-x"],
)
def test_argv_after_a_good_run_behaves_as_in_a_fresh_process(tmp_path, capsys, monkeypatch, argv):
    # the parser is built once per process: a run before must not change
    # what a later argv prints or the code it exits with
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["reach", model("example1.json"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run(argv)
    got = capsys.readouterr()
    src = os.path.dirname(os.path.dirname(reachkit.__file__))
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": src}
    fresh = subprocess.run(
        [sys.executable, "-m", "reachkit", *argv], capture_output=True, text=True, env=env
    )
    assert (info.value.code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    # an unreadable number is reported by what was expected, not by the
    # name of the private function that parses it
    assert "invalid _" not in got.err
    if argv[-1:] in (["x"], ["abc"]):
        assert f"argument {argv[2]}: expected a " in got.err
        assert f"got {argv[-1]!r}" in got.err


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
    [
        ("example1.json", "d950bb86676f20e3"),
        ("drift_invariant.json", "efc06babb6e20aa5"),
        ("example2.json", "19b49de1cda72af4"),
        ("rotation_square.json", "2b8793098a6b1bb2"),
        ("hybrid_drift.json", "162c366d33a97eaf"),
    ],
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


def test_plot_under_draws_the_under_initial_cells(tmp_path):
    # a level-set reach run with --under: the initial group is the under
    # tube's own initial raster, as for reach-inv, not the over raster
    out = str(tmp_path)
    assert run(["plot", model("rotation_disk.json"), "--out", out, "--format", "csv", "--under"]) == 0
    m = load_model(model("rotation_disk.json"))
    tube = reach_bounded_time(m.initial, m.dynamics, 1.0, dt=0.25, h=0.05, under=True)
    want = tube.under_initial_region
    assert want.count() < tube.initial_region.count()
    rows = [l.split(",") for l in read_lines(out, "plot.csv") if l.startswith("initial,")]
    assert [[float(v) for v in r[3:]] for r in rows] == want.cell_centers().tolist()
    assert ["initial", want.count()] in read_report(out)["diagnostics"]["groups"]


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


def test_importing_reachkit_leaves_golden_unloaded():
    src = os.path.dirname(os.path.dirname(reachkit.__file__))
    code = (
        "import sys, reachkit\n"
        "assert 'reachkit.golden' not in sys.modules\n"
        "assert 'golden' in reachkit.__all__\n"
        "from reachkit import golden\n"
        "assert reachkit.golden is golden is sys.modules['reachkit.golden']\n"
        "assert callable(golden.run_golden_suite)\n"
        "try:\n"
        "    reachkit.nosuch\n"
        "except AttributeError as exc:\n"
        "    assert 'nosuch' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('no AttributeError')\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr


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
