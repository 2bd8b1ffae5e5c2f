"""Model-file schema: loading, validation errors, and the serialization
round trip (reload of a serialized model is a fixed point, and rows
survive as multisets after unit normalization)."""

import json
import math

import numpy as np
import pytest

from reachkit.errors import ModelError
from reachkit.facelift import LevelSet
from reachkit.flow import ExpressionDynamics, LinearDynamics
from reachkit.geometry import Halfspace, Polyhedron
from reachkit.modelfile import (
    bundled_model_path,
    load_model,
    model_to_dict,
    parse_model,
    save_model,
)

BUNDLED = [
    ("example1.json", "reach"),
    ("example2.json", "polyapprox"),
    ("rotation_disk.json", "reach"),
    ("rotation_square.json", "reach"),
    ("drift_invariant.json", "reach-inv"),
    ("rotation_cap.json", "reach-inv"),
    ("hybrid_drift.json", "hybrid"),
    ("hybrid_disjoint.json", "hybrid"),
]


def reach_dict(**over):
    data = {
        "schema": 1,
        "kind": "reach",
        "dynamics": {"expressions": ["1", "1"]},
        "initial": {"box": [[0.0, 0.0], [1.0, 1.0]]},
        "grid": {"tau": 1.0, "dt": 0.5, "cell": 0.05},
    }
    data.update(over)
    return data


def row_multiset(spec):
    rows = []
    for row in spec.get("rows", []) + spec.get("eq_rows", []):
        h = Halfspace(np.array(row[:-1], float), float(row[-1])).unit()
        rows.append(tuple(round(v, 12) for v in (*h.normal, h.offset)))
    return sorted(rows)


# ---------------------------------------------------------------------------
# loading the bundled corpus


@pytest.mark.parametrize("name,kind", BUNDLED)
def test_bundled_models_load(name, kind):
    m = load_model(bundled_model_path(name))
    assert m.kind == kind
    assert m.path.endswith(name)


def test_bundled_path_rejects_unknown_name():
    with pytest.raises(ModelError):
        bundled_model_path("nope.json")


@pytest.mark.parametrize("name,kind", BUNDLED)
def test_serialization_is_a_fixed_point(name, kind):
    m = load_model(bundled_model_path(name))
    d1 = model_to_dict(m)
    d2 = model_to_dict(parse_model(json.loads(json.dumps(d1))))
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_scaled_rows_normalize_to_the_same_multiset():
    # rows scaled by arbitrary positive factors describe the same set and
    # must serialize to one normalized multiset
    spec_a = {"rows": [[2.0, 0.0, 6.0], [0.0, 3.0, 3.0], [-1.0, 0.0, 0.0], [0.0, -5.0, 0.0]]}
    spec_b = {"rows": [[0.0, -1.0, 0.0], [1.0, 0.0, 3.0], [0.0, 1.5, 1.5], [-7.0, 0.0, 0.0]]}
    out_a = model_to_dict(parse_model(reach_dict(initial=spec_a)))["initial"]
    out_b = model_to_dict(parse_model(reach_dict(initial=spec_b)))["initial"]
    assert row_multiset(out_a) == row_multiset(out_b)
    assert row_multiset(out_a) == row_multiset(
        {"rows": [[1.0, 0.0, 3.0], [0.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]}
    )


def test_roundtrip_preserves_dynamics_semantics(tmp_path):
    data = reach_dict(dynamics={"expressions": ["-x2 + sin(x1)", "x1*x1 - 0.5"]})
    m = parse_model(data)
    path = tmp_path / "m.json"
    save_model(m, path)
    m2 = load_model(path)
    pts = np.random.default_rng(0).uniform(-2.0, 2.0, (50, 2))
    np.testing.assert_allclose(m2.dynamics.evaluate(pts), m.dynamics.evaluate(pts), atol=1e-12)


def test_roundtrip_preserves_levelset_semantics():
    data = reach_dict(
        initial={"levelset": "x1*x1 + x2*x2 - 1", "lo": [-1.2, -1.2], "hi": [1.2, 1.2]}
    )
    m = parse_model(data)
    m2 = parse_model(model_to_dict(m))
    assert isinstance(m2.initial, LevelSet)
    pts = np.random.default_rng(1).uniform(-1.5, 1.5, (100, 2))
    np.testing.assert_allclose(m2.initial.value(pts), m.initial.value(pts), atol=1e-12)
    np.testing.assert_allclose(m2.initial.lo, m.initial.lo)


def test_matrix_dynamics_loads_as_linear():
    m = parse_model(reach_dict(dynamics={"matrix": [[0.0, -1.0], [1.0, 0.0]]}))
    assert isinstance(m.dynamics, LinearDynamics)
    m2 = parse_model(reach_dict())
    assert isinstance(m2.dynamics, ExpressionDynamics)


def test_example2_face_is_orthonormal():
    m = load_model(bundled_model_path("example2.json"))
    assert m.face.orthonormal
    assert m.face.k == 3
    assert m.setting("delta") == pytest.approx(math.pi / 6.0)


def test_hybrid_sections_build_the_system():
    m = load_model(bundled_model_path("hybrid_drift.json"))
    H = m.system
    assert H.locations == ("cruise", "handoff")
    assert len(H.edges) == 1 and H.edges[0].event == "switch"
    # identity reset filled in by default
    np.testing.assert_allclose(H.edges[0].reset_matrix, np.eye(2))
    assert len(m.targets) == 1 and m.targets[0][0] == "handoff"
    assert isinstance(m.targets[0][1], Polyhedron)
    assert m.setting("max_k") == 4


# ---------------------------------------------------------------------------
# validation errors


def test_load_missing_file_is_a_model_error(tmp_path):
    with pytest.raises(ModelError, match="not found"):
        load_model(tmp_path / "absent.json")


def test_load_invalid_json_is_a_model_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelError, match="not valid JSON"):
        load_model(path)


@pytest.mark.parametrize(
    "mutate",
    [
        {"schema": 2},
        {"kind": "bogus"},
        {"extra_section": 1},
        {"grid": {"tau": 1.0, "warp": 2.0}},
        {"grid": {"tau": "one"}},
        {"flags": {"bound_mode": "exact"}},
        {"flags": {"max_iters": 2.5}},
        {"flags": {"max_iters": -1}},
        {"flags": {"under_approximate": "yes"}},
        {"dynamics": {"matrix": [[1.0, 0.0]]}},
        {"dynamics": {"matrix": [["a", "b"], ["c", "d"]]}},
        {"dynamics": {"expressions": ["x1 +"]}},
        {"dynamics": {}},
        {"initial": {"rows": [[1.0]]}},
        {"initial": {"rows": []}},
        {"initial": {"rows": [[1.0, 0.0, 1.0], [1.0, 2.0, 3.0, 4.0]]}},
        {"initial": {"box": [[0.0, 0.0]]}},
        {"initial": {"levelset": "x1", "lo": [0.0, 0.0]}},
        {"initial": {"box": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]}},
        {"initial": {"rows": 5}},
        {"initial": {"box": [[0.0, math.nan], [1.0, 1.0]]}},
        {"initial": {"rows": [[1.0, 0.0, math.inf], [-1.0, 0.0, 0.0]]}},
        {"invariant": {"box": [[math.nan, 0.0], [3.0, 1.0]]}},
        {"grid": {"tau": math.inf}},
        {"grid": {"tau": 1.0, "dt": math.nan}},
        {"grid": {"tau": 10**400}},
        {"grid": {"tau": 1.0, "boundary_spacing": 0}},
        {"grid": {"tau": 1.0, "boundary_spacing": -1}},
        {"dynamics": {"matrix": [[math.nan, 0.0], [0.0, 1.0]]}},
        {"schema": True},
    ],
)
def test_malformed_reach_models_are_rejected(mutate):
    with pytest.raises(ModelError):
        parse_model(reach_dict(**mutate))


def test_reach_needs_tau_and_initial():
    # a missing grid.tau is the command's to refuse, since --tau can stand
    # in for it (tests/test_cli.py)
    bad = reach_dict()
    del bad["initial"]
    with pytest.raises(ModelError, match="initial"):
        parse_model(bad)


def test_reach_inv_needs_invariant_and_dt():
    data = reach_dict(kind="reach-inv")
    data["grid"] = {"dt": 0.25}
    with pytest.raises(ModelError, match="invariant"):
        parse_model(data)
    # a missing grid.dt is the command's to refuse, since --dt can stand in
    # for it (tests/test_cli.py)
    data["invariant"] = {"box": [[0.0, 0.0], [3.0, 1.0]]}
    assert parse_model(data).invariant is not None


def test_polyapprox_validation():
    data = {
        "schema": 1,
        "kind": "polyapprox",
        "dynamics": {"expressions": ["1", "1"]},
        "face": {"sides": [[1.0, 0.0, 1.0], [-1.0, 0.0, 0.0]], "base": [0.0, 1.0, 0.0]},
        "grid": {"delta": 0.5},
    }
    with pytest.raises(ModelError, match="matrix"):
        parse_model(data)
    data["dynamics"] = {"matrix": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]}
    with pytest.raises(ModelError, match="dimension"):
        parse_model(data)
    data["dynamics"] = {"matrix": [[0.0, -1.0], [1.0, 0.0]]}
    m = parse_model(data)
    assert m.face.dim == 2
    for face in ({"sides": 4, "base": [0.0, 1.0, 0.0]}, {"sides": [], "base": [0.0, 1.0, math.inf]}):
        with pytest.raises(ModelError, match="face"):
            parse_model({**data, "face": face})
    del data["face"]
    with pytest.raises(ModelError, match="face"):
        parse_model(data)


def hybrid_dict():
    return json.loads(
        open(bundled_model_path("hybrid_drift.json"), encoding="utf-8").read()
    )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["edges"][0].update({"from": "ghost"}),
        lambda d: d["init"][0].update({"location": "ghost"}),
        lambda d: d["target"][0].update({"location": "ghost"}),
        lambda d: d["locations"].append(dict(d["locations"][0])),
        lambda d: d["edges"][0].pop("guard"),
        lambda d: d["locations"][0].pop("dynamics"),
        lambda d: d["grid"].update({"tau": -1.0}),
        lambda d: d["grid"].pop("cell"),
        lambda d: d.update({"init": []}),
        lambda d: d["edges"][0].update({"reset_matrix": [[1.0, 0.0]]}),
        lambda d: d.update({"edges": 0}),
        lambda d: d.update({"init": 1e300}),
        lambda d: d.update({"target": 3}),
        lambda d: d["grid"].update({"tau": math.inf}),
        lambda d: d["flags"].update({"max_k": -1}),
        lambda d: d["locations"][0].update({"invariant": {"box": [[math.nan, 0.0], [1.0, 1.0]]}}),
    ],
)
def test_malformed_hybrid_models_are_rejected(mutate):
    data = hybrid_dict()
    mutate(data)
    with pytest.raises(ModelError):
        parse_model(data)


def test_flags_and_grid_survive_roundtrip(tmp_path):
    data = reach_dict(flags={"under_approximate": True, "bound_mode": "sampled"})
    data["grid"]["boundary_spacing"] = 0.01
    m = parse_model(data)
    path = tmp_path / "f.json"
    save_model(m, path)
    m2 = load_model(path)
    assert m2.setting("mode") == "under"
    assert m2.setting("bounds") == "sampled"
    assert m2.setting("boundary_spacing") == pytest.approx(0.01)
    assert m2.setting("max_iters") is None
