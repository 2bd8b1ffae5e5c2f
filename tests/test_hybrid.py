"""Hybrid model construction, the successor operator and the decision loop."""

import math

import numpy as np
import pytest

from reachkit.errors import DimMismatch, ModelError, PreconditionViolated
from reachkit.flow import ExpressionDynamics
from reachkit.facelift import GridRegion
from reachkit.geometry import Polyhedron
from reachkit.hybrid import (
    Edge,
    HybridSystem,
    PostParams,
    RegionSet,
    Verdict,
    classify_step,
    _push_edge_images,
    post,
    replay_witness,
    semi_decide_reach,
)

H_CELL = 0.05


def slide():
    return ExpressionDynamics.parse(["1", "0"])


def drift_system(guard_at=2.0, reset_matrix=None, reset_offset=None):
    """Two locations, rightward drift, one guarded hand-off edge."""
    guard = Polyhedron.from_inequalities([[-1.0, 0.0]], [-guard_at])
    return HybridSystem(
        locations=("cruise", "handoff"),
        invariants={
            "cruise": Polyhedron.box([0.0, 0.0], [3.0, 1.0]),
            "handoff": Polyhedron.box([0.0, 0.0], [4.0, 1.0]),
        },
        dynamics={"cruise": slide(), "handoff": slide()},
        edges=(
            Edge("cruise", guard, "switch", "handoff", reset_matrix, reset_offset),
        ),
        init=(("cruise", Polyhedron.box([0.0, 0.0], [1.0, 1.0])),),
    )


def disconnected_system():
    return HybridSystem(
        locations=("a", "b"),
        invariants={
            "a": Polyhedron.box([0.0, 0.0], [3.0, 1.0]),
            "b": Polyhedron.box([0.0, 0.0], [3.0, 1.0]),
        },
        dynamics={"a": slide(), "b": slide()},
        edges=(),
        init=(("a", Polyhedron.box([0.0, 0.0], [1.0, 1.0])),),
    )


def params(tau=4.0):
    return PostParams(dt=0.25, tau=tau)


# ---------------------------------------------------------------------------
# model construction


def test_edge_reset_defaults_to_identity():
    e = Edge("a", Polyhedron.box([0.0, 0.0], [1.0, 1.0]), "go", "b")
    assert np.array_equal(e.reset_matrix, np.eye(2))
    assert np.array_equal(e.reset_offset, np.zeros(2))
    pts = np.array([[0.3, 0.4], [1.0, 0.0]])
    assert np.array_equal(e.apply(pts), pts)


def test_edge_reset_shape_checked():
    with pytest.raises(DimMismatch):
        Edge(
            "a",
            Polyhedron.box([0.0, 0.0], [1.0, 1.0]),
            "go",
            "b",
            reset_matrix=np.eye(3),
        )


def test_system_construction_errors():
    box = Polyhedron.box([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ModelError):
        HybridSystem((), {}, {}, (), ())
    with pytest.raises(ModelError):
        HybridSystem(("a",), {}, {"a": slide()}, (), ())
    with pytest.raises(ModelError):
        HybridSystem(
            ("a",),
            {"a": box},
            {"a": slide()},
            (Edge("a", box, "go", "nowhere"),),
            (),
        )
    with pytest.raises(ModelError):
        HybridSystem(("a",), {"a": box}, {"a": slide()}, (), (("ghost", box),))
    # a location whose field has another dimension than the invariants
    for field in (ExpressionDynamics.parse(["1"]), ExpressionDynamics.parse(["1", "0", "0"])):
        with pytest.raises(ModelError, match="continuous dimension"):
            HybridSystem(("a", "b"), {"a": box, "b": box}, {"a": slide(), "b": field}, (), (("a", box),))


def test_validate_catches_reset_escape():
    # offset throws guard points far outside the hand-off invariant
    H = drift_system(reset_offset=np.array([10.0, 0.0]))
    with pytest.raises(ModelError):
        H.validate(H_CELL)


def test_validate_catches_stray_init():
    box = Polyhedron.box([0.0, 0.0], [3.0, 1.0])
    H = HybridSystem(
        ("a",),
        {"a": box},
        {"a": slide()},
        (),
        (("a", Polyhedron.box([2.5, 0.0], [3.5, 1.0])),),
    )
    with pytest.raises(ModelError):
        H.validate(H_CELL)


def test_validate_accepts_drift_model():
    drift_system().validate(H_CELL)


# ---------------------------------------------------------------------------
# region sets


def test_from_init_marks_initial_cells():
    H = drift_system()
    S = RegionSet.from_init(H, H_CELL)
    assert S.generation == 0
    assert S.regions["handoff"].count() == 0
    assert S.regions["cruise"].contains_points(np.array([[0.5, 0.5]]))[0]
    assert not S.regions["cruise"].contains_points(np.array([[2.5, 0.5]]))[0]


def test_copy_is_independent():
    H = drift_system()
    S = RegionSet.from_init(H, H_CELL)
    T = S.copy()
    T.regions["cruise"].mark_points(np.array([[2.5, 0.5]]))
    assert not S.regions["cruise"].contains_points(np.array([[2.5, 0.5]]))[0]


def test_intersection_witness_is_first_cell():
    H = drift_system()
    a = RegionSet.from_init(H, H_CELL)
    b = RegionSet.from_polyhedra(
        H, [("cruise", Polyhedron.box([0.4, 0.4], [0.6, 0.6]))], H_CELL
    )
    hit = a.intersection_witness(b)
    assert hit is not None
    q, center = hit
    assert q == "cruise"
    assert np.allclose(center, [0.375, 0.375])  # lexicographically first overlap
    empty = RegionSet.empty(H, H_CELL)
    assert a.intersection_witness(empty) is None


def test_cell_size_mismatch_rejected():
    H = drift_system()
    a = RegionSet.from_init(H, H_CELL)
    b = RegionSet.from_init(H, 0.1)
    with pytest.raises(DimMismatch):
        a.intersection_witness(b)


# ---------------------------------------------------------------------------
# the successor operator


def test_post_contains_input_and_increments_generation():
    H = drift_system()
    S = RegionSet.from_init(H, H_CELL)
    T = post(H, S, params())
    assert T.generation == 1
    for q in H.locations:
        assert S.regions[q].subset_of(T.regions[q])


def test_post_is_deterministic():
    H = drift_system()
    S = RegionSet.from_init(H, H_CELL)
    T1 = post(H, S, params())
    T2 = post(H, S, params())
    for q in H.locations:
        assert np.array_equal(T1.regions[q].occupancy, T2.regions[q].occupancy)


def test_post_time_closure_fills_source_invariant():
    H = drift_system()
    T = post(H, RegionSet.from_init(H, H_CELL), params())
    xs = np.linspace(0.05, 2.95, 30)
    ys = np.linspace(0.05, 0.95, 10)
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    assert T.regions["cruise"].contains_points(pts).all()


def test_post_pushes_guard_strip_through_edge():
    H = drift_system()
    T = post(H, RegionSet.from_init(H, H_CELL), params())
    got = T.regions["handoff"]
    assert got.count() > 0
    centers = got.cell_centers()
    # identity reset of the guard portion of the reach: x1 in [2, 3], one
    # cell of raster slack on every side
    assert centers[:, 0].min() >= 2.0 - 2.5 * H_CELL
    assert centers[:, 0].max() <= 3.0 + 2.5 * H_CELL
    strip = np.stack(
        np.meshgrid(np.linspace(2.1, 2.9, 9), np.linspace(0.1, 0.9, 5), indexing="ij"),
        axis=-1,
    ).reshape(-1, 2)
    assert got.contains_points(strip).all()


def test_post_without_edges_keeps_target_empty():
    H = disconnected_system()
    T = post(H, RegionSet.from_init(H, H_CELL), params())
    assert T.regions["b"].count() == 0
    assert T.regions["a"].count() > 0


def test_post_disjoint_guard_contributes_nothing():
    H = drift_system(guard_at=10.0)  # far beyond the cruise invariant
    T = post(H, RegionSet.from_init(H, H_CELL), params())
    assert T.regions["handoff"].count() == 0


def test_post_flags_iteration_cap():
    H = drift_system()
    T = post(H, RegionSet.from_init(H, H_CELL), params(tau=0.5))
    assert "cruise" in T.capped
    full = post(H, RegionSet.from_init(H, H_CELL), params(tau=4.0))
    assert "cruise" not in full.capped


def test_post_applies_affine_reset():
    # halve x1 and shift up by 2 on jump; target invariant holds the image
    H = HybridSystem(
        locations=("src", "dst"),
        invariants={
            "src": Polyhedron.box([0.0, 0.0], [3.0, 1.0]),
            "dst": Polyhedron.box([0.0, 0.0], [3.0, 4.0]),
        },
        dynamics={"src": slide(), "dst": ExpressionDynamics.parse(["0", "0"])},
        edges=(
            Edge(
                "src",
                Polyhedron.from_inequalities([[-1.0, 0.0]], [-2.0]),
                "jump",
                "dst",
                reset_matrix=np.array([[0.5, 0.0], [0.0, 1.0]]),
                reset_offset=np.array([0.0, 2.0]),
            ),
        ),
        init=(("src", Polyhedron.box([0.0, 0.0], [1.0, 1.0])),),
    )
    H.validate(H_CELL)
    T = post(H, RegionSet.from_init(H, H_CELL), params())
    centers = T.regions["dst"].cell_centers()
    assert centers.shape[0] > 0
    # image of [2,3]x[0,1] is [1,1.5]x[2,3]
    assert centers[:, 0].min() >= 1.0 - 2.5 * H_CELL
    assert centers[:, 0].max() <= 1.5 + 2.5 * H_CELL
    assert centers[:, 1].min() >= 2.0 - 2.5 * H_CELL
    assert centers[:, 1].max() <= 3.0 + 2.5 * H_CELL


def test_post_marks_scaled_reset_images_by_their_boxes():
    # x1 doubles on the jump: each guard cell's image spans two cells of
    # the target grid, and post marks exactly the cells its closed image
    # box meets (clipped to the target invariant)
    H = HybridSystem(
        locations=("src", "dst"),
        invariants={
            "src": Polyhedron.box([0.0, 0.0], [2.0, 1.0]),
            "dst": Polyhedron.box([0.0, 0.0], [4.0, 1.0]),
        },
        dynamics={"src": slide(), "dst": ExpressionDynamics.parse(["0", "0"])},
        edges=(
            Edge(
                "src",
                Polyhedron.from_inequalities([[-1.0, 0.0]], [-1.5]),
                "stretch",
                "dst",
                reset_matrix=np.array([[2.0, 0.0], [0.0, 1.0]]),
            ),
        ),
        init=(("src", Polyhedron.box([0.0, 0.0], [0.5, 1.0])),),
    )
    H.validate(H_CELL)
    T = post(H, RegionSet.from_init(H, H_CELL), params())
    src, dst = T.regions["src"], T.regions["dst"]
    guard = np.argwhere(src.occupancy & src.cells_touching(H.edges[0].guard))
    cells = np.moveaxis(np.indices(dst.shape), 0, -1)  # (n1, n2, 2) cell indices
    want = np.zeros(dst.shape, bool)
    for i in guard:
        lo = (src.lo + i * src.h) * [2.0, 1.0]
        hi = (src.lo + (i + 1) * src.h) * [2.0, 1.0]
        ta, tb = (lo - dst.lo) / dst.h, (hi - dst.lo) / dst.h
        want |= np.all((cells <= tb + 1e-9) & (cells + 1 >= ta - 1e-9), axis=-1)
    want &= dst.cells_touching(H.invariants["dst"])
    assert guard.shape[0] > 0
    assert np.array_equal(dst.occupancy, want)


def corner_edge_images(region_mask, source, edge, target):
    """The 2^d corner enumeration that _push_edge_images replaced, kept as
    its reference: each cell box's corners go through the reset and
    their coordinate bounding box is marked."""
    idx = np.argwhere(region_mask)
    dim = source.dim
    corners = np.array(list(np.ndindex(*(2,) * dim)), float)
    boxes = (source.lo + idx * source.h)[:, None, :] + corners[None, :, :] * source.h
    images = boxes.reshape(-1, dim) @ edge.reset_matrix.T + edge.reset_offset
    images = images.reshape(idx.shape[0], corners.shape[0], dim)
    target.mark_boxes(images.min(axis=1), images.max(axis=1))


def random_reset_case(rng):
    """A source grid with a random cell mask, an affine reset (identity,
    axis-aligned, a signed permutation or dense, integer or real) and a
    target grid of the same cell size at another origin."""
    dim = int(rng.integers(2, 4))
    h = float(rng.choice([0.05, 0.1, 0.25]))
    n = 8 if dim == 2 else 5
    src = GridRegion(rng.integers(-2, 3, dim) * h, rng.integers(-2, 3, dim) * h + n * h, h)
    kind = rng.integers(0, 4)
    if kind == 0:
        R = np.eye(dim)
    elif kind == 1:
        R = np.diag(rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0], dim))
    elif kind == 2:
        R = np.eye(dim)[rng.permutation(dim)] * rng.choice([-1.0, 1.0], dim)
    else:
        R = rng.normal(size=(dim, dim))
        if rng.random() < 0.5:
            R = np.round(R)
    c = rng.integers(-4, 5, dim) * h if rng.random() < 0.5 else rng.normal(size=dim)
    edge = Edge("a", Polyhedron.box(src.lo, src.hi), "e", "b", R, c)
    lo = rng.choice([0.0, 0.3 * h]) + rng.integers(-6, 0, dim) * h
    tgt = GridRegion(lo, lo + 2 * n * h + 4 * h, h)
    return rng.random(src.shape) < rng.uniform(0.05, 0.6), src, edge, tgt


def test_push_edge_images_match_the_corner_reference():
    rng = np.random.default_rng(20261019)
    for trial in range(300):
        mask, src, edge, tgt = random_reset_case(rng)
        got, want = tgt.blank(), tgt.blank()
        _push_edge_images(mask, src, edge, got)
        corner_edge_images(mask, src, edge, want)
        assert np.array_equal(got.occupancy, want.occupancy), trial


# ---------------------------------------------------------------------------
# semi-decision loop


def test_reach_immediate_overlap_is_yes_zero():
    H = drift_system()
    s1 = RegionSet.from_init(H, H_CELL)
    s2 = RegionSet.from_polyhedra(
        H, [("cruise", Polyhedron.box([0.0, 0.0], [1.0, 1.0]))], H_CELL
    )
    v = semi_decide_reach(H, s1, s2, 3, params())
    assert v.kind == "yes" and v.k == 0
    assert v.witness[0] == "cruise"


def test_reach_drift_handoff_is_yes_one():
    H = drift_system()
    s1 = RegionSet.from_init(H, H_CELL)
    s2 = RegionSet.from_polyhedra(
        H, [("handoff", Polyhedron.box([2.0, 0.0], [3.0, 1.0]))], H_CELL
    )
    v = semi_decide_reach(H, s1, s2, 4, params())
    assert v.kind == "yes" and v.k == 1
    q, center = v.witness
    assert q == "handoff"
    assert 2.0 - 2.5 * H_CELL <= center[0] <= 3.0 + 2.5 * H_CELL
    summary = v.summary()
    assert summary["verdict"] == "yes" and summary["witness_location"] == "handoff"


def test_reach_disconnected_is_unknown():
    H = disconnected_system()
    s1 = RegionSet.from_init(H, H_CELL)
    s2 = RegionSet.from_polyhedra(
        H, [("b", Polyhedron.box([2.0, 0.0], [3.0, 1.0]))], H_CELL
    )
    v = semi_decide_reach(H, s1, s2, 3, params())
    assert v.kind == "unknown" and v.k == 3
    assert v.witness is None


def test_reach_requires_nonempty_sets():
    H = drift_system()
    s1 = RegionSet.from_init(H, H_CELL)
    with pytest.raises(PreconditionViolated):
        semi_decide_reach(H, s1, RegionSet.empty(H, H_CELL), 2, params())


# ---------------------------------------------------------------------------
# step classification


def test_classify_time_step():
    H = drift_system()
    a = ("cruise", np.array([0.0, 0.5]))
    b = ("cruise", np.array([1.0, 0.5]))
    assert classify_step(H, a, b, 1.0) == "time-step"
    assert classify_step(H, a, a, 0.0) == "time-step"
    assert classify_step(H, a, b, 0.5) == "none"  # wrong duration
    assert classify_step(H, a, b, -1.0) == "none"
    assert classify_step(H, a, ("handoff", b[1]), 1.0) == "none"


def test_classify_time_step_requires_invariant_path():
    # flow matches but the path leaves the cruise box on the way
    H = drift_system()
    a = ("cruise", np.array([2.5, 0.5]))
    b = ("cruise", np.array([3.5, 0.5]))
    assert classify_step(H, a, b, 1.0) == "none"


def test_classify_edge_and_sigma_steps():
    H = drift_system()
    e = H.edges[0]
    at_guard = ("cruise", np.array([2.5, 0.5]))
    landed = ("handoff", np.array([2.5, 0.5]))
    assert classify_step(H, at_guard, landed, e) == "edge-step"
    assert classify_step(H, at_guard, landed, "switch") == "sigma-step"
    assert classify_step(H, at_guard, landed, "unknown-event") == "none"
    before_guard = ("cruise", np.array([1.0, 0.5]))
    assert classify_step(H, before_guard, ("handoff", np.array([1.0, 0.5])), e) == "none"
    wrong_image = ("handoff", np.array([2.5, 0.9]))
    assert classify_step(H, at_guard, wrong_image, e) == "none"


# ---------------------------------------------------------------------------
# witness replay


def test_replay_realizes_drift_witness():
    H = drift_system()
    s1 = RegionSet.from_init(H, H_CELL)
    s2 = RegionSet.from_polyhedra(
        H, [("handoff", Polyhedron.box([2.0, 0.0], [3.0, 1.0]))], H_CELL
    )
    v = semi_decide_reach(H, s1, s2, 4, params())
    rep = replay_witness(H, s1, v, params())
    assert rep.success
    assert rep.distance <= 2.0 * H_CELL
    assert rep.invalid_steps == 0
    kinds = [k for k, _ in rep.steps]
    assert "edge" in kinds
    assert rep.trajectory[0][0] == "cruise"
    assert rep.trajectory[-1][0] == "handoff"
    assert rep.validate(H) == 0


def test_replay_rejects_unreachable_witness():
    H = drift_system()
    s1 = RegionSet.from_init(H, H_CELL)
    fake = Verdict("yes", 0, ("cruise", np.array([2.9, 0.5])))
    # k = 0 forbids the jump and drift keeps y fixed, so the corner of the
    # cruise box far from any initial row stays out of range
    fake_far = Verdict("yes", 0, ("handoff", np.array([3.9, 0.5])))
    rep = replay_witness(H, s1, fake_far, params())
    assert not rep.success
    assert rep.distance == math.inf  # never even enters the witness location
    rep2 = replay_witness(H, s1, fake, params())
    assert rep2.success  # same location is reachable by pure drift
    assert math.isfinite(rep2.distance)


def test_replay_ignores_non_yes_verdicts():
    H = drift_system()
    s1 = RegionSet.from_init(H, H_CELL)
    rep = replay_witness(H, s1, Verdict("unknown", 3), params())
    assert not rep.success and rep.trajectory == []
