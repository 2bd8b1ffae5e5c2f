"""Boundary classification, grid regions and the two reach procedures."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachkit.facelift as facelift
from reachkit.errors import (
    AssumptionA2Violated,
    EmptyBoundary,
    PreconditionViolated,
    StepTooCoarse,
)
from reachkit.facelift import (
    GridRegion,
    LevelSet,
    _front_sweep,
    _levelset_boundary,
    _near_shadow,
    _uniform_intervals,
    check_boundary_equivalence,
    classify_boundary,
    reach_bounded_time,
    reach_invariant,
)
from reachkit.flow import ExpressionDynamics, LinearDynamics, flow
from reachkit.geometry import Halfspace, Polyhedron, convex_hull_2d, is_empty
from reachkit.modelfile import bundled_model_path, load_model

ROT = LinearDynamics(np.array([[0.0, -1.0], [1.0, 0.0]]))
DRIFT = ExpressionDynamics.parse(["1", "1"])
SLIDE = ExpressionDynamics.parse(["1", "0"])


def unit_square():
    return Polyhedron.box([0.0, 0.0], [1.0, 1.0])


def offset_square():
    # sits away from the origin so the rotation flux is one-signed per face
    return Polyhedron.box([0.9, 0.9], [1.1, 1.1])


def unit_disk(r=1.0, pad=0.4):
    rr = r * r
    return LevelSet(
        f"x1*x1 + x2*x2 - {rr}", [-r - pad, -r - pad], [r + pad, r + pad]
    )


# ---------------------------------------------------------------------------
# grid regions


def test_grid_shape_covers_box():
    g = GridRegion([0.0, 0.0], [1.0, 0.55], 0.25)
    assert g.shape == (4, 3)
    assert np.allclose(g.hi, [1.0, 0.75])


def test_mark_points_and_membership():
    g = GridRegion([0.0, 0.0], [1.0, 1.0], 0.25)
    g.mark_points(np.array([[0.1, 0.1], [0.9, 0.9], [5.0, 5.0]]))
    assert g.count() == 2
    assert g.out_of_box == 1
    got = g.contains_points(np.array([[0.2, 0.2], [0.6, 0.6], [0.95, 0.8]]))
    assert got.tolist() == [True, False, True]


def test_polyhedron_over_under_rasters():
    square = unit_square()
    g = GridRegion([-1.0, -1.0], [2.0, 2.0], 0.25)
    over, under = g.blank(), g.blank()
    over.occupancy = g.cells_touching(square)
    under.occupancy = g.cells_inside(square)
    assert under.subset_of(over)
    assert under.count() == 16  # [0,1]^2 is exactly 4x4 aligned cells
    assert over.count() == 36  # and the ring of cells sharing an edge or corner
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 1.0, size=(100, 2))
    assert over.contains_points(pts).all()
    corners = under.cell_centers()[:, None, :] + 0.125 * np.array(
        [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    )
    assert square.contains(corners.reshape(-1, 2), tol=1e-9).all()


def test_levelset_over_under_rasters():
    disk = unit_disk()
    g = GridRegion([-1.5, -1.5], [1.5, 1.5], 0.1)
    over, under = g.blank(), g.blank()
    over.occupancy = g.cells_touching(disk)
    under.occupancy = g.cells_inside(disk)
    assert under.subset_of(over)
    # under: l < 0 at every corner (and the centre) of the cell; a corner
    # on the unit circle may pass by rounding
    corners = under.cell_centers()[:, None, :] + 0.05 * np.array(
        [[-1, -1], [-1, 1], [1, -1], [1, 1]]
    )
    assert np.all(np.linalg.norm(corners, axis=2) < 1.0 + 1e-12)
    assert np.all(np.linalg.norm(under.cell_centers(), axis=1) < 1.0)
    # over: l <= 0 at one sample suffices; l is exactly 0 at the corner
    # (1, 0) of the cell [1, 1.1] x [0, 0.1] and positive elsewhere in it
    assert over.contains_points([[1.05, 0.05]]).all()
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 2))
    pts = 0.97 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
    assert over.contains_points(pts).all()


def test_levelset_raster_evaluates_each_corner_once(monkeypatch):
    disk = unit_disk()
    g = GridRegion([-1.5, -1.5], [1.5, 1.5], 0.1)
    i0, i1 = g._ranges(disk.lo, disk.hi, pad=1)
    n0, n1 = i1 - i0
    points = []
    value = LevelSet.value

    def counting(self, pts):
        points.append(math.prod(np.shape(pts)[:-1]))
        return value(self, pts)

    monkeypatch.setattr(LevelSet, "value", counting)
    g.cells_touching(disk)
    # corner lattice plus centres; sampling every cell's corners apart costs 5 n0 n1
    assert sum(points) == (n0 + 1) * (n1 + 1) + n0 * n1


@pytest.mark.parametrize("h", [0.05, 0.07, 0.1, 0.13, 0.3])
@pytest.mark.parametrize("dim", [2, 3])
def test_levelset_values_match_per_cell_corners(dim, h):
    terms = " + ".join(f"x{j + 1}*x{j + 1}" for j in range(dim))
    ls = LevelSet(f"{terms} + 0.3*sin(x1*x2) - 1", [-1.2] * dim, [1.2] * dim)
    # the grid cuts the level set's padded box on the low side
    g = GridRegion([-0.9] * dim, [1.7] * dim, h)
    idx, vals = g._levelset_values(ls)
    samples = [*g._corners(idx), g.lo + (idx + 0.5) * g.h]
    assert idx.shape[0] > 0
    assert np.array_equal(vals, np.array([ls.value(p) for p in samples]))


def test_cells_touching_vs_inside_strip():
    g = GridRegion([0.0, 0.0], [1.0, 1.0], 0.25)
    strip = Polyhedron.from_inequalities([[1.0, 0.0], [-1.0, 0.0]], [0.6, -0.4])
    touch = g.cells_touching(strip)
    inside = g.cells_inside(strip)
    assert touch.sum() == 8  # two cell columns meet [0.4, 0.6]
    assert inside.sum() == 0  # no 0.25-cell fits in a 0.2 strip


def lp_touching(g, P):
    """Per-cell oracle: one feasibility LP of P intersected with each cell box."""
    mask = np.zeros(g.shape, bool)
    for idx in np.ndindex(*g.shape):
        probe = Polyhedron(P.ineqs + g._cell_box_rows(np.array(idx)), P.eqs)
        mask[idx] = not is_empty(probe)
    return mask


def test_cells_touching_counts_shared_edges_and_corners():
    g = GridRegion([0.0, 0.0], [1.0, 1.0], 0.25)
    cell = Polyhedron.box([0.25, 0.25], [0.5, 0.5])  # exactly cell (1, 1)
    touch = g.cells_touching(cell)
    assert np.array_equal(touch, lp_touching(g, cell))
    want = np.zeros(g.shape, bool)
    want[0:3, 0:3] = True  # itself, four edge neighbours, four corner neighbours
    assert np.array_equal(touch, want)


def test_cells_touching_vertex_on_cell_corner():
    g = GridRegion([0.0, 0.0], [1.0, 1.0], 0.25)
    tri = convex_hull_2d([[0.5, 0.5], [0.9, 0.6], [0.6, 0.9]])
    touch = g.cells_touching(tri)
    assert np.array_equal(touch, lp_touching(g, tri))
    assert touch[1, 1] and touch[1, 2] and touch[2, 1]  # the vertex alone meets these
    assert not touch[0, 0] and not touch[1, 3] and not touch[3, 1]


def test_cells_touching_segment_along_grid_line():
    g = GridRegion([0.0, 0.0], [1.0, 1.0], 0.25)
    seg = Polyhedron(
        (Halfspace([1.0, 0.0], 0.6), Halfspace([-1.0, 0.0], -0.1)),
        (Halfspace([0.0, 1.0], 0.5),),
    )
    touch = g.cells_touching(seg)
    assert np.array_equal(touch, lp_touching(g, seg))
    want = np.zeros(g.shape, bool)
    want[0:3, 1:3] = True  # both cell rows on either side of x2 = 0.5
    assert np.array_equal(touch, want)


@st.composite
def grid_and_polytope(draw):
    """A small 2D grid and a polygon, strip, half-plane or segment whose
    points lie on a lattice of h/den; den = 1 snaps them to grid lines."""
    h = draw(st.sampled_from([0.1, 0.125, 0.25, 0.3]))
    lo = np.array([draw(st.integers(-8, 8)), draw(st.integers(-8, 8))]) * 0.125
    n = np.array([draw(st.integers(1, 7)), draw(st.integers(1, 7))])
    g = GridRegion(lo, lo + n * h, h)
    den = draw(st.sampled_from([1, 1, 7, 29]))

    def point():
        k = [draw(st.integers(-den, (n[j] + 1) * den)) for j in range(2)]
        return lo + np.array(k) / den * h

    def normal():
        a = np.array([draw(st.integers(-3, 3)), draw(st.integers(-3, 3))], float)
        return a if a.any() else np.array([1.0, 0.0])

    kind = draw(st.sampled_from(["polygon", "halfplane", "strip", "segment"]))
    if kind == "polygon":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # collinear draws become a line
            pts = [point() for _ in range(draw(st.integers(3, 6)))]
            if np.ptp(np.array(pts), axis=0).max() == 0.0:
                pts[0] = pts[0] + h
            return g, convex_hull_2d(pts)
    a = normal()
    p, q = point(), point()
    if kind == "halfplane":
        return g, Polyhedron((Halfspace(a, a @ p),))
    if kind == "strip":
        lo_b, hi_b = sorted([a @ p, a @ q])
        return g, Polyhedron((Halfspace(a, hi_b), Halfspace(-a, -lo_b)))
    d = np.array([-a[1], a[0]])
    caps = (Halfspace(d, max(d @ p, d @ q)), Halfspace(-d, -min(d @ p, d @ q)))
    return g, Polyhedron(caps if draw(st.booleans()) else (), (Halfspace(a, a @ p),))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=grid_and_polytope())
def test_cells_touching_matches_lp_oracle_2d(case):
    g, P = case
    assert np.array_equal(g.cells_touching(P), lp_touching(g, P))


def test_cells_touching_3d_falls_back_to_lp(monkeypatch):
    calls = []

    def counted(P):
        calls.append(1)
        return is_empty(P)

    monkeypatch.setattr(facelift, "is_empty", counted)
    g = GridRegion([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], 0.4)
    # octahedron |x1| + |x2| + |x3| <= 0.8 with its vertices on grid lines;
    # a triangle in the plane x3 = 0.2 (an equality) cut by x1 + x2 <= 0.4;
    # a wedge whose edge runs along (-1, 1, 1), so four cells meet each row
    # alone but miss the wedge (separated along (0, 1, -1), no row's axis)
    octa = Polyhedron.from_inequalities(
        [[s1, s2, s3] for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)], [0.8] * 8
    )
    tri = Polyhedron(
        (Halfspace([1, 1, 0], 0.4), Halfspace([-1, 0, 0], 0.5), Halfspace([0, -1, 0], 0.5)),
        (Halfspace([0, 0, 1], 0.2),),
    )
    wedge = Polyhedron.from_inequalities([[1, 1, 0], [-1, 0, -1]], [0.1, -0.3])
    for P in (octa, tri, wedge):
        calls.clear()
        touch = g.cells_touching(P)
        assert 0 < len(calls) < touch.size  # some cells, not all, need the LP
        assert np.array_equal(touch, lp_touching(g, P))


def test_cells_touching_3d_plane_alone_needs_no_lp(monkeypatch):
    calls = []

    def counted(P):
        calls.append(1)
        return is_empty(P)

    monkeypatch.setattr(facelift, "is_empty", counted)
    g = GridRegion([-0.8, -0.8, -0.8], [0.8, 0.8, 0.8], 0.1)
    # a square in a tilted plane: only cells where a side row also cuts
    # need the LP; counting the plane's two rows apart sent 212 of them
    square = Polyhedron(
        tuple(Halfspace(a, 0.5) for a in ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0])),
        (Halfspace([0.3, 0.2, 1.0], 0.05),),
    )
    touch = g.cells_touching(square)
    assert touch.sum() == 224
    assert len(calls) == 72
    assert np.array_equal(touch, lp_touching(g, square))


@st.composite
def grid_and_polytope_3d(draw):
    """A 4x4x4 grid and a random polytope: a few random rows, a bounding
    box, and zero to two equalities through a point of the grid box."""
    g = GridRegion([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.25)

    def vec():
        return np.array([draw(st.integers(-3, 3)) for _ in range(3)], float)

    def row():
        a = vec()
        return a if a.any() else np.array([0.0, 0.0, 1.0])

    p = np.array([draw(st.integers(1, 7)) for _ in range(3)]) / 8.0
    rows = [row() for _ in range(draw(st.integers(0, 3)))]
    ineqs = tuple(Halfspace(a, a @ p + draw(st.integers(0, 4)) / 8.0) for a in rows)
    eqs = tuple(Halfspace(a, a @ p) for a in (row() for _ in range(draw(st.integers(0, 2)))))
    return g, Polyhedron(ineqs + Polyhedron.box(p - 0.45, p + 0.45).ineqs, eqs)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(case=grid_and_polytope_3d())
def test_cells_touching_matches_lp_oracle_3d(case):
    g, P = case
    assert np.array_equal(g.cells_touching(P), lp_touching(g, P))


def box_oracle(g, lo, hi):
    """Per-box, per-cell check: a cell is marked iff its closed box meets
    [lo, hi] within 1e-9 cells on every axis."""
    cells = np.moveaxis(np.indices(g.shape), 0, -1)  # each cell's index vector
    mask = np.zeros(g.shape, bool)
    for a, b in zip(lo, hi):
        ta, tb = (a - g.lo) / g.h, (b - g.lo) / g.h
        mask |= np.all((cells <= tb + 1e-9) & (cells + 1 >= ta - 1e-9), axis=-1)
    return mask


@st.composite
def grid_and_boxes(draw):
    """A small 2D or 3D grid and boxes whose edges lie on a lattice of
    h/den (den = 1: grid-aligned), zero width allowed, reaching up to
    three cells past the grid on either side."""
    dim = draw(st.sampled_from([2, 3]))
    h = draw(st.sampled_from([0.1, 0.25, 0.3]))
    lo = np.array([draw(st.integers(-4, 4)) for _ in range(dim)]) * 0.125
    n = np.array([draw(st.integers(1, 5)) for _ in range(dim)])
    g = GridRegion(lo, lo + n * h, h)
    den = draw(st.sampled_from([1, 1, 3, 7]))
    m = draw(st.integers(0, 5))
    start = np.array([[draw(st.integers(-3 * den, (n[j] + 3) * den)) for j in range(dim)]
                      for _ in range(m)]).reshape(m, dim)
    width = np.array([[draw(st.integers(0, 2 * den)) for _ in range(dim)]
                      for _ in range(m)]).reshape(m, dim)
    return g, lo + start / den * h, lo + (start + width) / den * h


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=grid_and_boxes())
def test_mark_boxes_matches_per_box_oracle(case):
    g, lo, hi = case
    g.mark_boxes(lo, hi)
    assert np.array_equal(g.occupancy, box_oracle(g, lo, hi))


def test_hausdorff_distances():
    a = GridRegion([0.0, 0.0], [2.0, 2.0], 0.2)
    b = a.blank()
    a.mark_points([[0.1, 0.1]])
    b.mark_points([[0.1, 0.1]])
    assert a.hausdorff(b) == 0.0
    b2 = a.blank()
    b2.mark_points([[0.7, 0.1]])  # three cells over
    assert a.hausdorff(b2) == pytest.approx(0.6)
    assert a.hausdorff(a.blank()) == math.inf
    assert a.blank().hausdorff(a.blank()) == 0.0
    far = a.blank()
    far.mark_points([[1.9, 1.9]])  # nine cells: beyond the default cap
    assert a.hausdorff(far) == math.inf

    def brute(A, B):
        ia, ib = np.argwhere(A), np.argwhere(B)
        d = np.max(np.abs(ia[:, None, :] - ib[None, :, :]), axis=2).min(axis=1).max()
        return math.inf if d > 8 else d * 0.1

    # random 2D/3D pairs, sparse enough that some gaps exceed the cap
    rng = np.random.default_rng(5)
    for trial in range(80):
        dim = 2 + trial % 2
        side = int(rng.integers(3, 24 if dim == 2 else 12))
        g = GridRegion(np.zeros(dim), np.full(dim, side * 0.1), 0.1)
        p, q = g.blank(), g.blank()
        p.occupancy = rng.random(g.shape) < 10 ** rng.uniform(-3, -0.5)
        q.occupancy = rng.random(g.shape) < 10 ** rng.uniform(-3, -0.5)
        if not p.occupancy.any() or not q.occupancy.any():
            continue
        want = max(brute(p.occupancy, q.occupancy), brute(q.occupancy, p.occupancy))
        assert p.hausdorff(q) == want


def test_symmetric_difference_and_subset():
    a = GridRegion([0.0, 0.0], [1.0, 1.0], 0.5)
    b = a.blank()
    a.mark_points([[0.1, 0.1], [0.9, 0.9]])
    b.mark_points([[0.1, 0.1]])
    assert b.subset_of(a)
    assert not a.subset_of(b)
    assert a.symmetric_difference_count(b) == 1


def test_boundary_cell_centers_strips_interior():
    g = GridRegion([0.0, 0.0], [1.0, 1.0], 0.2)
    g.occupancy[:, :] = True
    centers = g.boundary_cell_centers()
    assert centers.shape[0] == 16  # 5x5 block minus 3x3 interior
    assert not any(np.allclose(c, [0.5, 0.5]) for c in centers)


# ---------------------------------------------------------------------------
# time steps


def test_uniform_grid_clamps_tail():
    steps = _uniform_intervals(1.0, 0.3)
    assert np.allclose(steps, [(0.0, 0.3), (0.3, 0.6), (0.6, 0.9), (0.9, 1.0)])
    assert _uniform_intervals(0.7, 0.3) == [(0.0, 0.3), (0.3, 0.6), (0.6, 0.7)]
    assert _uniform_intervals(0.3, 0.1)[-1] == (0.2, 0.3)  # 3 * 0.1 > 0.3 is clamped
    assert _uniform_intervals(0.0, 0.3) == []
    assert _uniform_intervals(0.0) == []
    assert np.allclose(_uniform_intervals(2.0), [(k / 4, (k + 1) / 4) for k in range(8)])


def test_grid_validation():
    with pytest.raises(ValueError):
        _uniform_intervals(-0.1, 0.1)
    with pytest.raises(ValueError):
        _uniform_intervals(1.0, 0.0)
    with pytest.raises(ValueError):
        _uniform_intervals(1.0, -0.2)
    inv = Polyhedron.box([-1.0, -1.0], [3.0, 3.0])
    with pytest.raises(ValueError):
        reach_invariant(unit_square(), SLIDE, inv, dt=0.0)


def _timegrid_intervals(tau, dt):
    """The step rule of the former TimeGrid.uniform(tau, dt).intervals(tau),
    kept verbatim as the oracle for _uniform_intervals."""
    n = int(math.floor(tau / dt + 1e-9))
    times = np.arange(n + 1) * dt
    if times[-1] < tau - 1e-12:
        times = np.append(times, tau)
    out = []
    for t0, t1 in zip(times[:-1], times[1:]):
        if t0 >= tau - 1e-12:
            break
        t1 = min(t1, tau)
        out.append((float(t0), float(t1)))
    return out


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.floats(0.0, 10.0, allow_nan=False),
            st.floats(1e-3, 12.0, allow_nan=False),
        ),
        # exact divisors, also of zero: in floats, and in decimals, where
        # k * dt can land just above tau
        st.tuples(st.integers(0, 40), st.floats(1e-3, 2.0, allow_nan=False)).map(
            lambda p: (p[0] * p[1], p[1])
        ),
        st.tuples(st.integers(0, 40), st.integers(1, 200)).map(
            lambda p: (p[0] * p[1] / 100, p[1] / 100)
        ),
        st.floats(1e-3, 5.0, allow_nan=False).map(lambda dt: (0.0, dt)),
    )
)
def test_uniform_intervals_match_timegrid_rule(pair):
    tau, dt = pair
    got = _uniform_intervals(tau, dt)
    assert got == _timegrid_intervals(tau, dt)
    assert all(type(t) is float for step in got for t in step)
    if tau > 1e-12:
        assert abs(got[-1][1] - tau) <= 1e-12


# ---------------------------------------------------------------------------
# boundary classification


def test_classify_square_under_diagonal_drift():
    front = classify_boundary(unit_square(), DRIFT, 0.05)
    assert front.dropped == 0
    assert set(front.tags) == {"outflow", "inflow"}
    for p, tag in zip(front.points, front.tags):
        on_right, on_top = abs(p[0] - 1.0) < 1e-9, abs(p[1] - 1.0) < 1e-9
        assert tag == ("outflow" if on_right or on_top else "inflow")
    # lifted front = the outward half, split per facet
    kept = front.front_points
    assert kept.shape[0] * 2 == front.points.shape[0]


def test_classify_tags_match_dot_signs():
    for init, dyn in [
        (unit_square(), DRIFT),
        (offset_square(), ROT),
        (unit_disk(), ExpressionDynamics.parse(["x1", "x2"])),
    ]:
        front = classify_boundary(init, dyn, 0.05)
        f = dyn.evaluate(front.points)
        tol = 1e-9 * (1.0 + np.linalg.norm(f, axis=1))
        assert np.all(front.dots[front.tags == "outflow"] > tol[front.tags == "outflow"])
        assert np.all(front.dots[front.tags == "inflow"] < -tol[front.tags == "inflow"])
        mid = front.tags == "tangential"
        assert np.all(np.abs(front.dots[mid]) <= tol[mid])


def test_classify_disk_rotation_all_tangential():
    front = classify_boundary(unit_disk(), ROT, 0.05)
    assert np.all(front.tags == "tangential")
    assert front.front_points.shape[0] == front.points.shape[0]
    # one closed chain ordered by angle
    assert len(front.chains) == 1 and front.chains[0][2] is True
    ang = np.arctan2(front.points[:, 1], front.points[:, 0])
    assert np.all(np.diff(np.unwrap(ang)) > 0)


def test_classify_disk_radial_field():
    out = classify_boundary(unit_disk(), ExpressionDynamics.parse(["x1", "x2"]), 0.05)
    assert np.all(out.tags == "outflow")
    inn = classify_boundary(unit_disk(), ExpressionDynamics.parse(["-x1", "-x2"]), 0.05)
    assert np.all(inn.tags == "inflow")
    assert inn.front_chains() == []


def test_classify_disk_samples_near_circle():
    front = classify_boundary(unit_disk(), ROT, 0.04)
    r = np.linalg.norm(front.points, axis=1)
    assert np.max(np.abs(r - 1.0)) < 1e-7
    gaps = np.linalg.norm(np.roll(front.points, -1, axis=0) - front.points, axis=1)
    assert np.max(gaps) < 3.0 * 0.04


def test_classify_empty_cases():
    with pytest.raises(EmptyBoundary):
        classify_boundary(
            Polyhedron.from_inequalities([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0]),
            DRIFT,
            0.05,
        )
    with pytest.raises(EmptyBoundary):
        classify_boundary(
            LevelSet("x1*x1 + x2*x2 + 1", [-1.0, -1.0], [1.0, 1.0]), DRIFT, 0.05
        )


def test_classify_sphere_projects_lattice_onto_zero_set():
    sphere = LevelSet("x1*x1 + x2*x2 + x3*x3 - 1", [-1.3] * 3, [1.3] * 3)
    front = classify_boundary(sphere, LinearDynamics(np.eye(3)), 0.2)
    m = front.points.shape[0]
    assert m > 0
    assert np.all(np.abs(sphere.value(front.points)) < 1e-9)
    assert front.dropped == 0
    assert front.chains == [(0, m, None)]


# sha256 of the sample bytes and the dropped count, recorded from the
# per-point Newton loops the batched projection replaced
LEVELSET_DIGESTS = [
    (unit_disk(), 0.025, "b049d1383cc76adc76ab9384881551c9c8cbcb8a10565048a95abb5596a09ab7", 0),
    (unit_disk(), 0.005, "003e1977a089ac7eff37725dfd6919676e14ac6fb57e369b8be740569f6c4956", 0),
    (
        LevelSet("x1*x1 - x2*x2", [-1.0, -1.0], [1.0, 1.0]),
        0.025,
        "f3fa0776d30b21b02aece41f9f3a7e955af07ce5c3c5b788a43c6e31eee1b875",
        0,
    ),
    # the x1 = 0 branch has a vanishing gradient: its samples are dropped
    (
        LevelSet("x1*x1*x1*(x1*x1 + x2*x2 - 0.25)", [-1.0, -1.0], [1.0, 1.0]),
        0.05,
        "6646c4c4add7944451e69b8725e47f97e4a9d851561c9b425d8f123c54844762",
        80,
    ),
    (
        LevelSet("x1*x1 + x2*x2 + x3*x3 - 1", [-1.3] * 3, [1.3] * 3),
        0.2,
        "a280ddada5f51c390c0d4b1298c432a40012dac11525a22f0a44071bcbb265a3",
        0,
    ),
    # the lattice hits the center, where the gradient vanishes
    (
        LevelSet("x1*x1 + x2*x2 + x3*x3 - 1", [-1.3] * 3, [1.3] * 3),
        0.1,
        "5b6dc76e6bb4eef907c9f109135c5bb775fdc5e432714c239223837a72e43c8e",
        1,
    ),
]


@pytest.mark.parametrize("ls,h_b,digest,dropped", LEVELSET_DIGESTS)
def test_levelset_boundary_samples_are_unchanged(ls, h_b, digest, dropped):
    pts, got_dropped = _levelset_boundary(ls, h_b)
    assert hashlib.sha256(pts.tobytes()).hexdigest() == digest
    assert got_dropped == dropped


# ---------------------------------------------------------------------------
# bounded-time reach, front path


def test_drift_square_tube_covers_true_reach():
    tau = 1.0
    tube = reach_bounded_time(unit_square(), DRIFT, tau, dt=0.125, h=0.05)
    assert tube.direction == "over"
    assert tube.iterations == 8
    assert not tube.front_collapse
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 1.0, size=(300, 2))
    t = rng.uniform(0.0, tau, size=(300, 1))
    assert tube.contains(a + t).all()
    # swept area is 1 + 2 tau; the raster should stay near that
    area = tube.combined_region().count() * tube.occupancy.h ** 2
    assert area < 1.55 * (1.0 + 2.0 * tau)


def test_drift_under_inside_over():
    kw = dict(dt=0.125, h=0.05, box=([-1.0, -1.0], [3.0, 3.0]))
    over = reach_bounded_time(unit_square(), DRIFT, 1.0, **kw)
    under = reach_bounded_time(unit_square(), DRIFT, 1.0, under=True, **kw)
    assert under.direction == "exact-sampled"
    assert under.combined_region().count() > 0
    assert under.combined_region().subset_of(over.combined_region())
    # under cells really are reachable: every center lies in the exact sweep
    for c in under.region().cell_centers():
        # x(t) = x0 + t (1,1): reachable iff some backshift lands in the square
        lo = max(c[0] - 1.0, c[1] - 1.0, 0.0)
        hi = min(c[0], c[1], 1.0)
        assert lo <= hi + 0.075  # half-diagonal slack for cell snapping


def test_monotone_accumulation():
    tube = reach_bounded_time(unit_square(), DRIFT, 1.0, dt=0.25, h=0.1)
    running = tube.initial_region.copy()
    counts = [running.count()]
    for _, _, seg in tube.segments:
        running.include(seg)
        counts.append(running.count())
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] == tube.combined_region().count()


def test_zero_horizon_is_initial_only():
    tube = reach_bounded_time(unit_square(), DRIFT, 0.0, h=0.1)
    assert tube.segments == []
    assert tube.occupancy.count() == 0
    assert tube.contains(np.array([[0.5, 0.5]]))[0]


def test_rotation_disk_stays_put():
    h = 0.05
    tube = reach_bounded_time(unit_disk(), ROT, math.pi / 4, dt=math.pi / 16, h=h)
    centers = tube.combined_region().cell_centers()
    assert np.max(np.linalg.norm(centers, axis=1)) <= 1.0 + 1.5 * h * math.sqrt(2.0)
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(150, 2))
    pts = 0.9 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
    assert tube.contains(pts).all()


def test_deterministic_rerun():
    a = reach_bounded_time(unit_square(), DRIFT, 0.5, dt=0.125, h=0.1)
    b = reach_bounded_time(unit_square(), DRIFT, 0.5, dt=0.125, h=0.1)
    assert np.array_equal(a.occupancy.occupancy, b.occupancy.occupancy)
    assert [s[:2] for s in a.segments] == [s[:2] for s in b.segments]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the blow-up raises, it does not warn
def test_step_too_coarse_on_blowup():
    square = Polyhedron.box([2.0, 0.0], [3.0, 1.0])
    dyn = ExpressionDynamics.parse(["x1*x1", "0"])
    with pytest.raises(StepTooCoarse):
        reach_bounded_time(
            square, dyn, 1.0, dt=1.0, h=0.05, box=([0.0, -1.0], [1000.0, 2.0])
        )


def test_semigroup_restart_from_boundary():
    box = ([-0.6, -0.6], [2.6, 2.6])
    h = 0.05
    first = reach_bounded_time(unit_square(), DRIFT, 0.5, dt=0.125, h=h, box=box)
    direct = reach_bounded_time(unit_square(), DRIFT, 1.0, dt=0.125, h=h, box=box)
    # restart: evolve the half-time region boundary for the remaining time
    region = first.combined_region()
    chains = [(region.boundary_cell_centers(), None)]
    intervals = _uniform_intervals(0.5, 0.125)
    steps = _front_sweep(chains, unit_square(), DRIFT, intervals, region, h, h / 2.0)
    for _, _, kept, _, _ in steps:
        region.include(kept)
    gap = region.hausdorff(direct.combined_region())
    assert gap <= 2.0 * h + 1e-12


# ---------------------------------------------------------------------------
# bounded-time reach, linear-polyhedral path


def test_rotation_square_polyhedral_tube():
    tau = math.pi / 2
    tube = reach_bounded_time(offset_square(), ROT, tau, dt=math.pi / 8)
    assert tube.occupancy is None
    assert len(tube.segments) == 4
    for _, _, payload in tube.segments:
        assert payload and all(isinstance(P, Polyhedron) for P in payload)
    rng = np.random.default_rng(23)
    x0 = rng.uniform(0.9, 1.1, size=(250, 2))
    t = rng.uniform(0.0, tau, size=250)
    moved = np.stack([flow(ROT, x0[i], t[i]) for i in range(250)])
    assert tube.contains(moved).all()


def test_rotation_square_front_path_matches_membership():
    tau = math.pi / 4
    poly = reach_bounded_time(offset_square(), ROT, tau, dt=math.pi / 16)
    # the same rotation as an expression field takes the front path
    rot_expr = ExpressionDynamics.parse(["-x2", "x1"])
    front = reach_bounded_time(offset_square(), rot_expr, tau, dt=math.pi / 16, h=0.04)
    assert front.occupancy is not None
    # the polyhedral tube over-approximates; grid cells it misses must be rare
    centers = front.combined_region().cell_centers()
    inside = poly.contains(centers)
    assert np.mean(inside) > 0.9


def test_mixed_face_raises_a2():
    centered = Polyhedron.box([-0.5, -0.5], [0.5, 0.5])
    with pytest.raises(AssumptionA2Violated):
        reach_bounded_time(centered, ROT, 0.5, dt=0.25)


# ---------------------------------------------------------------------------
# invariant-constrained reach


def test_slide_invariant_terminates_and_covers():
    square = unit_square()
    inv = Polyhedron.box([0.0, 0.0], [3.0, 1.0])
    tube = reach_invariant(square, SLIDE, inv, dt=0.25, h=0.05)
    assert tube.front_collapse
    assert not tube.iteration_cap
    assert tube.iterations <= 13
    xs = np.linspace(0.05, 2.95, 40)
    ys = np.linspace(0.05, 0.95, 12)
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    assert tube.contains(pts).all()
    centers = tube.combined_region().cell_centers()
    assert np.max(centers[:, 0]) <= 3.0 + 2.5 * 0.05
    assert np.max(np.abs(centers[:, 1] - 0.5)) <= 0.5 + 2.5 * 0.05


def test_slide_invariant_under_flavor():
    square = unit_square()
    inv = Polyhedron.box([0.0, 0.0], [3.0, 1.0])
    tube = reach_invariant(
        square, SLIDE, inv, dt=0.25, h=0.05, under=True
    )
    assert tube.direction == "under"
    combined_under = tube.combined_region()
    over = tube.occupancy.copy()
    over.include(tube.initial_region)
    assert combined_under.subset_of(over)
    # certified cells stay inside the invariant
    assert inv.contains(combined_under.cell_centers(), tol=1e-9).all()
    assert combined_under.count() > 0


@pytest.mark.parametrize(
    "init,dyn,box",
    [
        (unit_square(), DRIFT, ([-0.6, -0.6], [2.6, 2.6])),
        (offset_square(), ExpressionDynamics.parse(["-x2", "x1"]), ([-1.0, -0.2], [1.4, 1.8])),
        (
            LevelSet("(x1 - 1)*(x1 - 1) + x2*x2 - 0.09", [0.5, -0.5], [1.5, 0.5]),
            ExpressionDynamics.parse(["x2", "-sin(x1) - 0.5*x2"]),
            ([-0.2, -1.4], [1.8, 0.8]),
        ),
    ],
    ids=["drift-square", "rotation-square", "pendulum-disk"],
)
def test_vacuous_invariant_gives_bounded_time_sweep(init, dyn, box):
    # with the whole grid box as invariant nothing escapes, so the exit
    # shadow prunes nothing and each step sweeps the bounded-time cells
    bounded = reach_bounded_time(init, dyn, 1.0, dt=0.125, h=0.05, box=box)
    n = len(bounded.segments)
    assert n == 8
    tube = reach_invariant(
        init, dyn, Polyhedron.box(*box), dt=0.125, h=0.05, box=box, max_iters=n
    )
    assert len(tube.segments) == n
    for (t0, t1, seg), (u0, u1, useg) in zip(bounded.segments, tube.segments):
        assert (t0, t1) == (u0, u1)
        assert np.array_equal(seg.occupancy, useg.occupancy)


def test_levelset_boundary_is_sampled_once_per_invariant_reach(monkeypatch):
    calls = []

    def counted(ls, h_b):
        calls.append(h_b)
        return _levelset_boundary(ls, h_b)

    monkeypatch.setattr(facelift, "_levelset_boundary", counted)
    disk = LevelSet(
        "(x1 - 0.8)*(x1 - 0.8) + (x2 - 0.5)*(x2 - 0.5) - 0.25", [0.2, -0.1], [1.4, 1.1]
    )
    inv = Polyhedron.box([0.0, 0.0], [3.0, 1.0])
    tube = reach_invariant(disk, SLIDE, inv, dt=0.25, h=0.05)
    assert calls == [0.025]  # the containment check and the front share it
    # segment occupancy recorded when each consumer sampled the boundary itself
    occ = b"".join(seg.occupancy.tobytes() for _, _, seg in tube.segments)
    assert hashlib.sha256(occ).hexdigest()[:16] == "2bebcaf798f5d148"


def test_invariant_precondition():
    square = unit_square()
    inv = Polyhedron.box([0.5, 0.0], [3.0, 1.0])
    with pytest.raises(PreconditionViolated):
        reach_invariant(square, SLIDE, inv, dt=0.25, h=0.1)


def test_periodic_orbit_hits_iteration_cap():
    inv = Polyhedron.box([-2.0, -2.0], [2.0, 2.0])
    tube = reach_invariant(
        offset_square(), ROT, inv, dt=math.pi / 16, h=0.05, max_iters=10
    )
    assert tube.iteration_cap
    assert not tube.front_collapse
    assert tube.iterations == 10


def test_invariant_requires_step():
    with pytest.raises(ValueError):
        reach_invariant(unit_square(), SLIDE, Polyhedron.box([0, 0], [3, 1]))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_near_shadow_matches_dense_distances(dim):
    rng = np.random.default_rng(dim)
    ties = 0
    for trial in range(200):
        h = float(rng.choice([0.01, 0.05, 0.25, 1.0]))
        # every seventh case has a single front sample, the next a single
        # shadow point
        n = 1 if trial % 7 == 0 else int(rng.integers(1, 40))
        m = 1 if trial % 7 == 1 else int(rng.integers(1, 40))
        if trial % 2:
            # lattice points, negative ones included: many pairs exactly h
            # apart, front samples on cell centers or on cell edges
            shift = 0.5 * h * (trial % 4 == 1)
            pts = rng.integers(-5, 5, (n, dim)) * h + shift
            v_pts = rng.integers(-5, 5, (m, dim)) * h
        else:
            pts = rng.uniform(-4.0 * h, 4.0 * h, (n, dim))
            v_pts = rng.uniform(-3.0 * h, 3.0 * h, (m, dim)) + rng.uniform(-h, h, dim)
        thr = h * h * (1.0 - 1e-9)
        # the reference: the dense front x shadow x dim block it replaced
        d2 = np.sum((pts[:, None, :] - v_pts[None, :, :]) ** 2, axis=2)
        ties += int(np.sum(np.abs(d2 - h * h) < 1e-12 * h * h))
        got = _near_shadow(pts, v_pts, h, thr)
        assert got.dtype == bool and got.shape == (n,)
        assert np.array_equal(got, d2.min(axis=1) < thr), trial
    assert ties > 0


def test_invariant_reach_memory_is_linear_in_front_and_shadow():
    # the dense front x shadow prune peaked at about 40 MB here
    m = load_model(bundled_model_path("drift_invariant.json"))
    tracemalloc.start()
    try:
        reach_invariant(
            m.initial,
            m.dynamics,
            m.invariant,
            dt=m.grid_value("dt"),
            h=0.02,
            max_iters=m.flag("max_iters"),
            tau_max=m.grid_value("tau"),
            h_b=m.grid_value("boundary_spacing"),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


# ---------------------------------------------------------------------------
# boundary equivalence


def test_equivalence_drift_square():
    report = check_boundary_equivalence(unit_square(), DRIFT, 0.5, h=0.05)
    assert report["passes"]
    assert report["max_gap"] <= 2.0 * 0.05 + 1e-12
    assert report["cells"]["full"] > 0
    assert set(report["sym_diff"]) == {
        "full_vs_boundary",
        "full_vs_outflow",
        "boundary_vs_outflow",
    }


def test_equivalence_rotation_square():
    report = check_boundary_equivalence(offset_square(), ROT, 0.8, h=0.05)
    assert report["passes"]
    assert all(g <= 0.1 + 1e-12 for g in report["hausdorff"].values())
