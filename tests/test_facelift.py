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
    BudgetExceeded,
    DimMismatch,
    EmptyBoundary,
    NonFiniteState,
    PreconditionViolated,
    StepTooCoarse,
)
from reachkit.facelift import (
    GridRegion,
    LevelSet,
    _advect,
    _front_sweep,
    _max_speed,
    _levelset_boundary,
    _polyhedron_faces,
    _resample_chain,
    _segment_interior_lattice,
    _split_runs,
    _sum_sq,
    _uniform_intervals,
    check_boundary_equivalence,
    classify_boundary,
    reach_bounded_time,
    reach_invariant,
)
from reachkit.flow import ExpressionDynamics, LinearDynamics, expm, flow
from reachkit.flow import trajectory as flow_trajectory
from reachkit.geometry import Face, Halfspace, Polyhedron, convex_hull_2d, is_empty
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
    corners = [g.lo + (idx + np.array(c)) * g.h for c in np.ndindex(*(2,) * dim)]
    samples = [*corners, g.lo + (idx + 0.5) * g.h]
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


def corner_inside(g, P):
    """The corner rule that cells_inside replaced, kept as its reference:
    a cell of the window is inside when all 2^d corners are (up to 1e-9)."""
    idx = g._poly_window(P)
    corners = [g.lo + (idx + np.array(c)) * g.h for c in np.ndindex(*(2,) * g.dim)]
    inside = [P.contains(p, tol=1e-9) for p in corners]
    return g._mask(idx, np.all(inside, axis=0))


def random_inside_case(rng):
    """A grid (2D or 3D, origin near 0 or at 1e6) and a polyhedron: a box
    on grid lines, a random polytope, or either with an equality row."""
    dim = int(rng.integers(2, 4))
    h = float(rng.choice([0.05, 0.1, 0.125, 0.3]))
    origin = float(rng.choice([0.0, 1e6])) + rng.integers(-3, 4) * h * rng.choice([1.0, 0.37])
    lo = np.full(dim, origin)
    n = 12 if dim == 2 else 6
    g = GridRegion(lo, lo + n * h, h)
    kind = rng.integers(0, 3)
    if kind == 0:
        a, b = np.sort(rng.integers(-1, n + 2, (2, dim)), axis=0)
        P = Polyhedron.box(lo + a * h, lo + (b + rng.integers(0, 2)) * h)
    else:
        c = lo + rng.uniform(0.2, 0.8, dim) * n * h
        rows = rng.normal(size=(int(rng.integers(dim + 1, 7)), dim))
        if kind == 2:
            rows = np.round(rows)  # axis rows and exact ties with grid lines
            rows[~rows.any(axis=1), 0] = 1.0
        P = Polyhedron.from_inequalities(rows, rows @ c + rng.uniform(0.0, 0.5 * n * h, rows.shape[0]))
    if rng.random() < 0.25:
        a = rng.integers(-1, 2, dim).astype(float)
        a[0] = 1.0
        eq = Halfspace(a, a @ (lo + rng.integers(0, n, dim) * h))
        P = Polyhedron(P.ineqs, (eq,))
    return g, P


def test_cells_inside_matches_the_corner_rule():
    rng = np.random.default_rng(20261019)
    marked = 0
    for trial in range(400):
        g, P = random_inside_case(rng)
        got = g.cells_inside(P)
        assert np.array_equal(got, corner_inside(g, P)), trial
        marked += int(got.sum())
    assert marked > 0


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


def floor_reference(g, pts):
    """The per-axis point raster that flat cell numbers replaced: cell
    indices floor((p - lo)/h) clamped into the grid, and an in-box mask
    that admits 1e-9 cells of slack at the box faces."""
    pts = np.asarray(pts, float)
    if pts.size == 0:
        return np.zeros((0, g.dim), int), np.zeros(0, bool)
    t = (np.atleast_2d(pts) - g.lo) / g.h
    shape = np.array(g.shape)
    inbox = np.all((t > -1e-9) & (t < shape + 1e-9), axis=1)
    return np.clip(np.floor(t).astype(int), 0, shape - 1), inbox


@st.composite
def grid_and_points(draw):
    """A 1D-3D grid with a drawn occupancy, and a batch of 0-12 points
    whose coordinates lie on cell edges, within a few 1e-9 cells of a box
    face, or anywhere up to two cells past the box."""
    dim = draw(st.integers(1, 3))
    h = draw(st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.3]))
    lo = np.array([draw(st.integers(-40, 40)) for _ in range(dim)]) * 0.0625
    n = np.array([draw(st.integers(1, 6)) for _ in range(dim)])
    g = GridRegion(lo, lo + n * h, h)
    g.occupancy = np.array(
        draw(st.lists(st.booleans(), min_size=g.occupancy.size, max_size=g.occupancy.size)),
        bool,
    ).reshape(g.shape)
    n = np.array(g.shape)

    def coordinate(j):
        kind = draw(st.sampled_from(["edge", "face", "any"]))
        if kind == "edge":
            return g.lo[j] + draw(st.integers(-2, n[j] + 2)) * g.h
        if kind == "face":
            off = draw(st.sampled_from([-3e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 3e-9]))
            return g.lo[j] + (draw(st.sampled_from([0, n[j]])) + off) * g.h
        return draw(st.floats(g.lo[j] - 2 * g.h, g.lo[j] + (n[j] + 2) * g.h))

    m = draw(st.integers(0, 12))
    pts = np.array([[coordinate(j) for j in range(dim)] for _ in range(m)]).reshape(m, dim)
    return g, pts, draw(st.integers(0, m))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=grid_and_points())
def test_flat_cells_match_the_floor_rule(case):
    g, pts, k = case
    ref = g.occupancy.copy()
    idx, inbox = floor_reference(g, pts)
    want_in = np.zeros(len(pts), bool)
    want_in[inbox] = ref[tuple(idx[inbox].T)]
    interior = g._interior_mask()
    want_interior = np.zeros(len(pts), bool)
    want_interior[inbox] = interior[tuple(idx[inbox].T)]
    assert np.array_equal(g.contains_points(pts), want_in)
    assert np.array_equal(g.interior_contains_points(pts), want_interior)

    # mark a prefix of the batch, then one point alone and an empty batch
    idx, inbox = floor_reference(g, pts[:k])
    ref[tuple(idx[inbox].T)] = True
    oob = int(np.sum(~inbox))
    g.mark_points(pts[:k])
    if k < len(pts):
        idx, inbox = floor_reference(g, pts[k])
        ref[tuple(idx[inbox].T)] = True
        oob += int(np.sum(~inbox))
        g.mark_points(pts[k])
    g.mark_points(np.zeros((0, g.dim)))
    assert np.array_equal(g.occupancy, ref)
    assert g.out_of_box == oob


def test_non_finite_points_lie_outside():
    g = GridRegion([0.0, 0.0], [1.0, 1.0], 0.25)
    pts = [[np.nan, 0.5], [0.5, np.inf], [-np.inf, 0.5], [0.5, 0.5]]
    g.mark_points(pts)
    assert g.count() == 1 and g.out_of_box == 3
    assert g.contains_points(pts).tolist() == [False, False, False, True]


def test_marking_writes_into_the_regions_own_array():
    g = GridRegion([0.0, 0.0], [1.0, 0.5], 0.25)
    for region in (g.copy(), g.blank()):
        region.mark_points([[0.1, 0.1]])
        assert region.count() == 1
    assert g.count() == 0
    a, b = g.blank(), g.blank()
    b.mark_points([[0.9, 0.4]])
    a.occupancy = a.occupancy | b.occupancy
    a.mark_points([[0.1, 0.1]])
    assert a.count() == 2 and b.count() == 1
    # an occupancy that is not C-ordered is written in place too
    a.occupancy = np.zeros(g.shape[::-1], bool).T
    a.mark_points([[0.6, 0.3]])
    assert np.argwhere(a.occupancy).tolist() == [[2, 1]]
    assert a.contains_points([[0.6, 0.3], [0.3, 0.6]]).tolist() == [True, False]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    exponent=st.integers(0, 6),
    lo=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
    width=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
    h=st.sampled_from([0.01, 0.02, 0.05, 0.1]),
)
def test_blank_and_copy_keep_the_layout(exponent, lo, width, h):
    lo = np.array(lo) * 10.0**exponent
    g = GridRegion(lo, lo + np.array(width), h)
    for other in (g.blank(), g.copy()):
        assert other.shape == g.shape
        other.include(g)
        g.include(other)


def test_layouts_a_few_cells_apart_far_from_the_origin_differ():
    g = GridRegion([1e6, 0.0], [1e6 + 1.0, 1.0], 0.05)
    shifted = GridRegion([1e6 + 0.5, 0.0], [1e6 + 1.5, 1.0], 0.05)  # ten cells right
    assert g.compatible(g.blank()) and g.compatible(g.copy())
    assert not g.compatible(shifted)
    shifted.mark_points([[1e6 + 0.51, 0.5]])
    with pytest.raises(DimMismatch, match="grid layouts differ"):
        g.include(shifted)


def transposed_cells(grid, pts):
    """Reference: GridRegion._cells as one transposed (d, m) array of
    (p - lo)/h, before the cell numbers were summed axis by axis in place."""
    pts = np.asarray(pts, float)
    if pts.size == 0:
        return np.zeros(0, np.intp)
    t = (np.atleast_2d(pts).T - grid.lo[:, None]) / grid.h
    inbox = np.ones(t.shape[1], bool)
    cells = np.zeros(t.shape[1], np.intp)
    with np.errstate(invalid="ignore"):
        for tj, n, stride in zip(t, grid.shape, grid._strides):
            inbox &= (tj > -1e-9) & (tj < n + 1e-9)
            cells += np.clip(tj, 0.0, n - 1.0).astype(np.intp) * stride
    cells[~inbox] = -1
    return cells


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cells_match_the_transposed_formula(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(20):
        h = float(rng.choice([0.01, 0.05, 0.1, 0.3]))
        lo = rng.uniform(-2.0, 2.0, dim)
        grid = GridRegion(lo, lo + rng.uniform(0.2, 1.5, dim), h)
        inside = rng.uniform(grid.lo - 2 * h, grid.hi + 2 * h, (300, dim))
        # points on shared cell edges, and within or beyond 1e-9 cells of the box
        edges = grid.lo + rng.integers(0, max(grid.shape) + 1, (100, dim)) * h
        rim = np.where(rng.random((100, dim)) < 0.5, grid.lo, grid.hi)
        rim = rim + rng.choice([-2e-9, -0.5e-9, 0.0, 0.5e-9, 2e-9], (100, dim)) * h
        odd = rng.uniform(grid.lo, grid.hi, (60, dim))
        odd[rng.random((60, dim)) < 0.3] = np.nan
        odd[rng.random((60, dim)) < 0.2] = np.inf
        odd[rng.random((60, dim)) < 0.2] = -np.inf
        pts = np.vstack([inside, edges, rim, odd])[rng.permutation(560)]
        got = grid._cells(pts)
        assert got.dtype == np.intp
        assert np.array_equal(got, transposed_cells(grid, pts))
        assert np.any(got == -1) and np.any(got >= 0)
    for pts in (np.zeros((0, dim)), grid.lo, grid.lo + 0.5 * h):  # empty, and a lone point
        assert np.array_equal(grid._cells(pts), transposed_cells(grid, pts))


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


def test_size_budgets_refuse_before_allocating():
    segment = Face(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0)
    calls = [
        (_uniform_intervals, 1e300, 0.1),
        (_uniform_intervals, 1.0, 0.5 / facelift.MAX_TIME_STEPS),
        (GridRegion, [0.0, 0.0], [1.0, 1.0], 1e-12),
        (GridRegion, [0.0, 0.0], [1e300, 1.0], 0.05),
        (GridRegion, [-1e308, 0.0], [1e308, 1.0], 1.0),  # the span itself overflows
        (_segment_interior_lattice, segment, 1e-12),
    ]
    tracemalloc.start()
    try:
        for fn, *args in calls:
            with pytest.raises(BudgetExceeded, match="exceed the budget"):
                fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert GridRegion([0.0, 0.0], [1.0, 1.0], 1e-3).shape == (1000, 1000)
    assert len(_segment_interior_lattice(segment, 0.25)) == 4


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


def scaled_copy_polytopes():
    """3D polytopes that each carry a positively scaled copy of one row.
    In the second the copy's unit row differs from the original's in the
    last bits, and an implied row comes last."""
    box = Polyhedron.box([0.0, 0.0, 0.0], [1.0, 0.8, 0.6])
    first = box.ineqs[0]
    cut = Halfspace(np.array([1.0, 1.0, 1.0]), 1.1)
    cube = Polyhedron.box([-0.5] * 3, [0.5] * 3)
    return [
        Polyhedron(box.ineqs + (Halfspace(3.0 * first.normal, 3.0 * first.offset),)),
        Polyhedron(
            (cut, *cube.ineqs, Halfspace(0.37 * cut.normal, 0.37 * cut.offset),
             Halfspace(np.array([1.0, 0.0, 0.0]), 5.0))
        ),
    ]


def faces_digest(P):
    h = hashlib.sha256()
    for i, face in _polyhedron_faces(P):
        h.update(repr(i).encode())
        for arr in (face.side_normals, face.side_offsets, face.base_normal):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(face.base_offset.hex().encode())
    return h.hexdigest()[:16]


# sha256 prefixes of the facet rows and of the classified boundary
# samples, recorded before the row dedupe and the facet lattice were
# shared with geometry and polyapprox
SCALED_COPY_DIGESTS = [
    ("051250db629b344b", "d0ec4b26bac08bfa"),
    ("aca1baf114fdff1c", "afb8c117eb616104"),
]


@pytest.mark.parametrize("which", [0, 1])
def test_scaled_copy_polytopes_are_pinned(which):
    P = scaled_copy_polytopes()[which]
    faces_pin, points_pin = SCALED_COPY_DIGESTS[which]
    assert faces_digest(P) == faces_pin
    front = classify_boundary(P, ExpressionDynamics.parse(["1", "0.5", "0.25"]), 0.1)
    assert hashlib.sha256(front.points.tobytes()).hexdigest()[:16] == points_pin


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
    # the sweep adds each step's swept cells to region itself
    for _ in _front_sweep(chains, unit_square(), DRIFT, intervals, region, h / 2.0):
        pass
    gap = region.hausdorff(direct.combined_region())
    assert gap <= 2.0 * h + 1e-12


# ---------------------------------------------------------------------------
# front step kernels against their loop references


def loop_split_runs(m, closed, keep):
    """Index-loop reference for _split_runs."""
    idx = np.arange(m)
    keep = np.asarray(keep, bool)
    if m == 0 or not keep.any():
        return []
    if closed is None:
        return [(np.array([i for i in range(m) if keep[i]], int), None)]
    if keep.all():
        return [(idx, closed)]
    if closed is True:
        drop = int(np.nonzero(~keep)[0][0])
        idx = np.roll(idx, -drop)
        keep = keep[idx]
    runs, start = [], None
    for i in range(m):
        if keep[i] and start is None:
            start = i
        elif not keep[i] and start is not None:
            runs.append((idx[start:i], False))
            start = None
    if start is not None:
        runs.append((idx[start:], False))
    return runs


@pytest.mark.parametrize("cols", [1, 2, 3, 4])
def test_first_rows_match_unique_then_sort(cols):
    rng = np.random.default_rng(200 + cols)
    for m in (0, 1, 2, 9, 300, 4000):
        for span in (1, 4, 1000):
            key = rng.integers(-span, span + 1, (m, cols))
            _, first = np.unique(key, axis=0, return_index=True)
            got = facelift._first_rows(key)
            assert np.array_equal(got, np.sort(first)) and got.dtype.kind == "i"


def loop_resample_chain(dyn, pre, pts, closed, h_b, delta, h, max_rounds=6):
    """Row-loop reference for _resample_chain."""
    pre = pre.copy()
    pts = pts.copy()
    for _ in range(max_rounds):
        if pts.shape[0] < 2:
            return pts
        cur = pts if closed else pts[:-1]
        nxt = np.roll(pts, -1, axis=0) if closed else pts[1:]
        gaps = np.linalg.norm(nxt - cur, axis=1)
        wide = np.nonzero(gaps > 2.0 * h_b)[0]
        if wide.size == 0:
            return pts
        mids = np.array([0.5 * (pre[i] + pre[(i + 1) % pre.shape[0]]) for i in wide])
        moved = _advect(dyn, mids, delta, h)[:, -1]
        pos = {int(i): j for j, i in enumerate(wide)}
        new_pts, new_pre = [], []
        for i in range(pts.shape[0]):
            new_pts.append(pts[i])
            new_pre.append(pre[i])
            if i in pos:
                new_pts.append(moved[pos[i]])
                new_pre.append(mids[pos[i]])
        pts = np.array(new_pts)
        pre = np.array(new_pre)
    return pts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    keep=st.lists(st.booleans(), min_size=0, max_size=60),
    closed=st.sampled_from([True, False, None]),
)
def test_split_runs_matches_loop_reference(keep, closed):
    got = _split_runs(np.array(keep, bool), closed)
    want = loop_split_runs(len(keep), closed, keep)
    assert len(got) == len(want)
    for (idx, flag), (ref_idx, ref_flag) in zip(got, want):
        assert np.array_equal(idx, ref_idx)
        assert flag is ref_flag


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    # angular gaps along a wobbly loop: most below 2 h_b, some several
    # rounds of halving wide, a few beyond the round cap
    gaps=st.lists(
        st.one_of(st.floats(0.001, 0.04), st.floats(0.04, 0.5), st.floats(0.5, 3.0)),
        min_size=1,
        max_size=25,
    ),
    radius=st.floats(0.3, 2.0),
    delta=st.floats(0.01, 0.6),
    closed=st.booleans(),
)
def test_resample_chain_matches_loop_reference(gaps, radius, delta, closed):
    h = 0.05
    theta = np.cumsum(gaps)
    r = radius * (1.0 + 0.1 * np.sin(3.0 * theta))
    pre = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    ends = _advect(ROT, pre, delta, h)[:, -1]
    got = _resample_chain(ROT, pre, ends, closed, h / 2.0, delta, h)
    want = loop_resample_chain(ROT, pre, ends, closed, h / 2.0, delta, h)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


PENDULUM = ExpressionDynamics.parse(["x2", "-sin(x1)"])
FIELDS = {
    "pendulum": PENDULUM,
    "van_der_pol": ExpressionDynamics.parse(["x2", "(1 - x1*x1)*x2 - x1"]),
    "rotation": ROT,
    "affine": ExpressionDynamics.parse(["x2 + 0.3", "-x1"]),
    "constant": DRIFT,
}


def counted_trajectory(calls):
    """A stand-in for facelift.trajectory that records each substep count."""

    def traj(dyn, x0, t, nsub):
        calls.append(nsub)
        return flow_trajectory(dyn, x0, t, nsub)

    return traj


def test_front_sweep_raises_the_first_chains_error():
    # x1' = x1^2: the coarse chain outruns its substeps (StepTooCoarse); the
    # blow-up chain is not finite at its start (NonFiniteState). The sweep
    # advects chain by chain, so the first failing chain's error is raised
    dyn = ExpressionDynamics.parse(["x1*x1", "0"])
    coarse = (np.array([[1.0, 0.0], [0.5, 1.0]]), False)
    slow = (np.array([[0.5, 0.5]]), None)
    blowup = (np.array([[1e200, 0.0]]), None)

    def sweep(chains):
        cum = GridRegion([-1.0, -1.0], [3.0, 3.0], 0.05)
        for _ in _front_sweep(chains, unit_square(), dyn, [(0.0, 0.9)], cum, 0.025):
            pass

    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteState):
            _advect(dyn, blowup[0], 0.9, 0.05)
        with pytest.raises(StepTooCoarse) as alone:
            _advect(dyn, coarse[0], 0.9, 0.05)
        with pytest.raises(StepTooCoarse) as swept:
            sweep([slow, coarse, blowup])
        assert str(swept.value) == str(alone.value)
        with pytest.raises(NonFiniteState, match="not finite at a sample point"):
            sweep([slow, blowup, coarse])


def per_chain_front_sweep(chains, init, dyn, intervals, cum, h_b, invariant=None):
    """_front_sweep as it was before a step's chains were batched: one
    _advect, one rasterization and one alive test per chain."""
    h = cum.h
    touch = None if invariant is None else cum.cells_touching(invariant)
    for t0, t1 in intervals:
        if not chains:
            return
        delta = t1 - t0
        trajs = [_advect(dyn, pts, delta, h) for pts, _ in chains]
        kept, lost = cum.blank(), cum.blank()
        nxt = []
        for (pts, closed), traj in zip(chains, trajs):
            points = traj.reshape(-1, pts.shape[1])
            keep = np.ones(pts.shape[0], bool)
            if invariant is not None:
                keep = invariant.contains(points, tol=1e-9).reshape(traj.shape[:2]).all(axis=1)
            cells = cum._cells(points).reshape(traj.shape[:2])
            kept._mark_cells(cells[keep].ravel())
            lost._mark_cells(cells[~keep].ravel())
            ends = traj[:, -1]
            alive = keep & ~(cum._marked(cells[:, -1]) | facelift._inside_init_strict(init, ends))
            for idxs, rclosed in _split_runs(alive, closed):
                if rclosed is None:
                    run = ends[idxs]
                else:
                    run = _resample_chain(dyn, pts[idxs], ends[idxs], rclosed, h_b, delta, h)
                nxt.append((run, rclosed))
        swept = kept
        if invariant is not None:
            swept = cum._like(
                kept.occupancy | (lost.occupancy & touch), kept.out_of_box + lost.out_of_box
            )
        cum.include(swept)
        chains = nxt
        yield t0, t1, swept, kept, chains


def sweep_record(sweep, chains, init, dyn, intervals, cum, h, invariant):
    steps = []
    for t0, t1, swept, kept, nxt in sweep(chains, init, dyn, intervals, cum, h / 2.0, invariant):
        steps.append(
            (
                t0,
                t1,
                swept.occupancy.tobytes(),
                swept.out_of_box,
                kept.occupancy.tobytes(),
                [(pts.tobytes(), closed) for pts, closed in nxt],
            )
        )
    return steps, cum.occupancy.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from(sorted(FIELDS)),
    kind=st.sampled_from(["box", "disk", "cells"]),
    bounded=st.booleans(),
    center=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
    h=st.sampled_from([0.04, 0.05, 0.08]),
    dt=st.sampled_from([0.15, 0.25]),
)
def test_front_sweep_matches_the_per_chain_sweep(field, kind, bounded, center, h, dt):
    dyn = FIELDS[field]
    cx, cy = center
    lo, hi = [-3.0, -3.0], [3.0, 3.0]
    if kind == "disk":
        disk = f"(x1 - {cx})*(x1 - {cx}) + (x2 - {cy})*(x2 - {cy}) - 0.09"
        init = LevelSet(disk, [cx - 0.5, cy - 0.5], [cx + 0.5, cy + 0.5])
    else:
        init = Polyhedron.box([cx - 0.3, cy - 0.2], [cx + 0.3, cy + 0.2])
    if kind == "cells":  # the cell-rim restart of hybrid post: unordered
        init = facelift._initial_region(init, GridRegion(lo, hi, h), GridRegion.cells_touching)
        chains = [(init.boundary_cell_centers(), None)]
    else:
        chains = classify_boundary(init, dyn, h / 2.0).front_chains()
    invariant = Polyhedron.box([-1.2, -1.2], [1.2, 1.2]) if bounded else None
    intervals = [(k * dt, (k + 1) * dt) for k in range(6)]
    got, want = (
        sweep_record(sweep, chains, init, dyn, intervals, GridRegion(lo, hi, h), h, invariant)
        for sweep in (_front_sweep, per_chain_front_sweep)
    )
    assert got == want


def test_sphere_front_stays_one_chain_with_one_trajectory_call_per_step(monkeypatch):
    # the 3D sphere's front is unordered (closed=None): the prune keeps its
    # samples one chain, so every step flows them in one trajectory call
    calls, steps = [], []
    monkeypatch.setattr(facelift, "trajectory", counted_trajectory(calls))
    sweep = facelift._front_sweep

    def counted(chains, *args):
        calls.clear()
        for item in sweep(chains, *args):
            steps.append(([closed for _, closed in chains], len(calls)))
            calls.clear()
            chains = item[4]
            yield item

    monkeypatch.setattr(facelift, "_front_sweep", counted)
    sphere = LevelSet("x1*x1 + x2*x2 + x3*x3 - 0.25", [-0.7] * 3, [0.7] * 3)
    dyn = ExpressionDynamics.parse(["x2", "-x1", "0.3"])
    tube = reach_bounded_time(sphere, dyn, 1.0, dt=0.25, h=0.1)
    assert tube.iterations == 4
    assert steps == [([None], 1)] * 4


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


def test_polyhedral_tube_moves_each_interval_by_one_exponential(monkeypatch):
    # the back map e^{-A^T t0} of an interval serves all of its polyhedra
    calls = []

    def counted(A, t):
        calls.append(t)
        return expm(A, t)

    monkeypatch.setattr(facelift, "expm", counted)
    tube = reach_bounded_time(offset_square(), ROT, math.pi / 2, dt=math.pi / 8)
    starts = [t0 for t0, _, _ in tube.segments]
    assert calls == starts[1:]
    assert all(len(payload) > 1 for _, _, payload in tube.segments)


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
    # with the whole grid box as invariant no trajectory leaves it, so no
    # sample is dropped and each step sweeps the bounded-time cells
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
    # segment occupancy of the 9 steps (1,124 cells in their union)
    occ = b"".join(seg.occupancy.tobytes() for _, _, seg in tube.segments)
    assert hashlib.sha256(occ).hexdigest()[:16] == "bb172f45941795d7"


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


def test_loop_cut_where_its_samples_leave_the_invariant_is_pinned(monkeypatch):
    # a closed level-set loop whose samples' trajectories leave the
    # invariant: the step that drops them cuts the loop into open runs,
    # and their cells that touch the invariant are swept but not kept
    cuts = []
    sweep = facelift._front_sweep

    def spy(chains, *args):
        for step in sweep(chains, *args):
            _, _, swept, kept, nxt = step
            loop = any(closed is True for _, closed in chains)
            cut = loop and not any(closed for _, closed in nxt)
            cuts.append(cut and kept.count() < swept.count())
            chains = nxt
            yield step

    monkeypatch.setattr(facelift, "_front_sweep", spy)
    init = LevelSet("x1*x1 + x2*x2 - 0.0625", [-0.5, -0.5], [0.5, 0.5])
    inv = Polyhedron.box([-1.0, -1.0], [0.27, 0.27])
    dyn = LinearDynamics(np.diag([0.2, 0.2]))
    tube = reach_invariant(init, dyn, inv, dt=0.25, h=0.02, max_iters=12)
    assert any(cuts)
    assert tube.iterations == 12 and not tube.front_collapse
    assert tube.combined_region().count() == 720
    digest = hashlib.sha256()
    for t0, t1, seg in tube.segments:
        digest.update(repr((t0, t1)).encode())
        digest.update(seg.occupancy.tobytes())
    assert digest.hexdigest().startswith("7297147f1eaec163")


def test_a_sample_dies_when_its_own_trajectory_leaves_the_invariant():
    grid = GridRegion([-1.5, -1.5], [1.5, 1.5], 0.05)
    inv = Polyhedron.box([-1.5, -1.5], [0.9, 1.5])
    # under the rotation the first sample's arc (radius 0.986) crosses
    # x1 = 0.9 and comes back within the step; the second's stays inside
    pts = np.array([[0.85, -0.5], [-0.5, 0.0]])
    init = Polyhedron.box([-0.1, -0.1], [0.1, 0.1])
    traj = _advect(ROT, pts, 1.0, grid.h)
    assert np.all(inv.contains(traj[:, [0, -1]].reshape(-1, 2), tol=0.0))
    assert not inv.contains(traj[0], tol=1e-9).all()
    cum = grid.blank()
    [(_, _, swept, kept, nxt)] = _front_sweep([(pts, None)], init, ROT, [(0.0, 1.0)], cum, 0.025, inv)
    assert len(nxt) == 1 and np.array_equal(nxt[0][0], traj[1:, -1])
    lost = grid.blank()
    lost.mark_points(traj[0])
    touch = grid.cells_touching(inv)
    assert not (kept.occupancy & lost.occupancy).any()
    assert np.array_equal(swept.occupancy, kept.occupancy | (lost.occupancy & touch))
    assert (lost.occupancy & touch).any() and (lost.occupancy & ~touch).any()
    assert np.array_equal(cum.occupancy, swept.occupancy)

    # sliding along the face x2 = 1 keeps a sample up to 1e-9 above it
    inv = Polyhedron.box([0.0, 0.0], [2.0, 1.0])
    pts = np.array([[0.2, 1.0], [0.2, 1.0 + 5e-10], [0.2, 1.0 + 1e-7], [0.4, 0.5]])
    cum = GridRegion([-0.5, -0.5], [2.5, 1.5], 0.05)
    [(_, _, swept, kept, nxt)] = _front_sweep([(pts, None)], init, SLIDE, [(0.0, 0.5)], cum, 0.025, inv)
    assert np.array_equal(nxt[0][0], _advect(SLIDE, pts, 0.5, cum.h)[[0, 1, 3], -1])
    assert kept.contains_points(pts[[0, 1, 3]]).all()


def test_mask_of_a_window_matches_the_index_scatter():
    # the fancy-index scatter that _mask replaced, over polyhedron and
    # level-set windows: clipped by the grid, inside it, and empty
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        g = GridRegion([-1.0] * dim, [1.0] * dim, 0.1)
        far = Polyhedron.box([5.0] * dim, [6.0] * dim)
        ball = " + ".join(f"x{j + 1}*x{j + 1}" for j in range(dim)) + " - 0.25"
        windows = [g._poly_window(far), g._levelset_values(LevelSet(ball, [-0.7] * dim, [1.8] * dim))[0]]
        for _ in range(10):
            c = rng.uniform(-1.4, 1.4, dim)
            windows.append(g._poly_window(Polyhedron.box(c - 0.3, c + 0.3)))
        assert windows[0].shape == (0, dim)
        for idx in windows:
            hit = rng.random(idx.shape[0]) < 0.5
            want = np.zeros(g.shape, bool)
            want[tuple(idx[hit].T)] = True
            assert np.array_equal(g._mask(idx, hit), want)


def test_invariant_requires_step():
    with pytest.raises(ValueError):
        reach_invariant(unit_square(), SLIDE, Polyhedron.box([0, 0], [3, 1]))


@pytest.mark.parametrize("dim", range(1, 10))
def test_row_kernels_match_the_numpy_expressions_bit_for_bit(dim):
    # d = 8 and 9 take numpy's own pairwise sum; entries span 16 decades,
    # so a sum in any other order would show in the last bits
    rng = np.random.default_rng(dim)
    x = rng.standard_normal((60, dim)) * 10.0 ** rng.integers(-8, 8, (60, dim))
    batches = {
        "rows": x,
        "empty": x[:0],
        "every other row": x[::2],
        "every other column": np.repeat(x, 2, axis=1)[:, ::2],
        "batched": x.reshape(6, 10, dim),
    }
    for name, b in batches.items():
        assert np.array_equal(_sum_sq(b), np.sum(b**2, axis=-1)), name
        assert np.array_equal(np.sqrt(_sum_sq(b)), np.linalg.norm(b, axis=-1)), name
    dyn = LinearDynamics(rng.standard_normal((dim, dim)))
    assert _max_speed(dyn, x) == float(np.max(np.linalg.norm(dyn.evaluate(x), axis=1)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(0, 2**32 - 1),
)
def test_cell_indices_match_argwhere(shape, density, seed):
    rng = np.random.default_rng(seed)
    g = GridRegion(np.zeros(len(shape)), np.array(shape, float), 1.0)
    g.occupancy |= rng.random(g.shape) < density
    mask = rng.random(g.shape) < 0.5
    for got, want in ((g.cell_indices(), np.argwhere(g.occupancy)), (g.cell_indices(mask), np.argwhere(mask))):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got.shape == (want.shape[0], len(shape))


def test_invariant_reach_memory_is_linear_in_front_and_shadow():
    # a dense front x escapes distance test peaked at about 40 MB here
    m = load_model(bundled_model_path("drift_invariant.json"))
    tracemalloc.start()
    try:
        reach_invariant(
            m.initial,
            m.dynamics,
            m.invariant,
            dt=m.setting("dt"),
            h=0.02,
            max_iters=m.setting("max_iters"),
            tau_max=m.setting("tau"),
            h_b=m.setting("boundary_spacing"),
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
