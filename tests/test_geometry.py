"""Geometry layer tests. The LP is checked against scipy.optimize.linprog
and the hull against scipy.spatial.ConvexHull as independent oracles."""

import numpy as np
import pytest
import scipy.optimize
import scipy.spatial

from reachkit.errors import (
    DegenerateNormal,
    DimMismatch,
    Empty2D,
    EmptyPolyhedronWarning,
    InfeasibleFace,
    TooFewPoints,
    Unbounded2D,
)
from reachkit.geometry import (
    Face,
    GeometryWarning,
    Halfspace,
    Polyhedron,
    convex_hull_2d,
    intersect,
    is_bounded,
    is_empty,
    lp_maximize,
    normalize_and_orthogonalize,
    vertices_2d,
)

SQRT2 = np.sqrt(2.0)


def scipy_lp(c, A_ub, b_ub, A_eq=None, b_eq=None):
    res = scipy.optimize.linprog(
        -np.asarray(c, float),
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(None, None)] * len(c),
        method="highs",
    )
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    assert res.status == 0
    return "optimal", -res.fun


def test_lp_matches_scipy_on_random_instances():
    rng = np.random.default_rng(20240811)
    optimal_seen = infeasible_seen = unbounded_seen = 0
    for trial in range(120):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(n, 3 * n + 1))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) + 0.5
        c = rng.normal(size=n)
        if trial % 3 == 0:
            # box rows force boundedness for a healthy share of optimal cases
            A = np.vstack([A, np.eye(n), -np.eye(n)])
            b = np.concatenate([b, np.full(2 * n, 3.0)])
        want_status, want_value = scipy_lp(c, A, b)
        got = lp_maximize(c, A, b)
        assert got.status == want_status, f"trial {trial}: {got.status} vs {want_status}"
        if want_status == "optimal":
            optimal_seen += 1
            assert got.value == pytest.approx(want_value, rel=1e-7, abs=1e-7)
            assert np.all(A @ got.x - b <= 1e-7)
        elif want_status == "infeasible":
            infeasible_seen += 1
        else:
            unbounded_seen += 1
    assert optimal_seen > 20 and infeasible_seen > 5 and unbounded_seen > 5


def test_lp_equalities_match_scipy():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        A = np.vstack([rng.normal(size=(n, n)), np.eye(n), -np.eye(n)])
        b = np.concatenate([rng.normal(size=n) + 1.0, np.full(2 * n, 2.0)])
        E = rng.normal(size=(1, n))
        f = rng.normal(size=1) * 0.2
        c = rng.normal(size=n)
        want_status, want_value = scipy_lp(c, A, b, E, f)
        got = lp_maximize(c, A, b, E, f)
        assert got.status == want_status
        if want_status == "optimal":
            assert got.value == pytest.approx(want_value, rel=1e-7, abs=1e-7)
            assert abs(float(E[0] @ got.x - f[0])) <= 1e-7


def test_lp_known_corner_cases():
    # maximize x+y over the unit square: value 2 at (1, 1)
    res = lp_maximize([1, 1], [[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 0, 0])
    assert res.status == "optimal"
    assert res.value == pytest.approx(2.0, abs=1e-9)
    # infeasible: x <= -1 and x >= 1
    assert lp_maximize([1], [[1], [-1]], [-1, -1]).status == "infeasible"
    # unbounded: maximize x with x >= 0 only
    assert lp_maximize([1], [[-1]], [0]).status == "unbounded"


def test_maximize_matches_lp_maximize_with_absent_rows_as_none():
    # matrices() hands the LP (0, n) arrays for a missing row kind; the
    # result must be the one lp_maximize gives with None there
    rng = np.random.default_rng(11)
    box = Polyhedron.box([0.0, -1.0, 0.5], [1.0, 2.0, 3.0])
    face = Face([[1.0, 0.0], [-1.0, 0.0]], [1.0, 2.0], [0.0, 1.0], 0.5)
    line = Polyhedron((), (Halfspace([1.0, 1.0], 1.0),))
    cases = [
        (box, lambda c, A, b, E, f: lp_maximize(c, A, b, None, None)),
        (face.as_polyhedron(), lambda c, A, b, E, f: lp_maximize(c, A, b, E, f)),
        (line, lambda c, A, b, E, f: lp_maximize(c, None, None, E, f)),
    ]
    for P, reference in cases:
        A, b, E, f = P.matrices()
        for c in [*rng.normal(size=(6, P.dim)), np.ones(P.dim), np.zeros(P.dim)]:
            got, want = P.maximize(c), reference(c, A, b, E, f)
            assert got.status == want.status
            assert got.value == want.value
            assert (got.x is None and want.x is None) or np.array_equal(got.x, want.x)
    assert box.maximize(np.ones(3)).value == pytest.approx(6.0)
    assert line.maximize(np.ones(2)).status == "optimal"
    assert line.maximize([1.0, 0.0]).status == "unbounded"


def test_emptiness_and_boundedness():
    square = Polyhedron.box([0, 0], [1, 1])
    assert not is_empty(square)
    assert is_bounded(square)
    halfplane = Polyhedron.from_inequalities([[1, 0]], [1])
    assert not is_bounded(halfplane)
    empty = Polyhedron.from_inequalities([[1, 0], [-1, 0]], [-1, -1])
    assert is_empty(empty)
    with pytest.warns(EmptyPolyhedronWarning):
        assert is_bounded(empty) is True


def test_vertices_of_box_are_ccw_and_anchored():
    verts = vertices_2d(Polyhedron.box([0, 0], [2, 1]))
    assert verts.shape == (4, 2)
    # anchored at the lexicographically smallest vertex, counter-clockwise
    np.testing.assert_allclose(verts, [[0, 0], [2, 0], [2, 1], [0, 1]], atol=1e-12)


def test_vertices_with_redundant_row_and_equality():
    rows = Polyhedron.box([0, 0], [1, 1]).ineqs + (Halfspace([1, 1], 5.0),)  # redundant cut
    verts = vertices_2d(Polyhedron(rows))
    assert verts.shape == (4, 2)
    # a segment: unit box squashed onto the line y = x via an equality row
    seg = Polyhedron(Polyhedron.box([0, 0], [1, 1]).ineqs, (Halfspace([1, -1], 0.0),))
    ends = vertices_2d(seg)
    np.testing.assert_allclose(ends, [[0, 0], [1, 1]], atol=1e-9)


def test_vertices_errors():
    with pytest.raises(Unbounded2D):
        vertices_2d(Polyhedron.from_inequalities([[1, 0], [0, 1]], [1, 1]))
    with pytest.raises(Empty2D):
        vertices_2d(Polyhedron.from_inequalities([[1, 0], [-1, 0]], [-1, -1]))
    with pytest.raises(DimMismatch):
        vertices_2d(Polyhedron.box([0, 0, 0], [1, 1, 1]))


def test_hull_contains_points_and_matches_scipy_area():
    rng = np.random.default_rng(3)
    for _ in range(25):
        pts = rng.normal(size=(int(rng.integers(4, 40)), 2))
        hull = convex_hull_2d(pts)
        for h in hull.ineqs:
            assert np.all(h.value(pts) <= 1e-9)
            assert abs(np.linalg.norm(h.normal) - 1.0) <= 1e-12
            # minimal H-rep: every row supports at least two hull points
            assert np.sum(np.abs(h.value(pts)) <= 1e-9) >= 2
        oracle = scipy.spatial.ConvexHull(pts)
        assert len(hull.ineqs) == len(oracle.vertices)
        mine = np.sort([np.linalg.norm(v) for v in vertices_2d(hull)])
        theirs = np.sort([np.linalg.norm(pts[i]) for i in oracle.vertices])
        np.testing.assert_allclose(mine, theirs, atol=1e-9)


def test_hull_degenerate_inputs():
    with pytest.raises(TooFewPoints):
        convex_hull_2d([[0, 0], [1, 1]])
    with pytest.warns(GeometryWarning):
        strip = convex_hull_2d([[0, 0], [1, 1], [2, 2], [0.5, 0.5]])
    assert len(strip.ineqs) == 2
    assert strip.contains([1.5, 1.5], tol=1e-9)
    assert not strip.contains([1.0, 1.2], tol=1e-9)


def test_intersect_dedupes_and_preserves_membership():
    a = Polyhedron.box([0, 0], [2, 2])
    b = Polyhedron.box([1, 0], [3, 2])
    both = intersect([a, b])
    # the two duplicated y rows collapse; x rows remain distinct
    assert len(both.ineqs) == 6
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 4, size=(200, 2))
    np.testing.assert_array_equal(both.contains(pts), a.contains(pts) & b.contains(pts))
    with pytest.raises(DimMismatch):
        intersect([a, Polyhedron.box([0], [1])])


def test_orthogonalize_tilted_side_describes_same_segment():
    # side normal at 45 degrees against a horizontal base: the side is
    # rewritten in-plane to x1 <= sqrt(2) without moving the endpoints
    face = Face([np.array([1, 1]) / SQRT2, [-1, 0]], [1.0, -1.0], [0, 1], 0.0)
    out = normalize_and_orthogonalize(face)
    assert out.orthonormal and out.check_orthonormal()
    np.testing.assert_allclose(out.side_normals, [[1, 0], [-1, 0]], atol=1e-12)
    np.testing.assert_allclose(out.side_offsets, [SQRT2, -1.0], atol=1e-12)
    ends = vertices_2d(out.as_polyhedron())
    np.testing.assert_allclose(ends, [[1.0, 0.0], [SQRT2, 0.0]], atol=1e-9)


def test_face_vertices_are_its_segment_ends_shared_read_only():
    face = Face([[1, 0], [-1, 0]], [SQRT2, -1.0], [0, 1], 0.0)
    ends = face.vertices
    np.testing.assert_array_equal(ends, vertices_2d(face.as_polyhedron()))
    assert face.vertices is ends
    with pytest.raises(ValueError):
        ends[0, 0] = 0.0


def test_orthogonalize_is_idempotent_and_scales_base():
    face = Face([[3, 0], [-2, 0]], [3 * SQRT2, 2.0], [0, 4], 0.0)
    once = normalize_and_orthogonalize(face)
    twice = normalize_and_orthogonalize(once)
    np.testing.assert_allclose(once.side_normals, twice.side_normals, atol=1e-12)
    np.testing.assert_allclose(once.side_offsets, twice.side_offsets, atol=1e-12)
    assert abs(np.linalg.norm(once.base_normal) - 1.0) <= 1e-12


def test_orthogonalize_drops_vacuous_row_and_rejects_contradiction():
    # a side parallel to the base projects to the zero normal; offset 0.5
    # leaves a vacuous row that is dropped and counted
    face = Face([[0, 1], [1, 0], [-1, 0]], [0.5, 1.0, 0.0], [0, 1], 0.0)
    out = normalize_and_orthogonalize(face)
    assert out.dropped_sides == 1
    assert out.side_offsets.size == 2
    # same row with a negative offset contradicts the base hyperplane
    bad = Face([[0, 1]], [-0.5], [0, 1], 0.0)
    with pytest.raises(DegenerateNormal):
        normalize_and_orthogonalize(bad)
    # sides that cross outside the base hyperplane leave no common point
    crossed = Face([[1, 0], [-1, 0]], [-2.0, 1.0], [0, 1], 0.0)
    with pytest.raises(InfeasibleFace):
        normalize_and_orthogonalize(crossed)
