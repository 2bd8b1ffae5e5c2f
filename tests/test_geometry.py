"""Geometry layer tests. The LP is checked against scipy.optimize.linprog
and the hull against scipy.spatial.ConvexHull as independent oracles; the
LP-free 2D vertices, boxes and row dedupe against their LP and loop forms."""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.spatial
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reachkit.geometry as geometry
from reachkit.errors import (
    DegenerateNormal,
    DimMismatch,
    Empty2D,
    EmptyPolyhedron,
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
    # a vacuous 0 . x <= 1 row has no direction: it closes no angular gap
    open_right = Polyhedron.from_inequalities([[0, 1], [-1, 0], [0, -1], [0, 0]], [1, 1, 1, 1])
    with pytest.raises(Unbounded2D):
        vertices_2d(open_right)
    with pytest.raises(Unbounded2D):
        open_right.bounding_box()
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
    # leaves a vacuous row that is dropped
    face = Face([[0, 1], [1, 0], [-1, 0]], [0.5, 1.0, 0.0], [0, 1], 0.0)
    out = normalize_and_orthogonalize(face)
    assert out.side_offsets.size == 2
    # same row with a negative offset contradicts the base hyperplane
    bad = Face([[0, 1]], [-0.5], [0, 1], 0.0)
    with pytest.raises(DegenerateNormal):
        normalize_and_orthogonalize(bad)
    # sides that cross outside the base hyperplane leave no common point
    crossed = Face([[1, 0], [-1, 0]], [-2.0, 1.0], [0, 1], 0.0)
    with pytest.raises(InfeasibleFace):
        normalize_and_orthogonalize(crossed)


# ---------------------------------------------------------------------------
# the LP-free 2D kernel against its LP and loop forms


def row_scale(h):
    return float(np.linalg.norm(h.normal)) or 1.0


def lp_vertices_2d(P):
    """vertices_2d with the bounding-box LPs always run first and a
    pairwise row loop: the reference for the kernel, with its scale-free
    parallel and residual tests (a zero row keeps the plain residual)."""
    try:
        P._lp_box()
    except EmptyPolyhedron:
        raise Empty2D("no vertices: polyhedron is empty") from None
    except Unbounded2D:
        raise Unbounded2D("no finite vertex set: polyhedron is unbounded") from None
    rows = P.rows
    cand = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            M = np.array([rows[i].normal, rows[j].normal])
            if abs(np.linalg.det(M)) <= 1e-12 * np.prod(np.linalg.norm(M, axis=1)):
                continue
            p = np.linalg.solve(M, np.array([rows[i].offset, rows[j].offset]))
            if not np.all(np.isfinite(p)):
                continue
            feas = all(h.value(p) <= 1e-8 * row_scale(h) for h in P.ineqs) and all(
                abs(h.value(p)) <= 1e-8 * row_scale(h) for h in P.eqs
            )
            if feas:
                cand.append(p)
    if not cand:
        raise Empty2D("no pairwise intersection point is feasible")
    uniq = []
    for p in cand:
        if all(np.linalg.norm(p - q) > 1e-9 for q in uniq):
            uniq.append(p)
    pts = np.array(uniq)
    if len(pts) <= 2:
        return pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    centroid = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - centroid[1], pts[:, 0] - centroid[0])
    pts = pts[np.argsort(ang, kind="stable")]
    return np.roll(pts, -int(np.lexsort((pts[:, 1], pts[:, 0]))[0]), axis=0)


def loop_dedupe(rows):
    """intersect's pairwise dedupe loop in its first form: the reference."""
    kept, units = [], []
    for h in rows:
        u = h.unit()
        dup = any(
            np.max(np.abs(u.normal - v.normal)) <= 1e-9 and abs(u.offset - v.offset) <= 1e-9
            for v in units
        )
        if not dup:
            kept.append(h)
            units.append(u)
    return tuple(kept)


def same_rows(got, want):
    """The same row objects in the same order: kept rows keep their scaling."""
    return len(got) == len(want) and all(g is w for g, w in zip(got, want))


def outcome(fn, P):
    try:
        return np.asarray(fn(P))
    except (Empty2D, EmptyPolyhedron, Unbounded2D) as exc:
        return type(exc)


def unit2(angle):
    return np.array([math.cos(angle), math.sin(angle)])


BOUNDED_KINDS = ("box", "triangle", "segment", "point")
ALL_KINDS = BOUNDED_KINDS + ("empty", "strip", "halfstrip", "halfplane", "wedge")
# a third of the rows shrunk by 1e-1 to 1e-7, the rest of unit order
MIXED_SCALES = st.one_of(
    st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(-7.0, -1.0).map(lambda e: 10.0**e)
)


@st.composite
def planar_polyhedra(draw, kinds=ALL_KINDS, scales=st.floats(0.2, 5.0)):
    """(kind, P): a random 2D polyhedron drawn as local rows around the
    origin, with redundant rows added to bounded kinds, then rotated,
    moved, rescaled row by row (each row by a draw of ``scales``) and
    shuffled."""
    kind = draw(st.sampled_from(kinds))
    a, b = draw(st.floats(0.05, 3.0)), draw(st.floats(0.05, 3.0))
    e1, e2 = np.eye(2)
    ineqs, eqs = [], []
    if kind in ("box", "empty"):
        ineqs = [(e1, a), (-e1, a), (e2, b), (-e2, b)]
        if kind == "empty":
            gap = draw(st.floats(0.01, 1.0))
            (eqs if draw(st.booleans()) else ineqs).append((e1, -a - gap))
    elif kind == "triangle":
        v = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))).reshape(3, 2)
        (ux, uy), (wx, wy) = v[1] - v[0], v[2] - v[0]
        turn = ux * wy - uy * wx
        assume(abs(turn) > 0.1)
        for k in range(3):
            p, q = v[k], v[(k + 1) % 3]
            n = np.sign(turn) * np.array([q[1] - p[1], p[0] - q[0]])
            ineqs.append((n, float(n @ p)))
    elif kind == "segment":
        ineqs, eqs = [(e1, a), (-e1, a)], [(e2, 0.0)]
    elif kind == "point":
        eqs = [(e1, 0.0), (e2, 0.0)]
    elif kind == "strip":
        ineqs = [(e1, a), (-e1, a)]
    elif kind == "halfstrip":  # three normals, one gap of exactly pi
        ineqs = [(e1, a), (-e1, a), (e2, b)]
    elif kind == "halfplane":
        ineqs = [(e1, a)]
    else:  # a wedge whose normals span less than pi: unbounded but pointed
        phi = draw(st.floats(0.6, 2.5))
        ineqs = [(e1, a), (unit2(phi), b), (unit2(phi / 2.0), a + b)]
    if kind in BOUNDED_KINDS:
        verts = lp_vertices_2d(
            Polyhedron(tuple(Halfspace(*r) for r in ineqs), tuple(Halfspace(*r) for r in eqs))
        )
        for angle in draw(st.lists(st.floats(0.0, 2.0 * math.pi), max_size=3)):
            n = unit2(angle)
            margin = draw(st.sampled_from([0.0, 1e-3, 0.5, 2.0]))
            ineqs.append((n, float(np.max(verts @ n)) + margin))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    shift = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)))
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])

    def place(rows):
        out = []
        for n, o in rows:
            s = draw(scales)
            out.append(Halfspace(s * (R @ n), s * (o + (R @ n) @ shift)))
        return tuple(draw(st.permutations(out)))

    return kind, Polyhedron(place(ineqs), place(eqs))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=planar_polyhedra())
def test_vertices_and_boxes_match_the_lp_path(case):
    kind, P = case
    lps = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "lp_maximize", lambda *a: lps.append(1) or lp_maximize(*a))
        verts = outcome(vertices_2d, P)
        box = outcome(Polyhedron.bounding_box, P)
    want_verts, want_box = outcome(lp_vertices_2d, P), outcome(Polyhedron._lp_box, P)
    if isinstance(want_verts, type):
        assert verts is want_verts
        assert box is (Unbounded2D if want_verts is Unbounded2D else EmptyPolyhedron)
    else:
        assert verts.shape == want_verts.shape
        np.testing.assert_allclose(verts, want_verts, rtol=0.0, atol=1e-9)
    if isinstance(want_box, type):
        assert box is want_box
    else:
        np.testing.assert_allclose(box, want_box, rtol=0.0, atol=1e-9)
    assert (kind in BOUNDED_KINDS) == (not isinstance(want_verts, type))
    if kind in BOUNDED_KINDS:
        assert not lps


def unit_rows(P):
    return Polyhedron(tuple(h.unit() for h in P.ineqs), tuple(h.unit() for h in P.eqs))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=planar_polyhedra(kinds=BOUNDED_KINDS, scales=MIXED_SCALES))
def test_mixed_row_scales_keep_every_vertex_in_the_box(case):
    # the residual is measured in units of |a_k|, so a row scaled by 1e-7
    # accepts no point FEAS_TOL beyond it: the box is the unit rows' box
    _, P = case
    lps = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "lp_maximize", lambda *a: lps.append(1) or lp_maximize(*a))
        verts = vertices_2d(P)
        lo, hi = P.bounding_box()
    assert not lps
    np.testing.assert_allclose(verts, lp_vertices_2d(P), rtol=0.0, atol=1e-9)
    assert np.array_equal(lo, verts.min(axis=0)) and np.array_equal(hi, verts.max(axis=0))
    want_lo, want_hi = unit_rows(P)._lp_box()
    np.testing.assert_allclose([lo, hi], [want_lo, want_hi], rtol=0.0, atol=1e-9)


def test_small_rows_are_not_taken_for_parallel():
    # (0, 0) is where the two 1e-7 rows meet, with det 2e-14: an absolute
    # det test skipped that pair and the box lost x < 1
    tri = Polyhedron.from_inequalities([[-1e-7, 1e-7], [-1e-7, -1e-7], [1, 0]], [0, 0, 1])
    np.testing.assert_allclose(vertices_2d(tri), [[0, 0], [1, -1], [1, 1]], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(tri.bounding_box(), tri._lp_box(), rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(tri.bounding_box(), [[0, -1], [1, 1]], rtol=0.0, atol=1e-12)
    small = Polyhedron.box([0, 0], [1, 1])
    small = Polyhedron(tuple(Halfspace(1e-7 * h.normal, 1e-7 * h.offset) for h in small.ineqs))
    np.testing.assert_allclose(
        vertices_2d(small), [[0, 0], [1, 0], [1, 1], [0, 1]], rtol=0.0, atol=1e-12
    )


def test_a_zero_row_adds_no_vertex():
    box = Polyhedron.box([-1, 2], [1, 3])
    vacuous = Polyhedron(box.ineqs + (Halfspace([0.0, 0.0], 1.0),))
    assert np.array_equal(vertices_2d(vacuous), vertices_2d(box))
    assert np.array_equal(vacuous.bounding_box(), box.bounding_box())


def test_a_small_row_accepts_no_point_beyond_it():
    # with the residual on raw rows, the two 1e-7 rows accepted points 0.1
    # beyond them, and the redundant row -x1 <= 0.04 added (-0.04, +-0.04)
    tri = Polyhedron.from_inequalities(
        [[-1e-7, 1e-7], [-1e-7, -1e-7], [1, 0], [-1, 0]], [0, 0, 1, 0.04]
    )
    np.testing.assert_allclose(vertices_2d(tri), [[0, 0], [1, -1], [1, 1]], rtol=0.0, atol=1e-12)
    assert np.array_equal(tri.bounding_box(), tri._lp_box())


def test_a_zero_row_is_vacuous_or_empty():
    box = Polyhedron.box([-1, 2], [1, 3])
    within = Polyhedron(box.ineqs + (Halfspace([0.0, 0.0], -0.5e-8),))
    assert np.array_equal(vertices_2d(within), vertices_2d(box))
    assert np.array_equal(within.bounding_box(), box.bounding_box())
    beyond = Polyhedron(box.ineqs + (Halfspace([0.0, 0.0], -1e-6),))
    with pytest.raises(Empty2D):
        vertices_2d(beyond)
    with pytest.raises(EmptyPolyhedron):
        beyond.bounding_box()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    base=st.lists(
        st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(-2.0, 2.0)), min_size=1, max_size=6
    ),
    copies=st.lists(
        st.tuples(
            st.integers(0, 5),
            # no two offset shifts lie 1e-9 apart: the tolerance itself is
            # where the two norms' last bits may decide differently
            st.sampled_from([0.0, 0.4e-9, -0.3e-9, 0.6e-9, 1.5e-9, 1e-6]),
            st.sampled_from([0.0, 0.4e-9, 2e-9]),
        ),
        max_size=10,
    ),
    scales=st.lists(st.floats(0.2, 5.0), min_size=16, max_size=16),
    split=st.integers(1, 15),
    n_eq=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_intersect_keeps_the_rows_the_loop_keeps(base, copies, scales, split, n_eq, seed):
    rows = [(angle, off) for angle, off in base]
    rows += [(base[i % len(base)][0] + tilt, base[i % len(base)][1] + d) for i, d, tilt in copies]
    rows = [Halfspace(s * unit2(angle), s * off) for (angle, off), s in zip(rows, scales)]
    rows = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
    eqs, ineqs = rows[:n_eq], rows[n_eq:]
    assume(len(ineqs) >= 2)
    k = min(split, len(ineqs) - 1)
    got = intersect([Polyhedron(ineqs[:k]), Polyhedron(ineqs[k:], eqs)])
    assert same_rows(got.ineqs, loop_dedupe(ineqs))
    assert same_rows(got.eqs, loop_dedupe(eqs))


def test_intersect_does_not_chain_the_tolerance():
    # each row is 0.6e-9 from the next: the middle one is a duplicate of
    # the first, the last is 1.2e-9 from it and is kept in its own scaling
    n = unit2(0.3)
    chain = [Halfspace(s * n, s * (1.0 + 0.6e-9 * k)) for k, s in enumerate((1.0, 2.0, 3.0))]
    got = intersect([Polyhedron(chain[:1]), Polyhedron(chain[1:])])
    assert same_rows(got.ineqs, loop_dedupe(chain))
    assert same_rows(got.ineqs, [chain[0], chain[2]])
    with pytest.raises(DegenerateNormal):
        intersect([Polyhedron((Halfspace([1.0, 0.0], 1.0), Halfspace([0.0, 0.0], 1.0)))])


# ---------------------------------------------------------------------------
# the one-pivot simplex against the two-loop simplex it replaced


def loop_run_simplex(T, basis, cost, tol=1e-9):
    m, ncols = T.shape[0], T.shape[1] - 1
    while True:
        reduced = cost - cost[basis] @ T[:, :ncols]
        enter = -1
        for j in range(ncols):
            if reduced[j] > tol:
                enter = j
                break
        if enter < 0:
            return "optimal"
        col = T[:, enter]
        leave, best = -1, None
        for i in range(m):
            if col[i] > tol:
                ratio = T[i, -1] / col[i]
                if (
                    best is None
                    or ratio < best - 1e-12
                    or (abs(ratio - best) <= 1e-12 and basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        if leave < 0:
            return "unbounded"
        T[leave] /= T[leave, enter]
        for i in range(m):
            if i != leave and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter


def loop_lp_maximize(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """lp_maximize as it was written with per-row loops; the reference."""
    c = np.asarray(c, float)
    n = c.size
    A_ub = np.zeros((0, n)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, float))
    A_eq = np.zeros((0, n)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, float))
    m1, m2 = A_ub.shape[0], A_eq.shape[0]
    m = m1 + m2
    nsplit = 2 * n
    ncols = nsplit + m1 + m
    T = np.zeros((m, ncols + 1))
    for i in range(m1):
        T[i, :n] = A_ub[i]
        T[i, n:nsplit] = -A_ub[i]
        T[i, nsplit + i] = 1.0
        T[i, -1] = b_ub[i]
    for i in range(m2):
        T[m1 + i, :n] = A_eq[i]
        T[m1 + i, n:nsplit] = -A_eq[i]
        T[m1 + i, -1] = b_eq[i]
    for i in range(m):
        if T[i, -1] < 0.0:
            T[i] *= -1.0
        T[i, nsplit + m1 + i] = 1.0
    basis = [nsplit + m1 + i for i in range(m)]
    cost1 = np.zeros(ncols)
    cost1[nsplit + m1 :] = -1.0
    loop_run_simplex(T, basis, cost1)
    if -(cost1[basis] @ T[:, -1]) > 1e-7:
        return geometry.LPResult("infeasible")
    drop = []
    for i in range(m):
        if basis[i] >= nsplit + m1:
            for j in range(nsplit + m1):
                if abs(T[i, j]) > 1e-9:
                    T[i] /= T[i, j]
                    for r in range(m):
                        if r != i and T[r, j] != 0.0:
                            T[r] -= T[r, j] * T[i]
                    basis[i] = j
                    break
            else:
                drop.append(i)
    if drop:
        keep = [i for i in range(m) if i not in drop]
        T = T[keep]
        basis = [basis[i] for i in keep]
        m = len(keep)
    T = np.hstack([T[:, : nsplit + m1], T[:, -1:]])
    cost2 = np.concatenate([c, -c, np.zeros(m1)])
    if loop_run_simplex(T, basis, cost2) == "unbounded":
        return geometry.LPResult("unbounded")
    xsplit = np.zeros(nsplit + m1)
    for i, b in enumerate(basis):
        xsplit[b] = T[i, -1]
    x = xsplit[:n] - xsplit[n:nsplit]
    return geometry.LPResult("optimal", x=x, value=float(c @ x))


def random_lp(rng):
    """An LP of dimension 1-4 with 0-7 inequality and 0-3 equality rows.
    Small integer entries make degenerate ties common; some draws add
    zero rows, repeat an equality or scale one."""
    n = int(rng.integers(1, 5))
    m1, m2 = int(rng.integers(0, 8)), int(rng.integers(0, 4))
    ints = rng.integers(0, 2) == 1
    draw = (lambda *s: rng.integers(-3, 4, s).astype(float)) if ints else (lambda *s: rng.normal(size=s))
    c, A, b, E, f = draw(n), draw(m1, n), draw(m1), draw(m2, n), draw(m2)
    if m1 and rng.random() < 0.2:
        A[int(rng.integers(m1))] = 0.0
    if m2 and rng.random() < 0.3:
        k = int(rng.integers(m2))
        s = rng.choice([1.0, -2.0, 0.5])
        E, f = np.vstack([E, s * E[k]]), np.append(f, s * f[k])
    if m2 and rng.random() < 0.1:
        E[int(rng.integers(m2))] = 0.0
    if rng.random() < 0.3:
        A, b = np.vstack([A, np.eye(n), -np.eye(n)]), np.concatenate([b, np.full(2 * n, 2.0)])
    if rng.random() < 0.15:
        c = np.zeros(n)
    return c, A, b, E, f


def test_lp_matches_the_loop_reference():
    rng = np.random.default_rng(20261019)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for trial in range(1500):
        c, A, b, E, f = random_lp(rng)
        with np.errstate(all="raise"):
            got = lp_maximize(c, A, b, E, f)
            want = loop_lp_maximize(c, A, b, E, f)
        assert got.status == want.status, trial
        assert got.value == want.value, trial
        assert (got.x is None and want.x is None) or got.x.tobytes() == want.x.tobytes(), trial
        seen[got.status] += 1
    assert min(seen.values()) > 100, seen


@pytest.mark.parametrize(
    "axes",
    [
        [np.linspace(-1.0, 1.0, 5)],
        [np.linspace(0.0, 1.0, 4), np.arange(3)],
        [np.arange(2), np.arange(0), np.arange(3)],
        [np.arange(3), np.arange(2), np.arange(4), np.linspace(0.0, 1.0, 2)],
    ],
)
def test_grid_points_match_the_meshgrid_stack(axes):
    want = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    got = geometry.grid_points(axes)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert got.shape == want.shape and np.array_equal(got, want)
