"""Tests for the one-step polyhedral tube enclosure.

The worked rotation example pins down every published constant: the face
[1, sqrt(2)] x {0} under x' = (-x2, x1) over a 30-degree step. Golden
values below are frozen from the reference tables; derived quantities are
re-checked against independent arithmetic oracles before use.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import reachkit.geometry as geometry
import reachkit.polyapprox as polyapprox
from reachkit.errors import (
    AssumptionA2Violated,
    BadDeltaOrder,
    DenominatorAllDegenerate,
    NumericRange,
    ReachkitError,
)
from reachkit.flow import expm, expm_stack, max_norm_over_face, operator_norm
from reachkit.geometry import Face, GeometryWarning, Polyhedron, lp_maximize, vertices_2d
from reachkit.golden import _random_problem as random_segment_problem
from reachkit.polyapprox import (
    BoundSet,
    StepProblem,
    assemble_polyhedron,
    bloat_hull,
    check_A2,
    check_C1,
    conservative_bounds,
    hull_bloat_epsilon,
    overapproximate_step,
    propagate_face,
    propagate_tube,
    row_groups,
    sampled_bounds,
    select_delta,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
DELTA = math.pi / 6.0

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])

# golden constants for the rotation example
GOLD_L_ROT = 2.7566424  # rotation distance bound, both plain and primed
GOLD_L_CAP = 1.249999  # cap/slab translation bound
GOLD_EPS = 0.087235255  # hull bloat distance

# golden 12-row table (normal, offset), in emission order; the two
# all-slab rows on the inner side carry the formula constant +0.249999
GOLD_ROWS = [
    ([1.0, -2.7566424], SQRT2),
    ([-1.0, -2.7566424], -1.0),
    ([0.0, -1.0], 0.0),
    ([0.0, 1.0], 1.249999),
    ([1.0, 0.0], SQRT2 + 1.249999),
    ([-1.0, 0.0], 0.249999),
    ([-0.5122958, 2.8873223], SQRT2),
    ([-2.2443466, 1.8873223], -1.0),
    ([-1.0, SQRT3], 0.0),
    ([0.5, -SQRT3 / 2.0], 1.249999),
    ([SQRT3 / 2.0, 0.5], SQRT2 + 1.249999),
    ([-SQRT3 / 2.0, -0.5], 0.249999),
]

# golden vertex list (counter-clockwise) of the start/end cap-and-rotation
# subsystem, with the far cap row dropped as redundant in the full system
GOLD_VERTICES = np.array(
    [
        [SQRT2, 0.0],
        [4.8600138, 1.249999],
        [4.2845099, 1.249999],
        [SQRT3 / SQRT2, 1.0 / SQRT2],
        [SQRT3 / 2.0, 0.5],
        [0.575162, 0.154114],
        [1.0, 0.0],
    ]
)


def example_face():
    return Face(
        np.array([[1.0, 0.0], [-1.0, 0.0]]),
        np.array([SQRT2, -1.0]),
        np.array([0.0, 1.0]),
        0.0,
        orthonormal=True,
    )


def example_problem(**kw):
    return StepProblem.build(example_face(), ROT, DELTA, **kw)


def segment_lattice(face, n):
    ends = vertices_2d(face.as_polyhedron())
    s = np.linspace(0.0, 1.0, n)[:, None]
    return ends[0] * (1.0 - s) + ends[-1] * s


def tube_samples(face, A, delta, nx, nt):
    X0 = segment_lattice(face, nx)
    pts = [X0 @ expm(A, float(t)).T for t in np.linspace(0.0, delta, nt)]
    return np.vstack(pts)


def max_residual(P, pts):
    A_ub, b_ub, _, _ = P.matrices()
    return float(np.max(pts @ A_ub.T - b_ub))


def assert_rows_match(P, table, tol):
    # rows compare up to positive scale: rescale ours to the table norm
    assert len(P.ineqs) == len(table)
    for h, (normal, offset) in zip(P.ineqs, table):
        ref = np.append(np.asarray(normal, float), float(offset))
        mine = np.append(h.normal, h.offset)
        scale = np.linalg.norm(ref) / np.linalg.norm(mine)
        assert scale > 0.0
        np.testing.assert_allclose(mine * scale, ref, atol=tol, rtol=0.0)


def cyclic_match(got, want, tol):
    assert got.shape == want.shape
    n = got.shape[0]
    for roll in range(n):
        if np.max(np.abs(np.roll(got, -roll, axis=0) - want)) <= tol:
            return roll
    raise AssertionError(f"no cyclic alignment within {tol}:\n{got}\nvs\n{want}")


# ---------------------------------------------------------------------------
# problem setup


def test_check_a2_minimum_and_violation():
    face = example_face()
    assert check_A2(face, ROT) == pytest.approx(1.0, abs=1e-10)
    # reversed rotation flows inward through the face
    with pytest.raises(AssumptionA2Violated) as exc:
        check_A2(face, -ROT)
    assert exc.value.delta == pytest.approx(-SQRT2, abs=1e-9)


def test_step_problem_derived_fields():
    prob = example_problem()
    assert prob.k == 3
    assert prob.delta_min == pytest.approx(1.0, abs=1e-10)
    assert prob.m0 == pytest.approx(SQRT2, abs=1e-12)
    assert prob.norm_a == pytest.approx(1.0, abs=1e-9)
    # the time lattice contains both endpoints, so the sampled minimum of
    # the transported outward derivative is exactly cos(pi/6)
    assert prob.c1_min == pytest.approx(SQRT3 / 2.0, abs=1e-12)
    assert prob.delta0 == pytest.approx(SQRT3 / 2.0, abs=1e-12)
    assert prob.base_transport_norm == pytest.approx(1.0, abs=1e-12)
    assert prob.delta1 == pytest.approx(prob.delta0, abs=1e-12)
    assert check_C1(prob)


def test_step_problem_validation():
    face = example_face()
    with pytest.raises(ValueError):
        StepProblem.build(face, ROT, 0.0)
    with pytest.raises(ValueError):
        StepProblem.build(face, np.eye(3), DELTA)
    with pytest.raises(BadDeltaOrder):
        StepProblem.build(face, ROT, DELTA, delta0=1.5)  # above the LP minimum
    with pytest.raises(BadDeltaOrder):
        StepProblem.build(face, ROT, DELTA, delta0=-0.1)


def count_kernels(monkeypatch):
    """Count the exponentials (one-time, stacked, and batches of the stack
    kernel) and face LPs polyapprox asks for, and the rows handed to each
    _face_minima call."""
    calls = {"expm": 0, "expm_stack": 0, "_expm_batch": 0, "_face_lp_min": 0, "minima_rows": []}
    for name in ("expm", "expm_stack", "_expm_batch", "_face_lp_min", "_face_minima"):

        def wrapper(*args, _name=name, _real=getattr(polyapprox, name)):
            if _name == "_face_minima":
                calls["minima_rows"].append(len(args[1]))
            else:
                calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(polyapprox, name, wrapper)
    return calls


def counts(expm, expm_stack, batch, lp, minima_rows):
    return {
        "expm": expm,
        "expm_stack": expm_stack,
        "_expm_batch": batch,
        "_face_lp_min": lp,
        "minima_rows": minima_rows,
    }


def box_face_3d():
    return Face(
        np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]]),
        np.array([1.5, -1.0, 0.4, 0.2]),
        np.array([0.0, 0.0, 1.0]),
        0.3,
        orthonormal=True,
    )


A_3D = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.5, 0.3, 0.4]])


@pytest.mark.parametrize("t_samples,forward", [(65, 32)])
def test_one_expm_table_serves_both_outward_checks(monkeypatch, t_samples, forward):
    calls = count_kernels(monkeypatch)
    prob = example_problem()
    # one kernel batch holds the lattice and the e^{-A^T Delta} that the
    # far face and the base transport share, with no separate exponential
    # and no LP at all on a segment face
    assert calls == counts(0, 0, 1, 0, [t_samples])
    assert prob.expm_table.shape == (t_samples, 2, 2)
    calls.update(counts(0, 0, 0, 0, []))
    assert check_C1(prob)
    # both sign checks at every lattice time t > 0 in one call, none of
    # them a new exponential
    assert calls == counts(0, 0, 0, 0, [2 * forward])


@pytest.mark.parametrize("t_samples,forward", [(65, 32)])
def test_three_dimensional_face_keeps_one_lp_per_row(monkeypatch, t_samples, forward):
    calls = count_kernels(monkeypatch)
    prob = StepProblem.build(box_face_3d(), A_3D, 0.2, delta0=0.28)
    assert calls == counts(0, 0, 1, t_samples, [t_samples])
    calls.update(counts(0, 0, 0, 0, []))
    check_C1(prob)
    assert calls == counts(0, 0, 0, 2 * forward, [2 * forward])


def test_check_c1_rejects_each_wrong_base_crossing():
    # the crossing signs read only the table, so putting the mirrored
    # time's exponential at one lattice time flips exactly one sign check
    prob = example_problem()
    assert check_C1(prob)
    times = np.linspace(-DELTA, DELTA, 65)
    for j in (48, 64, 16, 0):  # forward points fall back, backward ones pass the base
        table = prob.expm_table.copy()
        table[j] = expm(ROT, -times[j])
        assert not check_C1(replace(prob, expm_table=table)), j


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    theta=st.floats(0.0, 2.0 * math.pi),
    along=st.floats(-2.0, 2.0),
    height=st.floats(-2.0, 2.0),
    half=st.floats(0.0, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
# a segment shorter than vertices_2d's merge distance has one vertex
@example(theta=0.0, along=0.0, height=0.0, half=1e-10, seed=0)
def test_face_minima_match_the_face_lp_on_segments(theta, along, height, half, seed):
    ak = np.array([math.cos(theta), math.sin(theta)])
    u = np.array([-ak[1], ak[0]])
    offsets = np.array([along + half, -along + half])
    face = Face(np.array([u, -u]), offsets, ak, height, orthonormal=True)
    C = np.random.default_rng(seed).normal(size=(9, 2)) * 3.0
    got = polyapprox._face_minima(face, C)
    want = [polyapprox._face_lp_min(face, c) for c in C]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_propagated_face_matches_rotated_rows():
    prob = example_problem()
    fd = prob.face_delta
    np.testing.assert_allclose(
        fd.side_normals, [[SQRT3 / 2, 0.5], [-SQRT3 / 2, -0.5]], atol=1e-12
    )
    np.testing.assert_allclose(fd.side_offsets, [SQRT2, -1.0], atol=1e-12)
    np.testing.assert_allclose(fd.base_normal, [-0.5, SQRT3 / 2], atol=1e-12)
    assert fd.base_offset == pytest.approx(0.0, abs=1e-12)
    assert fd.check_orthonormal()


@pytest.mark.parametrize("mode", ["conservative", "sampled"])
def test_far_face_that_loses_one_side_raises_naming_it(mode):
    # under diag(40, 1, 1) the side x1 <= 1 turns onto the base normal e2
    # and is dropped as vacuous; -x1 - x3 <= 1 and x3 <= 1 keep their x3 part
    sides = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
    face = Face(sides, np.ones(3), [0.0, 1.0, 0.0], 1.0)
    A = np.diag([40.0, 1.0, 1.0])
    assert propagate_face(geometry.normalize_and_orthogonalize(face), A, 1.0).k == face.k - 1
    with pytest.raises(NumericRange, match=r"^the far face lost side 0: over the horizon 1 "):
        overapproximate_step(face, A, 1.0, mode=mode)


def test_propagated_face_is_the_exact_image():
    rng = np.random.default_rng(7)
    A = rng.uniform(-1.0, 1.0, (2, 2))
    u = np.array([0.6, 0.8])
    face = Face(
        np.array([u, -u]), np.array([1.3, 0.7]), np.array([-0.8, 0.6]), 0.4, orthonormal=True
    )
    fd = propagate_face(face, A, 0.37)
    fwd = segment_lattice(face, 33) @ expm(A, 0.37).T
    assert np.max(np.abs(fwd @ fd.base_normal - fd.base_offset)) <= 1e-9
    assert np.max(fwd @ fd.side_normals.T - fd.side_offsets) <= 1e-9
    back = segment_lattice(fd, 33) @ expm(A, -0.37).T
    assert np.max(np.abs(back @ face.base_normal - face.base_offset)) <= 1e-9
    assert np.max(back @ face.side_normals.T - face.side_offsets) <= 1e-9


def loop_propagate_face(face, A, delta, back=None):
    """Reference: propagate_face as its own per-row transport loop, before
    the far face went through the geometry orthonormaliser."""
    A = np.asarray(A, float)
    E = expm(-A.T, delta) if back is None else back
    vk = E @ face.base_normal
    nk = float(np.linalg.norm(vk))
    bhat = vk / nk
    bprime = face.base_offset / nk
    normals, offsets = [], []
    for i in range(face.side_offsets.size):
        v = E @ face.side_normals[i]
        t = float(v @ bhat)
        w = v - t * bhat
        off = float(face.side_offsets[i]) - t * bprime
        nw = float(np.linalg.norm(w))
        if nw <= 1e-12:
            if off >= -1e-9:
                continue
            raise NumericRange(f"transported side {i} degenerated with negative offset")
        normals.append(w / nw)
        offsets.append(off / nw)
    return Face(
        np.array(normals).reshape(len(offsets), face.dim),
        np.array(offsets),
        bhat,
        bprime,
        orthonormal=True,
    )


@st.composite
def transported_faces(draw):
    """A random orthonormal face in 2D-4D with 0 to 2d sides, a matrix and
    a horizon. Sometimes one side is replaced by +-the base normal, which
    collapses in transport: it is dropped or raises, by its offset."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bn = rng.normal(size=dim)
    bn /= np.linalg.norm(bn)
    sides = rng.normal(size=(draw(st.integers(0, 2 * dim)), dim))
    sides -= np.outer(sides @ bn, bn)
    sides /= np.linalg.norm(sides, axis=1)[:, None]
    offsets = rng.uniform(-1.0, 2.0, sides.shape[0])
    if sides.shape[0] and draw(st.booleans()):
        sides[0] = draw(st.sampled_from([1.0, -1.0])) * bn
    face = Face(sides, offsets, bn, float(rng.uniform(-2.0, 2.0)), orthonormal=True)
    A = rng.uniform(-1.5, 1.5, (dim, dim))
    delta = draw(st.floats(1e-3, 1.5))
    back = expm(-A.T, delta) if draw(st.booleans()) else None
    return face, A, delta, back


def face_outcome(fn, *args):
    """Exact bytes of a face, or the type of the error raised (the message
    of a collapsed side is worded by the orthonormaliser)."""
    try:
        f = fn(*args)
    except ReachkitError as exc:
        return ("raised", type(exc))
    return (
        "ok",
        f.side_normals.shape,
        f.side_normals.tobytes(),
        f.side_offsets.tobytes(),
        f.base_normal.tobytes(),
        f.base_offset.hex(),
        f.orthonormal,
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=transported_faces())
def test_propagate_face_matches_the_per_row_loop(case):
    face, A, delta, back = case
    assert face_outcome(propagate_face, face, A, delta, back) == face_outcome(
        loop_propagate_face, face, A, delta, back
    )


# ---------------------------------------------------------------------------
# distance bounds


def test_conservative_bounds_match_golden_constants():
    b = conservative_bounds(example_problem())
    assert b.mode == "conservative"
    # independent arithmetic for the closed forms
    l_rot = 2.0 * SQRT2 * math.exp(math.pi / 6.0) / SQRT3
    l_cap = SQRT2 * (math.pi / 6.0) * math.exp(math.pi / 6.0)
    assert b.rotation(0) == pytest.approx(l_rot, abs=1e-12)
    assert b.cap == pytest.approx(l_cap, abs=1e-12)
    # golden reference values
    assert b.rotation(0) == pytest.approx(GOLD_L_ROT, abs=1e-4)
    assert b.rotation(1) == pytest.approx(GOLD_L_ROT, abs=1e-4)
    assert b.cap == pytest.approx(GOLD_L_CAP, abs=5e-5)
    # in this example every primed entry and every slab equals its mate
    np.testing.assert_allclose(b.l_prime, b.l, atol=1e-12)
    assert b.slab(0) == pytest.approx(b.cap, abs=1e-12)
    assert b.slab(1) == pytest.approx(b.cap, abs=1e-12)
    assert b.l[2 * b.k - 1] == pytest.approx(b.cap, abs=1e-15)


def test_conservative_bounds_need_positive_margin():
    prob = StepProblem.build(example_face(), ROT, 2.0)  # outward fails by t=2
    assert prob.delta0 is None
    assert not check_C1(prob)
    with pytest.raises(BadDeltaOrder):
        conservative_bounds(prob)
    with pytest.raises(BadDeltaOrder):
        _ = prob.delta1


def test_sampled_bounds_stay_below_conservative():
    prob = example_problem()
    cons = conservative_bounds(prob)
    samp = sampled_bounds(prob, nx=60, nt=60)
    assert samp.mode == "sampled"
    assert np.all(samp.l <= cons.l + 1e-12)
    assert np.all(samp.l_prime <= cons.l_prime + 1e-12)
    # the sampled cap distance is the true max height sqrt(2) sin(pi/6)
    assert samp.cap == pytest.approx(SQRT2 / 2.0, abs=1e-9)


def test_sampled_bounds_grow_under_lattice_refinement():
    prob = example_problem()
    prev = sampled_bounds(prob, nx=11, nt=11)
    for n in (21, 41):
        cur = sampled_bounds(prob, nx=n, nt=n)  # nested lattices
        assert np.all(cur.l >= prev.l - 1e-12)
        assert np.all(cur.l_prime >= prev.l_prime - 1e-12)
        prev = cur


def test_three_dimensional_sampled_bounds_are_pinned():
    # sha256 prefix of l and l_prime, recorded before the 3D face lattice
    # was shared with the facelift facet lattice
    b = sampled_bounds(StepProblem.build(box_face_3d(), A_3D, 0.2, delta0=0.28))
    assert hashlib.sha256(b.l.tobytes() + b.l_prime.tobytes()).hexdigest()[:16] == "0b655caa289a3d64"


def test_sampled_bounds_need_live_denominators():
    prob = example_problem()
    with pytest.raises(DenominatorAllDegenerate):
        sampled_bounds(prob, nx=15, nt=1)  # only t = 0: every point on the base


def test_select_delta_against_bisection_oracle():
    cases = [(SQRT2, 1.0, 1.0, SQRT3 / 2.0), (0.5, 2.0, 3.0, 0.4), (3.0, 0.25, 1.2, 1.0)]
    for m0, na, d, d0 in cases:
        lo, hi = 0.0, 100.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if m0 * na * (math.exp(na * mid) - 1.0) <= d - d0:
                lo = mid
            else:
                hi = mid
        assert select_delta(m0, na, d, d0) == pytest.approx(lo, abs=1e-10)
    assert select_delta(SQRT2, 0.0, 1.0, 0.5) == math.inf
    assert select_delta(0.0, 1.0, 1.0, 0.5) == math.inf
    with pytest.raises(BadDeltaOrder):
        select_delta(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(BadDeltaOrder):
        select_delta(1.0, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# row assembly


def test_row_groups_layout():
    assert row_groups(3) == [
        "rotated-start",
        "rotated-start",
        "support-start",
        "cap-start",
        "slab-start",
        "slab-start",
        "rotated-end",
        "rotated-end",
        "support-end",
        "cap-end",
        "slab-end",
        "slab-end",
    ]
    assert len(row_groups(2)) == 8


def test_assembled_rows_match_golden_table():
    prob = example_problem()
    P = assemble_polyhedron(prob, conservative_bounds(prob))
    assert len(P.ineqs) == 4 * prob.k
    assert_rows_match(P, GOLD_ROWS, 1e-4)


def test_zero_distances_reproduce_the_face_rows():
    prob = example_problem()
    P = assemble_polyhedron(prob, BoundSet(np.zeros(6), np.zeros(6), "sampled"))
    f0, fd = prob.face, prob.face_delta
    want = [
        (f0.side_normals[0], f0.side_offsets[0]),
        (f0.side_normals[1], f0.side_offsets[1]),
        (-f0.base_normal, -f0.base_offset),
        (f0.base_normal, f0.base_offset),
        (f0.side_normals[0], f0.side_offsets[0]),
        (f0.side_normals[1], f0.side_offsets[1]),
        (fd.side_normals[0], fd.side_offsets[0]),
        (fd.side_normals[1], fd.side_offsets[1]),
        (fd.base_normal, fd.base_offset),
        (-fd.base_normal, -fd.base_offset),
        (fd.side_normals[0], fd.side_offsets[0]),
        (fd.side_normals[1], fd.side_offsets[1]),
    ]
    for h, (n, b) in zip(P.ineqs, want):
        np.testing.assert_allclose(h.normal, n, atol=1e-15)
        assert h.offset == pytest.approx(float(b), abs=1e-15)


def test_cap_and_rotation_subsystem_matches_golden_vertices():
    prob = example_problem()
    P = assemble_polyhedron(prob, conservative_bounds(prob))
    first8 = [P.ineqs[i] for i in (0, 1, 2, 3, 6, 7, 8, 9)]
    # the far cap row is redundant in the full enclosure; certify by LP
    others = [h for i, h in enumerate(P.ineqs) if i != 9]
    A_ub = np.array([h.normal for h in others])
    b_ub = np.array([h.offset for h in others])
    res = lp_maximize(P.ineqs[9].normal, A_ub, b_ub)
    assert res.status == "optimal" and res.value <= P.ineqs[9].offset + 1e-9
    # dropping it leaves the seven golden corners
    verts = vertices_2d(Polyhedron(tuple(first8[:7])))
    assert verts.shape == (7, 2)
    cyclic_match(verts, GOLD_VERTICES, 1e-3)


def test_full_polygon_contains_tube_and_is_tight_at_faces():
    prob = example_problem()
    P = assemble_polyhedron(prob, conservative_bounds(prob))
    pts = tube_samples(prob.face, ROT, DELTA, 60, 60)
    assert max_residual(P, pts) <= 1e-9
    # both segment endpoints lie on the boundary: residual exactly zero
    assert max_residual(P, np.array([[1.0, 0.0], [SQRT2, 0.0]])) >= -1e-9


def test_sampled_rows_cover_their_own_lattice():
    prob = example_problem()
    P = assemble_polyhedron(prob, sampled_bounds(prob, nx=40, nt=40))
    pts = tube_samples(prob.face, ROT, DELTA, 40, 40)
    assert max_residual(P, pts) <= 1e-9


def test_membership_is_invariant_under_rotating_the_frame():
    th = 0.7
    Q = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    face = example_face()
    face_q = Face(
        face.side_normals @ Q.T,
        face.side_offsets,
        Q @ face.base_normal,
        face.base_offset,
        orthonormal=True,
    )
    prob = example_problem()
    prob_q = StepProblem.build(face_q, Q @ ROT @ Q.T, DELTA)
    np.testing.assert_allclose(
        conservative_bounds(prob_q).l, conservative_bounds(prob).l, atol=1e-9
    )
    P = assemble_polyhedron(prob, conservative_bounds(prob))
    Pq = assemble_polyhedron(prob_q, conservative_bounds(prob_q))
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 5.0, (500, 2))
    got = Pq.contains(pts @ Q.T, tol=1e-8)
    want = P.contains(pts, tol=1e-8)
    # membership can flip only within a hair of some boundary
    A_ub, b_ub, _, _ = P.matrices()
    near = np.min(np.abs(pts @ A_ub.T - b_ub), axis=1) < 1e-6
    assert np.array_equal(got[~near], want[~near])


def test_growing_a_distance_only_relaxes_the_polygon():
    prob = example_problem()
    base = sampled_bounds(prob, nx=25, nt=25)
    bumped = BoundSet(base.l + np.array([0.5, 0, 0, 0, 0, 0]), base.l_prime, "sampled")
    P0 = assemble_polyhedron(prob, base)
    P1 = assemble_polyhedron(prob, bumped)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 4.0, (400, 2))
    inside = P0.contains(pts, tol=0.0)
    assert np.all(P1.contains(pts[inside], tol=1e-12))


# ---------------------------------------------------------------------------
# hull enclosure


def test_hull_bloat_epsilon_matches_golden_value():
    x = math.pi / 6.0
    # series oracle: sum_{j>=3} x^j/j! plus the x^2/8 correction
    tail = sum(x**j / math.factorial(j) for j in range(3, 40)) + x * x / 8.0
    eps = hull_bloat_epsilon(SQRT2, 1.0, DELTA)
    assert eps == pytest.approx(SQRT2 * tail, abs=1e-12)
    assert eps == pytest.approx(GOLD_EPS, abs=1e-5)


def test_bloat_hull_pushes_chord_hull_outward():
    prob = example_problem()
    eps = hull_bloat_epsilon(SQRT2, 1.0, DELTA)
    H0 = bloat_hull(prob.face, prob.face_delta, 0.0)
    H = bloat_hull(prob.face, prob.face_delta, eps)
    assert len(H.ineqs) == len(H0.ineqs)
    for h, h0 in zip(H.ineqs, H0.ineqs):
        np.testing.assert_allclose(h.normal, h0.normal, atol=1e-12)
        assert h.offset - h0.offset == pytest.approx(eps, abs=1e-12)
    # golden row: the chord edge from (sqrt2, 0) to the rotated far corner
    gold = np.array([0.70710678, 0.18946869])
    units = [h.normal for h in H0.ineqs]
    best = min(units, key=lambda n: np.linalg.norm(n * np.linalg.norm(gold) - gold))
    np.testing.assert_allclose(best * np.linalg.norm(gold), gold, atol=1e-6)
    # the bloated hull still encloses the curved tube
    pts = tube_samples(prob.face, ROT, DELTA, 60, 60)
    assert max_residual(H, pts) <= 1e-9


def test_bloat_hull_degenerates_cleanly_for_zero_matrix():
    face = example_face()
    A0 = np.zeros((2, 2))
    eps = hull_bloat_epsilon(max_norm_over_face(face), operator_norm(A0), 0.5)
    assert eps == 0.0
    fd = propagate_face(face, A0, 0.5)
    with pytest.warns(GeometryWarning):
        H = bloat_hull(face, fd, eps)
    pts = segment_lattice(face, 20)
    assert max_residual(H, pts) <= 1e-9  # the strip through the segment


# ---------------------------------------------------------------------------
# step driver


def test_overapproximate_step_single_step_fields():
    res = overapproximate_step(example_face(), ROT, DELTA)
    assert len(res.polyhedra) == 1 and not res.delta_shrunk
    assert res.deltas == [pytest.approx(DELTA)]
    assert res.hulls[0] is not None
    assert len(res.assembled[0].ineqs) == 12
    assert len(res.polyhedron.ineqs) > 12  # hull rows joined on
    pts = tube_samples(example_face(), ROT, DELTA, 50, 50)
    assert max_residual(res.polyhedron, pts) <= 1e-9


@pytest.mark.parametrize("hi", [1.0 + 1e-10, 1.0])
def test_overapproximate_step_point_face_keeps_the_bare_enclosure(hi):
    # a face shorter than vertices_2d's 1e-9 merge gap has one vertex, so
    # both faces give two points and no hull: the 4k rows stand alone
    face = Face(
        np.array([[1.0, 0.0], [-1.0, 0.0]]),
        np.array([hi, -1.0]),
        np.array([0.0, 1.0]),
        0.0,
        orthonormal=True,
    )
    res = overapproximate_step(face, ROT, 0.3)
    assert res.hulls == [None]
    assert res.polyhedron is res.assembled[0]
    assert len(res.polyhedron.ineqs) == 12
    assert geometry.is_bounded(res.polyhedron)
    pts = np.array([expm(ROT, float(t)) @ [1.0, 0.0] for t in np.linspace(0.0, 0.3, 50)])
    assert res.polyhedron.contains(pts, tol=1e-9).all()


def test_overapproximate_step_rejects_unknown_mode():
    with pytest.raises(ValueError):
        overapproximate_step(example_face(), ROT, DELTA, mode="exact")


def test_overapproximate_step_shrinks_until_certified(monkeypatch):
    enumerated = []

    def counted(P):
        enumerated.append(P)
        return vertices_2d(P)

    monkeypatch.setattr(geometry, "vertices_2d", counted)
    res = overapproximate_step(example_face(), ROT, 2.0)
    assert res.delta_shrunk
    assert len(res.polyhedra) >= 2
    # each face is enumerated once: the start face, then every sub-step's
    # far face, which the next sub-step starts from
    assert len(enumerated) == 1 + len(res.polyhedra)
    assert sum(res.deltas) == pytest.approx(2.0, abs=1e-9)
    face = example_face()
    for t in np.linspace(0.0, 2.0, 81):
        pts = segment_lattice(face, 17) @ expm(ROT, float(t)).T
        hit = np.zeros(pts.shape[0], bool)
        for P in res.polyhedra:
            hit |= P.contains(pts, tol=1e-9)
        assert np.all(hit), f"tube points at t={t:.3f} escaped every sub-step"


@pytest.mark.parametrize("mode", ["conservative", "sampled"])
@pytest.mark.parametrize("delta", [DELTA, 2.0])
def test_a_2d_step_runs_one_lp_per_build(monkeypatch, mode, delta):
    # check_A2 is the one LP of a 2D step: face vertices, boxes and the
    # hull intersection run none, at either horizon (2.0 shrinks and chains)
    lps, builds, depth = [], [], []
    build, check = StepProblem.build.__func__, polyapprox.check_A2

    def counted_lp(*args):
        lps.append("check_A2" if depth else "other")
        return lp_maximize(*args)

    def counted_check(face, A):
        depth.append(1)
        try:
            return check(face, A)
        finally:
            depth.pop()

    def counted_build(cls, *args, **kw):
        builds.append(1)
        return build(cls, *args, **kw)

    monkeypatch.setattr(geometry, "lp_maximize", counted_lp)
    monkeypatch.setattr(polyapprox, "check_A2", counted_check)
    monkeypatch.setattr(StepProblem, "build", classmethod(counted_build))
    res = overapproximate_step(example_face(), ROT, delta, mode=mode)
    assert len(builds) >= len(res.polyhedra)
    assert lps == ["check_A2"] * len(builds)

    lps.clear()
    far = propagate_face(example_face(), ROT, 0.3)
    assert far.vertices.shape == (2, 2)
    for P in (*res.polyhedra, far.as_polyhedron(), Polyhedron.box([0, 0], [2, 1])):
        lo, hi = P.bounding_box()
        assert np.all(lo <= hi)
    assert lps == []


def test_hull_intersection_tightens_the_step():
    res = overapproximate_step(example_face(), ROT, DELTA)
    area_loose = _polygon_area(vertices_2d(res.assembled[0]))
    area_tight = _polygon_area(vertices_2d(res.polyhedron))
    assert area_tight < 0.5 * area_loose


def test_step_area_shrinks_with_the_horizon():
    areas = []
    for d in (0.2, 0.1, 0.05):
        res = overapproximate_step(example_face(), ROT, d)
        areas.append(_polygon_area(vertices_2d(res.polyhedron)))
    assert areas[2] < areas[1] < areas[0]
    assert areas[2] < 0.35 * areas[0]


def _polygon_area(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


# ---------------------------------------------------------------------------
# randomized soundness sweep


def test_random_problems_stay_enclosed():
    rng = np.random.default_rng(20260819)
    for _ in range(8):
        face, A, delta, d0 = random_segment_problem(rng)
        prob = StepProblem.build(face, A, delta, delta0=d0)
        assert check_C1(prob)
        cons = conservative_bounds(prob)
        samp = sampled_bounds(prob, nx=30, nt=30)
        assert np.all(samp.l <= cons.l + 1e-12)
        assert np.all(samp.l_prime <= cons.l_prime + 1e-12)
        pts = tube_samples(face, A, delta, 30, 30)
        assert max_residual(assemble_polyhedron(prob, cons), pts) <= 1e-9
        assert max_residual(assemble_polyhedron(prob, samp), pts) <= 1e-9
        eps = hull_bloat_epsilon(prob.m0, prob.norm_a, delta)
        assert max_residual(bloat_hull(prob.face, prob.face_delta, eps), pts) <= 1e-9


def _union_residual(polyhedra, pts):
    """Per point, the smallest row violation over the polyhedra."""
    worst = np.full(pts.shape[0], np.inf)
    for P in polyhedra:
        A_ub, b_ub, _, _ = P.matrices()
        worst = np.minimum(worst, np.max(pts @ A_ub.T - b_ub, axis=1))
    return worst


def chained_segment_problem(rng, stretch):
    """A random segment problem and a horizon past the one check_C1
    certifies without a margin: the recipe's horizon is doubled until the
    lattice check rejects it, then stretched, so overapproximate_step must
    shrink and chain."""
    while True:
        face, A, delta, _ = random_segment_problem(rng)
        horizon = delta
        while horizon <= 16.0 * delta and check_C1(StepProblem.build(face, A, horizon)):
            horizon *= 2.0
        if horizon <= 16.0 * delta:
            return face, A, stretch * horizon


# each example chains a few dozen builds: no shrinking phase, reruns are exact
@settings(max_examples=4, deadline=None, derandomize=True, database=None, phases=[Phase.generate])
@given(seed=st.integers(0, 2**32 - 1), stretch=st.floats(1.0, 1.5))
def test_chained_steps_enclose_the_flow(seed, stretch):
    face, A, horizon = chained_segment_problem(np.random.default_rng(seed), stretch)
    X = segment_lattice(face, 14)  # every third point of sampled_bounds' 40
    for mode in ("conservative", "sampled"):
        res = overapproximate_step(face, A, horizon, mode=mode)
        assert res.delta_shrunk and len(res.polyhedra) >= 2
        assert sum(res.deltas) == pytest.approx(horizon, abs=1e-9)
        if mode == "conservative":
            times = np.linspace(0.0, horizon, 61)
        else:
            # sampled distances are lattice suprema: only the lattice of each
            # sub-step (its 40 times, its 40 face points) is promised
            starts = np.cumsum([0.0] + res.deltas[:-1])
            times = np.concatenate([t0 + np.linspace(0.0, d, 40) for t0, d in zip(starts, res.deltas)])
        pts = np.vstack([X @ expm(A, float(t)).T for t in times])
        assert np.max(_union_residual(res.polyhedra, pts)) <= 1e-9, mode


def test_three_dimensional_step_encloses_tube():
    A = A_3D
    face = box_face_3d()
    prob = StepProblem.build(face, A, 0.2, delta0=0.28)
    assert prob.k == 5
    res = overapproximate_step(face, A, 0.2, delta0=0.28)
    P = res.polyhedron
    assert len(P.ineqs) == 20
    assert res.hulls == [None]
    lo = np.array([1.0, -0.2, 0.3])
    hi = np.array([1.5, 0.4, 0.3])
    g = np.linspace(0.0, 1.0, 5)
    X0 = np.array([lo + (hi - lo) * np.array([a, b, 0.0]) for a in g for b in g])
    pts = np.vstack([X0 @ expm(A, float(t)).T for t in np.linspace(0.0, 0.2, 15)])
    assert max_residual(P, pts) <= 1e-9
    # the start-side rotation/support/cap rows alone already pin the tube
    from reachkit.geometry import is_bounded

    assert is_bounded(Polyhedron(tuple(P.ineqs[: prob.k + 1])))


# ---------------------------------------------------------------------------
# one exponential batch and one build per emitted sub-step


def two_build_problem(face, A, delta, delta0=None):
    """Reference: StepProblem.build with separate exponentials, its own
    e^{-A^T Delta} and its own table, and every face fact computed afresh."""
    A = np.asarray(A, float)
    if delta <= 0.0:
        raise ValueError(f"step horizon must be positive, got {delta}")
    if not face.orthonormal:
        face = geometry.normalize_and_orthogonalize(face)
    if A.shape != (face.dim, face.dim):
        raise ValueError(f"matrix shape {A.shape} does not fit dimension {face.dim}")
    dmin = check_A2(face, A)
    m0 = max_norm_over_face(face)
    norm_a = operator_norm(A)
    back = expm(-A.T, delta)
    fdelta = propagate_face(face, A, delta, back)
    transport = float(np.linalg.norm(back @ face.base_normal))
    table = expm_stack(A, np.linspace(-delta, delta, 65))
    c1 = polyapprox.c1_minimum(face, A, table)
    if delta0 is None:
        chosen = c1 if c1 > 1e-12 else None
    else:
        if not 0.0 < delta0 <= dmin:
            raise BadDeltaOrder(f"delta0 must lie in (0, {dmin:.6g}], got {delta0:.6g}")
        chosen = float(delta0)
    return StepProblem(face, A, float(delta), dmin, chosen, c1, m0, norm_a, fdelta, transport, table)


def two_build_step(face, A, delta, mode="conservative", delta0=None):
    """Reference: the overapproximate_step loop that builds at the whole
    remaining horizon and builds again at the certified one when check_C1
    rejects it."""
    if mode not in ("conservative", "sampled"):
        raise ValueError(f"unknown bound mode {mode!r}")
    A = np.asarray(A, float)
    if not face.orthonormal:
        face = geometry.normalize_and_orthogonalize(face)
    result = polyapprox.StepResult([], [], [], [], [], [], False)
    current = face
    remaining = float(delta)
    guard = 0
    while remaining > 1e-12:
        guard += 1
        if guard > 10000:
            raise NumericRange("step chaining did not converge; horizon too aggressive")
        prob = two_build_problem(current, A, remaining, delta0=delta0)
        if not check_C1(prob):
            ref = delta0 if delta0 is not None else prob.delta_min / 2.0
            certified = select_delta(prob.m0, prob.norm_a, prob.delta_min, ref)
            step = min(remaining, certified)
            if step >= remaining:
                raise NumericRange(
                    "outward condition fails inside its own certified horizon; "
                    "the time lattice and the growth bound disagree"
                )
            result.delta_shrunk = True
            prob = two_build_problem(current, A, step, delta0=delta0)
            if prob.delta0 is None:
                prob = replace(prob, delta0=ref)
        bounds = conservative_bounds(prob) if mode == "conservative" else sampled_bounds(prob)
        poly = assemble_polyhedron(prob, bounds)
        hull = None
        if face.dim == 2 and len(prob.face.vertices) + len(prob.face_delta.vertices) >= 3:
            eps = hull_bloat_epsilon(prob.m0, prob.norm_a, prob.delta)
            hull = bloat_hull(prob.face, prob.face_delta, eps)
        result.problems.append(prob)
        result.bounds.append(bounds)
        result.assembled.append(poly)
        result.hulls.append(hull)
        result.polyhedra.append(geometry.intersect([poly, hull]) if hull is not None else poly)
        result.deltas.append(prob.delta)
        remaining -= prob.delta
        if remaining > 1e-12:
            current = prob.face_delta
    return result


def _hex(v):
    return None if v is None else float(v).hex()


def _face_bytes(f):
    return (
        f.side_normals.shape,
        f.side_normals.tobytes(),
        f.side_offsets.tobytes(),
        f.base_normal.tobytes(),
        _hex(f.base_offset),
        f.orthonormal,
    )


def _poly_bytes(P):
    if P is None:
        return None
    return len(P.ineqs), [(h.normal.tobytes(), _hex(h.offset)) for h in P.ineqs + P.eqs]


def step_outcome(fn, *args, **kw):
    """Every StepResult field as exact bytes, or the error's type and message."""
    try:
        res = fn(*args, **kw)
    except (ReachkitError, ValueError) as exc:
        return ("raised", type(exc), str(exc))
    problems = [
        (
            _face_bytes(p.face),
            p.matrix.tobytes(),
            *map(_hex, (p.delta, p.delta_min, p.delta0, p.c1_min, p.m0, p.norm_a)),
            _face_bytes(p.face_delta),
            _hex(p.base_transport_norm),
            p.expm_table.shape,
            p.expm_table.tobytes(),
        )
        for p in res.problems
    ]
    return (
        "ok",
        problems,
        [(b.l.tobytes(), b.l_prime.tobytes(), b.mode) for b in res.bounds],
        [_poly_bytes(P) for P in res.assembled],
        [_poly_bytes(P) for P in res.hulls],
        [_poly_bytes(P) for P in res.polyhedra],
        [_hex(d) for d in res.deltas],
        res.delta_shrunk,
    )


def collapse_face():
    """x1 in [1, 2] on x2 = 1 under diag(40, 1): e^{-A^T Delta} shrinks the
    side normals to e^{-40 Delta} e1, so at Delta = 1 the side -e1, offset
    -1, projects to zero with a negative offset; with delta0 = 0.9 the
    lattice minimum e^{-1} rejects that horizon, and a shrunk one is fine."""
    face = Face(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([2.0, -1.0]), np.array([0.0, 1.0]), 1.0)
    return face, np.diag([40.0, 1.0])


def reference_cases():
    """(face, A, delta, delta0) of plain, stretched-and-chained and error
    problems, with and without a given delta0 (example2 at 2.0 chains
    with one)."""
    cases = [
        (example_face(), ROT, DELTA, None),
        (example_face(), ROT, 2.0, None),
        (example_face(), ROT, 2.0, 0.5),
        (box_face_3d(), A_3D, 0.2, 0.28),
        (example_face(), -ROT, DELTA, None),  # A2 violated
        (example_face(), ROT, DELTA, 1.5),  # delta0 above delta_min: BadDeltaOrder
        (*collapse_face(), 1.0, 0.9),  # the side collapses at the rejected horizon
        # e^{800} overflows the table, but the collapse is found first
        (collapse_face()[0], np.diag([800.0, 1.0]), 1.0, None),
        (example_face(), ROT, 1e308, None),  # 2 Delta overflows: no finite lattice
    ]
    rng = np.random.default_rng(20261019)
    for i in range(4):
        face, A, delta, d0 = random_segment_problem(rng)
        cases.append((face, A, delta, d0 if i % 2 else None))
        face, A, horizon = chained_segment_problem(rng, 1.0 + 0.2 * i)
        cases.append((face, A, horizon, None))
    return cases


def test_overapproximate_step_matches_the_two_build_reference():
    collapsed = step_outcome(two_build_step, *collapse_face(), 1.0, delta0=0.9)
    assert collapsed[:2] == ("raised", NumericRange)
    assert "transported side 1 projects to zero" in collapsed[2]
    shrunk = 0
    for face, A, delta, delta0 in reference_cases():
        for mode in ("conservative", "sampled"):
            want = step_outcome(two_build_step, face, A, delta, mode=mode, delta0=delta0)
            got = step_outcome(overapproximate_step, face, A, delta, mode=mode, delta0=delta0)
            assert got == want, (delta, delta0, mode)
            shrunk += want[0] == "ok" and want[-1]
    assert shrunk >= 8  # the chained problems and example2 at 2.0, in both modes


def _step_digest(res):
    h = hashlib.sha256()
    for v in (*res.deltas, *(x for b in res.bounds for x in (*b.l, *b.l_prime))):
        h.update(float(v).hex().encode())
    for P in res.polyhedra:
        for hs in P.ineqs + P.eqs:
            for v in (*hs.normal, hs.offset):
                h.update(float(v).hex().encode())
    h.update(str(res.delta_shrunk).encode())
    return h.hexdigest()[:16]


def test_seeded_step_digests_are_pinned():
    # three plain and three stretched, chained problems in both bound
    # modes; digests recorded before the shared exponential batch
    rng = np.random.default_rng(1019)
    problems = [random_segment_problem(rng) for _ in range(3)]
    problems += [(*chained_segment_problem(rng, 1.25), None) for _ in range(3)]
    got = [
        _step_digest(overapproximate_step(face, A, delta, mode=mode, delta0=d0))
        for face, A, delta, d0 in problems
        for mode in ("conservative", "sampled")
    ]
    assert got == PINNED_STEP_DIGESTS


PINNED_STEP_DIGESTS = [
    "b0c228b39eae5fe5",
    "1d146adaa36d7109",
    "62c679d4e778489c",
    "1e3ea0cc337a828a",
    "b5b9c269e8a7b5d6",
    "1a033e37785918ce",
    "8950795d012448a2",
    "8481faafb2e78aeb",
    "4c65c8a1b30cc44d",
    "df38c68b044cb43d",
    "e595cb9b0c8bf745",
    "d34749374c31c1be",
]


@pytest.mark.parametrize("mode", ["conservative", "sampled"])
@pytest.mark.parametrize("case", ["example-single", "example-chained", "random-chained"])
def test_a_2d_step_builds_once_per_sub_step(monkeypatch, mode, case):
    # each emitted sub-step is one build, and each build runs one kernel
    # batch and one LP (check_A2); a horizon check_C1 rejects costs one
    # more batch outside any build, and no LP
    if case == "random-chained":
        face, A, delta = chained_segment_problem(np.random.default_rng(3), 1.2)
    else:
        face, A, delta = example_face(), ROT, DELTA if case == "example-single" else 2.0
    log, verdicts = [], []
    build, batch, c1 = StepProblem.build.__func__, polyapprox._expm_batch, polyapprox.check_C1

    def counted_build(cls, *args, **kw):
        log.append("build")
        try:
            return build(cls, *args, **kw)
        finally:
            log.append("end")

    def counted_lp(*args):
        log.append("lp")
        return lp_maximize(*args)

    def counted_batch(M):
        log.append("batch")
        return batch(M)

    def counted_c1(prob):
        verdicts.append(c1(prob))
        return verdicts[-1]

    monkeypatch.setattr(StepProblem, "build", classmethod(counted_build))
    monkeypatch.setattr(geometry, "lp_maximize", counted_lp)
    monkeypatch.setattr(polyapprox, "_expm_batch", counted_batch)
    monkeypatch.setattr(polyapprox, "check_C1", counted_c1)
    res = overapproximate_step(face, A, delta, mode=mode)
    assert log.count("build") == len(res.polyhedra)
    # what follows a build's end up to the next build: the rejected
    # horizon's one batch, or nothing
    assert [seg.split() for seg in " ".join(log).split("build")[1:]] == [
        ["lp", "batch", "end"] + (["batch"] if not ok else []) for ok in verdicts
    ]
    assert res.delta_shrunk == (not all(verdicts))
    assert (len(res.polyhedra) > 1) == (case != "example-single")


# ---------------------------------------------------------------------------
# tube transport


def test_propagate_tube_identity_for_zero_matrix():
    P0 = Polyhedron.box([-1.0, 0.0], [2.0, 1.0])
    for i in range(1, 4):
        P = propagate_tube(P0, np.zeros((2, 2)), i * 0.5)
        for h, h0 in zip(P.ineqs, P0.ineqs):
            np.testing.assert_allclose(h.normal, h0.normal, atol=1e-12)
            assert h.offset == pytest.approx(h0.offset, abs=1e-12)


def test_propagate_tube_rotates_a_square():
    P0 = Polyhedron.box([-1.0, -1.0], [1.0, 1.0])
    P1 = propagate_tube(P0, ROT, math.pi / 4.0)
    verts = vertices_2d(P1)
    want = np.array([[-SQRT2, 0.0], [0.0, -SQRT2], [SQRT2, 0.0], [0.0, SQRT2]])
    cyclic_match(verts, want, 1e-9)


def test_propagate_tube_matches_pointwise_transport():
    rng = np.random.default_rng(5)
    A = rng.uniform(-1.0, 1.0, (2, 2))
    P0 = Polyhedron.box([-1.0, 0.0], [2.0, 1.0])
    pts = rng.uniform(-2.0, 3.0, (1000, 2))
    A_ub, b_ub, _, _ = P0.matrices()
    margin = np.min(np.abs(pts @ A_ub.T - b_ub), axis=1) > 1e-7
    pts = pts[margin]
    base = P0.contains(pts, tol=0.0)
    for i in range(1, 4):
        moved = pts @ expm(A, i * 0.3).T
        assert np.array_equal(propagate_tube(P0, A, i * 0.3).contains(moved, tol=1e-9), base)
