"""Flow-layer tests: the matrix exponential against a long Taylor sum and
scipy, RK4 against closed-form orbits and an order check, operator norm
against the SVD, the trajectory kernel against chained flow calls and
closed-form orbits, and the constant-field shortcut against a
stage-by-stage RK4 loop, byte for byte."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from reachkit.errors import NonFiniteState, NumericRange, StepTooCoarse, UnboundedFace
from reachkit.facelift import _advect
from reachkit.flow import (
    ExpressionDynamics,
    LinearDynamics,
    expm,
    expm_stack,
    flow,
    max_norm_over_face,
    operator_norm,
    rk4,
    trajectory,
)
from reachkit.geometry import Face

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def taylor_expm(A, t, terms=200):
    A = np.asarray(A, float) * t
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    return out


def test_expm_matches_taylor_small_norm():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        A = rng.normal(size=(n, n))
        t = float(rng.uniform(0.1, 2.0 / max(operator_norm(A), 1e-9)))
        ours = expm(A, t)
        ref = taylor_expm(A, t)
        assert np.max(np.abs(ours - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))


def test_expm_matches_scipy_at_large_norm():
    rng = np.random.default_rng(9)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n))
        A *= 40.0 / max(operator_norm(A), 1e-12)  # ||A t|| around 40
        ref = scipy.linalg.expm(A)
        ours = expm(A)
        assert np.max(np.abs(ours - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_expm_rotation_is_exact_rotation():
    th = np.pi / 6
    np.testing.assert_allclose(
        expm(ROT, th),
        [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]],
        atol=1e-14,
    )


def test_expm_rejects_nonfinite():
    with pytest.raises(NumericRange):
        expm(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def _scaling_exponent(A, t):
    # the squaring count of the one-time kernel: ||A t||_1 against theta_13
    norm1 = float(np.max(np.sum(np.abs(A * t), axis=0)))
    return int(np.ceil(np.log2(norm1 / 5.371920351148152))) if norm1 > 5.371920351148152 else 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expm_stack_equals_one_time_expm_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    exponents = set()
    for _ in range(60):
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-2.0, 1.0)
        if rng.random() < 0.3:
            A = -A.T  # a transposed view, as the far-face transport passes
        times = rng.uniform(-4.0, 4.0, int(rng.integers(1, 12)))
        times[rng.random(times.size) < 0.2] = 0.0
        stack = expm_stack(A, times)
        assert stack.shape == (times.size, n, n)
        for j, t in enumerate(times):
            one = expm(A, float(t))
            assert one.flags.c_contiguous and stack[j].flags.c_contiguous
            assert np.array_equal(stack[j], one), (n, float(t))
            exponents.add(_scaling_exponent(A, float(t)))
    assert {0, 1, 2, 3, 4} <= exponents


def test_expm_stack_covers_negative_and_zero_times():
    A = np.array([[0.3, -2.0], [1.5, -0.4]])
    times = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    stack = expm_stack(A, times)
    np.testing.assert_allclose(stack[2], np.eye(2), rtol=0.0, atol=1e-15)
    for j, t in enumerate(times):
        assert np.array_equal(stack[j], expm(A, t))
        np.testing.assert_allclose(stack[j], scipy.linalg.expm(A * t), rtol=1e-12, atol=1e-12)
    assert expm_stack(A, []).shape == (0, 2, 2)


def test_expm_stack_errors_match_expm():
    with pytest.raises(ValueError, match="square matrix"):
        expm_stack(np.ones((2, 3)), [1.0])
    with pytest.raises(NumericRange, match="not finite"):
        expm_stack(ROT, [0.5, np.inf])
    with pytest.raises(NumericRange, match="overflowed"), np.errstate(over="ignore"):
        expm_stack(np.array([[800.0]]), [0.1, 1.0])


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        A = rng.normal(size=(n, n))
        want = np.linalg.norm(A, 2)
        assert operator_norm(A) == pytest.approx(want, rel=1e-9)
    assert operator_norm(np.zeros((3, 3))) == 0.0
    assert operator_norm(ROT) == pytest.approx(1.0, rel=1e-12)


def test_linear_flow_is_exact_orbit():
    x0 = np.array([1.0, 0.0])
    dyn = LinearDynamics(ROT)
    for t in [0.1, 1.0, np.pi]:
        np.testing.assert_allclose(flow(dyn, x0, t), [np.cos(t), np.sin(t)], atol=1e-13)
    batch = np.array([[1.0, 0.0], [0.0, 2.0]])
    out = flow(dyn, batch, np.pi / 2)
    np.testing.assert_allclose(out, [[0.0, 1.0], [-2.0, 0.0]], atol=1e-13)


def test_rk4_rotation_accuracy_and_order():
    dyn = ExpressionDynamics.parse(["-x2", "x1"])
    x0 = np.array([1.0, 0.0])
    t = 1.0
    exact = np.array([np.cos(t), np.sin(t)])
    err = {n: np.linalg.norm(rk4(dyn, x0, t, n) - exact) for n in (32, 64)}
    ratio = err[32] / err[64]
    assert 12.0 <= ratio <= 20.0  # fourth order: halving h divides error by about 16
    assert np.linalg.norm(flow(dyn, x0, t, tol=1e-8) - exact) <= 1e-7


def test_flow_semigroup_property():
    dyn = ExpressionDynamics.parse(["x2", "-sin(x1) - 0.2*x2"])
    x0 = np.array([0.7, -0.3])
    t1, t2 = 0.4, 0.9
    a = flow(dyn, flow(dyn, x0, t1), t2)
    b = flow(dyn, x0, t1 + t2)
    assert np.linalg.norm(a - b) <= 1e-7


def test_reverse_flow_inverts_forward_flow():
    dyn = ExpressionDynamics.parse(["x1*x2", "cos(x1)"])
    x0 = np.array([0.5, 1.0])
    fwd = flow(dyn, x0, 0.8)
    back = flow(dyn, fwd, -0.8)
    assert np.linalg.norm(back - x0) <= 1e-7
    lin = LinearDynamics(ROT)
    np.testing.assert_allclose(flow(lin, flow(lin, x0, 2.0), -2.0), x0, atol=1e-12)


def test_flow_rejects_nonfinite_start():
    with pytest.raises(NonFiniteState):
        flow(LinearDynamics(ROT), np.array([np.inf, 0.0]), 1.0)


def test_flow_is_the_end_of_a_one_step_trajectory():
    rot = ExpressionDynamics.parse(["-x2", "x1"])
    pend = ExpressionDynamics.parse(["x2", "-sin(x1) - 0.2*x2"])
    x0 = np.array([[1.0, 0.0], [0.3, -0.7]])
    for dyn in (rot, pend, LinearDynamics(ROT)):
        for t in (0.1, -0.1, 0.5, -1.3, 0.0):
            assert np.array_equal(flow(dyn, x0, t), trajectory(dyn, x0, t, 1)[:, -1])
            one = flow(dyn, x0[1], t)
            assert one.shape == (2,)
            assert np.array_equal(one, trajectory(dyn, x0[1:], t, 1)[0, -1])
    # a short horizon takes ceil(0.1 / tol^(1/4)) = 10 RK4 steps
    t = 0.1
    np.testing.assert_allclose(flow(rot, x0[0], t), [np.cos(t), np.sin(t)], rtol=0, atol=1e-9)


def test_trajectory_linear_matches_chained_flow_bitwise():
    rng = np.random.default_rng(5)
    dyn = LinearDynamics(rng.normal(size=(3, 3)))
    x0 = rng.normal(size=(7, 3))
    for t, nsub in [(0.8, 9), (-0.5, 4)]:
        traj = trajectory(dyn, x0, t, nsub)
        cur = x0
        for s in range(nsub):
            cur = flow(dyn, cur, t / nsub)
            assert np.array_equal(traj[:, s + 1], cur)


def test_trajectory_rotation_matches_closed_form_both_signs():
    dyn = ExpressionDynamics.parse(["-x2", "x1"])
    x0 = np.array([[1.0, 0.0], [0.3, -0.7]])
    for t in (1.3, -1.3):
        nsub = 40
        traj = trajectory(dyn, x0, t, nsub, tol=1e-8)
        for s in range(nsub + 1):
            th = t * s / nsub
            rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            assert np.max(np.abs(traj[:, s] - x0 @ rot.T)) <= 1e-7


def test_trajectory_constant_field_moves_exactly():
    dyn = ExpressionDynamics.parse(["1", "-0.5"])
    x0 = np.array([[0.0, 0.0], [1.0, 2.0]])
    t, nsub = 0.75, 12
    traj = trajectory(dyn, x0, t, nsub)
    for s in range(nsub + 1):
        want = x0 + (t * s / nsub) * np.array([1.0, -0.5])
        assert np.max(np.abs(traj[:, s] - want)) <= 1e-12


def stage_trajectory(dyn, x0, t, nsub, tol=1e-8):
    """Reference: trajectory's expression path, every RK4 stage evaluated."""
    out = np.empty((x0.shape[0], nsub + 1, x0.shape[1]))
    out[:, 0] = x0
    dt = t / nsub
    if dt == 0.0:
        out[:, 1:] = x0[:, None]
        return out
    fwd = dyn if t > 0 else dyn.negated()
    nsteps = max(1, int(math.ceil(abs(dt) / tol**0.25)))
    h = abs(dt) / nsteps
    x = x0
    with np.errstate(all="ignore"):
        for s in range(nsub):
            for _ in range(nsteps):
                k1 = fwd.evaluate(x)
                k2 = fwd.evaluate(x + 0.5 * h * k1)
                k3 = fwd.evaluate(x + 0.5 * h * k2)
                k4 = fwd.evaluate(x + h * k3)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if not np.all(np.isfinite(x)):
                    exc = NonFiniteState("integration produced a non-finite state")
                    exc.partial = out[:, : s + 1]
                    raise exc
            out[:, s + 1] = x
    return out


def outcome(fn, *args):
    """The result's bytes, or the NonFiniteState message and partial bytes."""
    try:
        res = fn(*args)
    except NonFiniteState as exc:
        partial = getattr(exc, "partial", None)
        return ("raised", str(exc), None if partial is None else partial.tobytes())
    return ("ok", res.shape, res.tobytes())


_LITERAL = st.floats(-4.0, 4.0, allow_nan=False).map(repr)
_CONSTANT_TEXT = st.recursive(
    _LITERAL,
    lambda inner: st.one_of(
        inner.map(lambda e: f"-({e})"),
        inner.map(lambda e: f"exp({e})"),
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda a: f"({a[0]} {a[1]} {a[2]})"),
    ),
    max_leaves=6,
)


@st.composite
def constant_problems(draw):
    dim = draw(st.integers(1, 3))
    texts = draw(st.lists(_CONSTANT_TEXT, min_size=dim, max_size=dim))
    m = draw(st.integers(1, 5))
    x0 = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=m * dim, max_size=m * dim)))
    t = draw(st.floats(0.0, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    nsub = draw(st.integers(1, 40))
    tol = 10.0 ** draw(st.floats(-12.0, -4.0))
    return ExpressionDynamics.parse(texts), x0.reshape(m, dim), t, nsub, tol


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=constant_problems())
def test_constant_field_matches_stage_rk4_bytewise(case):
    dyn, x0, t, nsub, tol = case
    assert dyn.constant is not None
    assert outcome(trajectory, dyn, x0, t, nsub, tol) == outcome(stage_trajectory, dyn, x0, t, nsub, tol)
    want = outcome(lambda: stage_trajectory(dyn, x0, t, 1, tol)[:, -1])
    assert outcome(flow, dyn, x0, t, tol) == want
    if want[0] == "ok":
        assert np.array_equal(flow(dyn, x0[0], t, tol), stage_trajectory(dyn, x0[:1], t, 1, tol)[0, -1])


def test_constant_field_skips_field_evaluation(monkeypatch):
    calls = []
    original = ExpressionDynamics.evaluate

    def counted(self, points):
        calls.append(np.shape(points))
        return original(self, points)

    monkeypatch.setattr(ExpressionDynamics, "evaluate", counted)
    x0 = np.array([[0.0, 0.0], [1.0, 2.0]])
    for t in (0.75, -0.75):
        trajectory(ExpressionDynamics.parse(["1", "-exp(0.5)/3"]), x0, t, 12)
    assert calls == []
    # x1 - x1 is zero everywhere, but it reads a variable: the stage path
    reads = ExpressionDynamics.parse(["x1 - x1", "1"])
    assert reads.constant is None
    traj = trajectory(reads, x0, 0.75, 12)
    # four stages per RK4 step, ceil(0.0625 / 0.01) = 7 steps per lattice step
    assert len(calls) == 4 * 12 * 7
    assert np.array_equal(traj, stage_trajectory(reads, x0, 0.75, 12))


def test_negated_constant_field_stays_constant():
    dyn = ExpressionDynamics.parse(["1", "-(2/3)", "exp(0.1) - 1"])
    neg = dyn.negated()
    assert np.array_equal(neg.constant, -dyn.constant)
    assert not dyn.constant.flags.writeable
    assert ExpressionDynamics.parse(["1", "x1"]).negated().constant is None


def test_constant_overflow_raises_with_the_stage_partial():
    x0 = np.array([[0.0, 1.0], [2.0, -3.0]])
    # exp(1000) is inf: the first lattice step already fails
    dyn = ExpressionDynamics.parse(["exp(1000)", "1"])
    with pytest.raises(NonFiniteState) as info:
        trajectory(dyn, x0, 1.0, 4)
    assert np.array_equal(info.value.partial, x0[:, None])
    assert outcome(trajectory, dyn, x0, 1.0, 4) == outcome(stage_trajectory, dyn, x0, 1.0, 4)
    # a finite increment that overflows the state part-way through the
    # lattice: 1.6e308 + k * 0.5e307 passes the largest double at k = 4
    big = ExpressionDynamics.parse(["1e307", "0"])
    x0[1, 0] = 1.6e308
    with pytest.raises(NonFiniteState) as info:
        trajectory(big, x0, 4.0, 8)
    assert info.value.partial.shape == (2, 4, 2)
    assert outcome(trajectory, big, x0, 4.0, 8) == outcome(stage_trajectory, big, x0, 4.0, 8)


def test_trajectory_shape_and_start_row():
    x0 = np.array([[0.5, 1.0], [2.0, -1.0], [0.0, 0.0]])
    for dyn in (LinearDynamics(ROT), ExpressionDynamics.parse(["x1*x2", "cos(x1)"])):
        traj = trajectory(dyn, x0, 0.6, 5)
        assert traj.shape == (3, 6, 2)
        assert np.array_equal(traj[:, 0], x0)
    assert np.array_equal(trajectory(LinearDynamics(ROT), x0, 0.0, 3), np.repeat(x0[:, None], 4, axis=1))


def test_advect_rejects_coarse_substep():
    # x1' = x1^2: the substep count comes from the start speed, so a
    # sample that keeps accelerating eventually outruns it
    dyn = ExpressionDynamics.parse(["x1*x1", "0"])
    slow = np.array([[0.5, 0.0], [0.5, 1.0]])
    # start speed 0.25 over 0.5 at h = 0.05: ceil(0.125 / 0.025) = 5 substeps
    assert _advect(dyn, slow, 0.5, 0.05).shape == (2, 6, 2)
    fast = np.array([[1.0, 0.0], [0.5, 1.0]])
    # from x1 = 1 the exact solution 1/(1 - t) reaches 10 at t = 0.9
    with pytest.raises(StepTooCoarse, match="in one substep \\(limit 0.1\\)"):
        _advect(dyn, fast, 0.9, 0.05)


def test_max_norm_over_face_2d_exact():
    # segment [1, sqrt(2)] x {0}: the norm peaks at the far endpoint
    face = Face([[1, 0], [-1, 0]], [np.sqrt(2.0), -1.0], [0, 1], 0.0)
    assert max_norm_over_face(face) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_max_norm_over_face_3d_box_bound_dominates_samples():
    # tilted rectangular patch in the plane x3 = 1
    face = Face(
        [[1, 1, 0], [-1, -1, 0], [1, -1, 0], [-1, 1, 0]],
        [1.0, 1.0, 1.0, 1.0],
        [0, 0, 1],
        1.0,
    )
    bound = max_norm_over_face(face)
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(500, 2))
    keep = (np.abs(pts[:, 0] + pts[:, 1]) <= 1.0) & (np.abs(pts[:, 0] - pts[:, 1]) <= 1.0)
    samples = np.column_stack([pts[keep], np.ones(keep.sum())])
    assert bound + 1e-9 >= np.max(np.linalg.norm(samples, axis=1))


def test_max_norm_unbounded_face_raises():
    face = Face([[1, 0]], [1.0], [0, 1], 0.0)  # half-line in the base hyperplane
    with pytest.raises(UnboundedFace):
        max_norm_over_face(face)
