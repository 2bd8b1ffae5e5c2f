"""Flow-layer tests: the matrix exponential against a long Taylor sum and
scipy, RK4 against closed-form orbits and an order check, operator norm
against the SVD, the trajectory kernel against chained flow calls and
closed-form orbits, and the constant-field shortcut and backward flow
against a stage-by-stage RK4 loop (of the reversed field for t < 0) and
the accumulate kernel against a step-by-step increment loop, byte for
byte."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reachkit.errors import NonFiniteState, NumericRange, StepTooCoarse, UnboundedFace
import reachkit.expr as expr
import reachkit.facelift as facelift
import reachkit.flow as flow_module
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


_PADE13 = flow_module._PADE13
_THETA13 = flow_module._THETA13


def loop_expm_stack(A, times):
    """Reference: expm_stack as one body, before the stack kernel: every
    slice divided by its 2^s, then one Pade solve and s squarings per
    distinct s over the fancy-indexed slices that share it."""
    A = np.asarray(A, float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {A.shape}")
    times = np.asarray(times, float).reshape(-1)
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(times)):
        raise NumericRange("expm input is not finite")
    M = A * times[:, None, None]
    n = A.shape[0]
    norm1 = np.max(np.sum(np.abs(M), axis=1), axis=1) if n else np.zeros(times.size)
    scale = np.array(
        [int(math.ceil(math.log2(v / _THETA13))) if v > _THETA13 else 0 for v in norm1.tolist()],
        dtype=int,
    )
    M = M / 2.0**scale[:, None, None]
    eye = np.eye(n)
    b = _PADE13
    out = np.empty((times.size, n, n))
    for s in np.unique(scale).tolist():
        idx = np.flatnonzero(scale == s)
        Ms = M[idx]
        M2 = Ms @ Ms
        M4 = M2 @ M2
        M6 = M2 @ M4
        U = Ms @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2) + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * eye)
        V = M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2) + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * eye
        E = np.linalg.solve(V - U, V + U)
        for _ in range(s):
            E = E @ E
        out[idx] = E
    if not np.all(np.isfinite(out)):
        raise NumericRange("expm overflowed the representable range")
    return out


def expm_outcome(fn, *args):
    """Exact bytes of an exponential stack, or the error's type and message."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = fn(*args)
        except (NumericRange, ValueError, ArithmeticError) as exc:
            return ("raised", type(exc), str(exc))
    return ("ok", out.shape, out.tobytes())


@st.composite
def mixed_stacks(draw):
    """Slices (A_j, t_j) of one size n in 1-4: different matrices, some of
    them transposed views, times of both signs and zero, each slice scaled
    to a drawn scaling exponent in 0-4 (one exponent for the whole stack
    when ``same``); now and then a diagonal slice whose exponential
    overflows."""
    n = draw(st.integers(1, 4))
    same = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = int(rng.integers(0, 5))
    mats, times = [], []
    for _ in range(draw(st.integers(1, 8))):
        A = rng.normal(size=(n, n))
        if rng.random() < 0.3:
            A = -A.T  # a transposed view, as the far-face transport passes
        t = float(rng.uniform(0.05, 4.0)) * float(rng.choice([-1.0, 1.0]))
        if not same and rng.random() < 0.1:
            t = 0.0
        s = shared if same else int(rng.integers(0, 5))
        lo, hi = (0.01, 0.9) if s == 0 else (1.1 * 2 ** (s - 1), 0.9 * 2**s)
        A = A * (_THETA13 * rng.uniform(lo, hi) / float(np.max(np.sum(np.abs(A * t), axis=0)) or 1.0))
        if not same and rng.random() < 0.1:
            A, t = np.diag(rng.uniform(760.0, 800.0, n)), float(rng.choice([-1.0, 1.0]))
        mats.append(A)
        times.append(t)
    return mats, times, same


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=mixed_stacks())
def test_expm_batch_matches_the_loop_reference(case):
    mats, times, same = case
    with np.errstate(over="ignore", invalid="ignore"):
        batch = flow_module._expm_batch(np.stack([A * t for A, t in zip(mats, times)]))
    for j, (A, t) in enumerate(zip(mats, times)):
        want = expm_outcome(loop_expm_stack, A, (t,))
        assert expm_outcome(lambda: flow_module._in_range(batch[j : j + 1])) == want, j
    if same:
        assert len({_scaling_exponent(A, t) for A, t in zip(mats, times)}) == 1
    # one matrix over all the times, through the public callers
    assert expm_outcome(expm_stack, mats[0], times) == expm_outcome(loop_expm_stack, mats[0], times)
    assert expm_outcome(expm, mats[0], times[-1]) == expm_outcome(
        lambda: loop_expm_stack(mats[0], (times[-1],))[0]
    )


@pytest.mark.parametrize(
    "A,times",
    [
        ([[800.0]], [0.1, 1.0]),  # one slice overflows in the squarings
        (np.diag([800.0, -1.0]), [1.0, -1.0]),
        ([[1e300, 1.0], [0.0, 2.0]], [1e10]),  # A t itself overflows
        ([[1e300, 1e300], [1e300, 1e300]], [1.0]),  # its 1-norm overflows
        ([[np.nan, 0.0], [0.0, 0.0]], [1.0]),
        (ROT, [0.5, np.inf]),
        (np.ones((2, 3)), [1.0]),
        (ROT, []),
        (np.zeros((0, 0)), [1.0, 2.0]),
    ],
)
def test_expm_stack_errors_match_the_loop_reference(A, times):
    assert expm_outcome(expm_stack, A, times) == expm_outcome(loop_expm_stack, A, times)


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


def reversed_field(dyn):
    """Reference: the field -f, one negated tree per component."""
    return ExpressionDynamics(tuple(expr.neg(c) for c in dyn.components))


def stage_trajectory(dyn, x0, t, nsub, tol=1e-8):
    """Reference: trajectory's expression path, every RK4 stage evaluated;
    a negative t steps the reversed field forward for |t|."""
    out = np.empty((x0.shape[0], nsub + 1, x0.shape[1]))
    out[:, 0] = x0
    dt = t / nsub
    if dt == 0.0:
        out[:, 1:] = x0[:, None]
        return out
    fwd = dyn if t > 0 else reversed_field(dyn)
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
    assert dyn.constant is not None and not dyn.constant.flags.writeable
    assert outcome(trajectory, dyn, x0, t, nsub, tol) == outcome(stage_trajectory, dyn, x0, t, nsub, tol)
    want = outcome(lambda: stage_trajectory(dyn, x0, t, 1, tol)[:, -1])
    assert outcome(flow, dyn, x0, t, tol) == want
    if want[0] == "ok":
        assert np.array_equal(flow(dyn, x0[0], t, tol), stage_trajectory(dyn, x0[:1], t, 1, tol)[0, -1])


@st.composite
def backward_problems(draw):
    """A field that reads a variable, through sin, cos, exp and division,
    and a batch flowed backward over t in (-3, 0)."""
    dim = draw(st.integers(1, 3))
    leaf = st.one_of(_LITERAL, st.sampled_from([f"x{j + 1}" for j in range(dim)]))
    text = st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(["sin", "cos", "exp", "-"]), inner).map(lambda a: f"{a[0]}({a[1]})"),
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda a: f"({a[0]} {a[1]} {a[2]})"),
        ),
        max_leaves=5,
    )
    dyn = ExpressionDynamics.parse(draw(st.lists(text, min_size=dim, max_size=dim)))
    assume(dyn.constant is None)
    m = draw(st.integers(1, 29))
    x0 = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=m * dim, max_size=m * dim)))
    t = -draw(st.floats(0.0, 3.0, exclude_min=True, exclude_max=True))
    nsub = draw(st.integers(1, 11))
    tol = 10.0 ** draw(st.floats(-6.0, -2.0))
    return dyn, x0.reshape(m, dim), t, nsub, tol


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=backward_problems())
def test_backward_flow_matches_the_reversed_field_bytewise(case):
    # a signed RK4 step evaluates exactly the negations of the reversed field
    dyn, x0, t, nsub, tol = case
    assert outcome(trajectory, dyn, x0, t, nsub, tol) == outcome(stage_trajectory, dyn, x0, t, nsub, tol)
    assert outcome(flow, dyn, x0, t, tol) == outcome(lambda: stage_trajectory(dyn, x0, t, 1, tol)[:, -1])


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


def loop_constant_trajectory(dyn, x0, t, nsub, tol=1e-8):
    """Reference: trajectory's constant-field path as a step loop, one
    ``x += inc`` per RK4 step and a finiteness check per lattice step."""
    x0 = np.asarray(x0, float)
    if not np.all(np.isfinite(x0)):
        raise NonFiniteState("trajectory start is not finite")
    out = np.empty((x0.shape[0], nsub + 1, x0.shape[1]))
    out[:, 0] = x0
    dt = t / nsub
    if dt == 0.0:
        out[:, 1:] = x0[:, None]
        return out
    fwd = dyn if t > 0 else reversed_field(dyn)
    nsteps = max(1, int(math.ceil(abs(dt) / tol**0.25)))
    x = x0.copy()
    with np.errstate(all="ignore"):
        for s in range(nsub):
            try:
                x = loop_constant_rk4(fwd, x, abs(dt), nsteps)
            except NonFiniteState as exc:
                exc.partial = out[:, : s + 1]
                raise
            out[:, s + 1] = x
    return out


def loop_constant_rk4(dyn, x0, t, nsteps):
    """Reference: rk4's constant branch as a step loop."""
    x = np.array(x0, float)
    h = t / nsteps
    c = dyn.constant
    inc = (h / 6.0) * (c + 2.0 * c + 2.0 * c + c)
    for _ in range(nsteps):
        x += inc
    if not np.all(np.isfinite(x)):
        raise NonFiniteState("integration produced a non-finite state")
    return x


@st.composite
def accumulate_problems(draw):
    dim = draw(st.integers(1, 3))
    texts = draw(
        st.lists(
            st.sampled_from(["0", "-0.0", "1e-300", "1e300", "1/0", "-1e307", "0.37", "-2.5"]),
            min_size=dim,
            max_size=dim,
        )
    )
    m = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = rng.uniform(-10.0, 10.0, (m, dim))
    if draw(st.booleans()):  # start near the largest double, so the state overflows
        near = rng.random((m, dim)) < 0.3
        big = rng.uniform(1.7e308, 1.79e308, near.sum())
        x0[near] = np.copysign(big, rng.normal(size=near.sum()))
    t = draw(st.one_of(st.just(0.0), st.floats(1e-3, 3.0))) * draw(st.sampled_from([1.0, -1.0]))
    nsub = draw(st.integers(1, 200))
    nsteps = draw(st.integers(1, 5))
    # ceil(|dt| / tol^(1/4)) = nsteps, half a step clear of the rounding edge
    tol = (abs(t / nsub) / (nsteps - 0.5)) ** 4 if t else 1e-8
    block = draw(st.sampled_from([1, 2, 7, 64, flow_module._ACCUMULATE_BLOCK]))
    return ExpressionDynamics.parse(texts), x0, t, nsub, nsteps, tol, block


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=accumulate_problems())
def test_constant_accumulate_matches_the_step_loop(case):
    dyn, x0, t, nsub, nsteps, tol, block = case
    assert dyn.constant is not None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow_module, "_ACCUMULATE_BLOCK", block)  # blocks may split a lattice step
        got = outcome(trajectory, dyn, x0, t, nsub, tol)
        batches = (x0, x0[0]) if len(x0) else (x0,)  # rk4 takes one point too
        with np.errstate(all="ignore"):
            got_rk4 = [rk4_outcome(rk4, dyn, x, t, nsteps) for x in batches]
    assert got == outcome(loop_constant_trajectory, dyn, x0, t, nsub, tol)
    with np.errstate(all="ignore"):
        assert got_rk4 == [rk4_outcome(loop_constant_rk4, dyn, x, t, nsteps) for x in batches]


def test_constant_overflow_past_a_block_gets_the_full_scan_partial(monkeypatch):
    # three RK4 steps per lattice step of 0.5 (tol^(1/4) = 0.2), each adding
    # 1e307/6 to x1: the second point passes the largest double at step 12,
    # lattice row 4 of 8, in the third block of 5 steps (30 // (3 * 2))
    monkeypatch.setattr(flow_module, "_ACCUMULATE_BLOCK", 30)
    dyn = ExpressionDynamics.parse(["1e307", "0"])
    x0 = np.array([[0.0, 1.0], [1.6e308, -2.0], [-3.0, 0.5]])
    tol = 0.2**4
    with pytest.raises(NonFiniteState) as info:
        trajectory(dyn, x0, 4.0, 8, tol)
    assert info.value.partial.shape == (3, 4, 2)
    want = outcome(loop_constant_trajectory, dyn, x0, 4.0, 8, tol)
    assert outcome(trajectory, dyn, x0, 4.0, 8, tol) == want


def rk4_outcome(fn, *args):
    """outcome without the partial, which rk4 does not promise."""
    res = outcome(fn, *args)
    return res[:2] if res[0] == "raised" else res


def test_linear_overflow_raises_with_the_finite_partial():
    # e^{2 * 0.5} 1e308 overflows at the first lattice step; the exact
    # path reports it as the RK4 path does, it does not return inf or nan
    dyn = LinearDynamics(2.0 * np.eye(2))
    with pytest.raises(NonFiniteState) as info:
        trajectory(dyn, [[1e308, 0.0]], 1.0, 2)
    assert np.array_equal(info.value.partial, [[[1e308, 0.0]]])
    with pytest.raises(NonFiniteState):
        flow(dyn, [1e308, 0.0], 1.0)
    # a finite run is untouched
    assert np.array_equal(trajectory(dyn, [[1e300, 0.0]], 1.0, 2)[0, 0], [1e300, 0.0])


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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    c=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
    delta=st.floats(-1.0, 1.0),
    h=st.sampled_from([0.01, 0.02, 0.05, 0.1]),
)
def test_constant_field_substeps_stay_within_half_a_cell(c, delta, h):
    # _advect picks nsub from the one speed |c|, so no substep can move a
    # sample beyond h/2 and the 2h check is skipped for constant fields
    dyn = ExpressionDynamics.parse([repr(v) for v in c])
    assert dyn.constant is not None
    pts = np.array([[0.0, 0.0], [3.0, -1.0], [-7.5, 2.25]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(facelift, "_check_substeps", None)
        traj = _advect(dyn, pts, delta, h)
    move = np.linalg.norm(np.diff(traj, axis=1), axis=2)
    assert np.all(move <= 0.5 * h * (1.0 + 1e-9))


def test_accelerating_field_still_runs_the_substep_check(monkeypatch):
    calls, check = [], facelift._check_substeps

    def counted(traj, h):
        calls.append(h)
        return check(traj, h)

    monkeypatch.setattr(facelift, "_check_substeps", counted)
    dyn = ExpressionDynamics.parse(["x1*x1", "0"])
    with pytest.raises(StepTooCoarse, match="in one substep \\(limit 0.1\\)"):
        _advect(dyn, np.array([[1.0, 0.0], [0.5, 1.0]]), 0.9, 0.05)
    assert calls == [0.05]
    # a linear field is not constant either: it is checked too
    _advect(LinearDynamics(ROT), np.array([[1.0, 0.0]]), 0.5, 0.05)
    assert calls == [0.05, 0.05]


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
