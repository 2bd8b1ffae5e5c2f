"""Flow maps and the numerics under them.

Linear dynamics flow exactly through the matrix exponential (scaling and
squaring with a degree-13 Pade approximant); expression dynamics advect
with fixed-step RK4. Both paths are deterministic: step counts derive
from the requested tolerance, never from adaptive error control.

Every exponential goes through one stack kernel, ``_expm_batch``, which
takes a (T, n, n) stack of matrices A t and returns e^{A t} per slice
without checking the range. ``expm_stack`` and ``expm`` are thin
callers that check their input and the result; polyapprox stacks a
step's whole lattice and its back map into one call. Slices that share
a scaling exponent are solved and squared as one batch, and a slice's
floats do not depend on the batch it is in. When every slice shares
one exponent the stack is the batch as it is, with no grouping and no
index lists; at exponent 0, the common case, nothing is divided.

``trajectory`` records a batch at the nsub+1 even lattice times on
[0, t] and integrates it once: linear dynamics apply one e^{A dt} per
lattice step dt = t/nsub, and expression dynamics take
ceil(|dt| / tol^(1/4)) RK4 steps per lattice step. ``flow`` is the end
point of a one-step trajectory, so it follows the same rule.

In ``trajectory`` a constant expression field c (no component reads a
variable) skips the stage evaluations: every RK4 step adds the one
increment inc = (h/6)(c + 2c + 2c + c), summed in the stage order once.
That is bit for bit the stage-by-stage result of ``rk4``, because each
stage of a constant field is c at every point and IEEE addition and
multiplication do not depend on the point. The lattice is filled with no
Python loop over steps: ``np.add.accumulate`` along the time axis of the
buffer [x0, inc, inc, ...] adds the increments strictly in order, so each
state is the same sequence of IEEE additions as a step-by-step loop, and
the lattice is every nsteps-th row. With one step per lattice step the
buffer is the output itself; otherwise the steps run in blocks, so a long
horizon does not allocate one row per step. The increments are copied in
from one contiguous (rows, n) block of inc, which numpy copies as one run
per sample rather than n floats at a time.

Finiteness is read off the last lattice row alone. That is exact: a
finite increment never makes a non-finite state finite again (inf plus a
finite number stays inf, NaN stays NaN), and a non-finite increment makes
the state non-finite at the first step and keeps it so, because every
step adds the same inc. So every state of the lattice is finite exactly
when its last row is. Only a lattice that fails this check is scanned
row by row, and the first non-finite lattice row is where a step-by-step
loop raises.

``trajectory`` refuses, before any step runs, an expression flow of more
than MAX_TIME_STEPS RK4 steps in all (nsub times the steps per lattice
step), with BudgetExceeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as _expr
from .errors import (
    MAX_TIME_STEPS,
    NonFiniteState,
    NumericRange,
    Unbounded2D,
    UnboundedFace,
    _within_budget,
)
from .geometry import Face

_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def expm(A, t: float = 1.0) -> np.ndarray:
    """e^{A t} by scaling and squaring on the degree-13 Pade approximant."""
    return expm_stack(A, (t,))[0]


def expm_stack(A, times) -> np.ndarray:
    """e^{A t} for every t in ``times``, as a (T, n, n) stack.

    Scaling and squaring on the degree-13 Pade approximant (Al-Mohy and
    Higham 2009) through the stack kernel ``_expm_batch``: the times that
    share a scaling exponent are scaled, solved and squared as one batch,
    so each slice carries the floats of a one-time evaluation. When all
    share one exponent the whole stack is that batch, with no grouping,
    and at exponent 0 nothing is divided.
    """
    return _in_range(_expm_batch(_expm_input(A, times)))


def _expm_input(A, times) -> np.ndarray:
    """The kernel's input stack A t for every t in ``times``, after
    expm_stack's checks: a square matrix, finite entries and times."""
    A = np.asarray(A, float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {A.shape}")
    times = np.asarray(times, float).reshape(-1)
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(times)):
        raise NumericRange("expm input is not finite")
    return A * times[:, None, None]


def _in_range(E: np.ndarray) -> np.ndarray:
    """E itself when every entry is finite, else NumericRange."""
    if not np.all(np.isfinite(E)):
        raise NumericRange("expm overflowed the representable range")
    return E


def _expm_batch(M) -> np.ndarray:
    """e^{M_j} for every slice of a (T, n, n) stack of finite matrices
    M_j = A t, with no check of the result's range (module docstring).

    A slice of 1-norm above theta_13 is divided by 2^s, the least power
    that brings it under, and squared s times afterwards; the slices that
    share s form one batch.
    """
    # an overflow is reported by the caller's range check, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        n = M.shape[1]
        norm1 = np.max(np.sum(np.abs(M), axis=1), axis=1) if n else np.zeros(M.shape[0])
        scale = [int(math.ceil(math.log2(v / _THETA13))) if v > _THETA13 else 0 for v in norm1.tolist()]
        if len(set(scale)) == 1:
            s = scale[0]
            return _pade_squared(M / 2.0**s if s else M, s)
        scale = np.array(scale, dtype=int)
        M = M / 2.0**scale[:, None, None]
        out = np.empty(M.shape)
        for s in np.unique(scale).tolist():
            idx = np.flatnonzero(scale == s)
            out[idx] = _pade_squared(M[idx], s)
        return out


def _pade_squared(M, s: int) -> np.ndarray:
    """The degree-13 Pade approximant of e^{M_j} for each slice of a
    scaled stack, squared s times."""
    eye = np.eye(M.shape[1])
    b = _PADE13
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M2 @ M4
    U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2) + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * eye)
    V = M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2) + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * eye
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def operator_norm(A) -> float:
    """Induced 2-norm (largest singular value); the zero matrix returns 0."""
    return float(np.linalg.norm(np.asarray(A, float), 2))


# ---------------------------------------------------------------------------
# dynamics


@dataclass(frozen=True)
class LinearDynamics:
    """Vector field f(x) = A x. ``constant`` is always None: a linear field
    flows through expm, never the constant-field shortcut."""

    matrix: np.ndarray
    constant = None

    def __post_init__(self):
        A = np.asarray(self.matrix, float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"dynamics matrix must be square, got {A.shape}")
        object.__setattr__(self, "matrix", A)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def evaluate(self, points):
        pts = np.asarray(points, float)
        return pts @ self.matrix.T


@dataclass(frozen=True)
class ExpressionDynamics:
    """Vector field with one expression tree per component.

    ``constant`` is the field's one value as a read-only (n,) array when
    no component reads a variable, else None; it may be non-finite
    (``1/0``), which integration reports as NonFiniteState.
    """

    components: tuple
    constant: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        value = None
        if all(_expr.is_constant(c) for c in self.components):
            with np.errstate(all="ignore"):
                value = np.array([c.eval(None) for c in self.components], float)
            value.flags.writeable = False
        object.__setattr__(self, "constant", value)

    @property
    def dim(self) -> int:
        return len(self.components)

    @classmethod
    def parse(cls, strings) -> "ExpressionDynamics":
        strings = list(strings)
        return cls(tuple(_expr.parse(s, len(strings)) for s in strings))

    def evaluate(self, points):
        pts = np.asarray(points, float)
        out = np.empty(pts.shape, float)
        for j, comp in enumerate(self.components):
            out[..., j] = comp.eval(pts)
        return out


Dynamics = LinearDynamics | ExpressionDynamics


# ---------------------------------------------------------------------------
# integration


# elements of one accumulate block of a constant flow (512 KiB of float64)
_ACCUMULATE_BLOCK = 1 << 16


def _constant_lattice(out, c, h, nsteps):
    """Fill the lattice out (m, L, n) of the constant field c, whose row 0
    holds the start points: row s is the state after s * nsteps RK4 steps
    of length h (see the module docstring). Raises NonFiniteState at the
    first non-finite row, with the rows before it as ``partial``."""
    inc = (h / 6.0) * (c + 2.0 * c + 2.0 * c + c)
    m, rows, n = out.shape
    total = (rows - 1) * nsteps
    if nsteps == 1:
        buf = out
    else:
        buf = np.empty((m, min(total, max(1, _ACCUMULATE_BLOCK // max(1, m * n))) + 1, n))
        buf[:, 0] = out[:, 0]
    steps = np.empty((buf.shape[1] - 1, n))  # the contiguous block of increments
    steps[:] = inc
    for done in range(0, total, buf.shape[1] - 1):  # steps before the block
        block = buf[:, : min(buf.shape[1], total - done + 1)]
        block[:, 1:] = steps[: block.shape[1] - 1]
        np.add.accumulate(block, axis=1, out=block)
        if nsteps > 1:
            first = nsteps - done % nsteps  # the block's first lattice row
            lattice = block[:, first::nsteps]
            row = (done + first) // nsteps
            out[:, row : row + lattice.shape[1]] = lattice
            buf[:, 0] = block[:, -1]
    if not np.isfinite(out[:, -1]).all():
        finite = np.isfinite(out).all(axis=(0, 2))
        exc = NonFiniteState("integration produced a non-finite state")
        exc.partial = out[:, : int(np.argmin(finite))]
        raise exc
    return out


def rk4(dyn: Dynamics, x0, t: float, nsteps: int) -> np.ndarray:
    """Classic fixed-step RK4 over [0, t], batched over leading axes of x0.

    Every field takes the stage loop here; for a constant field each stage
    is c, so it gives the bits of trajectory's accumulate kernel.
    """
    x = np.array(x0, float)
    h = t / nsteps
    for _ in range(nsteps):
        k1 = dyn.evaluate(x)
        k2 = dyn.evaluate(x + 0.5 * h * k1)
        k3 = dyn.evaluate(x + 0.5 * h * k2)
        k4 = dyn.evaluate(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise NonFiniteState("integration produced a non-finite state")
    return x


def flow(dyn: Dynamics, x0, t: float, tol: float = 1e-8) -> np.ndarray:
    """Flow map phi(x0, t), the end point of trajectory(dyn, x0, t, 1):
    exact (expm) for linear dynamics, RK4 otherwise.

    x0 may be one point (n,) or a batch (m, n); the result matches.
    Negative t flows backward by trajectory's signed steps.
    """
    x0 = np.asarray(x0, float)
    return trajectory(dyn, np.atleast_2d(x0), t, 1, tol)[:, -1].reshape(x0.shape)


def trajectory(dyn: Dynamics, x0, t: float, nsub: int, tol: float = 1e-8) -> np.ndarray:
    """Positions of a batch x0 (m, n) at the nsub+1 even lattice times on
    [0, t], as an (m, nsub+1, n) array whose row 0 is x0.

    The batch is integrated once across the lattice: linear dynamics apply
    one e^{A t/nsub} per step (the same floats as chained flow calls);
    expression dynamics take ceil(|dt| / tol^(1/4)) RK4 steps per lattice
    step dt, and a constant one fills the whole lattice in one accumulate.
    Negative t flows backward: every RK4 step has the signed length
    dt / nsteps, which gives the bits of the reversed field stepped
    forward, since IEEE products and sums are exact under negation. When
    a step goes non-finite the NonFiniteState raised carries the
    positions up to that lattice time as its ``partial`` attribute.
    """
    x0 = np.asarray(x0, float)
    if not np.all(np.isfinite(x0)):
        raise NonFiniteState("trajectory start is not finite")
    out = np.empty((x0.shape[0], nsub + 1, x0.shape[1]))
    out[:, 0] = x0
    dt = t / nsub
    if dt == 0.0:
        out[:, 1:] = x0[:, None]
        return out
    if isinstance(dyn, LinearDynamics):
        step_map = expm(dyn.matrix, dt).T

        def step(x):
            x = x @ step_map
            if not np.all(np.isfinite(x)):
                raise NonFiniteState("integration produced a non-finite state")
            return x

    else:
        per_step = abs(dt) / tol**0.25  # RK4 steps per lattice step, before rounding up
        _within_budget(nsub * float(np.ceil(per_step)), MAX_TIME_STEPS, "RK4 steps")
        nsteps = max(1, int(math.ceil(per_step)))
        if dyn.constant is not None:
            # a blow-up is reported by the finiteness check, not by numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                return _constant_lattice(out, dyn.constant, dt / nsteps, nsteps)

        def step(x):
            return rk4(dyn, x, dt, nsteps)

    cur = x0
    # a blow-up is reported by the finiteness check, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for s in range(nsub):
            try:
                cur = step(cur)
            except NonFiniteState as exc:
                exc.partial = out[:, : s + 1]  # the finite positions reached so far
                raise
            out[:, s + 1] = cur
    return out


# ---------------------------------------------------------------------------
# face norm maximization


def max_norm_over_face(face: Face) -> float:
    """max ||x|| over a bounded face.

    Exact in 2D (the norm peaks at one of face.vertices); in higher
    dimensions returns the certified coordinate-box upper bound
    ||(max_j |x_j|)_j||. Callers that care which regime applied should
    check face.dim. An unbounded face raises UnboundedFace.
    """
    try:
        if face.dim == 2:
            return float(np.max(np.linalg.norm(face.vertices, axis=1)))
        lo, hi = face.as_polyhedron().bounding_box()
    except Unbounded2D:
        raise UnboundedFace("norm has no maximum over an unbounded face") from None
    return float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi))))
