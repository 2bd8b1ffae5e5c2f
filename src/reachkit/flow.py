"""Flow maps and the numerics under them.

Linear dynamics flow exactly through the matrix exponential (scaling and
squaring with a degree-13 Pade approximant); expression dynamics advect
with fixed-step RK4. Both paths are deterministic: step counts derive
from the requested tolerance, never from adaptive error control.

``trajectory`` records a batch at the nsub+1 even lattice times on
[0, t] and integrates it once: linear dynamics apply one e^{A dt} per
lattice step dt = t/nsub, and expression dynamics take
ceil(|dt| / tol^(1/4)) RK4 steps per lattice step. ``flow`` is the end
point of a one-step trajectory, so it follows the same rule.

A constant expression field c (no component reads a variable) skips the
stage evaluations: ``rk4`` adds the increment (h/6)(c + 2c + 2c + c),
summed in the stage order once, at every step. That is bit for bit the
stage-by-stage result, because each stage of a constant field is c at
every point and IEEE addition and multiplication do not depend on the
point. Finiteness is checked once per ``rk4`` call instead of once per
step: a finite increment never makes a non-finite state finite again, and
a non-finite one makes the state non-finite at the first step, so the
same call raises the same NonFiniteState.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as _expr
from .errors import NonFiniteState, NumericRange, Unbounded2D, UnboundedFace
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
    Higham 2009), evaluated once per scaling exponent: the times that
    share an exponent are scaled, solved and squared as one batch, so each
    slice carries the floats of a one-time evaluation.
    """
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


def operator_norm(A) -> float:
    """Induced 2-norm (largest singular value); the zero matrix returns 0."""
    return float(np.linalg.norm(np.asarray(A, float), 2))


# ---------------------------------------------------------------------------
# dynamics


@dataclass(frozen=True)
class LinearDynamics:
    """Vector field f(x) = A x."""

    matrix: np.ndarray

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
    dim: int
    constant: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.dim:
            raise ValueError("need one component per dimension")
        value = None
        if all(_expr.is_constant(c) for c in self.components):
            with np.errstate(all="ignore"):
                value = np.array([c.eval(None) for c in self.components], float)
            value.flags.writeable = False
        object.__setattr__(self, "constant", value)

    @classmethod
    def parse(cls, strings) -> "ExpressionDynamics":
        strings = list(strings)
        dim = len(strings)
        return cls(tuple(_expr.parse(s, dim) for s in strings), dim)

    def evaluate(self, points):
        pts = np.asarray(points, float)
        out = np.empty(pts.shape, float)
        for j, comp in enumerate(self.components):
            out[..., j] = comp.eval(pts)
        return out

    def negated(self) -> "ExpressionDynamics":
        return ExpressionDynamics(tuple(_expr.neg(c) for c in self.components), self.dim)


Dynamics = LinearDynamics | ExpressionDynamics


# ---------------------------------------------------------------------------
# integration


def rk4(dyn: Dynamics, x0, t: float, nsteps: int) -> np.ndarray:
    """Classic fixed-step RK4 over [0, t], batched over leading axes of x0.

    A constant field adds one precomputed increment per step and checks
    finiteness at the end (see the module docstring).
    """
    x = np.array(x0, float)
    h = t / nsteps
    c = dyn.constant if isinstance(dyn, ExpressionDynamics) else None
    if c is not None:
        inc = (h / 6.0) * (c + 2.0 * c + 2.0 * c + c)
        for _ in range(nsteps):
            x += inc
        if not np.all(np.isfinite(x)):
            raise NonFiniteState("integration produced a non-finite state")
        return x
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
    Negative t integrates the reversed field for |t|.
    """
    x0 = np.asarray(x0, float)
    return trajectory(dyn, np.atleast_2d(x0), t, 1, tol)[:, -1].reshape(x0.shape)


def trajectory(dyn: Dynamics, x0, t: float, nsub: int, tol: float = 1e-8) -> np.ndarray:
    """Positions of a batch x0 (m, n) at the nsub+1 even lattice times on
    [0, t], as an (m, nsub+1, n) array whose row 0 is x0.

    The batch is integrated once across the lattice: linear dynamics apply
    one e^{A t/nsub} per step (the same floats as chained flow calls);
    expression dynamics take ceil(|dt| / tol^(1/4)) RK4 steps per lattice
    step dt. Negative t integrates the reversed field for |t|. When a
    step goes non-finite the NonFiniteState raised carries the positions
    up to that lattice time as its ``partial`` attribute.
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
            return x @ step_map

    else:
        fwd = dyn if t > 0 else dyn.negated()
        nsteps = max(1, int(math.ceil(abs(dt) / tol**0.25)))

        def step(x):
            return rk4(fwd, x, abs(dt), nsteps)

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
