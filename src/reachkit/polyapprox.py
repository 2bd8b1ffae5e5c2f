"""Polyhedral over-approximation of a linear flow tube grown from one face.

Given an orthonormalized face F0 (sides a_i, base a_k) and dynamics
x' = A x whose field crosses F0 strictly outward, the tube
T0 = { e^{At} x0 : x0 in F0, 0 <= t <= Delta } is enclosed by 4k
halfspaces built from F0, its exact image F_Delta = e^{A Delta} F0, and a
vector of rotation/translation distances. The distances come in two
flavors: closed-form conservative bounds (sound whenever the outward
condition holds on [-Delta, Delta]) and lattice-sampled estimates
(refinement-monotone under-estimates, useful as a tightness probe).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AssumptionA2Violated,
    BadDeltaOrder,
    DegenerateNormal,
    DenominatorAllDegenerate,
    DimUnsupported,
    NumericRange,
)
from .flow import (
    _expm_batch,
    _expm_input,
    _in_range,
    expm,
    expm_stack,
    max_norm_over_face,
    operator_norm,
)
from .geometry import (
    Face,
    Halfspace,
    Polyhedron,
    _orthonormalize,
    convex_hull_2d,
    grid_points,
    intersect,
    normalize_and_orthogonalize,
)

_DEGEN_TOL = 1e-12
_C1_SLACK = 1e-9
# lattice times linspace(-Delta, Delta, _T_SAMPLES) of the outward check
_T_SAMPLES = 65


# ---------------------------------------------------------------------------
# problem setup


@dataclass(frozen=True)
class StepProblem:
    """One validated tube step: face, dynamics, horizon, and derived data.

    delta_min is the LP minimum of the outward derivative over the face;
    delta0 the chosen positive margin (None when no positive margin exists
    at this horizon, in which case only shrinking the horizon helps);
    c1_min the minimum over [-Delta, Delta], sampled in t and exact over
    the face: endpoint values in 2D (face.vertices), LP in 3D+.
    m0 is max ||x|| over the face: exact in 2D, a box bound in 3D+.
    expm_table holds e^{At} at the 65 times linspace(-Delta, Delta), the
    one time lattice on which the outward condition is checked; it comes
    from the horizon's one exponential batch, with the far face's back
    map. overapproximate_step builds one problem per emitted sub-step.
    """

    face: Face
    matrix: np.ndarray
    delta: float
    delta_min: float
    delta0: float | None
    c1_min: float
    m0: float
    norm_a: float
    face_delta: Face
    base_transport_norm: float
    expm_table: np.ndarray = field(compare=False, repr=False)

    @property
    def k(self) -> int:
        return self.face.k

    @property
    def delta1(self) -> float:
        """Margin transported to the far face: delta0 / ||a_k^T e^{-A Delta}||."""
        if self.delta0 is None:
            raise BadDeltaOrder("no positive delta0 exists at this horizon")
        return self.delta0 / self.base_transport_norm

    @classmethod
    def build(cls, face: Face, A, delta: float, delta0: float | None = None, *, _norm_a=None):
        """Validate the step and derive its data.

        The face's horizon-free facts are delta_min (check_A2's LP), m0 and
        ||A|| (an SVD, skipped when overapproximate_step passes ``_norm_a``
        from an earlier build of its call). The horizon costs one
        exponential batch: the 65 lattice slices of the table and the back
        map e^{-A^T Delta}, which moves the face to the far face and
        measures the base transport.
        """
        A = np.asarray(A, float)
        if delta <= 0.0:
            raise ValueError(f"step horizon must be positive, got {delta}")
        if not face.orthonormal:
            face = normalize_and_orthogonalize(face)
        if A.shape != (face.dim, face.dim):
            raise ValueError(f"matrix shape {A.shape} does not fit dimension {face.dim}")
        dmin, m0 = check_A2(face, A), max_norm_over_face(face)
        norm_a = operator_norm(A) if _norm_a is None else _norm_a
        return cls._at(face, A, delta, delta0, (dmin, m0, norm_a))

    @classmethod
    def _at(cls, face: Face, A: np.ndarray, delta: float, delta0, facts):
        """build's horizon half, for an orthonormal face, a positive
        horizon and the face's facts (delta_min, m0, ||A||): one
        _expm_batch call gives the back map (slice 0) and the table
        (slices 1..65). Errors keep the order of two separate
        exponentials: the back map's, then the far face's transport, then
        the table's; a horizon whose lattice is not finite (2 Delta
        overflows) also fails after the transport."""
        dmin, m0, norm_a = facts
        back_in = _expm_input(-A.T, (delta,))
        with np.errstate(over="ignore", invalid="ignore"):
            times = np.linspace(-delta, delta, _T_SAMPLES)
        if not np.all(np.isfinite(times)):
            propagate_face(face, A, delta)  # its errors come first; then the lattice's
        maps = _expm_batch(np.concatenate([back_in, _expm_input(A, times)]))
        back = _in_range(maps[0])
        fdelta = propagate_face(face, A, delta, back)
        transport = float(np.linalg.norm(back @ face.base_normal))
        table = _in_range(maps[1:])
        c1 = c1_minimum(face, A, table)
        if delta0 is None:
            chosen = c1 if c1 > _DEGEN_TOL else None
        else:
            if not 0.0 < delta0 <= dmin:
                raise BadDeltaOrder(f"delta0 must lie in (0, {dmin:.6g}], got {delta0:.6g}")
            chosen = float(delta0)
        return cls(
            face=face,
            matrix=A,
            delta=float(delta),
            delta_min=dmin,
            delta0=chosen,
            c1_min=c1,
            m0=m0,
            norm_a=norm_a,
            face_delta=fdelta,
            base_transport_norm=transport,
            expm_table=table,
        )


def check_A2(face: Face, A) -> float:
    """LP minimum of the outward derivative a_k . A x over the face.

    Returns the minimum when positive; raises AssumptionA2Violated(delta)
    otherwise. The face must be orthonormalized.
    """
    A = np.asarray(A, float)
    c = A.T @ face.base_normal
    res = face.as_polyhedron().maximize(-c)
    if res.status == "unbounded":
        raise AssumptionA2Violated(-np.inf, "outward derivative unbounded below over the face")
    if res.status != "optimal":
        raise AssumptionA2Violated(-np.inf, "face is empty, outward bound undefined")
    delta = -res.value
    if delta <= 0.0:
        raise AssumptionA2Violated(delta)
    return float(delta)


def _face_lp_min(face: Face, c):
    res = face.as_polyhedron().maximize(-np.asarray(c, float))
    if res.status != "optimal":
        raise NumericRange(f"face LP ended {res.status} while scanning the time lattice")
    return -res.value


def _face_minima(face: Face, C) -> np.ndarray:
    """Minimum of each row c of C of c . x over the face.

    A linear function on a 2D face (a segment) peaks at its ends, so the
    minima are the smaller endpoint values, read off one product with
    face.vertices. Faces of dimension 3 or more, and segments shorter
    than vertices_2d's 1e-9 merge distance (one vertex, which is not an
    end), solve one LP per row.
    """
    C = np.atleast_2d(C)
    if face.dim == 2 and face.vertices.shape[0] == 2:
        return np.min(C @ face.vertices.T, axis=1)
    return np.array([_face_lp_min(face, c) for c in C])


def c1_minimum(face: Face, A, table) -> float:
    """min over the lattice times t (table[j] = e^{A t_j}) and x0 in F0
    (exact over the face: values at face.vertices in 2D, LP in 3D+) of
    the transported outward derivative a_k . A e^{At} x0."""
    g = np.asarray(A, float).T @ face.base_normal
    # row j is the vector a_k^T A e^{A t_j}, minimized over the face
    return float(np.min(_face_minima(face, table.transpose(0, 2, 1) @ g)))


def check_C1(prob: StepProblem) -> bool:
    """Spot-check the outward condition along the step and its corollaries.

    True iff the sampled minimum of a_k . A e^{At} x0 over the lattice
    times in [-Delta, Delta] stays >= delta0 - 1e-9, and the base-crossing
    signs hold: outward at every lattice time t > 0, inward at its mirror
    -t, both exact over the face (endpoint values in 2D, LP in 3D+).
    Reads prob.expm_table and computes no exponential of its own.
    """
    if prob.delta0 is None:
        return False
    if prob.c1_min < prob.delta0 - _C1_SLACK:
        return False
    ak, bk = prob.face.base_normal, prob.face.base_offset
    times = np.linspace(-prob.delta, prob.delta, _T_SAMPLES)
    fwd = np.flatnonzero(times > 0.0)
    rows = prob.expm_table.transpose(0, 2, 1) @ ak
    # a forward point must not fall back through the base plane, and the
    # point at the mirrored time -t must not sit past it (max = -min(-c))
    C = np.vstack([rows[fwd], -rows[_T_SAMPLES - 1 - fwd]])
    mins = _face_minima(prob.face, C)
    fell_back = mins[: fwd.size] - bk < -_C1_SLACK
    past_base = -mins[fwd.size :] - bk > _C1_SLACK
    return not (fell_back.any() or past_base.any())


def select_delta(m0: float, norm_a: float, delta: float, delta0: float) -> float:
    """Largest step horizon certified by the growth bound
    m0 ||A|| (e^{||A|| D} - 1) <= delta - delta0. Infinite when the bound
    degenerates (||A|| = 0 or m0 = 0)."""
    if delta0 >= delta:
        raise BadDeltaOrder(f"delta0 {delta0:.6g} must be strictly below delta {delta:.6g}")
    if delta0 <= 0.0:
        raise BadDeltaOrder(f"delta0 must be positive, got {delta0:.6g}")
    if norm_a == 0.0 or m0 == 0.0:
        return math.inf
    return math.log1p((delta - delta0) / (m0 * norm_a)) / norm_a


def propagate_face(face: Face, A, delta: float, back=None) -> Face:
    """Exact image e^{A Delta} F0, orthonormal. Each normal moves through
    e^{-A^T Delta} (``back``, computed here when the caller has not) by
    its own product, offsets stay, and the rows go through the face
    orthonormaliser of geometry (no LP). A side that collapses onto the
    base direction is dropped when vacuous, else raises NumericRange."""
    E = expm(-np.asarray(A, float).T, delta) if back is None else back
    # one product per row: a batched product goes through BLAS gemm, which
    # can round differently from the matrix-vector path
    moved = Face(
        [E @ a for a in face.side_normals], face.side_offsets, E @ face.base_normal, face.base_offset
    )
    try:
        return _orthonormalize(moved)
    except DegenerateNormal as exc:
        raise NumericRange(f"transported {exc}") from None


# ---------------------------------------------------------------------------
# distance vectors


@dataclass(frozen=True)
class BoundSet:
    """Rotation/translation distances for the 4k-row enclosure.

    Layout of ``l`` and ``l_prime`` (length 2k): entries 0..k-2 rotate the
    sides, entry k-1 translates the cap, entries k..2k-2 translate the
    side slabs, entry 2k-1 repeats the cap entry by convention.
    """

    l: np.ndarray
    l_prime: np.ndarray
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "l", np.asarray(self.l, float))
        object.__setattr__(self, "l_prime", np.asarray(self.l_prime, float))

    @classmethod
    def pack(cls, rot, cap, slab, mode: str) -> "BoundSet":
        """The layout from (l, l_prime) pairs: k-1 in rot, one in cap and
        k-1 in slab; the cap pair goes at k-1 and again at 2k-1."""
        cols = np.vstack([np.reshape(rot, (-1, 2)), [cap], np.reshape(slab, (-1, 2)), [cap]])
        return cls(cols[:, 0].copy(), cols[:, 1].copy(), mode)

    @property
    def k(self) -> int:
        return self.l.size // 2

    def labels(self) -> list[str]:
        """Name of each entry of l and l_prime, in layout order."""
        sides = range(self.k - 1)
        return [*(f"rotation_{i}" for i in sides), "cap", *(f"slab_{i}" for i in sides), "cap_repeat"]

    def rotation(self, i: int) -> float:
        return float(self.l[i])

    def rotation_prime(self, i: int) -> float:
        return float(self.l_prime[i])

    @property
    def cap(self) -> float:
        return float(self.l[self.k - 1])

    @property
    def cap_prime(self) -> float:
        return float(self.l_prime[self.k - 1])

    def slab(self, i: int) -> float:
        return float(self.l[self.k + i])

    def slab_prime(self, i: int) -> float:
        return float(self.l_prime[self.k + i])


def _check_far_sides(prob: StepProblem):
    """Raise NumericRange when the far face lost a side: propagate_face
    drops a vacuous side whose normal turns onto the base direction, but
    every bound pairs side i of the start face with side i of the far
    face. The message names the lost sides, those whose transported
    normals lie nearest the transported base direction."""
    lost = prob.k - prob.face_delta.k
    if lost <= 0:
        return
    back = expm(-prob.matrix.T, prob.delta)
    moved = prob.face.side_normals @ back.T
    base = back @ prob.face.base_normal
    base = base / np.linalg.norm(base)
    off_base = np.linalg.norm(moved - np.outer(moved @ base, base), axis=1)
    sides = sorted(np.argsort(off_base, kind="stable")[:lost].tolist())
    noun, whose = ("side", "its normal") if lost == 1 else ("sides", "their normals")
    raise NumericRange(
        f"the far face lost {noun} {', '.join(map(str, sides))}: over the horizon "
        f"{prob.delta:.6g} the transport turns {whose} onto the base direction"
    )


def conservative_bounds(prob: StepProblem) -> BoundSet:
    """Closed-form distance bounds, sound whenever the outward condition
    holds with margin delta0 on [-Delta, Delta]."""
    if prob.delta0 is None:
        raise BadDeltaOrder("no positive delta0 at this horizon; shrink the step")
    _check_far_sides(prob)
    A = prob.matrix
    k = prob.k
    growth = prob.m0 * math.exp(prob.norm_a * prob.delta)
    d0, d1 = prob.delta0, prob.delta1

    rot, slab = [], []
    for i in range(k - 1):
        na = float(np.linalg.norm(A.T @ prob.face.side_normals[i]))
        nb = float(np.linalg.norm(A.T @ prob.face_delta.side_normals[i]))
        rot.append((growth * na / d0, growth * nb / d1))
        slab.append((prob.delta * growth * na, prob.delta * growth * nb))
    cap = [
        prob.delta * growth * float(np.linalg.norm(A.T @ f.base_normal))
        for f in (prob.face, prob.face_delta)
    ]
    return BoundSet.pack(rot, cap, slab, "conservative")


def _face_lattice(face: Face, target: int) -> np.ndarray:
    """Deterministic lattice on a face: linspace between face.vertices in
    2D; in higher dimensions a box grid of about target points, projected
    and filtered by Face.lattice_points (side residuals up to 1e-9), the
    projection that the facelift facet lattice uses too."""
    if face.dim == 2:
        ends = face.vertices
        if ends.shape[0] == 1:
            return ends
        s = np.linspace(0.0, 1.0, max(2, target))[:, None]
        return ends[0] * (1.0 - s) + ends[-1] * s
    lo, hi = face.as_polyhedron().bounding_box()
    per_axis = max(2, int(math.ceil(target ** (1.0 / face.dim))) + 1)
    mesh = grid_points([np.linspace(lo[j], hi[j], per_axis) for j in range(face.dim)])
    pts = face.lattice_points(mesh, 1e-9)
    if pts.shape[0] == 0:
        raise NumericRange("face lattice came up empty; widen the sampling target")
    return pts


def tube_lattice(face: Face, A, delta: float, nx: int, nt: int) -> np.ndarray:
    """Flow points of the tube grown from face: _face_lattice(face, nx)
    moved by e^{A t} to each of the nt times linspace(0, delta), as an
    (nt, points, dim) array."""
    return _face_lattice(face, nx) @ expm_stack(A, np.linspace(0.0, delta, nt)).transpose(0, 2, 1)


def sampled_bounds(prob: StepProblem, nx: int = 40, nt: int = 40) -> BoundSet:
    """Lattice-sampled distances: suprema of the defining ratios over flow
    points of the tube, denominators below 1e-12 excluded.

    Under-estimates of the true suprema; refining the lattice (nested
    point sets) can only grow each entry. Soundness claims belong to
    conservative mode, not here.
    """
    _check_far_sides(prob)
    k = prob.k
    f0, fd = prob.face, prob.face_delta
    Y = tube_lattice(f0, prob.matrix, prob.delta, nx, nt)
    den = Y @ f0.base_normal - f0.base_offset
    denp = fd.base_offset - Y @ fd.base_normal
    ok = den > _DEGEN_TOL
    okp = denp > _DEGEN_TOL
    if k > 1 and not ok.any():
        raise DenominatorAllDegenerate("no flow sample rose above the start plane")
    if k > 1 and not okp.any():
        raise DenominatorAllDegenerate("no flow sample stayed below the far plane")
    rot, slab = [], []
    for i in range(k - 1):
        num = Y @ f0.side_normals[i] - f0.side_offsets[i]
        nump = Y @ fd.side_normals[i] - fd.side_offsets[i]
        rot.append((np.max(num[ok] / den[ok]), np.max(nump[okp] / denp[okp])))
        slab.append(np.maximum((np.max(num), np.max(nump)), 0.0))
    cap = (max(float(np.max(den)), 0.0), max(float(np.max(denp)), 0.0))
    return BoundSet.pack(rot, cap, slab, "sampled")


# ---------------------------------------------------------------------------
# row assembly


def row_groups(k: int) -> list[str]:
    """Group tag per assembled row, in emission order."""
    tags = ["rotated-start"] * (k - 1) + ["support-start", "cap-start"] + ["slab-start"] * (k - 1)
    tags += ["rotated-end"] * (k - 1) + ["support-end", "cap-end"] + ["slab-end"] * (k - 1)
    return tags


def assemble_polyhedron(prob: StepProblem, bounds: BoundSet) -> Polyhedron:
    """The 4k-row enclosure of the tube step, rows in the fixed order
    reported by row_groups(k).

    Start-side rows: sides rotated toward the flow, the supporting base
    plane, the cap pushed along the base normal, and the side slabs pushed
    outward. End-side rows repeat the pattern on the transported face.
    Rows keep the (generally non-unit) normals the construction produces;
    membership is scale-free so callers compare rows up to positive scale.
    """
    f0, fd = prob.face, prob.face_delta
    k = prob.k
    ak, bk = f0.base_normal, f0.base_offset
    gk, gkp = fd.base_normal, fd.base_offset

    rows: list[Halfspace] = []
    for i in range(k - 1):
        li = bounds.rotation(i)
        rows.append(Halfspace(f0.side_normals[i] - li * ak, f0.side_offsets[i] - li * bk))
    rows.append(Halfspace(-ak, -bk))
    rows.append(Halfspace(ak, bk + bounds.cap))
    for i in range(k - 1):
        rows.append(Halfspace(f0.side_normals[i], f0.side_offsets[i] + bounds.slab(i)))
    for i in range(k - 1):
        lip = bounds.rotation_prime(i)
        rows.append(Halfspace(fd.side_normals[i] + lip * gk, fd.side_offsets[i] + lip * gkp))
    rows.append(Halfspace(gk, gkp))
    rows.append(Halfspace(-gk, -gkp + bounds.cap_prime))
    for i in range(k - 1):
        rows.append(Halfspace(fd.side_normals[i], fd.side_offsets[i] + bounds.slab_prime(i)))
    return Polyhedron(tuple(rows))


# ---------------------------------------------------------------------------
# hull comparison enclosure


def hull_bloat_epsilon(m0: float, norm_a: float, delta: float) -> float:
    """Closed-form push-out distance covering the gap between the chord
    hull of the face pair and the curved tube."""
    x = norm_a * delta
    return m0 * (math.exp(x) - 1.0 - x - 0.375 * x * x)


def bloat_hull(face: Face, face_delta: Face, eps: float) -> Polyhedron:
    """2D enclosure by the convex hull of both faces' vertices, every row
    pushed outward by eps. The step driver passes hull_bloat_epsilon of
    its problem's m0, ||A|| and horizon; eps=0 gives the bare chord hull.
    The far face's vertices, enumerated here, serve the next chained
    sub-step, whose start face it is."""
    if face.dim != 2:
        raise DimUnsupported("bloat_hull is only available in two dimensions")
    pts = np.vstack([face.vertices, face_delta.vertices])
    hull = convex_hull_2d(pts)
    return Polyhedron(tuple(Halfspace(h.normal, h.offset + eps) for h in hull.ineqs))


# ---------------------------------------------------------------------------
# step driver


@dataclass
class StepResult:
    """Outcome of overapproximate_step: one entry per emitted sub-step."""

    problems: list
    bounds: list
    assembled: list
    hulls: list
    polyhedra: list
    deltas: list
    delta_shrunk: bool

    @property
    def polyhedron(self) -> Polyhedron:
        if len(self.polyhedra) != 1:
            raise ValueError("step was split; inspect .polyhedra instead")
        return self.polyhedra[0]


def overapproximate_step(
    face: Face,
    A,
    delta: float,
    mode: str = "conservative",
    delta0: float | None = None,
) -> StepResult:
    """Enclose the tube grown from ``face`` over one horizon of length
    ``delta``.

    Pipeline: orthonormalize, check the outward assumption, validate the
    outward condition along the step, then assemble the 4k rows from the
    chosen bound mode ("conservative" or "sampled"). When the condition
    fails at the requested horizon the step is shrunk to the certified
    bound and chained sub-steps cover the remainder (flagged
    delta_shrunk). In 2D each sub-step is intersected with the bloated
    face hull; res.assembled keeps the bare 4k-row enclosures. Sampled
    mode uses sampled_bounds' default lattice.

    Each emitted sub-step costs one StepProblem.build, at the whole
    remaining horizon of its start face: one check_A2 LP and one
    exponential batch; ||A|| is computed once per call. When check_C1
    rejects that horizon, the certified one reuses the face's facts
    (StepProblem._at) and costs one more batch, with no LP and no SVD.
    """
    if mode not in ("conservative", "sampled"):
        raise ValueError(f"unknown bound mode {mode!r}")
    A = np.asarray(A, float)
    if not face.orthonormal:
        face = normalize_and_orthogonalize(face)

    result = StepResult([], [], [], [], [], [], False)
    current = face
    remaining = float(delta)
    norm_a = None
    guard = 0
    while remaining > 1e-12:
        guard += 1
        if guard > 10000:
            raise NumericRange("step chaining did not converge; horizon too aggressive")
        prob = StepProblem.build(current, A, remaining, delta0=delta0, _norm_a=norm_a)
        norm_a = prob.norm_a
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
            if step <= 0.0:
                raise NumericRange(f"the certified horizon underflows to {step}")
            facts = (prob.delta_min, prob.m0, prob.norm_a)
            prob = StepProblem._at(current, A, step, delta0, facts)
            if prob.delta0 is None:
                # ref = delta_min/2 passes build's 0 < delta0 <= delta_min check
                prob = replace(prob, delta0=ref)
        bounds = conservative_bounds(prob) if mode == "conservative" else sampled_bounds(prob)
        poly = assemble_polyhedron(prob, bounds)
        hull = None
        # a face shorter than the vertex merge gap gives one vertex, and
        # two of them span no hull: the bare enclosure stands alone
        if face.dim == 2 and len(prob.face.vertices) + len(prob.face_delta.vertices) >= 3:
            eps = hull_bloat_epsilon(prob.m0, prob.norm_a, prob.delta)
            hull = bloat_hull(prob.face, prob.face_delta, eps)
        result.problems.append(prob)
        result.bounds.append(bounds)
        result.assembled.append(poly)
        result.hulls.append(hull)
        result.polyhedra.append(intersect([poly, hull]) if hull is not None else poly)
        result.deltas.append(prob.delta)
        remaining -= prob.delta
        if remaining > 1e-12:
            current = prob.face_delta
    return result


def propagate_tube(P0: Polyhedron, A, t: float) -> Polyhedron:
    """The image e^{At} P0: normals transported through e^{-A^T t},
    offsets kept, rows renormalized to unit normals."""
    return _moved_polyhedron(P0, expm(-np.asarray(A, float).T, t))


def _moved_polyhedron(P0: Polyhedron, back) -> Polyhedron:
    """propagate_tube with its back map e^{-A^T t} given, so that callers
    moving several polyhedra by one t compute it once."""
    ineqs = tuple(Halfspace(back @ h.normal, h.offset).unit() for h in P0.ineqs)
    eqs = tuple(Halfspace(back @ h.normal, h.offset).unit() for h in P0.eqs)
    return Polyhedron(ineqs, eqs)
