"""Halfspace polyhedra, faces, and the small dense LP layer under them.

All halfspaces are written ``a.x - b <= 0``; equalities ``a.x - b = 0``.
Row systems here are tiny (tens of rows, dimension <= 10), so everything
is dense and deterministic: the LP is a two-phase tableau simplex with
Bland's rule, vertex enumeration in 2D is pairwise row intersection.
2D vertices and boxes run no LP when the row normals certify the polygon
bounded, and intersect dedupes rows in one array pass. The simplex
remains for 3D and above, for is_empty, for polyapprox's check_A2 and for
2D polyhedra whose normals do not certify boundedness (or that are empty).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import (
    DegenerateNormal,
    DimMismatch,
    Empty2D,
    EmptyPolyhedron,
    EmptyPolyhedronWarning,
    InfeasibleFace,
    TooFewPoints,
    Unbounded2D,
)

# Residual below which a row counts as tight / duplicate.
TIGHT_TOL = 1e-9
# Residual below which a point still counts as feasible for a row.
FEAS_TOL = 1e-8
_PIVOT_TOL = 1e-9


class GeometryWarning(UserWarning):
    """Non-fatal degeneracy noticed during a geometric construction."""


# ---------------------------------------------------------------------------
# linear programming


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    value: float | None = None


def _pivot(T, row, col):
    """Pivot the tableau on (row, col) in place: scale the row, then clear
    the column from every other row with a nonzero entry in it."""
    T[row] /= T[row, col]
    for i in T[:, col].nonzero()[0]:
        if i != row:
            T[i] -= T[i, col] * T[row]


def _run_simplex(T, basis, cost):
    """Maximize cost over the tableau in place. Bland's rule, so no cycling."""
    m, ncols = T.shape[0], T.shape[1] - 1
    while True:
        reduced = cost - cost[basis] @ T[:, :ncols]
        enter = (reduced > _PIVOT_TOL).nonzero()[0]
        if enter.size == 0:
            return "optimal"
        enter = enter[0]
        col = T[:, enter]
        leave, best = -1, None
        for i in range(m):
            if col[i] > _PIVOT_TOL:
                ratio = T[i, -1] / col[i]
                if (
                    best is None
                    or ratio < best - 1e-12
                    or (abs(ratio - best) <= 1e-12 and basis[i] < basis[leave])
                ):
                    best, leave = ratio, i
        if leave < 0:
            return "unbounded"
        _pivot(T, leave, enter)
        basis[leave] = enter


def lp_maximize(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LPResult:
    """Maximize ``c.x`` over ``A_ub x <= b_ub``, ``A_eq x = b_eq``, x free.

    Two-phase dense simplex; free variables are split x = u - w. Returns
    an LPResult whose status is one of optimal / infeasible / unbounded.
    """
    c = np.asarray(c, float)
    n = c.size
    A_ub = np.zeros((0, n)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, float))
    b_ub = np.zeros(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, float))
    A_eq = np.zeros((0, n)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, float))
    b_eq = np.zeros(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, float))
    m1, m2 = A_ub.shape[0], A_eq.shape[0]
    m = m1 + m2
    nsplit = 2 * n
    ncols = nsplit + m1 + m  # u, w, slacks, artificials

    T = np.zeros((m, ncols + 1))
    T[:m1, :n], T[m1:, :n] = A_ub, A_eq
    T[:, n:nsplit] = -T[:, :n]
    T[:m1, -1], T[m1:, -1] = b_ub, b_eq
    np.fill_diagonal(T[:m1, nsplit:], 1.0)  # slacks
    T *= np.where(T[:, -1:] < 0.0, -1.0, 1.0)  # b >= 0
    np.fill_diagonal(T[:, nsplit + m1 :], 1.0)  # artificials, the first basis
    basis = nsplit + m1 + np.arange(m)

    # Phase 1: drive the artificial variables to zero.
    cost1 = np.zeros(ncols)
    cost1[nsplit + m1 :] = -1.0
    _run_simplex(T, basis, cost1)
    if -(cost1[basis] @ T[:, -1]) > 1e-7:
        return LPResult("infeasible")

    # Pivot leftover artificials out; a row with no real pivot is redundant.
    for i in (basis >= nsplit + m1).nonzero()[0]:
        cand = (np.abs(T[i, : nsplit + m1]) > _PIVOT_TOL).nonzero()[0]
        if cand.size:
            _pivot(T, i, cand[0])
            basis[i] = cand[0]
    keep = basis < nsplit + m1
    T = np.concatenate([T[:, : nsplit + m1], T[:, -1:]], axis=1)[keep]
    basis = basis[keep]

    cost2 = np.concatenate([c, -c, np.zeros(m1)])
    if _run_simplex(T, basis, cost2) == "unbounded":
        return LPResult("unbounded")

    xsplit = np.zeros(nsplit + m1)
    xsplit[basis] = T[:, -1]
    x = xsplit[:n] - xsplit[n:nsplit]
    return LPResult("optimal", x=x, value=float(c @ x))


# ---------------------------------------------------------------------------
# core set types


@dataclass(frozen=True)
class Halfspace:
    """One row ``normal . x - offset <= 0`` (or ``= 0`` when used as equality)."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", np.asarray(self.normal, float))
        object.__setattr__(self, "offset", float(self.offset))

    @property
    def dim(self) -> int:
        return self.normal.size

    def value(self, points):
        """Signed residual ``normal . x - offset`` at one point or an (m, n) batch."""
        pts = np.asarray(points, float)
        return pts @ self.normal - self.offset

    def unit(self) -> "Halfspace":
        """Same halfspace with a unit normal."""
        nrm = float(np.linalg.norm(self.normal))
        if nrm < 1e-14:
            raise DegenerateNormal("cannot normalize a vanishing normal")
        return Halfspace(self.normal / nrm, self.offset / nrm)


@dataclass(frozen=True)
class Polyhedron:
    """Intersection of finitely many halfspaces, plus optional equality rows."""

    ineqs: tuple = ()
    eqs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ineqs", tuple(self.ineqs))
        object.__setattr__(self, "eqs", tuple(self.eqs))
        dims = {h.dim for h in self.ineqs} | {h.dim for h in self.eqs}
        if len(dims) > 1:
            raise DimMismatch(f"mixed row dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        for h in self.ineqs + self.eqs:
            return h.dim
        return 0

    @property
    def rows(self) -> tuple:
        return self.ineqs + self.eqs

    @classmethod
    def from_inequalities(cls, A, b) -> "Polyhedron":
        A = np.atleast_2d(np.asarray(A, float))
        b = np.atleast_1d(np.asarray(b, float))
        return cls(tuple(Halfspace(A[i], b[i]) for i in range(A.shape[0])))

    @classmethod
    def box(cls, lo, hi) -> "Polyhedron":
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        n = lo.size
        rows = []
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(Halfspace(e.copy(), hi[j]))
            rows.append(Halfspace(-e, -lo[j]))
        return cls(tuple(rows))

    def matrices(self):
        """(A_ub, b_ub, A_eq, b_eq) dense matrices for the LP layer."""
        n = self.dim
        A_ub = np.array([h.normal for h in self.ineqs], float).reshape(len(self.ineqs), n)
        b_ub = np.array([h.offset for h in self.ineqs], float)
        A_eq = np.array([h.normal for h in self.eqs], float).reshape(len(self.eqs), n)
        b_eq = np.array([h.offset for h in self.eqs], float)
        return A_ub, b_ub, A_eq, b_eq

    def maximize(self, c) -> LPResult:
        """Maximize ``c.x`` over the polyhedron (see lp_maximize)."""
        return lp_maximize(c, *self.matrices())

    def contains(self, points, tol=TIGHT_TOL):
        """Membership of one point (bool) or an (m, n) batch (bool array)."""
        pts = np.asarray(points, float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        ok = np.ones(pts.shape[0], bool)
        for h in self.ineqs:
            ok &= h.value(pts) <= tol
        for h in self.eqs:
            ok &= np.abs(h.value(pts)) <= tol
        return bool(ok[0]) if single else ok

    def bounding_box(self):
        """Tight coordinate box (lo, hi); raises EmptyPolyhedron if empty,
        Unbounded2D at the first unbounded coordinate. A 2D polyhedron
        whose normals certify it bounded reads the box off its vertices;
        every other input (and an empty one) runs the LPs of _lp_box."""
        if self.dim == 2:
            mats = self.matrices()
            pts = _plane_vertices(mats) if _normals_bound_plane(mats) else None
            if pts is not None:
                return pts.min(axis=0), pts.max(axis=0)
        return self._lp_box()

    def _lp_box(self):
        """The LPs max/min x_j, j in order. Phase 1 of the simplex does not
        depend on the objective, so the first LP already decides emptiness."""
        n = self.dim
        lo, hi = np.zeros(n), np.zeros(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            up = self.maximize(e)
            if up.status == "infeasible":
                raise EmptyPolyhedron("bounding box of an empty polyhedron")
            dn = self.maximize(-e)
            if up.status != "optimal" or dn.status != "optimal":
                raise Unbounded2D(f"polyhedron unbounded along coordinate {j}")
            hi[j], lo[j] = up.value, -dn.value
        return lo, hi


@dataclass(frozen=True)
class Face:
    """A bounded facet: side inequalities pinned to one base hyperplane.

    Side rows read ``a_i . x - b_i <= 0`` and the base row holds with
    equality, ``a_k . x - b_k = 0``. ``orthonormal`` records that every
    side normal is unit length and orthogonal to the (unit) base normal.
    """

    side_normals: np.ndarray
    side_offsets: np.ndarray
    base_normal: np.ndarray
    base_offset: float
    orthonormal: bool = False
    dropped_sides: int = field(default=0, compare=False)

    def __post_init__(self):
        sn = np.atleast_2d(np.asarray(self.side_normals, float))
        so = np.atleast_1d(np.asarray(self.side_offsets, float))
        bn = np.asarray(self.base_normal, float)
        if sn.size == 0:
            sn = sn.reshape(0, bn.size)
        if sn.shape[0] != so.size or sn.shape[1] != bn.size:
            raise DimMismatch("side/base shapes disagree")
        object.__setattr__(self, "side_normals", sn)
        object.__setattr__(self, "side_offsets", so)
        object.__setattr__(self, "base_normal", bn)
        object.__setattr__(self, "base_offset", float(self.base_offset))

    @property
    def dim(self) -> int:
        return self.base_normal.size

    @property
    def k(self) -> int:
        """Row count: number of sides plus the base."""
        return self.side_offsets.size + 1

    def as_polyhedron(self) -> Polyhedron:
        sides = tuple(
            Halfspace(self.side_normals[i], self.side_offsets[i])
            for i in range(self.side_offsets.size)
        )
        return Polyhedron(sides, (Halfspace(self.base_normal, self.base_offset),))

    @cached_property
    def vertices(self) -> np.ndarray:
        """Vertices of a 2D face (its segment ends, or one point), enumerated
        once per face by vertices_2d; raises as vertices_2d does. Every
        reader shares the one array, so it is read-only."""
        verts = vertices_2d(self.as_polyhedron())
        verts.flags.writeable = False
        return verts

    def lattice_points(self, mesh, margin):
        """The points of mesh (m, n), projected onto the base hyperplane,
        whose residual a_i . x - b_i is at most margin on every side row."""
        ak, bk = self.base_normal, self.base_offset
        mesh = mesh - np.outer(mesh @ ak - bk, ak)
        keep = np.ones(mesh.shape[0], bool)
        for i in range(self.side_offsets.size):
            keep &= mesh @ self.side_normals[i] - self.side_offsets[i] <= margin
        return mesh[keep]

    def check_orthonormal(self, tol=1e-10) -> bool:
        if abs(np.linalg.norm(self.base_normal) - 1.0) > tol:
            return False
        for a in self.side_normals:
            if abs(np.linalg.norm(a) - 1.0) > tol:
                return False
            if abs(float(a @ self.base_normal)) > tol:
                return False
        return True


# ---------------------------------------------------------------------------
# predicates


def is_empty(P: Polyhedron) -> bool:
    """Feasibility of the row system, decided by the phase-1 simplex."""
    return P.maximize(np.zeros(P.dim)).status == "infeasible"


def is_bounded(P: Polyhedron) -> bool:
    """True iff every coordinate is bounded above and below over P.

    An empty polyhedron returns True by convention and emits
    EmptyPolyhedronWarning so the caller can decide.
    """
    try:
        P.bounding_box()
    except EmptyPolyhedron:
        warnings.warn("is_bounded called on an empty polyhedron", EmptyPolyhedronWarning)
    except Unbounded2D:
        return False
    return True


def grid_points(axes) -> np.ndarray:
    """Every point of the lattice spanned by per-axis coordinates, as an
    (N, len(axes)) array in C order (last axis fastest)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


# ---------------------------------------------------------------------------
# 2D vertex machinery


def _first_of_each(close) -> np.ndarray:
    """Keep mask over n items: item j is kept unless ``close[j, i]`` holds
    for an earlier *kept* item i, so closeness is never chained."""
    earlier = np.tril(close, -1)
    keep = ~earlier.any(axis=1)
    for j in np.flatnonzero(~keep):
        keep[j] = not (earlier[j] & keep).any()
    return keep


def _normals_bound_plane(mats) -> bool:
    """True when the row normals of a 2D polyhedron, given as its
    matrices() (equality rows in both directions), leave no angular gap of
    pi - 1e-9 or more: they then positively span the plane, so the
    polyhedron is bounded whatever its offsets."""
    A_ub, _, A_eq, _ = mats
    A = np.vstack([A_ub, A_eq, -A_eq])
    A = A[np.any(A != 0.0, axis=1)]
    if A.shape[0] < 3:
        return False
    ang = np.sort(np.arctan2(A[:, 1], A[:, 0]))
    gaps = np.diff(ang, append=ang[0] + 2.0 * np.pi)
    return bool(gaps.max() < np.pi - 1e-9)


@cache
def _row_pairs(m: int):
    """The pairs i < j of m rows in np.triu_indices order, shared read-only."""
    i, j = np.triu_indices(m, k=1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def _plane_vertices(mats) -> np.ndarray | None:
    """Pairwise row intersections of a 2D polyhedron, given as its
    matrices(), that satisfy every row within FEAS_TOL, deduplicated at
    TIGHT_TOL in pair order (i < j); None when there is none. Both tests
    are scale-free: a pair is skipped as parallel unless |det| exceeds
    1e-12 |a_i| |a_j| (which skips every pair with a zero row), and row
    k's residual is measured in units of |a_k|. A zero row 0.x <= b (or
    = b) keeps the plain residual: it is vacuous within FEAS_TOL and
    otherwise rejects every point."""
    A_ub, b_ub, A_eq, b_eq = mats
    A, b = np.vstack([A_ub, A_eq]), np.concatenate([b_ub, b_eq])
    i, j = _row_pairs(b.size)
    M = np.stack([A[i], A[j]], axis=1)
    nrm = np.linalg.norm(A, axis=1)
    ok = np.abs(np.linalg.det(M)) > 1e-12 * nrm[i] * nrm[j]
    rhs = np.stack([b[i], b[j]], axis=1)[ok]
    pts = np.linalg.solve(M[ok], rhs[..., None])[..., 0]
    pts = pts[np.all(np.isfinite(pts), axis=1)]
    tol = FEAS_TOL * np.where(nrm > 0.0, nrm, 1.0)
    n_ub = b_ub.size
    feas = np.all(pts @ A_ub.T - b_ub <= tol[:n_ub], axis=1) & np.all(
        np.abs(pts @ A_eq.T - b_eq) <= tol[n_ub:], axis=1
    )
    pts = pts[feas]
    if len(pts) <= 1:
        return pts if len(pts) else None
    close = np.linalg.norm(pts[:, None] - pts[None], axis=2) <= TIGHT_TOL
    return pts[_first_of_each(close)]


def vertices_2d(P: Polyhedron) -> np.ndarray:
    """Vertices of a bounded nonempty 2D polyhedron, counter-clockwise.

    Pairwise row intersections filtered by feasibility (residual <= 1e-8
    in units of each row's norm), deduplicated at 1e-9, anchored at the
    lexicographically smallest vertex.
    Degenerate inputs (a segment or a point) return 2 or 1 rows. When the
    normals certify boundedness and an intersection is feasible, no LP
    runs; otherwise the bounding-box LPs tell Empty2D from Unbounded2D.
    """
    if P.dim != 2:
        raise DimMismatch(f"vertices_2d needs dim 2, got {P.dim}")
    mats = P.matrices()
    certified = _normals_bound_plane(mats)
    pts = _plane_vertices(mats) if certified else None
    if pts is None:
        try:
            P._lp_box()
        except EmptyPolyhedron:
            raise Empty2D("no vertices: polyhedron is empty") from None
        except Unbounded2D:
            raise Unbounded2D("no finite vertex set: polyhedron is unbounded") from None
        if not certified:
            pts = _plane_vertices(mats)
        if pts is None:
            raise Empty2D("no pairwise intersection point is feasible")
    if len(pts) <= 2:
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        return pts[order]

    centroid = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - centroid[1], pts[:, 0] - centroid[0])
    pts = pts[np.argsort(ang, kind="stable")]
    anchor = int(np.lexsort((pts[:, 1], pts[:, 0]))[0])
    return np.roll(pts, -anchor, axis=0)


def convex_hull_2d(points) -> Polyhedron:
    """Minimal H-representation of the hull of 2D points, unit outward normals.

    Monotone chain; strictly collinear input degenerates to the 2-row strip
    through the points and emits GeometryWarning.
    """
    pts = np.atleast_2d(np.asarray(points, float))
    if pts.shape[1] != 2:
        raise DimMismatch("convex_hull_2d needs 2D points")
    if pts.shape[0] < 3:
        raise TooFewPoints(f"hull needs >= 3 points, got {pts.shape[0]}")

    order = np.lexsort((pts[:, 1], pts[:, 0]))
    srt = pts[order]
    keep = [srt[0]]
    for p in srt[1:]:
        if np.linalg.norm(p - keep[-1]) > TIGHT_TOL:
            keep.append(p)
    srt = np.array(keep)
    if srt.shape[0] < 2:
        raise TooFewPoints("all points coincide")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in srt:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 1e-12:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in srt[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 1e-12:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]

    if len(hull) < 3:
        warnings.warn("collinear input: hull degenerates to a strip", GeometryWarning)
        d = srt[-1] - srt[0]
        d /= np.linalg.norm(d)
        nrm = np.array([d[1], -d[0]])
        off = float(nrm @ srt[0])
        return Polyhedron((Halfspace(nrm, off), Halfspace(-nrm, -off)))

    rows = []
    for i in range(len(hull)):
        v1, v2 = hull[i], hull[(i + 1) % len(hull)]
        edge = v2 - v1
        nrm = np.array([edge[1], -edge[0]])
        nrm /= np.linalg.norm(nrm)
        rows.append(Halfspace(nrm, float(nrm @ v1)))
    return Polyhedron(tuple(rows))


# ---------------------------------------------------------------------------
# composition


def intersect(polys) -> Polyhedron:
    """Concatenate row systems, dropping rows that duplicate an earlier one.

    Duplicates are detected on unit-normalized rows at tolerance 1e-9; the
    first occurrence (original scaling) is kept.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("intersect needs at least one polyhedron")
    dims = {P.dim for P in polys}
    if len(dims) > 1:
        raise DimMismatch(f"mixed dimensions {sorted(dims)}")

    def dedupe(rows):
        if not rows:
            return ()
        A = np.array([h.normal for h in rows])
        nrm = np.linalg.norm(A, axis=1)
        if np.any(nrm < 1e-14):
            raise DegenerateNormal("cannot normalize a vanishing normal")
        U = A / nrm[:, None]
        off = np.array([h.offset for h in rows]) / nrm
        close = (np.abs(U[:, None] - U[None]).max(axis=2) <= TIGHT_TOL) & (
            np.abs(off[:, None] - off[None]) <= TIGHT_TOL
        )
        return tuple(rows[j] for j in np.flatnonzero(_first_of_each(close)))

    ineqs = dedupe([h for P in polys for h in P.ineqs])
    eqs = dedupe([h for P in polys for h in P.eqs])
    return Polyhedron(ineqs, eqs)


def _orthonormalize(face: Face) -> Face:
    """Orthonormal rows of the same face, with no LP: the base row is
    scaled to a unit normal; each side row loses its component along it
    (a multiple of the base equality row, free on the face) and is scaled
    to a unit normal. A side that projects to zero is dropped when its
    residual row ``0 <= offset`` is vacuous; otherwise the face is empty
    in a way no orthonormal system expresses: DegenerateNormal."""
    bn = np.asarray(face.base_normal, float)
    nb = float(np.linalg.norm(bn))
    if nb < 1e-14:
        raise DegenerateNormal("base normal vanishes")
    bn = bn / nb
    bo = face.base_offset / nb

    normals, offsets, dropped = [], [], 0
    for i in range(face.side_offsets.size):
        a = np.asarray(face.side_normals[i], float)
        b = float(face.side_offsets[i])
        t = float(a @ bn)
        a = a - t * bn
        b = b - t * bo
        na = float(np.linalg.norm(a))
        if na <= 1e-12:
            if b >= -TIGHT_TOL:
                dropped += 1
                continue
            raise DegenerateNormal(f"side {i} projects to zero with offset {b:.3g} < 0")
        normals.append(a / na)
        offsets.append(b / na)

    return Face(
        np.array(normals).reshape(len(offsets), bn.size),
        np.array(offsets),
        bn,
        bo,
        orthonormal=True,
        dropped_sides=dropped + face.dropped_sides,
    )


def normalize_and_orthogonalize(face: Face) -> Face:
    """Rewrite a face so the base normal is unit and sides are unit and
    orthogonal to it, describing the same point set: the rows go through
    _orthonormalize, the kernel that polyapprox.propagate_face shares.
    Raises InfeasibleFace when the rewritten system has no solution."""
    out = _orthonormalize(face)
    if is_empty(out.as_polyhedron()):
        raise InfeasibleFace("face constraints have no common point")
    return out
