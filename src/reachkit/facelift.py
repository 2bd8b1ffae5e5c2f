"""Reach computation by evolving only the outward-flowing boundary.

The initial set is either a smooth sublevel set {l <= 0} or a polyhedron.
Its boundary is sampled, each sample is classified by the sign of the
outward derivative, and the outward part (the lifted front) is advected;
the swept tube, rasterized on a uniform grid, accumulates into the reach
set. A variant confines the evolution to a polyhedral invariant and can
report either an over- or an under-flavored grid set.

Point batches (m, d) and occupancy grids are read one coordinate column
at a time: numpy runs one inner loop per row when the inner axis is a
short d, 8-21x slower (np.argwhere on a 1263^2 grid 4.5 ms, flatnonzero
and unravel_index 0.6 ms). Values stay bit for bit: _sum_sq adds the
columns in numpy's order for d <= 7 and calls numpy itself for d >= 8.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as expression
from .errors import (
    MAX_GRID_CELLS,
    MAX_TIME_STEPS,
    AssumptionA2Violated,
    DegenerateNormal,
    DimMismatch,
    EmptyBoundary,
    EmptyPolyhedron,
    InfeasibleFace,
    NonFiniteState,
    PreconditionViolated,
    StepTooCoarse,
    _within_budget,
)
from .flow import LinearDynamics, expm, trajectory
from .geometry import (
    Face,
    Halfspace,
    Polyhedron,
    _first_of_each,
    grid_points,
    is_empty,
    normalize_and_orthogonalize,
)
from .polyapprox import _face_minima, _moved_polyhedron, overapproximate_step

OUTFLOW = "outflow"
TANGENTIAL = "tangential"
INFLOW = "inflow"

_HAUSDORFF_CAP_CELLS = 8  # GridRegion.hausdorff gives up (inf) beyond this many cells
_CONTACT_TOL = 1e-9  # cell widths of gap that cells_touching still counts as contact
_RESAMPLE_ROUNDS = 6  # midpoint insertion rounds per front step and chain run


# ---------------------------------------------------------------------------
# initial sets


class LevelSet:
    """Sublevel initial set {x : l(x) <= 0} with a sampling box.

    l comes as an expression string (or parsed tree); the gradient is
    symbolic. The box tells the boundary sampler where to look for the
    zero set, it does not clip the set itself.
    """

    def __init__(self, func, lo, hi):
        self.lo = np.asarray(lo, float)
        self.hi = np.asarray(hi, float)
        if self.lo.shape != self.hi.shape or np.any(self.hi <= self.lo):
            raise DimMismatch("level-set box must have lo < hi componentwise")
        self.dim = self.lo.size
        if isinstance(func, str):
            func = expression.parse(func, self.dim)
        self.func = func
        self.grads = [func.diff(j) for j in range(self.dim)]

    def value(self, points):
        pts = np.asarray(points, float)
        out = np.asarray(self.func.eval(pts), float)
        if out.shape != pts.shape[:-1]:
            out = np.broadcast_to(out, pts.shape[:-1]).copy()
        return out

    def gradient(self, points):
        pts = np.asarray(points, float)
        cols = [
            np.broadcast_to(np.asarray(g.eval(pts), float), pts.shape[:-1])
            for g in self.grads
        ]
        return np.stack(cols, axis=-1)

    def __repr__(self):
        return f"LevelSet({self.func}, box={self.lo.tolist()}..{self.hi.tolist()})"


def _polyhedron_faces(P: Polyhedron):
    """(row index, orthonormalized Face) per facet. A row that repeats an
    earlier kept row up to a positive scale is dropped, and so is a row
    whose maximum over the other kept rows stays below its offset (it is
    implied); neither becomes a side. Other rows that only touch stay."""
    rows = P.ineqs
    units = np.array(
        [np.append(h.normal, h.offset) / (np.linalg.norm(h.normal) or 1.0) for h in rows]
    ).reshape(len(rows), P.dim + 1)
    close = np.all(np.abs(units[:, None] - units[None]) <= 1e-12, axis=2)
    kept = np.flatnonzero(_first_of_each(close)).tolist()
    for i in list(kept):
        res = Polyhedron([rows[j] for j in kept if j != i]).maximize(rows[i].normal)
        if res.status == "optimal" and res.value < rows[i].offset - 1e-9:
            kept.remove(i)
    faces = []
    for i in kept:
        sides = [rows[j] for j in kept if j != i]
        cand = Face(
            np.array([h.normal for h in sides]).reshape(len(sides), P.dim),
            np.array([h.offset for h in sides]),
            rows[i].normal,
            rows[i].offset,
        )
        try:
            faces.append((i, normalize_and_orthogonalize(cand)))
        except (DegenerateNormal, InfeasibleFace):
            continue  # row never tight: no facet
    return faces


def _segment_interior_lattice(face: Face, h_b: float):
    """Points along a 2D facet, offset half a spacing from both endpoints."""
    ends = face.vertices
    if ends.shape[0] < 2:
        return ends
    a, b = ends[0], ends[-1]
    length = float(np.linalg.norm(b - a))
    _within_budget(length / h_b, MAX_GRID_CELLS, "facet lattice samples")
    n = max(1, int(math.floor(length / h_b)))
    s = (np.arange(n) + 0.5) / n
    return a * (1.0 - s[:, None]) + b * s[:, None]


def _facet_interior_lattice(face: Face, h_b: float):
    """Samples of a facet: _segment_interior_lattice in 2D; above, the
    centred h_b lattice of the facet's box, projected onto its base plane
    and kept at least h_b/4 inside every side (Face.lattice_points)."""
    if face.dim == 2:
        return _segment_interior_lattice(face, h_b)
    lo, hi = face.as_polyhedron().bounding_box()
    return face.lattice_points(_centred_lattice(lo, hi, h_b), -h_b / 4.0)


def _lattice_budget(lo, hi, spacing):
    """Refuse a spacing lattice of the box [lo, hi] of more than
    MAX_GRID_CELLS points; the count is an upper bound, taken in floats."""
    count = math.prod((float(b) - float(a)) / spacing + 1.0 for a, b in zip(lo, hi))
    _within_budget(count, MAX_GRID_CELLS, "lattice samples")


def _centred_lattice(lo, hi, spacing):
    """Points of the box [lo, hi] at the centres of spacing-wide cells
    from lo; an axis shorter than half a spacing gets its midpoint."""
    _lattice_budget(lo, hi, spacing)
    axes = [np.arange(lo[j] + spacing / 2.0, hi[j] + 1e-12, spacing) for j in range(lo.size)]
    axes = [a if a.size else np.array([(lo[j] + hi[j]) / 2.0]) for j, a in enumerate(axes)]
    return grid_points(axes)


def _sum_sq(x):
    """np.sum(x**2, axis=-1), bit for bit: the columns summed in index
    order, as numpy sums a last axis of 1 to 7 entries; numpy's own call
    for any other length (pairwise from 8 on)."""
    d = x.shape[-1]
    if not 0 < d < 8:
        return np.sum(x**2, axis=-1)
    out = x[..., 0] ** 2
    for j in range(1, d):
        out += x[..., j] ** 2
    return out


def _newton_project(ls: LevelSet, x, iters: int):
    """Move each row of x toward l = 0 by ``iters`` Newton steps along the
    gradient, x <- x - l(x) g / |g|^2. A sample whose gradient is not finite
    or has |g|^2 < 1e-18 stops where it is. Returns (x, ok), ok False for
    the stopped samples."""
    xt = np.array(x, float).T.copy()  # coordinate-major, (d, m)
    ok = np.ones(xt.shape[1], bool)
    for _ in range(iters):
        act = np.nonzero(ok)[0]
        g = ls.gradient(xt[:, act].T)
        # a batched matmul sums |g|^2 in the same order as a per-point g @ g
        gg = (g[:, None, :] @ g[:, :, None])[:, 0, 0]
        good = gg >= 1e-18
        for col in g.T:
            good &= np.isfinite(col)
        ok[act[~good]] = False
        act, g, gg = act[good], g.T[:, good], gg[good]
        xa = xt[:, act]
        xt[:, act] = xa - ls.value(xa.T) * g / gg
    return xt.T.copy(), ok


def _first_rows(key):
    """Ascending indices of the first occurrence of each distinct row of
    the integer array key (m, d): np.unique(key, axis=0, return_index=True)
    followed by np.sort, from one sort. A stable np.lexsort puts equal
    rows next to each other in index order, so the head of each run of
    equal rows is its first occurrence."""
    if key.shape[0] == 0:
        return np.zeros(0, np.intp)
    order = np.lexsort(key.T[::-1])
    head = np.arange(order.size) == 0
    for col in key.T:
        head[1:] |= np.diff(col[order]) != 0
    return np.sort(order[head])


def _levelset_boundary_2d(ls: LevelSet, h_b: float):
    """Zero-set samples: sign changes on a scan grid, refined by normal
    projection, ordered by angle around their centroid (one closed chain)."""
    span = float(np.max(ls.hi - ls.lo))
    n = int(np.clip(math.ceil(2.0 * span / h_b), 32, 512))
    xs = np.linspace(ls.lo[0], ls.hi[0], n)
    ys = np.linspace(ls.lo[1], ls.hi[1], n)
    V = ls.value(grid_points([xs, ys])).reshape(n, n)

    # linear interpolation of every sign change between scan-grid
    # neighbors: all crossings along x first, then all along y
    parts = []
    for ax, v0, v1 in ((0, V[:-1, :], V[1:, :]), (1, V[:, :-1], V[:, 1:])):
        flip = (v0 * v1 <= 0.0) & ((v0 != 0.0) | (v1 != 0.0))
        idx = np.unravel_index(np.flatnonzero(flip), flip.shape)
        v0, v1 = v0[flip], v1[flip]
        t = np.divide(v0, v0 - v1, out=np.full(v0.shape, 0.5), where=v0 != v1)
        cross = np.stack([xs[idx[0]], ys[idx[1]]], axis=1)
        coord, k = (xs, ys)[ax], idx[ax]
        cross[:, ax] = coord[k] + t * (coord[k + 1] - coord[k])
        parts.append(cross)
    pts = np.vstack(parts)
    if pts.shape[0] == 0:
        raise EmptyBoundary("level set has no zero crossing inside its box")

    pts, ok = _newton_project(ls, pts, 6)
    ok &= np.all(np.isfinite(pts), axis=1)
    dropped = int(np.sum(~ok))
    if dropped == pts.shape[0]:
        raise EmptyBoundary("every boundary sample lost its gradient")
    pts = pts[ok]

    # dedupe on an h_b/2 bucket grid, then order around the centroid
    pts = pts[_first_rows(np.round(pts / (h_b / 2.0)).astype(int))]
    c = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0])
    return pts[np.argsort(ang, kind="stable")], dropped


def _levelset_boundary_nd(ls: LevelSet, h_b: float):
    _lattice_budget(ls.lo, ls.hi, h_b)
    mesh = grid_points([np.arange(ls.lo[j], ls.hi[j] + 1e-12, h_b) for j in range(ls.dim)])
    pts, ok = _newton_project(ls, mesh, 8)
    # only a lost gradient counts as dropped; a sample that did not reach
    # the zero set inside the widened box is skipped silently
    dropped = int(np.sum(~ok))
    pts = pts[ok]
    keep = np.abs(ls.value(pts)) < 1e-9
    for j in range(ls.dim):
        keep &= (pts[:, j] >= ls.lo[j] - h_b) & (pts[:, j] <= ls.hi[j] + h_b)
    if not keep.any():
        raise EmptyBoundary("no projected lattice point reached the zero set")
    pts = pts[keep]
    return pts[_first_rows(np.round(pts / (h_b / 2.0)).astype(int))], dropped


def _levelset_boundary(ls: LevelSet, h_b: float):
    """(zero-set samples, samples dropped): one closed chain in 2D,
    unordered points in higher dimensions."""
    if ls.dim == 2:
        return _levelset_boundary_2d(ls, h_b)
    return _levelset_boundary_nd(ls, h_b)


def _split_runs(keep, closed):
    """Kept index runs of a chain. Unordered points (closed=None) have no
    neighbours to split between: their kept indices, in order, are one
    run. A fully kept closed chain stays closed; a partially kept one is
    rotated to start at a drop and split into maximal open runs."""
    keep = np.asarray(keep, bool)
    idx = np.arange(keep.size)
    if not keep.any():
        return []
    if closed is None:
        return [(idx[keep], None)]
    if keep.all():
        return [(idx, closed)]
    if closed:
        idx = np.roll(idx, -int(np.argmin(keep)))
        keep = keep[idx]
    edges = np.diff(np.concatenate(([0], keep.astype(np.int8), [0])))
    return [(idx[a:b], False) for a, b in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))]


# ---------------------------------------------------------------------------
# boundary classification


@dataclass
class BoundaryFront:
    """Classified boundary samples.

    tags holds one of outflow/tangential/inflow per point; the lifted
    front (what reach evolves) is outflow plus tangential, while outflow
    alone inner-approximates the strict-outward set. chains lists
    (start, stop, closed) index ranges; closed is True for a cyclic run,
    False for an ordered open run, None for unordered samples.
    """

    points: np.ndarray
    dots: np.ndarray
    tags: np.ndarray
    dropped: int = 0
    chains: list = field(default_factory=list)

    @property
    def front_mask(self):
        return self.tags != INFLOW

    @property
    def front_points(self):
        return self.points[self.front_mask]

    def front_chains(self):
        """Point runs of the lifted front: an ordered chain splits where
        inflow samples interrupt it (_split_runs)."""
        return [
            (self.points[start:stop][idxs], rclosed)
            for start, stop, closed in self.chains
            for idxs, rclosed in _split_runs(self.front_mask[start:stop], closed)
        ]

    def all_chains(self):
        return [
            (self.points[start:stop].copy(), closed)
            for start, stop, closed in self.chains
            if stop > start
        ]


def classify_boundary(init, dyn, h_b: float, boundary=None) -> BoundaryFront:
    """Sample the boundary of ``init`` and tag each sample by the sign of
    the outward derivative: normal . f above +tol is outflow, below -tol
    inflow, in between tangential (kept in the front). tol scales as
    1e-9 (1 + |f|) per sample. A level set's samples may be passed in as
    ``boundary``, the (points, dropped) pair of _levelset_boundary."""
    chains = []
    dropped = 0
    if isinstance(init, LevelSet):
        pts, dropped = boundary or _levelset_boundary(init, h_b)
        closed = True if init.dim == 2 else None
        normals = init.gradient(pts)
        finite = np.all(np.isfinite(normals), axis=1) & (
            np.linalg.norm(normals, axis=1) > 1e-12
        )
        if not finite.all():
            dropped += int(np.sum(~finite))
            pts, normals = pts[finite], normals[finite]
            closed = None if closed is None else False
        if pts.shape[0] == 0:
            raise EmptyBoundary("no classifiable boundary sample survived")
        chains = [(0, pts.shape[0], closed)]
    elif isinstance(init, Polyhedron):
        if is_empty(init):
            raise EmptyBoundary("polyhedron is empty")
        parts, norm_parts = [], []
        for _, face in _polyhedron_faces(init):
            lat = _facet_interior_lattice(face, h_b)
            if lat.shape[0] == 0:
                continue
            start = sum(p.shape[0] for p in parts)
            parts.append(lat)
            norm_parts.append(np.tile(face.base_normal, (lat.shape[0], 1)))
            chains.append((start, start + lat.shape[0], False if init.dim == 2 else None))
        if not parts:
            raise EmptyBoundary("no facet produced samples; spacing too coarse?")
        pts = np.vstack(parts)
        normals = np.vstack(norm_parts)
    else:
        raise TypeError(f"unsupported initial set {type(init).__name__}")

    f = dyn.evaluate(pts)
    dots = np.einsum("ij,ij->i", normals, f)
    tol = 1e-9 * (1.0 + np.linalg.norm(f, axis=1))
    tags = np.where(dots > tol, OUTFLOW, np.where(dots < -tol, INFLOW, TANGENTIAL))
    return BoundaryFront(pts, dots, tags, dropped, chains)


# ---------------------------------------------------------------------------
# grid regions


class GridRegion:
    """Occupancy grid over a fixed box with uniform cell size h.

    A set becomes cells in one of two ways, each returning a mask:
    cells_touching (over: every closed cell that meets the set) and
    cells_inside (under: cells certified inside it), for a Polyhedron or
    a LevelSet. Coordinate boxes are marked by mark_boxes. Sampled points
    become cell numbers by the one rule of _cells, which mark_points,
    contains_points and interior_contains_points read; points outside
    the box are never marked, only counted in out_of_box.
    """

    def __init__(self, lo, hi, h: float):
        self.lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        if self.lo.shape != hi.shape or np.any(hi <= self.lo):
            raise DimMismatch("grid box must have lo < hi componentwise")
        if h <= 0.0:
            raise ValueError("cell size must be positive")
        self.h = float(h)
        # Python floats overflow to inf without a warning, and an infinite
        # span is over the budget
        spans = [(b - a) / self.h - 1e-12 for a, b in zip(self.lo.tolist(), hi.tolist())]
        counts = [s if s == math.inf else max(1, math.ceil(s)) for s in spans]
        _within_budget(math.prod(map(float, counts)), MAX_GRID_CELLS, "grid cells")
        self.shape = tuple(counts)
        self.hi = self.lo + np.array(self.shape) * self.h
        # C-order cell numbers: cell i is number i @ _strides
        self._strides = np.cumprod((1, *self.shape[:0:-1]))[::-1].astype(np.intp)
        self.occupancy = np.zeros(self.shape, dtype=bool)
        self.out_of_box = 0

    @property
    def dim(self):
        return self.lo.size

    def compatible(self, other) -> bool:
        return (
            isinstance(other, GridRegion)
            and self.shape == other.shape
            and np.array_equal(self.lo, other.lo)
            and abs(self.h - other.h) < 1e-15
        )

    def _like(self, occupancy, out_of_box=0):
        """A region holding occupancy on this region's layout: lo, h,
        shape and strides are carried over, never recomputed from hi."""
        g = copy.copy(self)
        g.occupancy, g.out_of_box = occupancy, out_of_box
        return g

    def blank(self):
        return self._like(np.zeros(self.shape, dtype=bool))

    def copy(self):
        return self._like(self.occupancy.copy(), self.out_of_box)

    def _cells(self, pts):
        """One C-order cell number per point of the (m, d) array pts, -1
        outside the box. A point p lies in cell floor((p - lo)/h); within
        1e-9 cells of the box it is clamped into the edge cell, and further
        out (or not finite) it is outside. The cell number is summed one
        axis at a time, in place, from the same (p_j - lo_j)/h per point."""
        pts = np.asarray(pts, float)
        if pts.size == 0:
            return np.zeros(0, np.intp)
        pts = np.atleast_2d(pts)
        inbox = np.ones(pts.shape[0], bool)
        cells = np.zeros(pts.shape[0], np.intp)
        t = np.empty(pts.shape[0])
        with np.errstate(invalid="ignore"):  # casts of non-finite points are discarded
            for j, (n, stride) in enumerate(zip(self.shape, self._strides)):
                np.subtract(pts[:, j], self.lo[j], out=t)
                t /= self.h
                inbox &= t > -1e-9
                inbox &= t < n + 1e-9
                idx = np.clip(t, 0.0, n - 1.0, out=t).astype(np.intp)
                idx *= stride
                cells += idx
        cells[~inbox] = -1
        return cells

    def _mark_cells(self, cells):
        """Mark the cells numbered by _cells; -1 counts in out_of_box."""
        inbox = cells >= 0
        self.out_of_box += int(cells.size - np.count_nonzero(inbox))
        np.put(self.occupancy, cells[inbox], True)

    def _marked(self, cells, occupancy=None):
        """Whether each cell numbered by _cells is marked (False for -1)."""
        occupancy = self.occupancy if occupancy is None else occupancy
        return np.take(occupancy, cells) & (cells >= 0)

    def mark_points(self, pts):
        self._mark_cells(self._cells(pts))

    def include(self, other):
        if not self.compatible(other):
            raise DimMismatch("grid layouts differ")
        self.occupancy |= other.occupancy
        self.out_of_box += other.out_of_box

    def _ranges(self, lo, hi, pad=0):
        """Per-axis cell index ranges [i0, i1) of the closed cells that
        meet the coordinate box [lo, hi] up to 1e-9 cells, widened by pad
        cells and clipped to the grid. lo and hi may hold one box per row."""
        i0 = np.floor((np.asarray(lo) - self.lo) / self.h - 1e-9).astype(int) - pad
        i1 = np.ceil((np.asarray(hi) - self.lo) / self.h + 1e-9).astype(int) + pad
        return np.maximum(i0, 0), np.minimum(i1, np.array(self.shape))

    def _mask(self, idx, hit):
        """Grid mask holding hit over the window idx, the full C-order box
        of index rows that _poly_window or _levelset_values lists (none:
        an empty mask). The box runs from idx's first row to its last, so
        hit fills it by one slice assignment."""
        mask = np.zeros(self.shape, dtype=bool)
        if idx.shape[0]:
            i0, i1 = idx[0], idx[-1] + 1
            mask[tuple(map(slice, i0, i1))] = hit.reshape(i1 - i0)
        return mask

    def _levelset_values(self, ls: LevelSet):
        """Cells of ls's box padded by one cell, and l sampled at each of
        their corners and centres, shape (2^d + 1, cells). l is evaluated
        once on the window's corner lattice; each cell's corners are
        slices of it."""
        i0, i1 = self._ranges(ls.lo, ls.hi, pad=1)
        i1 = np.maximum(i1, i0)
        n = i1 - i0
        idx = grid_points([np.arange(a, b) for a, b in zip(i0, i1)])
        lattice = [self.lo[j] + np.arange(i0[j], i1[j] + 1) * self.h for j in range(self.dim)]
        at = ls.value(grid_points(lattice)).reshape(n + 1)
        corners = [
            at[tuple(slice(c, c + m) for c, m in zip(corner, n))].ravel()
            for corner in np.ndindex(*(2,) * self.dim)
        ]
        return idx, np.array([*corners, ls.value(self.cell_centers(idx))])

    def _spans(self, P: Polyhedron, idx):
        """Each row's value a.c - b at the centres c of the cells idx, (m,
        rows), and its half range (h/2)|a|_1 over a cell. The rows are the
        inequalities, the equalities a.x = b, then their negations."""
        A_ub, b_ub, A_eq, b_eq = P.matrices()
        A = np.vstack([A_ub, A_eq, -A_eq]).reshape(-1, self.dim)
        b = np.concatenate([b_ub, b_eq, -b_eq])
        return self.cell_centers(idx) @ A.T - b, 0.5 * self.h * np.abs(A).sum(axis=1)

    def _cell_box_rows(self, idx):
        lo = self.lo + idx * self.h
        return Polyhedron.box(lo, lo + self.h).ineqs

    def _poly_window(self, P: Polyhedron):
        """Index rows of the cells in _ranges of the part of P inside the
        grid box, (0, d) if none. Clipping first keeps unbounded polyhedra
        (strips, halfplanes) legal."""
        clipped = Polyhedron(P.ineqs + Polyhedron.box(self.lo, self.hi).ineqs, P.eqs)
        try:
            lo, hi = clipped.bounding_box()
        except EmptyPolyhedron:
            return np.zeros((0, self.dim), int)
        i0, i1 = self._ranges(lo, hi)
        return grid_points([np.arange(a, b) for a, b in zip(i0, i1)])

    def cells_touching(self, S):
        """Over-rasterization: mask of the closed cells that meet the set S.

        A LevelSet marks a cell of its padded box when l <= 0 at any of
        its corners or its centre. For a Polyhedron, shared edges and
        corners count, up to _CONTACT_TOL. A row of _spans separates the
        cell if its minimum over the cell exceeds 0. The window
        overlaps the polyhedron's coordinate extents, so up to 2D no
        separating row means contact (separating-axis theorem). Above 2D
        that holds when at most one row straddles the cell, an equality's
        two rows counted once (a plane that is the only straddler meets
        the cell exactly when its box terms say so); cells that straddle
        two or more get an exact LP probe."""
        if isinstance(S, LevelSet):
            idx, vals = self._levelset_values(S)
            return self._mask(idx, np.any(vals <= 0.0, axis=0))
        idx = self._poly_window(S)
        slack, reach = self._spans(S, idx)
        tol = 2.0 * _CONTACT_TOL * reach
        meets = np.all(slack <= reach + tol, axis=1)
        if self.dim > 2:
            cut = slack > tol - reach
            k, e = len(S.ineqs), len(S.eqs)
            cut[:, k : k + e] |= cut[:, k + e :]  # an equality's two rows count once
            straddled = cut[:, : k + e].sum(axis=1)
            for i in np.nonzero(meets & (straddled > 1))[0]:
                probe = Polyhedron(S.ineqs + self._cell_box_rows(idx[i]), S.eqs)
                meets[i] = not is_empty(probe)
        return self._mask(idx, meets)

    def cells_inside(self, S):
        """Under-rasterization: mask of the cells certified inside the set
        S. A Polyhedron needs each row of _spans at most 1e-9 all over the
        cell (all corners inside up to 1e-9); a LevelSet needs l < 0 at
        every corner and at the centre."""
        if isinstance(S, LevelSet):
            idx, vals = self._levelset_values(S)
            return self._mask(idx, np.all(vals < 0.0, axis=0))
        idx = self._poly_window(S)
        slack, reach = self._spans(S, idx)
        return self._mask(idx, np.all(slack + reach <= 1e-9, axis=1))

    def contains_points(self, pts):
        return self._marked(self._cells(pts))

    def count(self) -> int:
        return int(np.count_nonzero(self.occupancy))

    def cell_indices(self, mask=None):
        """Index rows (k, d) of the cells set in mask (the marked cells when
        mask is None), in C order: np.argwhere(mask) from one flat scan."""
        mask = self.occupancy if mask is None else mask
        return np.stack(np.unravel_index(np.flatnonzero(mask), self.shape), axis=1)

    def cell_centers(self, idx=None):
        """Centres lo + (idx + 0.5) h of the cells with index rows idx,
        the marked cells (in C order) when idx is None."""
        if idx is None:
            idx = self.cell_indices()
        out = np.empty(np.shape(idx))
        for j in range(self.dim):
            out[..., j] = self.lo[j] + (idx[..., j] + 0.5) * self.h
        return out

    def subset_of(self, other) -> bool:
        if not self.compatible(other):
            raise DimMismatch("grid layouts differ")
        return bool(np.all(~self.occupancy | other.occupancy))

    def symmetric_difference_count(self, other) -> int:
        if not self.compatible(other):
            raise DimMismatch("grid layouts differ")
        return int(np.count_nonzero(self.occupancy ^ other.occupancy))

    def _interior_mask(self):
        """Marked cells all of whose face neighbors are marked too."""
        occ = self.occupancy
        interior = np.ones(self.shape, bool)
        for ax in range(self.dim):
            below = np.zeros(self.shape, bool)
            above = np.zeros(self.shape, bool)
            sl_lo = [slice(None)] * self.dim
            sl_hi = [slice(None)] * self.dim
            sl_lo[ax] = slice(1, None)
            sl_hi[ax] = slice(None, -1)
            below[tuple(sl_lo)] = occ[tuple(sl_hi)]
            above[tuple(sl_hi)] = occ[tuple(sl_lo)]
            interior &= below & above
        return occ & interior

    def boundary_cell_centers(self):
        """Centers of marked cells with an unmarked (or out-of-grid)
        face neighbor."""
        return self.cell_centers(self.cell_indices(self.occupancy & ~self._interior_mask()))

    def interior_contains_points(self, pts):
        """Membership restricted to the eroded (non-boundary) cells."""
        return self._marked(self._cells(pts), self._interior_mask())

    def mark_boxes(self, lo, hi):
        """Mark every cell whose closed box meets one of the coordinate
        boxes [lo[k], hi[k]] (see _ranges). Each box adds -+1 at the 2^d
        corners of its index range in a difference array; the running sums
        along every axis then count the boxes covering each cell."""
        i0, i1 = self._ranges(lo, hi)
        keep = np.all(i1 > i0, axis=1)
        i0, i1 = i0[keep], i1[keep]
        diff = np.zeros(np.array(self.shape) + 1, int)
        for corner in np.ndindex(*(2,) * self.dim):
            at = np.where(np.array(corner, bool), i1, i0)
            np.add.at(diff, tuple(at.T), (-1) ** sum(corner))
        for ax in range(self.dim):
            diff = np.cumsum(diff, axis=ax)
        self.occupancy |= diff[tuple(slice(n) for n in self.shape)] > 0

    def hausdorff(self, other) -> float:
        """Symmetric grid Hausdorff gap: largest Chebyshev cell distance
        from a marked cell to the other region, in length units. Returns
        inf beyond _HAUSDORFF_CAP_CELLS and when exactly one side is empty."""
        if not self.compatible(other):
            raise DimMismatch("grid layouts differ")
        a, b = self.occupancy, other.occupancy
        if not a.any() and not b.any():
            return 0.0
        if not a.any() or not b.any():
            return math.inf

        def directed(A, B):
            # after round r, B holds every cell within Chebyshev distance r
            B = B.copy()
            for r in range(_HAUSDORFF_CAP_CELLS + 1):
                if not np.any(A & ~B):
                    return r * self.h
                for ax in range(self.dim):
                    v = np.moveaxis(B, ax, 0)
                    v[1:] |= v[:-1]
                    v[:-1] |= v[1:]
            return math.inf

        return max(directed(a, b), directed(b, a))


# ---------------------------------------------------------------------------
# time steps and tubes


def _uniform_intervals(tau: float, dt: float | None = None):
    """Consecutive (t0, t1) steps of length dt over [0, tau], eight equal
    steps when dt is None; the last step is clamped at tau."""
    if tau < 0 or (dt is not None and dt <= 0):
        raise ValueError("need tau >= 0 and dt > 0")
    if dt is None:
        if tau == 0:
            return []
        dt = tau / 8.0
    dt = float(dt)
    _within_budget(tau / dt, MAX_TIME_STEPS, "time steps")
    n = int(math.floor(tau / dt + 1e-9))
    times = np.arange(n + 1) * dt
    if times[-1] < tau - 1e-12:
        times = np.append(times, tau)
    out = []
    for t0, t1 in zip(times[:-1], times[1:]):
        if t0 >= tau - 1e-12:
            break
        out.append((float(t0), float(min(t1, tau))))
    return out


@dataclass
class ReachTube:
    """Reach-set accumulation: one payload per time interval plus the
    cumulative grids. Payloads are GridRegions on the front path and
    tuples of Polyhedra on the linear-polyhedral path."""

    segments: list
    direction: str
    initial: object
    initial_region: GridRegion | None = None
    occupancy: GridRegion | None = None
    under_occupancy: GridRegion | None = None
    under_initial_region: GridRegion | None = None
    front_collapse: bool = False
    iteration_cap: bool = False
    delta_shrunk: bool = False

    @property
    def iterations(self) -> int:
        return len(self.segments)

    def region(self) -> GridRegion:
        reg = self.occupancy if self.direction == "over" else self.under_occupancy
        if reg is None:
            raise ValueError("this tube stores polyhedra, not a grid region")
        return reg

    def initial_grid(self):
        """The initial set rasterized in the tube's flavour: over for an
        over tube, under otherwise; None on the polyhedral path."""
        if self.direction == "over":
            return self.initial_region
        return self.under_initial_region

    def combined_region(self) -> GridRegion:
        """Cumulative cells including the rasterized initial set."""
        reg = self.region().copy()
        init = self.initial_grid()
        if init is not None:
            reg.include(init)
        return reg

    def contains(self, pts):
        pts = np.atleast_2d(np.asarray(pts, float))
        if self.occupancy is not None or self.under_occupancy is not None:
            hit = self.region().contains_points(pts)
            init = self.initial_grid()
            if init is not None:
                hit |= init.contains_points(pts)
            return hit
        hit = (
            self.initial.contains(pts, tol=1e-9)
            if isinstance(self.initial, Polyhedron)
            else np.zeros(pts.shape[0], bool)
        )
        for _, _, payload in self.segments:
            for P in payload:
                hit |= P.contains(pts, tol=1e-9)
        return hit


# ---------------------------------------------------------------------------
# front advection helpers


def _max_speed(dyn, pts):
    if pts.shape[0] == 0:
        return 0.0
    f = dyn.evaluate(pts)
    speed = float(np.sqrt(np.max(_sum_sq(f))))  # sqrt is monotone: the largest norm
    if not math.isfinite(speed):
        raise NonFiniteState("the vector field is not finite at a sample point")
    return speed


def _substeps(speed, delta, h):
    """Substeps over [0, delta] that move a sample of start speed ``speed``
    by at most h/2 each; at most MAX_TIME_STEPS of them."""
    count = abs(delta) * speed / (0.5 * h)
    _within_budget(count, MAX_TIME_STEPS, "substeps")
    return max(1, int(math.ceil(count)))


def _advect(dyn, pts, delta, h):
    """Substepped flow over [0, delta]: (m, nsub+1, dim) trajectories, with
    nsub from _substeps at the fastest start speed of pts. Raises
    StepTooCoarse when one substep moves a sample further than 2h (the
    field sped up along the way); a constant field moves every sample by
    the same h/2 at most, so its substeps are not checked."""
    nsub = _substeps(_max_speed(dyn, pts), delta, h)
    try:
        traj = trajectory(dyn, pts, delta, nsub)
    except NonFiniteState as exc:
        # a too-coarse substep before the blow-up is the error to report
        _check_substeps(exc.partial, h)
        raise
    if dyn.constant is None:
        _check_substeps(traj, h)
    return traj


def _check_substeps(traj, h):
    move = np.sqrt(_sum_sq(np.diff(traj, axis=1)))  # (m, nsub)
    coarse = np.any(move > 2.0 * h, axis=0)
    if coarse.any():
        s = int(np.argmax(coarse))
        raise StepTooCoarse(
            f"a front sample moved {float(np.max(move[:, s])):.3g} in one substep "
            f"(limit {2.0 * h:.3g}): the field sped up within one step; "
            "lower --dt"
        )


def _resample_chain(dyn, pre, pts, closed, h_b, delta, h):
    """Insert flowed pre-image midpoints wherever advected neighbors drift
    more than 2 h_b apart, keeping the front h_b-dense; at most
    _RESAMPLE_ROUNDS rounds."""
    for _ in range(_RESAMPLE_ROUNDS):
        if pts.shape[0] < 2:
            return pts
        cur = pts if closed else pts[:-1]
        nxt = np.roll(pts, -1, axis=0) if closed else pts[1:]
        gaps = np.sqrt(_sum_sq(nxt - cur))
        wide = np.nonzero(gaps > 2.0 * h_b)[0]
        if wide.size == 0:
            return pts
        mids = 0.5 * (pre[wide] + pre[(wide + 1) % pre.shape[0]])
        pts = np.insert(pts, wide + 1, _advect(dyn, mids, delta, h)[:, -1], axis=0)
        pre = np.insert(pre, wide + 1, mids, axis=0)
    return pts


def _inside_init_strict(init, pts):
    """Strict interior of the initial set, used when pruning advected
    front points: boundary-sliding samples must stay alive."""
    if isinstance(init, Polyhedron):
        return init.contains(pts, tol=-1e-9)
    if isinstance(init, GridRegion):
        return init.interior_contains_points(pts)
    return init.value(pts) < -1e-9


def _init_box(init):
    """Coordinate box of an initial set: a level set's or a cell set's own
    box, a polyhedron's bounding box (which raises when it is empty or
    unbounded)."""
    if isinstance(init, Polyhedron):
        return init.bounding_box()
    return init.lo, init.hi


def _default_box(init, dyn, horizon, h):
    lo, hi = _init_box(init)
    pad = 3.0 * h
    for _ in range(2):
        axes = [np.linspace(lo[j] - pad, hi[j] + pad, 9) for j in range(lo.size)]
        pad = horizon * _max_speed(dyn, grid_points(axes)) + 3.0 * h
    return lo - pad, hi + pad


def _initial_region(init, template: GridRegion, raster) -> GridRegion:
    """The initial set on a blank copy of template, rasterized by raster
    (GridRegion.cells_touching or GridRegion.cells_inside). A cell set
    marks its own cell centres, which is exact for both flavours."""
    region = template.blank()
    if isinstance(init, GridRegion):
        region.mark_points(init.cell_centers())
    else:
        region.occupancy |= raster(region, init)
    return region


def _interior_lattice(init, spacing):
    mesh = _centred_lattice(*_init_box(init), spacing)
    if isinstance(init, LevelSet):
        return mesh[init.value(mesh) < 0.0]
    return mesh[init.contains(mesh, tol=0.0)]


def _front_sweep(chains, init, dyn, intervals, cum, h_b, invariant=None):
    """Advect the front over each interval until it empties, adding each
    step's swept cells to cum. Yields (t0, t1, swept, kept, next_chains)
    per step: kept holds the cells swept by the samples whose own
    trajectory stays in the invariant (up to 1e-9) at every substep of
    the step (all of them without an invariant), swept adds to kept the
    other samples' cells that touch the invariant. A sample lives on
    when it is kept and its end lies neither in cum, as it stood before
    the step, nor strictly inside init. Each chain is advected on its
    own (_advect), so it keeps the substep count of its own start speed;
    the step's samples are then rasterized, marked and tested as one
    flat front. Each chain keeps its live samples
    (_split_runs): an ordered chain splits at the dead ones and its runs
    are resampled, an unordered chain stays one chain."""
    h = cum.h
    touch = None if invariant is None else cum.cells_touching(invariant)
    for t0, t1 in intervals:
        if not chains:
            return
        delta = t1 - t0
        trajs = [_advect(dyn, pts, delta, h) for pts, _ in chains]
        # every substep of every sample, chain by chain; sample i's rows
        # run from ends[i] - rows[i] + 1 to ends[i]
        flat = np.concatenate([traj.reshape(-1, traj.shape[2]) for traj in trajs])
        rows = np.repeat([traj.shape[1] for traj in trajs], [traj.shape[0] for traj in trajs])
        ends = np.cumsum(rows) - 1
        if invariant is None:
            keep = np.ones(ends.size, bool)
        else:
            keep = np.logical_and.reduceat(invariant.contains(flat, tol=1e-9), ends - rows + 1)
        cells = cum._cells(flat)
        kept_rows = np.repeat(keep, rows)
        kept, lost = cum.blank(), cum.blank()
        kept._mark_cells(cells[kept_rows])
        lost._mark_cells(cells[~kept_rows])
        alive = keep & ~(cum._marked(cells[ends]) | _inside_init_strict(init, flat[ends]))
        nxt = []
        at = 0
        for (pts, closed), traj in zip(chains, trajs):
            n = pts.shape[0]
            for idxs, rclosed in _split_runs(alive[at : at + n], closed):
                run = traj[idxs, -1]
                if rclosed is not None:
                    run = _resample_chain(dyn, pts[idxs], run, rclosed, h_b, delta, h)
                nxt.append((run, rclosed))
            at += n
        swept = kept
        if invariant is not None:
            swept = cum._like(
                kept.occupancy | (lost.occupancy & touch), kept.out_of_box + lost.out_of_box
            )
        cum.include(swept)
        chains = nxt
        yield t0, t1, swept, kept, chains


def _sweep_tube(init, dyn, chains, intervals, cum, h_b, invariant=None, under=False):
    """Tube of one front sweep: its segments hold each step's swept cells,
    which accumulate in cum (the tube's occupancy). under=True keeps
    instead the kept cells certified inside the invariant, accumulated in
    under_occupancy."""
    tube = ReachTube(
        segments=[],
        direction="under" if under else "over",
        initial=init,
        initial_region=_initial_region(init, cum, GridRegion.cells_touching),
        occupancy=cum,
    )
    if under:
        tube.under_occupancy = cum.blank()
        tube.under_initial_region = _initial_region(init, cum, GridRegion.cells_inside)
        cert = cum.cells_inside(invariant)
    sweep = _front_sweep(chains, init, dyn, intervals, cum, h_b, invariant)
    for t0, t1, swept, kept, chains in sweep:
        if under:
            swept = cum._like(kept.occupancy & cert)
            tube.under_occupancy.include(swept)
        tube.segments.append((t0, t1, swept))
    tube.front_collapse = not chains
    return tube


def _flow_samples(pts, dyn, intervals, h):
    """Flow a sample set over consecutive intervals, nothing pruned:
    yields each interval's swept points, flattened."""
    for t0, t1 in intervals:
        traj = _advect(dyn, pts, t1 - t0, h)
        yield traj.reshape(-1, pts.shape[1])
        pts = traj[:, -1]


# ---------------------------------------------------------------------------
# bounded-time reach


def _linear_poly_reach(init, dyn, intervals, bounds):
    """Per-face tube polyhedra for linear dynamics: every outflow face of
    the initial polyhedron contributes one enclosure per time interval,
    transported to the interval start by the exact flow map. An unbounded
    initial polyhedron raises Unbounded2D, as on the front path."""
    A = dyn.matrix
    init.bounding_box()
    outflow = []
    for i, face in _polyhedron_faces(init):
        c = A.T @ face.base_normal
        fmin, fmax = _face_minima(face, [c, -c]) * [1.0, -1.0]
        if fmin > 1e-9:
            outflow.append(face)
        elif fmax >= -1e-9:
            raise AssumptionA2Violated(
                fmin, f"face {i} is neither strictly outflow nor strictly inflow"
            )

    step_cache: dict[float, list] = {}
    segments = []
    shrunk = False
    for t0, t1 in intervals:
        dkey = round(t1 - t0, 12)
        if dkey not in step_cache:
            results = [overapproximate_step(f, A, t1 - t0, mode=bounds) for f in outflow]
            shrunk |= any(r.delta_shrunk for r in results)
            step_cache[dkey] = [P for r in results for P in r.polyhedra]
        polys = step_cache[dkey]
        if t0 != 0.0:
            back = expm(-np.asarray(A, float).T, t0)
            polys = [_moved_polyhedron(P, back) for P in polys]
        segments.append((t0, t1, tuple(polys)))
    return ReachTube(segments=segments, direction="over", initial=init, delta_shrunk=shrunk)


def reach_bounded_time(
    init,
    dyn,
    tau: float,
    dt: float | None = None,
    h: float = 0.05,
    under: bool = False,
    h_b: float | None = None,
    box=None,
    bounds: str = "conservative",
) -> ReachTube:
    """Reach set over [0, tau] grown from the outward boundary front, in
    steps of length dt (tau/8 when omitted), the last one clamped at tau.

    Linear dynamics with a polyhedral start (over flavor) get per-face
    tube polyhedra; everything else advects the classified boundary
    samples and rasterizes the swept segments on a cell-h grid over
    ``box`` (auto-sized when omitted). under=True additionally flows an
    interior sample lattice and keeps, per interval, only cells holding
    a sample that the over sweep also reached (direction tag:
    exact-sampled).
    """
    intervals = _uniform_intervals(tau, dt)
    if isinstance(dyn, LinearDynamics) and isinstance(init, Polyhedron) and not under:
        return _linear_poly_reach(init, dyn, intervals, bounds)

    h_b = h_b if h_b is not None else h / 2.0
    if box is None:
        box = _default_box(init, dyn, tau, h)
    lo, hi = box
    cum = GridRegion(lo, hi, h)
    chains = classify_boundary(init, dyn, h_b).front_chains()
    tube = _sweep_tube(init, dyn, chains, intervals, cum, h_b)
    if not under:
        return tube

    # under flavor: exact interior samples gated by the over sweep
    tube.direction = "exact-sampled"
    under_cum = cum.blank()
    tube.under_initial_region = _initial_region(init, cum, GridRegion.cells_inside)
    flows = _flow_samples(
        _interior_lattice(init, h), dyn, [(t0, t1) for t0, t1, _ in tube.segments], h
    )
    prefix = tube.initial_region.copy()
    under_segments = []
    for (t0, t1, seg), flat in zip(tube.segments, flows):
        prefix.include(seg)
        cells = prefix._cells(flat)
        useg = under_cum.blank()
        useg._mark_cells(cells[prefix._marked(cells)])
        under_cum.include(useg)
        under_segments.append((t0, t1, useg))
    tube.segments = under_segments
    tube.under_occupancy = under_cum
    return tube


# ---------------------------------------------------------------------------
# invariant-constrained reach


def _check_inside_invariant(init, invariant, h_b, boundary):
    if isinstance(init, GridRegion):
        # cell raster: centers may legally overhang by the half diagonal
        centers = init.cell_centers()
        tol = init.h * math.sqrt(init.dim) + 1e-9
        if centers.shape[0] and not np.all(invariant.contains(centers, tol=tol)):
            raise PreconditionViolated(
                "initial region has cells outside the invariant"
            )
    elif isinstance(init, Polyhedron):
        rows = list(invariant.ineqs)
        for e in invariant.eqs:
            rows.append(e)
            rows.append(Halfspace(-e.normal, -e.offset))
        for row in rows:
            res = init.maximize(row.normal)
            if res.status == "infeasible":
                raise PreconditionViolated("initial polyhedron is empty")
            if res.status != "optimal" or res.value > row.offset + 1e-8:
                raise PreconditionViolated(
                    "initial set is not contained in the invariant"
                )
    else:
        pts = np.vstack([boundary[0], _interior_lattice(init, h_b)])
        if not np.all(invariant.contains(pts, tol=1e-8)):
            raise PreconditionViolated("initial set samples leave the invariant")


def _invariant_box(init, invariant, dyn, dt, h):
    lo_q, hi_q = invariant.bounding_box()
    lo0, hi0 = _init_box(init)
    lo = np.minimum(lo_q, lo0)
    hi = np.maximum(hi_q, hi0)
    mesh = grid_points([np.linspace(lo[j], hi[j], 9) for j in range(lo.size)])
    pad = dt * _max_speed(dyn, mesh) + 4.0 * h
    return lo - pad, hi + pad


def _step_intervals(dt, n):
    """(t0, t1) for n steps of length dt, the start time accumulated step
    by step."""
    t = 0.0
    for _ in range(n):
        yield t, t + dt
        t += dt


def reach_invariant(
    init,
    dyn,
    invariant: Polyhedron,
    dt: float | None = None,
    h: float = 0.05,
    under: bool = False,
    max_iters: int | None = None,
    tau_max: float | None = None,
    h_b: float | None = None,
    box=None,
) -> ReachTube:
    """Reach set of trajectories that never leave a polyhedral invariant,
    swept in repeated steps of length dt.

    A front sample is dropped in the step where its own trajectory
    leaves the invariant (by more than 1e-9 at any substep) and is not
    advected further. The over flavor keeps every cell swept by the kept
    samples plus the dropped samples' cells that touch the invariant;
    under=True keeps only the kept samples' cells certified inside it.
    The run stops when the front empties (front_collapse) or after
    max_iters steps (iteration_cap; ceil(tau_max/dt) + 1 by default, 20
    without tau_max). Raises PreconditionViolated when init is not
    inside the invariant."""
    if not isinstance(invariant, Polyhedron):
        raise TypeError("invariant must be a Polyhedron")
    if dt is None or dt <= 0:
        raise ValueError("invariant-constrained reach needs a positive step length")
    dt = float(dt)
    if max_iters is None:
        max_iters = 20 if tau_max is None else int(math.ceil(tau_max / dt)) + 1
    h_b = h_b if h_b is not None else h / 2.0
    # a level set's boundary samples serve both the check and the front
    boundary = _levelset_boundary(init, h_b) if isinstance(init, LevelSet) else None
    _check_inside_invariant(init, invariant, h_b, boundary)
    if box is None:
        box = _invariant_box(init, invariant, dyn, dt, h)
    lo, hi = box

    if isinstance(init, GridRegion):
        # restart from a cell set: its rim cells are the front, unordered
        bnd = init.boundary_cell_centers()
        chains = [(bnd, None)] if bnd.shape[0] else []
    else:
        chains = classify_boundary(init, dyn, h_b, boundary).front_chains()
    intervals = _step_intervals(dt, max_iters)
    cum = GridRegion(lo, hi, h)
    tube = _sweep_tube(init, dyn, chains, intervals, cum, h_b, invariant, under)
    tube.iteration_cap = not tube.front_collapse
    return tube


# ---------------------------------------------------------------------------
# boundary-equivalence report


def check_boundary_equivalence(init, dyn, tau: float, h: float = 0.05) -> dict:
    """Compare three sweeps of one horizon (eight equal steps) on one
    auto-sized grid: a dense sample of the whole initial set (the oracle),
    the whole boundary, and the lifted front only, sampled at h/2.
    Reports cell counts, pairwise symmetric differences and grid Hausdorff
    gaps; passes iff the largest gap is at most 2h."""
    if tau <= 0:
        raise ValueError("need a positive horizon")
    h_b = h / 2.0
    intervals = _uniform_intervals(tau)
    lo, hi = _default_box(init, dyn, tau, h)

    init_over = _initial_region(init, GridRegion(lo, hi, h), GridRegion.cells_touching)
    front = classify_boundary(init, dyn, h_b)

    # dense oracle: every initial sample advected, nothing pruned
    full = init_over.copy()
    pts = np.vstack([_interior_lattice(init, h_b), front.points])
    for flat in _flow_samples(pts, dyn, intervals, h):
        full.mark_points(flat)

    regions = {"full": full}
    for name, chains in (("boundary", front.all_chains()), ("outflow", front.front_chains())):
        tube = _sweep_tube(init, dyn, chains, intervals, init_over.blank(), h_b)
        regions[name] = tube.combined_region()
    pairs = [("full", "boundary"), ("full", "outflow"), ("boundary", "outflow")]
    sym = {
        f"{a}_vs_{b}": regions[a].symmetric_difference_count(regions[b]) for a, b in pairs
    }
    gaps = {f"{a}_vs_{b}": regions[a].hausdorff(regions[b]) for a, b in pairs}
    max_gap = max(gaps.values())
    return {
        "h": h,
        "h_b": h_b,
        "tau": tau,
        "cells": {name: regions[name].count() for name in regions},
        "sym_diff": sym,
        "hausdorff": gaps,
        "max_gap": max_gap,
        "passes": bool(max_gap <= 2.0 * h + 1e-12),
        "dropped_samples": front.dropped,
    }
