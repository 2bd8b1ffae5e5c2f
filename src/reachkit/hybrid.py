"""Hybrid automata on top of the continuous reach machinery.

A system is a finite set of locations, each with a polyhedral invariant
and its own dynamics, connected by guarded edges that apply an affine
reset. Region sets map locations to cell grids; the one-step successor
closes each location under invariant-constrained flow and pushes guard
cells through the edges. A semi-decision loop iterates that operator
until the target is hit or an iteration budget runs out; yes verdicts
come with a witness cell and can be replayed into a concrete sampled
trajectory. Everything is grid-resolution: verdicts mean "possibly
reachable" up to one cell of slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatch, ModelError, PreconditionViolated
from .facelift import MAX_TIME_STEPS, GridRegion, _within_budget, reach_invariant
from .flow import trajectory
from .geometry import Polyhedron, grid_points, is_empty

_REPLAY_MAX_STARTS = 400  # initial cell centers replay_witness simulates at most
_REPLAY_TOL = 1e-6  # classify_step tolerance when a found replay is validated

__all__ = [
    "Edge",
    "HybridSystem",
    "RegionSet",
    "PostParams",
    "Verdict",
    "ReplayResult",
    "post",
    "semi_decide_reach",
    "classify_step",
    "replay_witness",
]


# ---------------------------------------------------------------------------
# model types


@dataclass(frozen=True)
class Edge:
    """Guarded transition. The reset is x -> R x + c; both default to the
    identity so a plain jump only changes the location. controllable is
    parsed and saved with the model but never read."""

    source: str
    guard: Polyhedron
    event: str
    target: str
    reset_matrix: np.ndarray = None
    reset_offset: np.ndarray = None
    controllable: bool = False

    def __post_init__(self):
        n = self.guard.dim
        R = self.reset_matrix
        c = self.reset_offset
        R = np.eye(n) if R is None else np.asarray(R, float)
        c = np.zeros(n) if c is None else np.asarray(c, float)
        if R.shape != (n, n) or c.shape != (n,):
            raise DimMismatch("reset map does not match the guard dimension")
        object.__setattr__(self, "reset_matrix", R)
        object.__setattr__(self, "reset_offset", c)

    def apply(self, points):
        pts = np.asarray(points, float)
        return pts @ self.reset_matrix.T + self.reset_offset


def _lattice_samples(P: Polyhedron, per_dim: int = 6):
    """A few interior samples of a bounded polyhedron (possibly none)."""
    lo, hi = P.bounding_box()
    mesh = grid_points([np.linspace(lo[j], hi[j], per_dim) for j in range(lo.size)])
    pts = mesh[P.contains(mesh, tol=1e-9)]
    if pts.shape[0] == 0:
        pts = ((lo + hi) / 2.0)[None, :]
        pts = pts[P.contains(pts, tol=1e-6)]
    return pts


@dataclass
class HybridSystem:
    locations: tuple
    invariants: dict
    dynamics: dict
    edges: tuple
    init: tuple  # pairs (location, Polyhedron)

    def __post_init__(self):
        self.locations = tuple(self.locations)
        self.edges = tuple(self.edges)
        self.init = tuple(self.init)
        if not self.locations:
            raise ModelError("a hybrid system needs at least one location")
        for q in self.locations:
            if q not in self.invariants:
                raise ModelError(f"location {q!r} has no invariant")
            if q not in self.dynamics:
                raise ModelError(f"location {q!r} has no dynamics")
        dims = {self.invariants[q].dim for q in self.locations}
        dims |= {self.dynamics[q].dim for q in self.locations}
        if len(dims) != 1:
            raise ModelError("locations or their fields disagree on the continuous dimension")
        for e in self.edges:
            if e.source not in self.invariants or e.target not in self.invariants:
                raise ModelError(f"edge {e.event!r} references an unknown location")
            if e.guard.dim != self.dim:
                raise ModelError(f"edge {e.event!r} guard has the wrong dimension")
        for q, P in self.init:
            if q not in self.invariants:
                raise ModelError(f"initial region names unknown location {q!r}")
            if P.dim != self.dim:
                raise ModelError("initial polyhedron has the wrong dimension")

    @property
    def dim(self) -> int:
        return self.invariants[self.locations[0]].dim

    def edges_from(self, q):
        return [e for e in self.edges if e.source == q]

    def validate(self, h: float = 0.05):
        """Sample-check the model invariants: resets land inside the target
        invariant (within one cell), initial regions sit inside theirs."""
        for e in self.edges:
            G_from = self.invariants[e.source]
            lived = Polyhedron(e.guard.ineqs + G_from.ineqs, e.guard.eqs + G_from.eqs)
            if is_empty(lived):
                continue
            samples = _lattice_samples(lived)
            if samples.shape[0] == 0:
                continue
            images = e.apply(samples)
            if not np.all(self.invariants[e.target].contains(images, tol=h)):
                raise ModelError(
                    f"edge {e.event!r} resets guard samples outside the"
                    f" invariant of {e.target!r}"
                )
        for q, P in self.init:
            if is_empty(P):
                raise ModelError(f"initial polyhedron at {q!r} is empty")
            samples = _lattice_samples(P)
            if not np.all(self.invariants[q].contains(samples, tol=1e-7)):
                raise ModelError(
                    f"initial region at {q!r} leaves the location invariant"
                )


# ---------------------------------------------------------------------------
# region sets


def _location_grid(H: HybridSystem, q, h: float) -> GridRegion:
    # one cell of slack beyond the invariant box so rasters can overhang
    lo, hi = H.invariants[q].bounding_box()
    return GridRegion(lo - h, hi + h, h)


@dataclass
class RegionSet:
    """Per-location cell regions plus the successor-generation counter."""

    regions: dict
    generation: int = 0
    capped: set = field(default_factory=set)

    def __post_init__(self):
        steps = {round(r.h, 12) for r in self.regions.values()}
        if len(steps) > 1:
            raise DimMismatch("regions disagree on the cell size")

    @classmethod
    def empty(cls, H: HybridSystem, h: float):
        return cls({q: _location_grid(H, q, h) for q in H.locations})

    @classmethod
    def from_init(cls, H: HybridSystem, h: float):
        return cls.from_polyhedra(H, H.init, h)

    @classmethod
    def from_polyhedra(cls, H: HybridSystem, parts, h: float):
        """Build a region set marking (location, Polyhedron) pairs."""
        S = cls.empty(H, h)
        for q, P in parts:
            S.regions[q].occupancy |= S.regions[q].cells_touching(P)
        return S

    @property
    def h(self) -> float:
        return next(iter(self.regions.values())).h

    def copy(self):
        return RegionSet(
            {q: r.copy() for q, r in self.regions.items()},
            self.generation,
            set(self.capped),
        )

    def count(self) -> int:
        return sum(r.count() for r in self.regions.values())

    def include(self, other):
        for q, r in other.regions.items():
            self.regions[q].include(r)
        self.capped |= other.capped

    def intersection_witness(self, other):
        """First common cell, scanning locations in insertion order; None
        when the region sets are disjoint."""
        for q, mine in self.regions.items():
            theirs = other.regions.get(q)
            if theirs is None:
                continue
            if not mine.compatible(theirs):
                raise DimMismatch(f"region grids differ at location {q!r}")
            both = mine.occupancy & theirs.occupancy
            if both.any():
                return q, mine.cell_centers(np.argwhere(both)[0])
        return None


# ---------------------------------------------------------------------------
# the one-step successor


@dataclass(frozen=True)
class PostParams:
    """Continuous-evolution budget used inside the successor operator:
    the reach loop in each location runs ceil(tau/dt)+1 steps of length
    dt at most."""

    dt: float
    tau: float = 1.0


def _push_edge_images(region_mask, source: GridRegion, edge: Edge, target: GridRegion):
    """Mark the affine image of every masked cell into the target grid.
    A cell of centre c maps to a parallelotope whose coordinate bounding
    box is R c + r0 -+ (h/2)|R| 1; the boxes of all images are marked in
    one pass, which is exact for axis-aligned resets and conservative
    otherwise."""
    centres = edge.apply(source.cell_centers(np.argwhere(region_mask)))
    half = 0.5 * source.h * np.abs(edge.reset_matrix).sum(axis=1)
    target.mark_boxes(centres - half, centres + half)


def post(H: HybridSystem, S: RegionSet, params: PostParams) -> RegionSet:
    """One-step successor of a region set.

    Each location's region is closed under flow restricted to the
    invariant (bounded by params.tau); regions of reach that touch
    an outgoing guard are pushed through the edge reset into the target
    location. The input is always contained in the result. Locations
    whose continuous reach ran out of iterations are recorded in the
    result's capped set rather than raising.
    """
    out = S.copy()
    out.generation = S.generation + 1
    touch_inv = {}
    for q in H.locations:
        region = S.regions[q]
        if region.count() == 0:
            continue
        tube = reach_invariant(
            region,
            H.dynamics[q],
            H.invariants[q],
            dt=params.dt,
            h=region.h,
            box=(region.lo, region.hi),
            tau_max=float(params.tau),
        )
        R_q = tube.combined_region()
        if tube.iteration_cap:
            out.capped.add(q)
        out.regions[q].include(R_q)
        for e in H.edges_from(q):
            gmask = R_q.occupancy & R_q.cells_touching(e.guard)
            if not gmask.any():
                continue
            tgt = out.regions[e.target]
            added = tgt.blank()
            _push_edge_images(gmask, R_q, e, added)
            if e.target not in touch_inv:
                touch_inv[e.target] = tgt.cells_touching(H.invariants[e.target])
            # clip raster overhang so the image stays a legal region
            added.occupancy &= touch_inv[e.target]
            tgt.include(added)
    return out


# ---------------------------------------------------------------------------
# the semi-decision loop


@dataclass(frozen=True)
class Verdict:
    kind: str  # "yes" | "unknown"
    k: int
    witness: tuple = None  # (location, cell center) when kind == "yes"
    # the region set after k successor steps; not part of the summary
    reached: RegionSet = field(default=None, repr=False, compare=False)

    def summary(self) -> dict:
        wit_q, wit_x = (self.witness if self.witness else (None, None))
        return {
            "verdict": self.kind,
            "k": self.k,
            "witness_location": wit_q,
            "witness_cell": None if wit_x is None else [float(v) for v in wit_x],
        }


def semi_decide_reach(
    H: HybridSystem, s1: RegionSet, s2: RegionSet, max_k: int, params: PostParams
) -> Verdict:
    """Iterate the successor operator from s1 until it meets s2.

    Returns yes(k) with the first common cell as witness, or unknown
    after max_k iterations; either way the verdict carries the region set
    reached after its k steps. A yes only certifies possible reachability
    (the regions over-approximate); unknown is never a no.
    """
    if s1.count() == 0 or s2.count() == 0:
        raise PreconditionViolated("both region sets must be nonempty")
    S = s1.copy()
    wit = S.intersection_witness(s2)
    if wit is not None:
        return Verdict("yes", 0, wit, S)
    for k in range(1, max_k + 1):
        S = post(H, S, params)
        wit = S.intersection_witness(s2)
        if wit is not None:
            return Verdict("yes", k, wit, S)
    return Verdict("unknown", max_k, reached=S)


# ---------------------------------------------------------------------------
# step classification and witness replay


def classify_step(H: HybridSystem, c1, c2, t_or_edge, tol: float = 1e-6):
    """Name the step kind connecting two configurations, or "none".

    A number is checked as a time-step (integrate from c1 for that long,
    the path must stay in the invariant and end at c2); an Edge as an
    edge-step (guard membership plus exact reset image); an event label
    as a sigma-step over any edge carrying it.
    """
    q1, x1 = c1
    q2, x2 = c2
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)

    if isinstance(t_or_edge, Edge):
        return "edge-step" if _edge_step_ok(H, q1, x1, q2, x2, t_or_edge, tol) else "none"
    if isinstance(t_or_edge, str):
        for e in H.edges:
            if e.event == t_or_edge and _edge_step_ok(H, q1, x1, q2, x2, e, tol):
                return "sigma-step"
        return "none"

    t = float(t_or_edge)
    if t < 0.0 or q1 != q2 or q1 not in H.invariants:
        return "none"
    G, dyn = H.invariants[q1], H.dynamics[q1]
    scale = 1.0 + float(np.linalg.norm(x2))
    if t == 0.0:
        ok = np.allclose(x1, x2, atol=tol * scale) and bool(G.contains(x1, tol=tol))
        return "time-step" if ok else "none"
    path = trajectory(dyn, x1[None], t, 32)[0]
    if not np.all(G.contains(path, tol=tol)):
        return "none"
    if np.linalg.norm(path[-1] - x2) > tol * scale:
        return "none"
    return "time-step"


def _edge_step_ok(H, q1, x1, q2, x2, e: Edge, tol) -> bool:
    if e.source != q1 or e.target != q2:
        return False
    if not bool(e.guard.contains(x1, tol=tol)):
        return False
    return bool(np.linalg.norm(e.apply(x1) - x2) <= tol * (1.0 + np.linalg.norm(x2)))


@dataclass
class ReplayResult:
    success: bool
    trajectory: list  # configurations (q, x)
    steps: list  # ("time", t) or ("edge", Edge), one per consecutive pair
    distance: float  # closest approach to the witness center
    invalid_steps: int  # steps classify_step refused to certify

    def validate(self, H: HybridSystem, tol: float = 1e-6) -> int:
        """Re-run classify_step over the trajectory; returns the number of
        uncertified steps (and stores it)."""
        bad = 0
        for (c1, c2), (kind, arg) in zip(
            zip(self.trajectory, self.trajectory[1:]), self.steps
        ):
            got = classify_step(H, c1, c2, arg, tol=tol)
            want = "time-step" if kind == "time" else "edge-step"
            if got != want:
                bad += 1
        self.invalid_steps = bad
        return bad


def _greedy_replay(H, q, starts, witness, jumps, params, h, best):
    """Depth-first greedy search over a whole batch of starts: flow inside
    the location, jump at each start's first guard entry per edge. Returns
    (configs, steps) realized from some start, or None; best is a
    1-element list tracking the closest approach seen."""
    if starts.shape[0] == 0:
        return None
    q_w, x_w = witness
    G, dyn = H.invariants[q], H.dynamics[q]
    speed = float(np.max(np.linalg.norm(np.atleast_2d(dyn.evaluate(starts)), axis=1)))
    step = min(params.dt, h / (2.0 * speed)) if speed > 1e-12 else params.dt
    tau = float(params.tau)
    _within_budget(tau / step, MAX_TIME_STEPS, "replay steps")
    n = max(1, int(math.ceil(tau / step)))
    paths, times = trajectory(dyn, starts, tau, n), np.linspace(0.0, tau, n + 1)
    m, k1, dim = paths.shape
    inside = G.contains(paths.reshape(-1, dim), tol=1e-7).reshape(m, k1)
    alive = np.cumprod(inside, axis=1).astype(bool)  # prefix before leaving G

    if q == q_w:
        dist = np.where(alive, np.linalg.norm(paths - x_w, axis=2), math.inf)
        if alive.any():
            best[0] = min(best[0], float(dist.min()))
        ok = dist <= 2.0 * h
        if ok.any():
            i, j = np.unravel_index(int(np.argmax(ok)), ok.shape)
            if j == 0:
                return [(q, starts[i])], []
            return [(q, starts[i]), (q, paths[i, j])], [("time", float(times[j]))]
    if jumps <= 0:
        return None

    for e in H.edges_from(q):
        hits = e.guard.contains(paths.reshape(-1, dim), tol=1e-9).reshape(m, k1)
        hits &= alive
        has = hits.any(axis=1)
        if not has.any():
            continue
        entry = np.argmax(hits, axis=1)  # first guard sample per start
        sel = np.nonzero(has)[0]
        x_jump = paths[sel, entry[sel]]
        x_new = e.apply(x_jump)
        in_target = H.invariants[e.target].contains(x_new, tol=1e-7)
        sel = sel[in_target]
        if sel.size == 0:
            continue
        x_new = x_new[in_target]
        tail = _greedy_replay(H, e.target, x_new, witness, jumps - 1, params, h, best)
        if tail is None:
            continue
        configs, steps = tail
        # recover which start the tail continued from
        match = np.all(x_new == np.asarray(configs[0][1]), axis=1)
        local = int(np.argmax(match)) if match.any() else 0
        i = sel[local]
        j = int(entry[i])
        head_cfg = [(q, starts[i])]
        head_steps = []
        if times[j] > 0.0:
            head_cfg.append((q, paths[i, j]))
            head_steps.append(("time", float(times[j])))
        head_steps.append(("edge", e))
        return head_cfg + configs, head_steps + steps
    return None


def replay_witness(
    H: HybridSystem,
    s1: RegionSet,
    verdict: Verdict,
    params: PostParams,
) -> ReplayResult:
    """Try to realize a yes verdict as a concrete sampled trajectory.

    Greedy forward simulation from the initial region's cell centers,
    allowed as many jumps as the verdict's k, succeeding when the path
    comes within two cells of the witness center. A failure does not
    refute the verdict; it flags the yes as a possible artifact of
    over-approximation.
    """
    if verdict.kind != "yes" or verdict.witness is None:
        return ReplayResult(False, [], [], math.inf, 0)
    h = s1.h
    best = [math.inf]
    budget = _REPLAY_MAX_STARTS
    for q in H.locations:
        region = s1.regions.get(q)
        if region is None or region.count() == 0 or budget <= 0:
            continue
        starts = region.cell_centers()[:budget]
        budget -= starts.shape[0]
        found = _greedy_replay(H, q, starts, verdict.witness, verdict.k, params, h, best)
        if found is not None:
            configs, steps = found
            result = ReplayResult(True, configs, steps, best[0], 0)
            result.validate(H, tol=_REPLAY_TOL)
            return result
    return ReplayResult(False, [], [], best[0], 0)
