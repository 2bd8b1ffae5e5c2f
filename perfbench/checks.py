"""Correctness checks, run outside the timed region.

Each check returns a list of error strings (empty when the job is
correct). Trajectory oracles are independent of reachkit: models are
read as plain JSON, flows come from ``scipy.linalg.expm`` (linear
fields) or ``scipy.integrate.solve_ivp`` (constant expression fields),
and cell or halfspace membership is decided from the written CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

RESIDUAL_TOL = 1e-9
CELL_TOL = 1e-9


# ---------------------------------------------------------------------------
# digests


def file_digests(outdir):
    """sha256 of every file the job wrote, and their total size in bytes."""
    digests, size = {}, 0
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


def step_digest(result):
    """sha256 over the exact floats of a StepResult's deltas, bounds and rows."""
    h = hashlib.sha256()
    for d in result.deltas:
        h.update(float(d).hex().encode())
    for b in result.bounds:
        for v in (*b.l, *b.l_prime):
            h.update(float(v).hex().encode())
    for P in result.polyhedra:
        for hs in P.ineqs + P.eqs:
            for v in (*hs.normal, hs.offset):
                h.update(float(v).hex().encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# model reading and flows


def read_model(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Flow:
    """Exact flow of x' = A x, or a solve_ivp flow of a constant field."""

    def __init__(self, spec):
        if "matrix" in spec:
            self.A = np.array(spec["matrix"], float)
            self.const = None
        else:
            self.A = None
            try:
                self.const = np.array([float(e) for e in spec["expressions"]])
            except ValueError as exc:
                raise ValueError(f"oracle only knows constant expression fields: {exc}")

    def __call__(self, x0, times):
        """Positions (len(times), m, dim) of the m starts at each time."""
        x0 = np.atleast_2d(x0)
        if self.A is not None:
            return np.stack([x0 @ expm(self.A * float(t)).T for t in times])
        m, dim = x0.shape
        rate = np.tile(self.const, m)
        sol = solve_ivp(
            lambda t, y: rate, (0.0, float(times[-1])), x0.reshape(-1),
            t_eval=times, rtol=1e-12, atol=1e-12,
        )
        return sol.y.T.reshape(len(times), m, dim)


def _box(spec):
    lo, hi = spec["box"]
    return np.array(lo, float), np.array(hi, float)


class InitialSet:
    """A model's initial set as a box or a star-shaped level set."""

    def __init__(self, spec):
        self.box = _box(spec) if "box" in spec else None
        if self.box is None:
            code = compile(spec["levelset"], "<levelset>", "eval")
            if not set(code.co_names) <= {"x1", "x2"}:
                raise ValueError("oracle level sets may only use x1 and x2")
            self.code = code
            self.lo, self.hi = np.array(spec["lo"], float), np.array(spec["hi"], float)
        else:
            self.lo, self.hi = self.box

    def value(self, pts):
        return eval(self.code, {"__builtins__": {}}, {"x1": pts[..., 0], "x2": pts[..., 1]})

    def inside(self, pts, tol=RESIDUAL_TOL):
        if self.box is not None:
            lo, hi = self.box
            return np.all((pts >= lo - tol) & (pts <= hi + tol), axis=-1)
        return self.value(pts) <= tol

    def sample(self, rng, interior, boundary):
        """Seeded interior points plus points on the boundary."""
        pts = []
        while len(pts) < interior:
            p = rng.uniform(self.lo, self.hi)
            if self.box is not None or self.value(p) < 0:
                pts.append(p)
        center = 0.5 * (self.lo + self.hi)
        for _ in range(boundary):
            if self.box is not None:
                p = rng.uniform(self.lo, self.hi)
                axis, side = rng.integers(2), rng.integers(2)
                p[axis] = (self.lo, self.hi)[side][axis]
            else:  # bisect along a random ray from the center
                th = rng.uniform(0.0, 2.0 * math.pi)
                d = np.array([math.cos(th), math.sin(th)])
                a, b = 0.0, float(np.linalg.norm(self.hi - self.lo))
                for _ in range(80):
                    mid = 0.5 * (a + b)
                    a, b = (mid, b) if self.value(center + mid * d) < 0 else (a, mid)
                p = center + a * d
            pts.append(p)
        return np.array(pts)


# ---------------------------------------------------------------------------
# cell sets from CSV output


class Cells:
    """Cell keys of a 2D grid written as cell centers; lattice origin ref."""

    def __init__(self, centers, h, ref):
        self.h, self.ref = h, ref
        keys = np.rint((np.atleast_2d(centers) - ref) / h).astype(int)
        self.keys = set(map(tuple, keys.tolist()))

    def meets_box(self, lo, hi):
        """True when any cell of the set meets the closed box [lo, hi]."""
        a = np.floor((lo - CELL_TOL - self.ref) / self.h + 0.5).astype(int)
        b = np.floor((hi + CELL_TOL - self.ref) / self.h + 0.5).astype(int)
        return any(
            (i, j) in self.keys for i in range(a[0], b[0] + 1) for j in range(a[1], b[1] + 1)
        )

    def contains(self, pts):
        return np.array([self.meets_box(p, p) for p in np.atleast_2d(pts)], bool)


def read_segments(path, h):
    """Per-segment (t0, t1, Cells) from a grid segments.csv, plus the cells'
    common lattice origin."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] == 0:
        return [], None
    ref = data[0, 3:]
    out = []
    for s in np.unique(data[:, 0]):
        rows = data[data[:, 0] == s]
        out.append((rows[0, 1], rows[0, 2], Cells(rows[:, 3:], h, ref)))
    return out, ref


def _prefix_unions(segments):
    keys, out = set(), []
    for t0, _, cells in segments:
        keys = keys | cells.keys
        union = Cells(np.zeros((0, 2)), cells.h, cells.ref)
        union.keys = keys
        out.append((t0, union))
    return out


def _covering(prefix, t):
    chosen = None
    for t0, union in prefix:
        if t0 <= t + 1e-12:
            chosen = union
    return chosen


# ---------------------------------------------------------------------------
# per-job oracles


def _trajectories(model, rng, horizon, n_in=40, n_bd=200, n_t=41):
    init = InitialSet(model.get("initial") or model["init"][0]["set"])
    starts = init.sample(rng, n_in, n_bd)
    times = np.linspace(0.0, horizon, n_t)
    return init, starts, times, Flow(model["dynamics"])(starts, times)


def check_grid_reach(path, outdir, rng, settings):
    """Each sampled true trajectory point lies in the closed initial set or
    in a cell swept by a segment that started no later."""
    model = read_model(path)
    h = settings["cell"]
    segments, _ = read_segments(os.path.join(outdir, "segments.csv"), h)
    if not segments:
        return ["no segments written"]
    invariant = _box(model["invariant"]) if "invariant" in model else None
    horizon = settings.get("tau") or segments[-1][1]
    init, starts, times, pos = _trajectories(model, rng, horizon)
    prefix = _prefix_unions(segments)
    errors = []
    alive = np.ones(starts.shape[0], bool)
    for t, pts in zip(times, pos):
        if invariant is not None:
            alive &= np.all((pts >= invariant[0] - CELL_TOL) & (pts <= invariant[1] + CELL_TOL), axis=1)
        cover = _covering(prefix, t)
        need = alive & ~init.inside(pts)
        miss = need & ~cover.contains(pts)
        if miss.any():
            errors.append(f"t={t:.4f}: {int(miss.sum())} trajectory points outside the reach cells")
    return errors


def check_under_in_over(path, outdir, overdir, settings):
    """Under cells of segment i lie in the over sweep up to segment i or
    touch the initial set, on the same grid."""
    h = settings["cell"]
    under, ref_u = read_segments(os.path.join(outdir, "segments.csv"), h)
    over, _ = read_segments(os.path.join(overdir, "segments.csv"), h)
    if not under or not over:
        return ["under or over run wrote no cells"]
    init = InitialSet(read_model(path)["initial"])
    prefix = _prefix_unions(over)
    errors = []
    for t0, _, cells in under:
        cover = _covering(prefix, t0)
        for key in cells.keys:
            c = ref_u + np.array(key) * h
            in_over = cover.meets_box(c, c)
            near_init = np.all(np.abs(c - np.clip(c, *init.box)) <= h / 2 + CELL_TOL)
            if not (in_over or near_init):
                errors.append(f"under cell {c.tolist()} at t0={t0} is not in the over set")
                break
    return errors


def check_hybrid(path, outdir, rng, report, expect_verdict):
    """Verdict, replay, and the initial location's flow (plus its jumps)
    inside the reached cells."""
    diag = report["diagnostics"]
    errors = []
    if diag["verdict"]["verdict"] != expect_verdict:
        errors.append(f"verdict {diag['verdict']['verdict']!r}, expected {expect_verdict!r}")
    if expect_verdict == "yes" and not diag.get("replay", {}).get("success"):
        errors.append("witness replay did not succeed")
    model = read_model(path)
    h = report["settings"]["cell"]
    cells = {}
    with open(os.path.join(outdir, "cells.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    for q, *x in rows:
        cells.setdefault(q, []).append([float(v) for v in x])
    locs = {loc["name"]: loc for loc in model["locations"]}
    q0 = model["init"][0]["location"]
    ref = np.array(next(iter(cells.values()))[0])
    reached = {q: Cells(np.array(c), h, ref) for q, c in cells.items()}
    empty = Cells(np.zeros((0, 2)), h, ref)
    init = InitialSet(model["init"][0]["set"])
    starts = init.sample(rng, 40, 200)
    times = np.linspace(0.0, report["settings"]["tau"], 41)
    pos = Flow(locs[q0]["dynamics"])(starts, times)
    inv = _box(locs[q0]["invariant"])
    alive = np.ones(starts.shape[0], bool)
    for t, pts in zip(times, pos):
        alive &= np.all((pts >= inv[0] - CELL_TOL) & (pts <= inv[1] + CELL_TOL), axis=1)
        miss = alive & ~reached.get(q0, empty).contains(pts)
        if miss.any():
            errors.append(f"t={t:.3f}: {int(miss.sum())} flow points outside {q0} cells")
        for edge in model["edges"]:
            if edge["from"] != q0 or "reset" in edge:
                continue
            rows_g = np.array(edge["guard"]["rows"], float)
            on_guard = alive & np.all(pts @ rows_g[:, :-1].T <= rows_g[:, -1] - CELL_TOL, axis=1)
            miss = on_guard & ~reached.get(edge["to"], empty).contains(pts)
            if miss.any():
                errors.append(f"t={t:.3f}: {int(miss.sum())} guard points not pushed to {edge['to']}")
    return errors


def _rows_from_csv(path, group_cols):
    """{group tuple: (A_ub, b_ub, A_eq, b_eq)} from a halfspace CSV."""
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        kind_at = header.index("kind")
        width = len(header) - kind_at - 1
        groups = {}
        for row in reader:
            key = tuple(float(row[i]) for i in group_cols)
            coeffs = [float(v) for v in row[kind_at + 1:]]
            groups.setdefault(key, ([], []))[row[kind_at] == "eq"].append(coeffs)
    out = {}
    for key, (ub, eq) in groups.items():
        ub, eq = np.array(ub).reshape(-1, width), np.array(eq).reshape(-1, width)
        out[key] = (ub[:, :-1], ub[:, -1], eq[:, :-1], eq[:, -1])
    return out


def residual(rows, pts):
    A_ub, b_ub, A_eq, b_eq = rows
    r = np.full(pts.shape[0], -np.inf)
    if len(b_ub):
        r = np.maximum(r, np.max(pts @ A_ub.T - b_ub, axis=1))
    if len(b_eq):
        r = np.maximum(r, np.max(np.abs(pts @ A_eq.T - b_eq), axis=1))
    return r


def check_poly_reach(path, outdir, rng, settings):
    """Polyhedral reach tube: each trajectory point lies in the initial
    box or in a member of a segment that started no later."""
    model = read_model(path)
    groups = _rows_from_csv(os.path.join(outdir, "polyhedra.csv"), (0, 1, 3))
    init, starts, times, pos = _trajectories(model, rng, settings["tau"])
    errors = []
    for t, pts in zip(times, pos):
        best = np.where(init.inside(pts), 0.0, np.inf)
        for (seg, t0, member), rows in groups.items():
            if t0 <= t + 1e-12:
                best = np.minimum(best, residual(rows, pts))
        if np.max(best) > RESIDUAL_TOL:
            errors.append(f"t={t:.4f}: trajectory residual {np.max(best):.2e} > {RESIDUAL_TOL}")
    return errors


def segment_ends(face_spec):
    """End points of a 2D face given as side rows and a base row."""
    base = np.array(face_spec["base"], float)
    n, b = base[:-1], base[-1]
    u = np.array([-n[1], n[0]]) / np.linalg.norm(n)
    p = b * n / float(n @ n)
    s_lo, s_hi = -np.inf, np.inf
    for row in face_spec["sides"]:
        a, c = np.array(row[:-1], float), float(row[-1])
        au = float(a @ u)
        if abs(au) < 1e-15:
            continue
        bound = (c - float(a @ p)) / au
        s_hi, s_lo = (min(s_hi, bound), s_lo) if au > 0 else (s_hi, max(s_lo, bound))
    return np.array([p + s_lo * u, p + s_hi * u])


def tube_residuals(A, ends, deltas, polys, rng, n_x=12, n_t=12):
    """Worst residual of sampled tube points e^{A(T_s + t)} x0, x0 on the
    segment, t in [0, delta_s], against each sub-step's rows."""
    s = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n_x - 2)])[:, None]
    x0 = ends[0] * (1.0 - s) + ends[1] * s
    worst, start = -np.inf, 0.0
    for delta, rows in zip(deltas, polys):
        ts = np.concatenate([[0.0, delta], rng.uniform(0.0, delta, n_t - 2)])
        pts = np.vstack([x0 @ expm(A * (start + t)).T for t in ts])
        worst = max(worst, float(np.max(residual(rows, pts))))
        start += delta
    return worst


def check_polyapprox_cli(path, outdir, rng, report):
    model = read_model(path)
    A = np.array(model["dynamics"]["matrix"], float)
    groups = _rows_from_csv(os.path.join(outdir, "halfspaces.csv"), (0,))
    polys = [groups[(float(s),)] for s in range(len(report["diagnostics"]["deltas"]))]
    worst = tube_residuals(A, segment_ends(model["face"]), report["diagnostics"]["deltas"], polys, rng)
    return [] if worst <= RESIDUAL_TOL else [f"tube residual {worst:.2e} > {RESIDUAL_TOL}"]


def check_step(problem, mode, result, rng, conservative=None):
    """Conservative enclosures hold sampled tube points; sampled bounds
    never exceed the conservative ones and hold the tube's end faces."""
    errors = []
    if problem["stretched"] != bool(result.delta_shrunk):
        errors.append(f"delta_shrunk={result.delta_shrunk}, stretched={problem['stretched']}")
    if abs(sum(result.deltas) - problem["delta"]) > 1e-9 * max(1.0, problem["delta"]):
        errors.append("sub-step horizons do not add up to the requested one")
    polys = [P.matrices() for P in result.polyhedra]
    if mode == "conservative":
        worst = tube_residuals(problem["A"], problem["ends"], result.deltas, polys, rng)
    else:
        worst = tube_residuals(problem["A"], problem["ends"], result.deltas, polys, rng, n_x=2, n_t=2)
        if conservative is not None:
            for bs, bc in zip(result.bounds, conservative.bounds):
                if np.any(bs.l > bc.l + 1e-12) or np.any(bs.l_prime > bc.l_prime + 1e-12):
                    errors.append("sampled bound exceeds the conservative one")
    if worst > RESIDUAL_TOL:
        errors.append(f"{mode} enclosure residual {worst:.2e} > {RESIDUAL_TOL}")
    return errors
