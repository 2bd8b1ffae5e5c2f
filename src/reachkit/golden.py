"""Reference-value suite: recompute every published constant and
behavioral gate against the bundled example models and print one
pass/fail line per criterion.

Golden numbers are frozen from the reference tables for the rotation
example (the face [1, sqrt(2)] x {0} under x' = (-x2, x1), a 30-degree
step) and the drift example (f = (1, 1) from the unit square). Each
criterion states its own tolerance; timed criteria include their budget
in the detail string. A missing bundled model is reported as an explicit
failure, never a crash.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from .errors import AssumptionA2Violated, ModelError
from .facelift import (
    check_boundary_equivalence,
    classify_boundary,
    reach_bounded_time,
    reach_invariant,
)
from .flow import expm, flow, max_norm_over_face, operator_norm, rk4
from .flow import ExpressionDynamics
from .geometry import Face, Polyhedron, is_bounded, vertices_2d
from .hybrid import PostParams, RegionSet, replay_witness, semi_decide_reach
from .modelfile import bundled_model_path, load_model
from .polyapprox import (
    StepProblem,
    assemble_polyhedron,
    bloat_hull,
    check_A2,
    conservative_bounds,
    hull_bloat_epsilon,
    sampled_bounds,
    select_delta,
    tube_lattice,
)

__all__ = ["run_golden_suite", "CRITERIA"]

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# published constants for the rotation example
GOLD_L_ROT = 2.7566424
GOLD_L_CAP = 1.249999
GOLD_EPS = 0.087235255
GOLD_ZETA2 = np.array([0.70710678, 0.18946869])

# published 12-row halfspace table in emission order
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

# published corner list of the cap-and-rotation subsystem
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


def _example2_problem():
    m = load_model(bundled_model_path("example2.json"))
    return StepProblem.build(
        m.face, m.dynamics.matrix, m.setting("delta"), delta0=m.setting("delta0")
    )


def _max_residual(P, pts):
    A_ub, b_ub, _, _ = P.matrices()
    return float(np.max(pts @ A_ub.T - b_ub))


def _random_problem(rng):
    """One random segment face and matrix passing the outward-flow check."""
    while True:
        A = rng.uniform(-1.5, 1.5, (2, 2))
        na = operator_norm(A)
        if na < 0.1:
            continue
        th = rng.uniform(0.0, 2.0 * math.pi)
        ak = np.array([math.cos(th), math.sin(th)])
        u = np.array([-ak[1], ak[0]])
        c = rng.uniform(-2.0, 2.0) * u + rng.uniform(0.5, 2.0) * ak
        half = rng.uniform(0.3, 1.5)
        face = Face(
            np.array([u, -u]),
            np.array([float(u @ c) + half, -float(u @ c) + half]),
            ak,
            float(ak @ c),
            orthonormal=True,
        )
        try:
            d = check_A2(face, A)
        except AssumptionA2Violated:
            continue
        if d < 0.05:
            continue
        d0 = 0.5 * d
        delta = min(0.9 * select_delta(max_norm_over_face(face), na, d, d0), 0.6)
        if delta < 1e-3:
            continue
        return face, A, delta, d0


def _sweep_problems():
    """A5's and A6's 51 problems, each with its conservative enclosure:
    example2, then 50 random ones drawn with seed 1207."""
    problems = [_example2_problem()]
    rng = np.random.default_rng(1207)
    while len(problems) < 51:
        face, A, delta, d0 = _random_problem(rng)
        problems.append(StepProblem.build(face, A, delta, delta0=d0))
    return [(p, assemble_polyhedron(p, conservative_bounds(p))) for p in problems]


# ---------------------------------------------------------------------------
# criteria; each returns (passed, detail)


def check_a1():
    started = time.perf_counter()
    prob = _example2_problem()
    b = conservative_bounds(prob)
    elapsed = time.perf_counter() - started
    vals = (b.rotation(0), b.rotation(1), b.cap, b.cap_prime)
    ok = (
        abs(vals[0] - GOLD_L_ROT) <= 1e-4
        and abs(vals[1] - GOLD_L_ROT) <= 1e-4
        and abs(vals[2] - GOLD_L_CAP) <= 5e-5
        and abs(vals[3] - GOLD_L_CAP) <= 5e-5
        and elapsed < 1.0
    )
    return ok, (
        f"l_rot={vals[0]:.7f} (ref {GOLD_L_ROT}), l_cap={vals[2]:.7f} "
        f"(ref {GOLD_L_CAP}), computed in {elapsed:.3f}s (budget 1s)"
    )


def check_a2():
    prob = _example2_problem()
    P = assemble_polyhedron(prob, conservative_bounds(prob))
    if len(P.ineqs) != len(GOLD_ROWS):
        return False, f"expected {len(GOLD_ROWS)} rows, got {len(P.ineqs)}"
    worst = 0.0
    for h, (normal, offset) in zip(P.ineqs, GOLD_ROWS):
        ref = np.append(np.asarray(normal, float), float(offset))
        mine = np.append(h.normal, h.offset)
        mine = mine * (np.linalg.norm(ref) / np.linalg.norm(mine))
        worst = max(worst, float(np.max(np.abs(mine - ref))))
    return worst <= 1e-4, f"12 rows, worst coefficient error {worst:.2e} (tol 1e-4)"


def check_a3():
    prob = _example2_problem()
    P = assemble_polyhedron(prob, conservative_bounds(prob))
    first8 = [P.ineqs[i] for i in (0, 1, 2, 3, 6, 7, 8, 9)]
    # the far cap row is redundant in the full system; certify by LP before
    # dropping it so the polygon is the published 7-corner one
    others = [h for i, h in enumerate(P.ineqs) if i != 9]
    res = Polyhedron(tuple(others)).maximize(P.ineqs[9].normal)
    if res.status != "optimal" or res.value > P.ineqs[9].offset + 1e-9:
        return False, "far cap row is not LP-redundant"
    verts = vertices_2d(Polyhedron(tuple(first8[:7])))
    if verts.shape != GOLD_VERTICES.shape:
        return False, f"expected 7 vertices, got {verts.shape[0]}"
    best = math.inf
    for roll in range(verts.shape[0]):
        best = min(best, float(np.max(np.abs(np.roll(verts, -roll, axis=0) - GOLD_VERTICES))))
    return best <= 1e-3, f"7 vertices, worst coordinate error {best:.2e} (tol 1e-3)"


def check_a4():
    x = math.pi / 6.0
    formula = SQRT2 * (math.exp(x) - 1.0 - x - 3.0 * math.pi**2 / 288.0)
    eps = hull_bloat_epsilon(SQRT2, 1.0, x)
    ok_eps = abs(eps - GOLD_EPS) <= 1e-5 and abs(eps - formula) <= 1e-12
    prob = _example2_problem()
    H0 = bloat_hull(prob.face, prob.face_delta, 0.0)
    units = [h.normal for h in H0.ineqs]
    scaled = [n * np.linalg.norm(GOLD_ZETA2) for n in units]
    err = min(float(np.max(np.abs(s - GOLD_ZETA2))) for s in scaled)
    return ok_eps and err <= 1e-6, (
        f"eps={eps:.9f} (ref {GOLD_EPS}, tol 1e-5), "
        f"zeta2 coefficient error {err:.2e} (tol 1e-6)"
    )


def check_a5():
    started = time.perf_counter()
    worst = -math.inf
    for p, P in _sweep_problems():
        pts = tube_lattice(p.face, p.matrix, p.delta, 300, 300).reshape(-1, p.face.dim)
        worst = max(worst, _max_residual(P, pts))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 30.0
    return ok, (
        f"51 problems x 90000 lattice points, worst residual {worst:.2e} "
        f"(tol 1e-9), {elapsed:.1f}s (budget 30s)"
    )


def check_a6():
    for i, (p, P) in enumerate(_sweep_problems()):
        if not is_bounded(Polyhedron(tuple(P.ineqs[: p.k + 1]))):
            return False, f"subsystem unbounded on instance {i}"
    return True, "start-side rotation/support/cap subsystem bounded on all 51 instances"


def check_a7():
    m = load_model(bundled_model_path("example1.json"))
    front = classify_boundary(m.initial, m.dynamics, 0.025)
    bad = 0
    for p, tag in zip(front.points, front.tags):
        outward = abs(p[0] - 1.0) < 1e-9 or abs(p[1] - 1.0) < 1e-9
        if tag != ("outflow" if outward else "inflow"):
            bad += 1
    return bad == 0, (
        f"{front.points.shape[0]} samples, {bad} misclassified "
        "(right+top = outflow, rest = inflow)"
    )


def check_a8():
    m = load_model(bundled_model_path("example1.json"))
    rot = load_model(bundled_model_path("rotation_disk.json"))
    gaps = {}
    for name, dyn in (("drift", m.dynamics), ("rotation", rot.dynamics)):
        rep = check_boundary_equivalence(m.initial, dyn, 1.0, h=0.02)
        gaps[name] = rep["max_gap"]
        if not rep["passes"]:
            return False, f"{name} field: max gap {rep['max_gap']:.3f} > 2h = 0.04"
    return True, (
        f"drift gap {gaps['drift']:.3f}, rotation gap {gaps['rotation']:.3f} "
        "(both <= 2h = 0.04)"
    )


def check_a9():
    m = load_model(bundled_model_path("drift_invariant.json"))
    dt = m.setting("dt")
    tube = reach_invariant(
        m.initial, m.dynamics, m.invariant, dt=dt, h=m.setting("cell")
    )
    cap_iters = int(math.ceil(3.0 / dt)) + 1
    if not tube.front_collapse or tube.iteration_cap or tube.iterations > cap_iters:
        return False, (
            f"drift run: collapse={tube.front_collapse} cap={tube.iteration_cap} "
            f"iterations={tube.iterations} (budget {cap_iters})"
        )
    r = load_model(bundled_model_path("rotation_cap.json"))
    rtube = reach_invariant(
        r.initial,
        r.dynamics,
        r.invariant,
        dt=r.setting("dt"),
        h=r.setting("cell"),
        max_iters=r.setting("max_iters"),
    )
    if not rtube.iteration_cap or rtube.front_collapse:
        return False, "periodic orbit did not hit the iteration cap cleanly"
    return True, (
        f"drift front collapsed after {tube.iterations} iterations "
        f"(budget {cap_iters}); periodic orbit flagged at cap {rtube.iterations}"
    )


def _under_over_masks(tube):
    under = tube.under_occupancy.occupancy | tube.under_initial_region.occupancy
    over = tube.occupancy.occupancy | tube.initial_region.occupancy
    return under, over


def check_a10():
    checked = []
    for name in ("example1.json", "rotation_disk.json", "rotation_square.json"):
        m = load_model(bundled_model_path(name))
        tube = reach_bounded_time(
            m.initial,
            m.dynamics,
            m.setting("tau"),
            dt=m.setting("dt"),
            h=m.setting("cell"),
            under=True,
        )
        under, over = _under_over_masks(tube)
        if np.any(under & ~over):
            return False, f"{name}: under-mode cells escape the over-mode set"
        checked.append(name)
    for name in ("drift_invariant.json", "rotation_cap.json"):
        m = load_model(bundled_model_path(name))
        tube = reach_invariant(
            m.initial,
            m.dynamics,
            m.invariant,
            dt=m.setting("dt"),
            h=m.setting("cell"),
            under=True,
            max_iters=m.setting("max_iters"),
        )
        under, over = _under_over_masks(tube)
        if np.any(under & ~over):
            return False, f"{name}: under-mode cells escape the over-mode set"
        checked.append(name)
    rng = np.random.default_rng(407)
    for i in range(50):
        face, A, delta, d0 = _random_problem(rng)
        p = StepProblem.build(face, A, delta, delta0=d0)
        cons = conservative_bounds(p)
        samp = sampled_bounds(p, nx=25, nt=25)
        if np.any(samp.l > cons.l + 1e-12) or np.any(samp.l_prime > cons.l_prime + 1e-12):
            return False, f"sampled bound exceeds conservative on instance {i}"
    return True, (
        f"under set contained on {len(checked)} bundled examples; sampled <= "
        "conservative on 50 random problems"
    )


def _taylor_expm(A, t):
    A = np.asarray(A, float) * t
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, 200):
        term = term @ A / k
        out = out + term
    return out


def check_a11():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        A = rng.normal(size=(n, n))
        t = float(rng.uniform(0.1, 2.0 / max(operator_norm(A), 1e-9)))
        ref = _taylor_expm(A, t)
        err = float(np.max(np.abs(expm(A, t) - ref))) / max(1.0, float(np.max(np.abs(ref))))
        worst = max(worst, err)
    if worst > 1e-11:
        return False, f"expm vs Taylor oracle: worst error {worst:.2e} > 1e-11"
    dyn = ExpressionDynamics.parse(["-x2", "x1"])
    x0 = np.array([1.0, 0.0])
    exact = np.array([math.cos(1.0), math.sin(1.0)])
    e32 = float(np.linalg.norm(rk4(dyn, x0, 1.0, 32) - exact))
    e64 = float(np.linalg.norm(rk4(dyn, x0, 1.0, 64) - exact))
    ratio = e32 / e64
    if not (12.0 <= ratio <= 20.0):
        return False, f"RK4 halving ratio {ratio:.2f} outside [12, 20]"
    pend = ExpressionDynamics.parse(["x2", "-sin(x1) - 0.2*x2"])
    y0 = np.array([0.7, -0.3])
    resid = float(
        np.linalg.norm(flow(pend, flow(pend, y0, 0.4), 0.9) - flow(pend, y0, 1.3))
    )
    if resid > 1e-7:
        return False, f"flow semigroup residual {resid:.2e} > 1e-7"
    return True, (
        f"expm error {worst:.1e} (tol 1e-11), RK4 ratio {ratio:.1f} in [12, 20], "
        f"semigroup residual {resid:.1e} (tol 1e-7)"
    )


def check_a12():
    m = load_model(bundled_model_path("hybrid_drift.json"))
    params = PostParams(dt=m.setting("dt"), tau=m.setting("tau"))
    cell = m.setting("cell")
    s1 = RegionSet.from_init(m.system, cell)
    s2 = RegionSet.from_polyhedra(m.system, m.targets, cell)
    verdict = semi_decide_reach(m.system, s1, s2, m.setting("max_k"), params)
    if verdict.kind != "yes" or verdict.k != 1:
        return False, f"drift example: expected yes(1), got {verdict.kind}({verdict.k})"
    rep = replay_witness(m.system, RegionSet.from_init(m.system, cell), verdict, params)
    bad = rep.validate(m.system)
    if not rep.success or bad != 0:
        return False, (
            f"witness replay success={rep.success}, {bad} steps uncertified "
            "by the step classifier"
        )
    d = load_model(bundled_model_path("hybrid_disjoint.json"))
    dparams = PostParams(dt=d.setting("dt"), tau=d.setting("tau"))
    dv = semi_decide_reach(
        d.system,
        RegionSet.from_init(d.system, d.setting("cell")),
        RegionSet.from_polyhedra(d.system, d.targets, d.setting("cell")),
        d.setting("max_k"),
        dparams,
    )
    if dv.kind != "unknown" or dv.k != d.setting("max_k"):
        return False, f"disjoint example: expected unknown({d.setting('max_k')}), got {dv.kind}({dv.k})"
    return True, (
        f"drift: yes(1), replay distance {rep.distance:.4f}, all steps certified; "
        f"disjoint: unknown at k={dv.k}"
    )


CRITERIA = [
    ("A1", "conservative bound constants", check_a1),
    ("A2", "assembled halfspace table", check_a2),
    ("A3", "subsystem vertex list", check_a3),
    ("A4", "hull bloat constants", check_a4),
    ("A5", "containment soundness sweep", check_a5),
    ("A6", "subsystem boundedness", check_a6),
    ("A7", "boundary classification", check_a7),
    ("A8", "boundary sweep equivalence", check_a8),
    ("A9", "termination behavior", check_a9),
    ("A10", "mode ordering", check_a10),
    ("A11", "numerical kernels", check_a11),
    ("A12", "hybrid semi-decision", check_a12),
]


def run_golden_suite(stream=None) -> int:
    """Run every criterion, print a pass/fail table, return 0 iff all pass."""
    stream = stream if stream is not None else sys.stdout
    failures = 0
    print(f"{'id':<5}{'status':<7}{'seconds':>8}  detail", file=stream)
    for cid, _, fn in CRITERIA:
        started = time.perf_counter()
        try:
            ok, detail = fn()
        except ModelError as exc:
            ok, detail = False, f"model error: {exc}"
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{cid:<5}{status:<7}{elapsed:>8.2f}  {detail}", file=stream)
    total = len(CRITERIA)
    print(f"{total - failures}/{total} criteria passed", file=stream)
    return 0 if failures == 0 else 1
