"""Workload definitions: the jobs each workload runs, in pass order.

A job is one user request: either a ``reachkit`` command line handed to
``reachkit.cli.run`` or one ``overapproximate_step`` call on a generated
problem. Every job carries a ``key`` (jobs with one key share a latency
metric) and what a correct run returns. A workload is a list of pass
plans; passes cycle through them, so a job may appear in several plans.

The random problems of ``polyapprox-batch`` come from this module's own
generator, seeded by the benchmark's ``--seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MODELS = "src/reachkit/models"

# one in STRETCH_EVERY problems gets its horizon stretched STRETCH times,
# and is drawn so that the stretched horizon fails the outward condition;
# passes cycle through PLANS disjoint sets of PROBLEMS_PER_PASS problems
PROBLEMS_PER_PASS = 24
PLANS = 4
STRETCH_EVERY = 4
STRETCH = 4.0


@dataclass
class Job:
    key: str
    argv: list | None = None  # reachkit command line, without --out
    expect_exit: int = 0
    expect_verdict: str | None = None
    problem: dict | None = None  # overapproximate_step arguments
    mode: str | None = None


def _cli(key, *argv, expect_exit=0, verdict=None):
    return Job(key=key, argv=list(argv), expect_exit=expect_exit, expect_verdict=verdict)


def grid_fine(seed, rk):
    return [[
        _cli("reach.example1", "reach", f"{MODELS}/example1.json", "--cell", "0.01"),
        _cli("reach-under.example1", "reach", f"{MODELS}/example1.json", "--cell", "0.02", "--under"),
        _cli("reach.rotation_disk", "reach", f"{MODELS}/rotation_disk.json", "--cell", "0.01"),
        _cli("reach-inv.drift_invariant", "reach-inv", f"{MODELS}/drift_invariant.json", "--cell", "0.01"),
    ]]


def hybrid_loop(seed, rk):
    return [[
        _cli("hybrid-reach.hybrid_drift", "hybrid-reach", f"{MODELS}/hybrid_drift.json", verdict="yes"),
        _cli(
            "hybrid-reach.hybrid_disjoint", "hybrid-reach", f"{MODELS}/hybrid_disjoint.json",
            expect_exit=4, verdict="unknown",
        ),
    ]]


def polyapprox_batch(seed, rk):
    cli = [
        _cli("polyapprox.example2", "polyapprox", f"{MODELS}/example2.json"),
        _cli("reach.rotation_square", "reach", f"{MODELS}/rotation_square.json"),
    ]
    problems = generate_problems(seed, PLANS * PROBLEMS_PER_PASS, rk)
    plans = []
    for k in range(PLANS):
        jobs = [
            Job(key=f"polyapprox.{mode}", problem=p, mode=mode)
            for p in problems[k * PROBLEMS_PER_PASS:(k + 1) * PROBLEMS_PER_PASS]
            for mode in ("conservative", "sampled")
        ]
        plans.append(jobs + cli)
    return plans


WORKLOADS = {
    "grid-fine": grid_fine,
    "hybrid-loop": hybrid_loop,
    "polyapprox-batch": polyapprox_batch,
}


def distinct_jobs(plans):
    """Every job of the plans once, in first-use order."""
    seen = {}
    for plan in plans:
        for job in plan:
            seen.setdefault(id(job), job)
    return list(seen.values())


def models_of(plans):
    """Model files named by the jobs' command lines, in first-use order."""
    return list(dict.fromkeys(job.argv[1] for job in distinct_jobs(plans) if job.argv))


# ---------------------------------------------------------------------------
# random segment-face problems


def _segment_face(rk, np, rng):
    th = rng.uniform(0.0, 2.0 * math.pi)
    ak = np.array([math.cos(th), math.sin(th)])
    u = np.array([-ak[1], ak[0]])
    c = rng.uniform(-2.0, 2.0) * u + rng.uniform(0.5, 2.0) * ak
    half = rng.uniform(0.3, 1.5)
    mid = float(u @ c)
    face = rk.geometry.Face(
        np.array([u, -u]), np.array([mid + half, -mid + half]), ak, float(ak @ c),
        orthonormal=True,
    )
    ends = np.array([float(ak @ c) * ak + (mid - half) * u, float(ak @ c) * ak + (mid + half) * u])
    return face, ends


def _c1_fails(np, A, ak, ends, horizon, d0, samples=65):
    """True when the transported outward derivative a_k . A e^{At} x0 drops
    clearly below d0 somewhere on the same [-H, H] lattice that check_C1
    samples. Over a segment the minimum sits at an endpoint, so no LP is
    needed, and a 2x2 exponential has a closed form: with N = A - (tr A/2) I
    and N @ N = q I, e^{At} = e^{t tr A/2} (c(t) I + g(t) N)."""
    t = np.linspace(-horizon, horizon, samples)
    half_tr = 0.5 * float(np.trace(A))
    N = A - half_tr * np.eye(2)
    q = -float(np.linalg.det(N))
    if q > 0:
        c, g = np.cosh(math.sqrt(q) * t), np.sinh(math.sqrt(q) * t) / math.sqrt(q)
    elif q < 0:
        c, g = np.cos(math.sqrt(-q) * t), np.sin(math.sqrt(-q) * t) / math.sqrt(-q)
    else:
        c, g = np.ones_like(t), t
    w = A.T @ ak
    vals = np.exp(half_tr * t)[:, None] * (c[:, None] * (ends @ w) + g[:, None] * (ends @ (N.T @ w)))
    return float(vals.min()) < d0 - 1e-3


def generate_problems(seed, count, rk):
    """``count`` random 2D segment-face problems that pass check_A2.

    Faces and matrices follow the acceptance suite's recipe; the horizon
    is 0.9 of the certified bound (capped at 0.6). Every STRETCH_EVERY-th
    problem is drawn until its horizon times STRETCH clearly fails the
    outward condition, and gets that stretched horizon, so a fixed share
    of the batch takes the shrink-and-chain path.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0x70A])
    out = []
    while len(out) < count:
        stretched = len(out) % STRETCH_EVERY == STRETCH_EVERY - 1
        A = rng.uniform(-1.5, 1.5, (2, 2))
        norm_a = float(np.linalg.norm(A, 2))
        if norm_a < 0.1:
            continue
        face, ends = _segment_face(rk, np, rng)
        try:
            d = rk.polyapprox.check_A2(face, A)
        except rk.errors.AssumptionA2Violated:
            continue
        if d < 0.05:
            continue
        d0 = 0.5 * d
        m0 = float(np.max(np.linalg.norm(ends, axis=1)))
        horizon = min(0.9 * math.log1p((d - d0) / (m0 * norm_a)) / norm_a, 0.6)
        if horizon < 1e-3:
            continue
        if stretched:
            horizon *= STRETCH
            if not _c1_fails(np, A, face.base_normal, ends, horizon, d0):
                continue
        out.append({
            "face": face, "ends": ends, "A": A, "delta": horizon, "delta0": d0,
            "stretched": stretched,
        })
    return out
