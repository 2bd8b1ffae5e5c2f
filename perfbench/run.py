#!/usr/bin/env python3
"""reachkit benchmark runner.

    python3 perfbench/run.py --workload grid-fine --seed 1 --seconds 25 --trace 0

Runs one workload in this fresh process as a single closed-loop caller:
jobs one after another, no threads, passes over the job list until
``--seconds`` have gone by (at least two passes). With ``--trace 0`` the
last line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` the run first makes untraced passes for a third of the
time, then wraps reachkit's public functions (see tracer.py) for the
rest, then makes one pass with tracemalloc around each sweep, and
reports the per-layer metrics. ``--workload all`` runs every workload,
each in its own process. Lines before the JSON list every metric with
its unit and sample count, per-job latencies, and the run's context.

Correctness is checked per job outside the timed region (checks.py);
job outputs are compared byte for byte across passes and against the
digests in digests.json (``--write-digests`` records them anew).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
DIGESTS = os.path.join(HERE, "digests.json")

from workloads import WORKLOADS, distinct_jobs, models_of  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 2


# ---------------------------------------------------------------------------
# set-up: import, model load and input generation


def setup(workload, seed):
    """Import reachkit from this checkout, build the pass plans, load
    their models. Returns (timings, reachkit package, plans).

    numpy is imported before the clock starts: its import is the same for
    every reachkit commit, and its time swings with the machine's file
    cache far more than the rest of set-up does."""
    import numpy  # noqa: F401

    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import reachkit

    imported = time.perf_counter()
    if not os.path.abspath(reachkit.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported reachkit from {reachkit.__file__}, not from {SRC}")
    plans = WORKLOADS[workload](seed, reachkit)
    generated = time.perf_counter()
    for path in models_of(plans):
        reachkit.modelfile.load_model(path)
    done = time.perf_counter()
    timings = {
        "setup_s": done - started,
        "import_s": imported - started,
        "load_s": done - generated,
    }
    return timings, reachkit, plans


def probe_setup(workload, seed):
    """One set-up in a fresh child process; its timings."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--probe-setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# running passes


class Runner:
    """Runs passes, cycling through the plans, and checks every job."""

    def __init__(self, rk, plans, workload, seed):
        import checks

        self.checks = checks
        self.rk = rk
        self.plans = plans
        self.jobs = distinct_jobs(plans)
        self.index = {id(job): i for i, job in enumerate(self.jobs)}
        self.passes_run = 0
        self.seed = seed
        self.work = os.path.join(WORK, workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.sink = io.StringIO()
        self.first = {}  # job index -> digest of its first execution
        self.oracle_errors = {}  # job index -> what the oracle found then
        self.attempted = 0
        self.failed = 0
        self.errors_shown = 0
        self.tracer = None

    def outdir(self, i, job):
        return os.path.join(self.work, f"{i:02d}-{job.key}")

    def execute(self, i, job):
        """Run one job; returns (seconds, exit code or StepResult)."""
        if job.argv is not None:
            argv = job.argv + ["--out", self.outdir(i, job)]
            with contextlib.redirect_stdout(self.sink):
                t0 = time.perf_counter()
                value = self.rk.cli.run(argv)
                dt = time.perf_counter() - t0
            self.sink.seek(0)
            self.sink.truncate()
            return dt, value
        p = job.problem
        t0 = time.perf_counter()
        value = self.rk.polyapprox.overapproximate_step(
            p["face"], p["A"], p["delta"], mode=job.mode, delta0=p["delta0"]
        )
        return time.perf_counter() - t0, value

    def verify(self, i, job, value):
        """Errors of one finished job; also returns the bytes it wrote.
        The oracle runs on a job's first execution; later executions must
        reproduce its output exactly."""
        c = self.checks
        first = i not in self.first
        rng = c.np.random.default_rng([self.seed, i])
        if job.argv is None:
            digest, size = c.step_digest(value), 0
            errors = []
            if first:
                if job.mode == "conservative":
                    job.problem["conservative"] = value
                errors = c.check_step(
                    job.problem, job.mode, value, rng, job.problem.get("conservative")
                )
        else:
            out = self.outdir(i, job)
            digest, size = c.file_digests(out)
            errors = []
            if value != job.expect_exit:
                errors.append(f"exit code {value}, expected {job.expect_exit}")
            elif first:
                errors = self.oracle(i, job, out, rng)
        if first:
            self.first[i] = digest
            self.oracle_errors[i] = errors
            return errors, size
        if digest != self.first[i]:
            errors.append("outputs differ from the first execution")
        return errors + self.oracle_errors[i], size

    def oracle(self, i, job, out, rng):
        c = self.checks
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        model, cmd, settings = job.argv[1], report["command"], report["settings"]
        if cmd == "hybrid-reach":
            return c.check_hybrid(model, out, rng, report, job.expect_verdict)
        if cmd == "polyapprox":
            return c.check_polyapprox_cli(model, out, rng, report)
        if cmd == "reach" and report["diagnostics"]["path"] == "polyhedral":
            return c.check_poly_reach(model, out, rng, settings)
        if settings["mode"] == "under":
            over = out + "-over"
            argv = [a for a in job.argv if a != "--under"] + ["--out", over]
            with contextlib.redirect_stdout(self.sink):
                code = self.rk.cli.run(argv)
            if code != 0:
                return [f"over run for the under check exited {code}"]
            return c.check_under_in_over(model, out, over, settings)
        return c.check_grid_reach(model, out, rng, settings)

    def run_pass(self):
        """One pass over the next plan: ([(key, seconds)], bytes written, plan)."""
        rows, written = [], 0
        k = self.passes_run % len(self.plans)
        plan = self.plans[k]
        self.passes_run += 1
        for job in plan:
            i = self.index[id(job)]
            if job.argv is not None:
                shutil.rmtree(self.outdir(i, job), ignore_errors=True)
            if self.tracer is not None:
                self.tracer.op_id = i
            dt, size = None, 0
            t0 = time.perf_counter()
            try:  # a job that raises, or whose check raises, has failed
                dt, value = self.execute(i, job)
                errors, size = self.verify(i, job, value)
            except Exception:
                errors = [traceback.format_exc(limit=3)]
                if dt is None:
                    dt = time.perf_counter() - t0
            written += size
            self.attempted += 1
            if errors:
                self.failed += 1
                if self.errors_shown < 5:
                    self.errors_shown += 1
                    print(f"FAILED {job.key} (job {i}): {errors[0]}", file=sys.stderr)
            rows.append((job.key, dt))
        return rows, written, k

    def passes(self, seconds):
        out = []
        start = time.perf_counter()
        while len(out) < MIN_PASSES or time.perf_counter() - start < seconds:
            out.append(self.run_pass())
        return out


def pass_wall(p):
    return sum(dt for _, dt in p[0])


def typical_pass(passes):
    """Mean over plans of each plan's median pass time, so the result does
    not depend on how many times the run happened to repeat each plan."""
    by_plan = {}
    for p in passes:
        by_plan.setdefault(p[2], []).append(pass_wall(p))
    return statistics.fmean(statistics.median(v) for v in by_plan.values())


def job_samples(passes):
    samples = {}
    for rows, _, _ in passes:
        for key, dt in rows:
            samples.setdefault(key, []).append(dt)
    return samples


# ---------------------------------------------------------------------------
# metrics


def e2e_metrics(passes, setups):
    samples = job_samples(passes)
    medians = [statistics.median(v) for v in samples.values()]
    return {
        "wall_s": (typical_pass(passes), "s", len(passes)),
        "job_geomean_s": (
            math.exp(sum(math.log(m) for m in medians) / len(medians)), "s", len(medians)
        ),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def layer_metrics(tracer_mod, traced, plain, setups, extra):
    """Per traced pass values, then the median over traced passes.
    ``traced`` holds (pass, span summary, counters) per traced pass."""
    per_pass = []
    for p, s, counters in traced:
        wall, written = pass_wall(p), p[1]
        calls, self_s = s["calls"], s["self_s"]
        layer = {name: 0.0 for name in tracer_mod.LAYERS}
        for name, v in self_s.items():
            layer[name.split(".")[0]] += v

        def share(v):
            return v / wall

        builds = calls["polyapprox.build"]
        posts = calls["hybrid.post"]
        per_pass.append({
            "flow.rk4.calls": (calls["flow.rk4"], "count"),
            "flow.rk4.steps": (counters["flow.rk4.steps"], "count"),
            "flow.rk4.self_share": (share(self_s["flow.rk4"]), "ratio"),
            "flow.field_eval.calls": (calls["flow.field_eval"], "count"),
            "flow.field_eval.points": (counters["flow.field_eval.points"], "count"),
            "flow.field_eval.self_share": (share(self_s["flow.field_eval"]), "ratio"),
            "flow.expm.calls": (calls["flow.expm"], "count"),
            "flow.expm.self_share": (share(self_s["flow.expm"]), "ratio"),
            "flow.self_share": (share(layer["flow"]), "ratio"),
            "geometry.lp.calls": (calls["geometry.lp"], "count"),
            "geometry.lp.self_share": (share(self_s["geometry.lp"]), "ratio"),
            "geometry.lp.not_optimal": (counters["geometry.lp.not_optimal"], "count"),
            "geometry.self_share": (share(layer["geometry"]), "ratio"),
            "facelift.classify.self_share": (share(self_s["facelift.classify"]), "ratio"),
            "facelift.front_points": (counters["facelift.front_points"], "count"),
            "facelift.sweep.calls": (calls["facelift.sweep"], "count"),
            "facelift.sweep.self_share": (share(self_s["facelift.sweep"]), "ratio"),
            "facelift.cells_touching.calls": (calls["facelift.cells_touching"], "count"),
            "facelift.cells_touching.self_share": (share(self_s["facelift.cells_touching"]), "ratio"),
            "facelift.cells": (counters["facelift.cells"], "count"),
            "facelift.self_share": (share(layer["facelift"]), "ratio"),
            "polyapprox.builds": (builds, "count"),
            "polyapprox.steps": (counters["polyapprox.steps"], "count"),
            "polyapprox.step_yield": (counters["polyapprox.steps"] / builds if builds else 0.0, "ratio"),
            "polyapprox.check_C1.self_share": (share(self_s["polyapprox.check_C1"]), "ratio"),
            "polyapprox.bounds.self_share": (share(self_s["polyapprox.bounds"]), "ratio"),
            "polyapprox.self_share": (share(layer["polyapprox"]), "ratio"),
            "hybrid.post.calls": (posts, "count"),
            "hybrid.post_yield": (s["posts_in_loop"] / posts if posts else 0.0, "ratio"),
            "hybrid.replay.share": (share(s["total_s"]["hybrid.replay"]), "ratio"),
            "hybrid.self_share": (share(layer["hybrid"]), "ratio"),
            "modelfile.self_share": (share(layer["modelfile"]), "ratio"),
            "cli.self_share": (share(layer["cli"]), "ratio"),
            "cli.bytes_written": (written, "count"),
            "trace.wall_s": (wall, "s"),
            "trace.self_sum_ratio": (sum(self_s.values()) / wall, "ratio"),
        })
    out = {}
    for name, (_, unit) in per_pass[0].items():
        out[name] = (statistics.median(p[name][0] for p in per_pass), unit, len(per_pass))
    overhead = typical_pass([p for p, _, _ in traced]) / typical_pass(plain)
    out["trace.overhead_ratio"] = (overhead, "ratio", len(per_pass))
    out["modelfile.load.s"] = (statistics.median(s["load_s"] for s in setups), "s", len(setups))
    out["import_s"] = (statistics.median(s["import_s"] for s in setups), "s", len(setups))
    out.update(extra)
    return out


def context():
    import numpy

    lines = 0
    pkg = os.path.join(SRC, "reachkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": lines,
    }


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


def print_table(title, metrics):
    print(f"# {title}")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:38s} {value:>14.6g} {unit:6s} n={n}")


def print_jobs(passes):
    print("# job latency (untraced): median, p90 where at least 10 samples lie above it")
    for key, v in job_samples(passes).items():
        tail = f"  p90={percentile(v, 0.9):.6f} s" if len(v) >= 100 else ""
        print(f"{key:38s} {statistics.median(v):>14.6f} s      n={len(v)}{tail}")


# ---------------------------------------------------------------------------
# entry points


def compare_digests(runner, write):
    cli_first = {job.key: runner.first[i] for i, job in enumerate(runner.jobs)
                 if job.argv is not None and i in runner.first}
    stored = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh)
    changed = sorted(k for k, d in cli_first.items() if stored.get(k) != d)
    if write:
        stored.update(cli_first)
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=2, sort_keys=True)
            fh.write("\n")
        changed = []
    for key in changed:
        print(f"# outputs changed since digests.json was recorded: {key}")
    return len(changed)


def run_workload(args):
    setups = []
    timings, rk, plans = setup(args.workload, args.seed)
    setups.append(timings)
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(probe_setup(args.workload, args.seed))

    runner = Runner(rk, plans, args.workload, args.seed)
    if not args.trace:
        passes = runner.passes(args.seconds)
        changed = compare_digests(runner, args.write_digests)
        metrics = e2e_metrics(passes, setups)
        print_table(f"{args.workload} seed={args.seed}: end-to-end", metrics)
        print_jobs(passes)
    else:
        import tracer as tracer_mod

        plain = runner.passes(args.seconds / 3.0)
        changed = compare_digests(runner, False)
        tracer = tracer_mod.Tracer()
        tracer.install(rk)
        runner.tracer = tracer
        traced, kept = [], None
        start = time.perf_counter()
        while len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds * 2 / 3:
            p = runner.run_pass()
            spans, counters = tracer.take()
            kept = kept or spans
            traced.append((p, tracer_mod.summarize(spans), counters))
        tracer.memory = True
        runner.run_pass()
        tracer.take()
        tracer.uninstall()
        labels = {i: job.key for i, job in enumerate(runner.jobs)}
        tracer_mod.write_spans(os.path.join(WORK, f"spans-{args.workload}.tsv"), kept, labels)
        extra = {
            "facelift.sweep.peak_mb": (tracer.peak_bytes / 2**20, "MB", 1),
            "cli.outputs_changed": (changed, "count", 1),
            "fail_ratio": (runner.failed / runner.attempted, "ratio", runner.attempted),
        }
        metrics = layer_metrics(tracer_mod, traced, plain, setups, extra)
        print_table(f"{args.workload} seed={args.seed}: per layer (traced)", metrics)
        print_jobs(plain)
    print("# context: " + json.dumps(context(), sort_keys=True))
    shutil.rmtree(runner.work, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        merged["correct"] &= part["correct"]
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        for k, v in part["metrics"].items():
            merged["metrics"][f"{name}/{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="record this run's job outputs as the reference digests")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "reachkit", "__init__.py")):
        print(f"error: no reachkit sources at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        print(json.dumps(setup(args.workload, args.seed)[0]))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
