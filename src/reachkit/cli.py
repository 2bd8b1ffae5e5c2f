"""Batch front end: run a model file, dump the results, plot them.

Exit codes: 0 clean run, 2 unusable model or arguments (also any other
reachkit error, such as an unbounded initial set), 3 violated
assumption (the computation refused to start or step), 4 the run hit an
iteration cap before settling. report.json is written with sorted keys
and no timing data, so repeated runs of the same model are byte
identical; timings go to stdout only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionA2Violated,
    BadDeltaOrder,
    DimUnsupported,
    EmptyBoundary,
    EmptyPolyhedron,
    ModelError,
    NonFiniteState,
    NumericRange,
    PreconditionViolated,
    ReachkitError,
    StepTooCoarse,
)
from .facelift import GridRegion, reach_bounded_time, reach_invariant
from .geometry import Empty2D, Polyhedron, TooFewPoints, Unbounded2D, vertices_2d
from .hybrid import PostParams, RegionSet, replay_witness, semi_decide_reach
from .modelfile import ModelFile, load_model
from .polyapprox import overapproximate_step

__all__ = ["RunReport", "run", "emit_plot", "main"]

EXIT_OK = 0
EXIT_MODEL = 2
EXIT_ASSUMPTION = 3
EXIT_CAP = 4

_ASSUMPTION_ERRORS = (
    AssumptionA2Violated,
    BadDeltaOrder,
    EmptyBoundary,
    EmptyPolyhedron,
    NonFiniteState,
    NumericRange,
    PreconditionViolated,
    StepTooCoarse,
)


@dataclass
class RunReport:
    """Everything a run decided and produced, minus wall-clock time; run()
    fills in the command, model and kind."""

    command: str = ""
    model: str = ""
    kind: str = ""
    settings: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "model": self.model,
            "kind": self.kind,
            "settings": self.settings,
            "diagnostics": self.diagnostics,
            "outputs": self.outputs,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# output helpers


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv(path, header, blocks):
    """Write the header line, then each block of whole CSV lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def _csv_lines(rows):
    """CSV text of rows of fields, each field formatted by _fmt."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


def _write_report(report: RunReport, out: str):
    path = os.path.join(out, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.dumps())
    report.outputs.append("report.json")
    return path


def _coord_header(dim):
    return [f"x{j + 1}" for j in range(dim)]


def _cell_text():
    """A function (head, region) -> CSV text with one line per occupied
    cell of region, in cell_centers order: head (one string, or one per
    cell), then the cell's centre. Coordinate j of a centre depends only
    on the cell's index along axis j, so each axis value is formatted
    once per grid layout, with its separator."""
    tables = {}

    def lines(head, region: GridRegion):
        key = (region.lo.tobytes(), region.h, region.shape)
        if key not in tables:
            seps = [","] * (region.dim - 1) + ["\n"]
            tables[key] = [
                np.array([_fmt(c) + sep for c in lo + (np.arange(n) + 0.5) * region.h], object)
                for lo, n, sep in zip(region.lo, region.shape, seps)
            ]
        idx = np.argwhere(region.occupancy)
        text = np.empty((idx.shape[0], region.dim + 1), object)
        text[:, 0] = head
        for j, table in enumerate(tables[key]):
            text[:, j + 1] = table[idx[:, j]]
        return "".join(text.ravel().tolist())

    return lines


def _write_grid_tube(tube, report: RunReport, out: str) -> dict:
    """Write a grid tube's segments.csv (a line per cell of each segment)
    and list it in the report; returns the diagnostics of reach and
    reach-inv."""
    cells = _cell_text()
    blocks = (cells(f"{i},{_fmt(t0)},{_fmt(t1)},", s) for i, (t0, t1, s) in enumerate(tube.segments))
    header = ["segment", "t0", "t1", *_coord_header(tube.region().dim)]
    _write_csv(os.path.join(out, "segments.csv"), header, blocks)
    report.outputs.append("segments.csv")
    return {
        "segments": len(tube.segments),
        "iterations": int(tube.iterations),
        "front_collapse": bool(tube.front_collapse),
        "cells": int(tube.combined_region().count()),
    }


def _write_polyhedra(path, lead, items, dim):
    """Write a CSV line per row of each (fields, Polyhedron) item: the
    fields under the lead header, then the row number, ineq or eq, the
    normal a1..a<dim> and the offset b."""
    rows = (
        [*fields, r, "ineq" if r < len(P.ineqs) else "eq", *h.normal, h.offset]
        for fields, P in items
        for r, h in enumerate(P.rows)
    )
    header = [*lead, "row", "kind", *(f"a{j + 1}" for j in range(dim)), "b"]
    _write_csv(path, header, [_csv_lines(rows)])


# ---------------------------------------------------------------------------
# effective parameters (model grid section, overridden by flags)


def _setting(args, name, model_grid, default=None):
    v = getattr(args, name.replace("-", "_"), None)
    if v is None:
        v = model_grid.get(name)
    if v is None:
        v = default
    return None if v is None else float(v)


def _under_flag(args, m: ModelFile) -> bool:
    return bool(getattr(args, "under", False) or m.flag("under_approximate", False))


def _bounds_flag(args, m: ModelFile) -> str:
    return getattr(args, "bounds", None) or m.flag("bound_mode", "conservative")


def _require_kind(m: ModelFile, expected: str):
    if m.kind != expected:
        raise ModelError(
            f"model kind {m.kind!r} does not fit this command (needs {expected!r})"
        )


# ---------------------------------------------------------------------------
# command bodies; each returns (exit_code, report)


def _run_reach(m: ModelFile, args, out: str):
    _require_kind(m, "reach")
    tau = _setting(args, "tau", m.grid)
    if tau is None:
        raise ModelError("reach needs a horizon: set grid.tau or pass --tau")
    dt = _setting(args, "dt", m.grid)
    cell = _setting(args, "cell", m.grid, 0.05)
    under = _under_flag(args, m)
    bounds = _bounds_flag(args, m)
    h_b = m.grid_value("boundary_spacing")

    tube = reach_bounded_time(
        m.initial, m.dynamics, tau, dt=dt, h=cell, under=under, bounds=bounds, h_b=h_b
    )
    report = RunReport(
        settings={
            "tau": tau,
            "dt": dt,
            "cell": cell,
            "mode": "under" if under else "over",
            "bounds": bounds,
            "boundary_spacing": h_b,
        },
    )
    if tube.occupancy is not None or tube.under_occupancy is not None:
        report.diagnostics = {"path": "front", **_write_grid_tube(tube, report, out)}
    else:
        items = (([i, t0, t1, j], P) for i, (t0, t1, ps) in enumerate(tube.segments) for j, P in enumerate(ps))
        _write_polyhedra(os.path.join(out, "polyhedra.csv"), ["segment", "t0", "t1", "member"], items, m.initial.dim)
        report.outputs.append("polyhedra.csv")
        report.diagnostics = {
            "path": "polyhedral",
            "segments": len(tube.segments),
            "members": sum(len(p) for _, _, p in tube.segments),
            "delta_shrunk": bool(tube.delta_shrunk),
        }
    return EXIT_OK, report, tube


def _run_reach_inv(m: ModelFile, args, out: str):
    _require_kind(m, "reach-inv")
    dt = _setting(args, "dt", m.grid)
    if dt is None:
        raise ModelError("reach-inv needs a step: set grid.dt or pass --dt")
    cell = _setting(args, "cell", m.grid, 0.05)
    tau = _setting(args, "tau", m.grid)
    under = _under_flag(args, m)
    max_iters = getattr(args, "max_iters", None)
    if max_iters is None:
        max_iters = m.flag("max_iters")

    tube = reach_invariant(
        m.initial,
        m.dynamics,
        m.invariant,
        dt=dt,
        h=cell,
        under=under,
        max_iters=max_iters,
        tau_max=tau,
        h_b=m.grid_value("boundary_spacing"),
    )
    report = RunReport(
        settings={
            "dt": dt,
            "cell": cell,
            "tau": tau,
            "mode": "under" if under else "over",
            "max_iters": max_iters,
            "boundary_spacing": m.grid_value("boundary_spacing"),
        },
    )
    report.diagnostics = {
        "iteration_cap": bool(tube.iteration_cap),
        **_write_grid_tube(tube, report, out),
    }
    code = EXIT_CAP if tube.iteration_cap else EXIT_OK
    return code, report, tube


def _run_polyapprox(m: ModelFile, args, out: str):
    _require_kind(m, "polyapprox")
    delta = m.grid_value("delta")
    delta0 = m.grid_value("delta0")
    mode = _bounds_flag(args, m)

    result = overapproximate_step(m.face, m.dynamics.matrix, delta, mode=mode, delta0=delta0)
    report = RunReport(settings={"delta": delta, "delta0": delta0, "bounds": mode})
    bound_rows = (
        [s, i, *entry]
        for s, bs in enumerate(result.bounds)
        for i, entry in enumerate(zip(bs.labels(), bs.l.tolist(), bs.l_prime.tolist()))
    )
    _write_csv(os.path.join(out, "bounds.csv"), ["step", "index", "label", "l", "l_prime"], [_csv_lines(bound_rows)])
    items = (([s], P) for s, P in enumerate(result.polyhedra))
    _write_polyhedra(os.path.join(out, "halfspaces.csv"), ["step"], items, m.face.dim)
    report.outputs += ["bounds.csv", "halfspaces.csv"]
    report.diagnostics = {
        "steps": len(result.problems),
        "deltas": [float(d) for d in result.deltas],
        "delta_shrunk": bool(result.delta_shrunk),
        "bounds": [{"l": bs.l.tolist(), "l_prime": bs.l_prime.tolist()} for bs in result.bounds],
        "candidate_rows": [len(P.ineqs) + len(P.eqs) for P in result.assembled],
    }
    return EXIT_OK, report, result


def _run_hybrid(m: ModelFile, args, out: str):
    _require_kind(m, "hybrid")
    if not m.targets:
        raise ModelError("hybrid reach needs a 'target' section in the model")
    dt = _setting(args, "dt", m.grid)
    cell = _setting(args, "cell", m.grid)
    tau = _setting(args, "tau", m.grid, 1.0)
    max_k = getattr(args, "max_iters", None)
    if max_k is None:
        max_k = m.flag("max_k", 8)
    max_k = int(max_k)
    params = PostParams(dt=dt, tau=tau)
    s1 = RegionSet.from_init(m.system, cell)
    s2 = RegionSet.from_polyhedra(m.system, m.targets, cell)
    H = m.system
    verdict = semi_decide_reach(H, s1, s2, max_k, params)
    reached = verdict.reached

    report = RunReport(settings={"dt": dt, "cell": cell, "tau": tau, "max_k": max_k})
    dim = H.dim
    cells = _cell_text()
    _write_csv(
        os.path.join(out, "cells.csv"),
        ["location", *_coord_header(dim)],
        [cells(f"{q},", reached.regions[q]) for q in H.locations],
    )
    report.outputs.append("cells.csv")

    diagnostics = {
        "verdict": verdict.summary(),
        "cells": int(reached.count()),
        "capped_locations": sorted(reached.capped),
    }
    if verdict.kind == "yes":
        # replay_witness validates its trajectory (invalid_steps) on success
        rep = replay_witness(H, s1, verdict, params)
        diagnostics["replay"] = {
            "success": bool(rep.success),
            "distance": float(rep.distance),
            "steps": len(rep.steps),
            "invalid_steps": int(rep.invalid_steps),
        }
    report.diagnostics = diagnostics
    code = EXIT_OK if verdict.kind == "yes" else EXIT_CAP
    return code, report, (verdict, reached)


# ---------------------------------------------------------------------------
# plotting


_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _polys_group(tag, polys):
    return tag, {"polys": [np.atleast_2d(p) for p in polys if p is not None]}


def _cells_group(tag, region: GridRegion):
    return tag, {"region": region}


def _poly_polygon(P: Polyhedron):
    try:
        return vertices_2d(P)
    except (Empty2D, Unbounded2D, TooFewPoints, EmptyPolyhedron):
        return None


def _plot_groups(m: ModelFile, args):
    """Ordered (tag, payload) pairs for the model's result geometry plus
    the underlying run report. A payload holds either outline polygons
    or a grid region."""
    if m.kind == "reach":
        _, rep, tube = _run_reach(m, args, _outdir(args))
        groups = []
        if isinstance(m.initial, Polyhedron):
            groups.append(_polys_group("initial", [_poly_polygon(m.initial)]))
        elif tube.initial_grid() is not None:
            groups.append(_cells_group("initial", tube.initial_grid()))
        for i, (_, _, payload) in enumerate(tube.segments):
            if isinstance(payload, GridRegion):
                groups.append(_cells_group(f"segment{i}", payload))
            else:
                groups.append(
                    _polys_group(f"segment{i}", [_poly_polygon(P) for P in payload])
                )
        return groups, rep
    if m.kind == "reach-inv":
        _, rep, tube = _run_reach_inv(m, args, _outdir(args))
        groups = [_polys_group("invariant", [_poly_polygon(m.invariant)])]
        if tube.initial_grid() is not None:
            groups.append(_cells_group("initial", tube.initial_grid()))
        for i, (_, _, seg) in enumerate(tube.segments):
            groups.append(_cells_group(f"segment{i}", seg))
        return groups, rep
    if m.kind == "polyapprox":
        _, rep, result = _run_polyapprox(m, args, _outdir(args))
        groups = [_polys_group("face", [_poly_polygon(m.face.as_polyhedron())])]
        for s, P in enumerate(result.polyhedra):
            groups.append(_polys_group(f"step{s}", [_poly_polygon(P)]))
        return groups, rep
    _, rep, (verdict, reached) = _run_hybrid(m, args, _outdir(args))
    groups = [
        _cells_group(f"location:{q}", reached.regions[q]) for q in m.system.locations
    ]
    groups.append(_polys_group("target", [_poly_polygon(P) for _, P in m.targets]))
    return groups, rep


def _svg_point(x, y, lo, hi, scale, pad):
    sx = pad + (x - lo[0]) * scale
    sy = pad + (hi[1] - y) * scale
    return f"{sx:.4f},{sy:.4f}"


def emit_plot(groups, path, fmt):
    """Write grouped 2D geometry as csv rows or a standalone svg.

    csv gets one row per polygon vertex and one row per cell center;
    svg strokes polygons as outlines and cells as little squares, one
    <g> element per group, in the given order.
    """
    if fmt == "csv":
        cells = _cell_text()
        blocks = []
        for tag, payload in groups:
            polys = enumerate(payload.get("polys", []))
            blocks.append(
                _csv_lines([tag, j, v, *pt] for j, poly in polys for v, pt in enumerate(poly))
            )
            if "region" in payload:
                region = payload["region"]
                blocks.append(cells([f"{tag},{j},0," for j in range(region.count())], region))
        _write_csv(path, ["group", "item", "vertex", "x1", "x2"], blocks)
        return path
    if fmt != "svg":
        raise ModelError(f"unknown plot format {fmt!r}")
    centers = [p["region"].cell_centers() if "region" in p else () for _, p in groups]
    pts = []
    for (_, payload), cells in zip(groups, centers):
        pts.extend(payload.get("polys", []))
        if len(cells):
            half = payload["region"].h / 2.0
            pts.append(cells - half)
            pts.append(cells + half)
    if pts:
        allp = np.vstack(pts)
        lo, hi = allp.min(axis=0), allp.max(axis=0)
    else:
        lo, hi = np.zeros(2), np.ones(2)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    size, pad = 640.0, 24.0
    scale = (size - 2 * pad) / span
    width = 2 * pad + (hi[0] - lo[0]) * scale
    height = 2 * pad + (hi[1] - lo[1]) * scale
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:.1f} {height:.1f}">'
    ]
    for gi, ((tag, payload), cells) in enumerate(zip(groups, centers)):
        color = _PALETTE[gi % len(_PALETTE)]
        lines.append(f'<g id="{tag}" stroke="{color}" fill="{color}" fill-opacity="0.08">')
        for poly in payload.get("polys", []):
            coords = " ".join(_svg_point(p[0], p[1], lo, hi, scale, pad) for p in poly)
            if poly.shape[0] < 3:
                lines.append(f'<polyline points="{coords}" fill="none"/>')
            else:
                lines.append(f'<polygon points="{coords}"/>')
        if len(cells):
            h = payload["region"].h
            side = h * scale
            for center in cells:
                corner = _svg_point(
                    center[0] - h / 2.0, center[1] + h / 2.0, lo, hi, scale, pad
                ).split(",")
                lines.append(
                    f'<rect x="{corner[0]}" y="{corner[1]}" '
                    f'width="{side:.4f}" height="{side:.4f}"/>'
                )
        lines.append("</g>")
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _run_plot(m: ModelFile, args, out: str):
    dim = m.system.dim if m.kind == "hybrid" else (
        m.face.dim if m.kind == "polyapprox" else m.initial.dim
    )
    if dim != 2:
        raise DimUnsupported(f"plotting needs a 2D model, got dimension {dim}")
    fmt = getattr(args, "format", None) or "svg"
    groups, sub = _plot_groups(m, args)
    name = f"plot.{fmt}"
    emit_plot(groups, os.path.join(out, name), fmt)
    report = RunReport(
        settings={"format": fmt, **sub.settings},
        diagnostics={
            "groups": [
                [tag, payload["region"].count() if "region" in payload else len(payload["polys"])]
                for tag, payload in groups
            ],
            "run": sub.diagnostics,
        },
        outputs=[name, *sub.outputs],
    )
    return EXIT_OK, report, groups


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _argument(cast, text, ok, expected):
    """text read by cast if the value is ok; else (also when cast cannot
    read it) an argparse error that says what was expected."""
    try:
        v = cast(text)
    except ValueError:
        v = None
    if v is None or not ok(v):
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return v


def _positive_float(text):
    return _argument(float, text, lambda v: 0.0 < v < np.inf, "a positive finite number")


def _nonnegative_float(text):
    return _argument(float, text, lambda v: 0.0 <= v < np.inf, "a nonnegative finite number")


def _nonnegative_int(text):
    return _argument(int, text, lambda v: v >= 0, "a nonnegative integer")


def _add_common(sub, *names):
    if "tau" in names:
        sub.add_argument("--tau", type=_nonnegative_float, default=None, help="time horizon")
    if "dt" in names:
        sub.add_argument("--dt", type=_positive_float, default=None, help="time step")
    if "cell" in names:
        sub.add_argument("--cell", type=_positive_float, default=None, help="grid cell size")
    if "under" in names:
        sub.add_argument(
            "--under", action="store_true", help="compute the under-approximation flavor"
        )
    if "bounds" in names:
        sub.add_argument(
            "--bounds",
            choices=("sampled", "conservative"),
            default=None,
            help="bound evaluation mode",
        )
    if "max-iters" in names:
        sub.add_argument(
            "--max-iters", type=_nonnegative_int, default=None, help="iteration cap override"
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    run: parse_args reads it without changing it, so callers must not
    change it either."""
    parser = argparse.ArgumentParser(
        prog="reachkit", description="face-lifted reachability toolbox"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def model_sub(name, helptext, *flags):
        sub = subs.add_parser(name, help=helptext)
        sub.add_argument("model", help="path to a model file")
        sub.add_argument("--out", default=None, help="output directory")
        _add_common(sub, *flags)
        return sub

    model_sub("reach", "bounded-time reach set", "tau", "dt", "cell", "under", "bounds")
    model_sub("reach-inv", "invariant-constrained reach set", "dt", "cell", "tau", "under", "max-iters")
    model_sub("polyapprox", "one-step polyhedral enclosure", "bounds")
    model_sub("hybrid-reach", "hybrid semi-decision run", "dt", "cell", "tau", "max-iters")
    plot = model_sub("plot", "render a model's result geometry", "tau", "dt", "cell", "under", "bounds", "max-iters")
    plot.add_argument("--format", choices=("csv", "svg"), default="svg")
    subs.add_parser("golden", help="run the acceptance-value suite")
    return parser


_BODIES = {
    "reach": _run_reach,
    "reach-inv": _run_reach_inv,
    "polyapprox": _run_polyapprox,
    "hybrid-reach": _run_hybrid,
    "plot": _run_plot,
}


def run(argv=None) -> int:
    """Parse arguments, run the command, write outputs; returns the exit
    code instead of raising, so tests can call it directly."""
    args = build_parser().parse_args(argv)
    if args.command == "golden":
        from .golden import run_golden_suite

        return run_golden_suite()
    try:
        # the model checks and the run report out-of-range values as errors
        # (NonFiniteState, StepTooCoarse and the like), so numpy's
        # floating-point warnings would only repeat them on stderr
        with np.errstate(all="ignore"):
            model = load_model(args.model)
            out = _outdir(args)
            started = time.perf_counter()
            code, report, _ = _BODIES[args.command](model, args, out)
        report.command, report.model, report.kind = args.command, model.path or "<memory>", model.kind
        report.elapsed = time.perf_counter() - started
        _write_report(report, out)
    except (ModelError, DimUnsupported) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except _ASSUMPTION_ERRORS as exc:
        print(f"assumption violated: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except ReachkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL
    for name in report.outputs:
        print(os.path.join(out, name))
    print(f"{args.command}: done in {report.elapsed:.3f}s (exit {code})")
    return code


def main():  # pragma: no cover
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
