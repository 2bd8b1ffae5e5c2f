"""Batch front end: run a model file, dump the results, plot them.

Exit codes: 0 clean run, 2 unusable model or arguments (also any other
reachkit error, such as an unbounded initial set), 3 violated
assumption (any reachkit.errors.AssumptionViolated: the computation
refused to start or step), 4 the run hit an iteration cap before
settling. report.json is written with sorted keys
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
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import AssumptionViolated, DimUnsupported, EmptyPolyhedron, ModelError, ReachkitError
from .facelift import GridRegion, reach_bounded_time, reach_invariant
from .geometry import Empty2D, Polyhedron, TooFewPoints, Unbounded2D, vertices_2d
from .hybrid import PostParams, RegionSet, replay_witness, semi_decide_reach
from .modelfile import SETTINGS, UNDER, ModelFile, Range, load_model
from .polyapprox import overapproximate_step

__all__ = ["RunReport", "run", "emit_plot", "main"]

EXIT_OK = 0
EXIT_MODEL = 2
EXIT_ASSUMPTION = 3
EXIT_CAP = 4

@dataclass
class RunReport:
    """Everything a run decided and produced, and nothing timed, so every
    field goes into report.json; run() fills in the command, model, kind
    and settings."""

    command: str = ""
    model: str = ""
    kind: str = ""
    settings: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    def dumps(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# output helpers


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


def _cell_text(head, region: GridRegion):
    """CSV text with one line per occupied cell of region, in
    cell_centers order: head (one string, or one per cell), then the
    cell's centre. Coordinate j of a centre depends only on the cell's
    index along axis j, so each axis value the region occupies is
    formatted once, with its separator."""
    idx = region.cell_indices()
    if idx.shape[0] == 0:
        return ""
    text = np.empty((idx.shape[0], region.dim + 1), object)
    text[:, 0] = head
    seps = [","] * (region.dim - 1) + ["\n"]
    for j, (lo, sep) in enumerate(zip(region.lo, seps)):
        col = idx[:, j]
        a = col.min()
        centres = lo + (np.arange(a, col.max() + 1) + 0.5) * region.h
        text[:, j + 1] = np.array([repr(c) + sep for c in centres.tolist()], object)[col - a]
    return "".join(text.ravel().tolist())


def _write_grid_tube(tube, report: RunReport, out: str) -> dict:
    """Write a grid tube's segments.csv (a line per cell of each segment)
    and list it in the report; returns the diagnostics of reach and
    reach-inv."""
    blocks = (_cell_text(f"{i},{_fmt(t0)},{_fmt(t1)},", s) for i, (t0, t1, s) in enumerate(tube.segments))
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
# command bodies; each takes the model, its resolved settings and the output
# directory, and returns (exit_code, report, result)


def _run_reach(m: ModelFile, s: dict, out: str):
    tube = reach_bounded_time(
        m.initial, m.dynamics, s["tau"], dt=s["dt"], h=s["cell"], under=s["mode"] == "under",
        bounds=s["bounds"], h_b=s["boundary_spacing"],
    )
    report = RunReport()
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


def _run_reach_inv(m: ModelFile, s: dict, out: str):
    tube = reach_invariant(
        m.initial, m.dynamics, m.invariant, dt=s["dt"], h=s["cell"], under=s["mode"] == "under",
        max_iters=s["max_iters"], tau_max=s["tau"], h_b=s["boundary_spacing"],
    )
    report = RunReport()
    report.diagnostics = {
        "iteration_cap": bool(tube.iteration_cap),
        **_write_grid_tube(tube, report, out),
    }
    code = EXIT_CAP if tube.iteration_cap else EXIT_OK
    return code, report, tube


def _run_polyapprox(m: ModelFile, s: dict, out: str):
    result = overapproximate_step(m.face, m.dynamics.matrix, s["delta"], mode=s["bounds"], delta0=s["delta0"])
    report = RunReport()
    bound_rows = (
        [k, i, *entry]
        for k, bs in enumerate(result.bounds)
        for i, entry in enumerate(zip(bs.labels(), bs.l.tolist(), bs.l_prime.tolist()))
    )
    _write_csv(os.path.join(out, "bounds.csv"), ["step", "index", "label", "l", "l_prime"], [_csv_lines(bound_rows)])
    items = (([k], P) for k, P in enumerate(result.polyhedra))
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


def _run_hybrid(m: ModelFile, s: dict, out: str):
    if not m.targets:
        raise ModelError("hybrid reach needs a 'target' section in the model")
    params = PostParams(dt=s["dt"], tau=s["tau"])
    s1 = RegionSet.from_init(m.system, s["cell"])
    s2 = RegionSet.from_polyhedra(m.system, m.targets, s["cell"])
    H = m.system
    verdict = semi_decide_reach(H, s1, s2, s["max_k"], params)
    reached = verdict.reached

    report = RunReport()
    dim = H.dim
    _write_csv(
        os.path.join(out, "cells.csv"),
        ["location", *_coord_header(dim)],
        [_cell_text(f"{q},", reached.regions[q]) for q in H.locations],
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


def _plot_groups(m: ModelFile, s: dict, out: str):
    """Ordered (tag, payload) pairs for the model's result geometry plus
    the run report of the command that runs the model's kind. A payload
    holds either outline polygons or a grid region."""
    _, rep, result = _runner(m.kind).body(m, s, out)
    if m.kind == "reach":
        groups = []
        if isinstance(m.initial, Polyhedron):
            groups.append(_polys_group("initial", [_poly_polygon(m.initial)]))
        elif result.initial_grid() is not None:
            groups.append(_cells_group("initial", result.initial_grid()))
        for i, (_, _, payload) in enumerate(result.segments):
            if isinstance(payload, GridRegion):
                groups.append(_cells_group(f"segment{i}", payload))
            else:
                groups.append(
                    _polys_group(f"segment{i}", [_poly_polygon(P) for P in payload])
                )
        return groups, rep
    if m.kind == "reach-inv":
        groups = [_polys_group("invariant", [_poly_polygon(m.invariant)])]
        if result.initial_grid() is not None:
            groups.append(_cells_group("initial", result.initial_grid()))
        for i, (_, _, seg) in enumerate(result.segments):
            groups.append(_cells_group(f"segment{i}", seg))
        return groups, rep
    if m.kind == "polyapprox":
        groups = [_polys_group("face", [_poly_polygon(m.face.as_polyhedron())])]
        for i, P in enumerate(result.polyhedra):
            groups.append(_polys_group(f"step{i}", [_poly_polygon(P)]))
        return groups, rep
    _, reached = result
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
        blocks = []
        for tag, payload in groups:
            polys = enumerate(payload.get("polys", []))
            blocks.append(
                _csv_lines([tag, j, v, *pt] for j, poly in polys for v, pt in enumerate(poly))
            )
            if "region" in payload:
                region = payload["region"]
                blocks.append(_cell_text([f"{tag},{j},0," for j in range(region.count())], region))
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


def _run_plot(m: ModelFile, s: dict, out: str):
    dim = m.system.dim if m.kind == "hybrid" else (
        m.face.dim if m.kind == "polyapprox" else m.initial.dim
    )
    if dim != 2:
        raise DimUnsupported(f"plotting needs a 2D model, got dimension {dim}")
    groups, sub = _plot_groups(m, s, out)
    name = f"plot.{s['format']}"
    emit_plot(groups, os.path.join(out, name), s["format"])
    report = RunReport(
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


# A model command: the model kind it runs (None: any, through the command
# of that kind), its body, its help text, and the settings it reads, each
# with its default or REQUIRED.
Command = namedtuple("Command", "kind body help defaults")
REQUIRED = object()

COMMANDS = {
    "reach": Command("reach", _run_reach, "bounded-time reach set", {
        "tau": REQUIRED, "dt": None, "cell": 0.05, "mode": False, "bounds": "conservative", "boundary_spacing": None,
    }),
    "reach-inv": Command("reach-inv", _run_reach_inv, "invariant-constrained reach set", {
        "dt": REQUIRED, "cell": 0.05, "tau": None, "mode": False, "max_iters": None, "boundary_spacing": None,
    }),
    "polyapprox": Command("polyapprox", _run_polyapprox, "one-step polyhedral enclosure", {
        "delta": REQUIRED, "delta0": None, "bounds": "conservative",
    }),
    "hybrid-reach": Command("hybrid", _run_hybrid, "hybrid semi-decision run", {
        "dt": REQUIRED, "cell": REQUIRED, "tau": 1.0, "max_k": 8,
    }),
    "plot": Command(None, _run_plot, "render a model's result geometry", {"format": "svg"}),
}


def _runner(kind) -> Command:
    return next(c for c in COMMANDS.values() if c.kind == kind)


def _settings(command, m: ModelFile, args) -> dict:
    """The settings command reads on model m (plot: its own and those of
    the command it runs), each from its flag, else from the model, else
    from the command's default."""
    cmd = COMMANDS[command]
    defaults = cmd.defaults if cmd.kind else {**cmd.defaults, **_runner(m.kind).defaults}
    out = {}
    for name, default in defaults.items():
        s = SETTINGS[name]
        v = getattr(args, s.flag[2:].replace("-", "_")) if s.flag else None
        v = m.setting(name) if v is None else s.rule.cast(v)
        if v is None:
            if default is REQUIRED:
                flag = f" or {s.flag}" if s.flag else ""
                raise ModelError(f"{command} needs {s.section}.{s.key}{flag}")
            v = None if default is None else s.rule.cast(default)
        out[name] = v
    return out


def _argument(rule: Range, text):
    """text read by the rule's cast if the value is in range; else (also
    when cast cannot read it) an argparse error that says what was
    expected."""
    try:
        v = rule.cast(text)
    except ValueError:
        v = None
    if v is None or not rule.ok(v):
        raise argparse.ArgumentTypeError(f"expected {rule.expected}, got {text!r}")
    return v


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    run: parse_args reads it without changing it, so callers must not
    change it either. Each model command takes the flags of the settings
    it reads; plot takes them all."""
    parser = argparse.ArgumentParser(
        prog="reachkit", description="face-lifted reachability toolbox"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, cmd in COMMANDS.items():
        sub = subs.add_parser(command, help=cmd.help)
        sub.add_argument("model", help="path to a model file")
        sub.add_argument("--out", default=None, help="output directory")
        reads = cmd.defaults if cmd.kind else {n for c in COMMANDS.values() for n in c.defaults}
        flags = {s.flag: s for n, s in SETTINGS.items() if s.flag and n in reads}
        for flag, s in flags.items():
            if s.rule is UNDER:
                how = {"action": "store_true"}
            elif s.rule.choices:
                how = {"choices": s.rule.choices}
            else:
                how = {"type": functools.partial(_argument, s.rule)}
            sub.add_argument(flag, default=None, help=s.help, **how)
    subs.add_parser("golden", help="run the acceptance-value suite")
    return parser


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
            cmd = COMMANDS[args.command]
            if cmd.kind not in (None, model.kind):
                raise ModelError(f"model kind {model.kind!r} does not fit this command (needs {cmd.kind!r})")
            settings = _settings(args.command, model, args)
            out = args.out or "."
            os.makedirs(out, exist_ok=True)
            started = time.perf_counter()
            code, report, _ = cmd.body(model, settings, out)
        report.settings = settings
        report.command, report.model, report.kind = args.command, model.path or "<memory>", model.kind
        elapsed = time.perf_counter() - started
        _write_report(report, out)
    except (ModelError, DimUnsupported) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except AssumptionViolated as exc:
        print(f"assumption violated: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except ReachkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MODEL
    for name in report.outputs:
        print(os.path.join(out, name))
    print(f"{args.command}: done in {elapsed:.3f}s (exit {code})")
    return code


def main():  # pragma: no cover
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
