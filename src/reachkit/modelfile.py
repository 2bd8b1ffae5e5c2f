"""Problem descriptions as JSON files.

One format covers the four pipelines: bounded-time reach, invariant-
constrained reach, the one-step polyhedral enclosure, and hybrid
reachability. Sets are written as explicit halfspace rows (``[a1..an, b]``
meaning a.x <= b) or as a box shorthand; dynamics as a matrix or as
expression strings. Loading validates the schema, checks each run
setting in the grid and flags sections against its range in SETTINGS,
and cross-checks every dimension before any computation starts; which
settings a command needs, and their defaults, is the command table's
decision (reachkit.cli.COMMANDS), since a flag can stand in for a
missing one. Serializing normalizes rows to unit normals, so load ->
save is a fixed point up to row scaling.
"""

from __future__ import annotations

import json
import os
import sys
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError
from .facelift import LevelSet
from .flow import ExpressionDynamics, LinearDynamics
from .geometry import Face, Halfspace, Polyhedron
from .hybrid import Edge, HybridSystem

__all__ = [
    "ModelFile",
    "load_model",
    "parse_model",
    "model_to_dict",
    "save_model",
    "bundled_model_path",
    "SETTINGS",
]

SCHEMA_VERSION = 1
KINDS = ("reach", "reach-inv", "polyapprox", "hybrid")

_TOP_KEYS = {
    "schema",
    "kind",
    "dynamics",
    "initial",
    "invariant",
    "face",
    "locations",
    "edges",
    "init",
    "target",
    "grid",
    "flags",
}


def _is_number(v):
    """The one number rule of a model value: a finite JSON number. A
    bool (an int to Python) and a numeric string are not numbers, and the
    exact comparison fails NaN, +-inf and ints beyond the float range."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# The values a run setting may take: ok tests a model value, or a flag's
# text once cast has read it; cast also turns an accepted model value into
# the run's setting; expected says in words what ok accepts.
Range = namedtuple("Range", "expected ok cast choices", defaults=(float, ()))


def _choice(*values):
    return Range(" or ".join(map(repr, values)), values.__contains__, str, values)


_FINITE = Range("a finite number", _is_number)
_POSITIVE = Range("a positive finite number", lambda v: _is_number(v) and v > 0.0)
_NONNEGATIVE = Range("a nonnegative finite number", lambda v: _is_number(v) and v >= 0.0)
_COUNT = Range("a nonnegative integer", lambda v: _is_number(v) and isinstance(v, int) and v >= 0, int)
# the one boolean setting; its flag takes no value
UNDER = Range("a boolean", lambda v: isinstance(v, bool), lambda under: "under" if under else "over")


# A run setting: the flag that sets it, else the model's section and key,
# both held to one range, and the flag's help text.
Setting = namedtuple("Setting", "flag section key rule help", defaults=(None,))

# keyed by the name each run's report.json lists the setting under
SETTINGS = {
    "tau": Setting("--tau", "grid", "tau", _NONNEGATIVE, "time horizon"),
    "dt": Setting("--dt", "grid", "dt", _POSITIVE, "time step"),
    "cell": Setting("--cell", "grid", "cell", _POSITIVE, "grid cell size"),
    "mode": Setting("--under", "flags", "under_approximate", UNDER, "compute the under-approximation flavor"),
    "bounds": Setting("--bounds", "flags", "bound_mode", _choice("sampled", "conservative"), "bound evaluation mode"),
    "max_iters": Setting("--max-iters", "flags", "max_iters", _COUNT, "iteration cap override"),
    "max_k": Setting("--max-iters", "flags", "max_k", _COUNT, "iteration cap override"),
    "format": Setting("--format", None, None, _choice("csv", "svg")),
    "boundary_spacing": Setting(None, "grid", "boundary_spacing", _POSITIVE),
    "delta": Setting(None, "grid", "delta", _POSITIVE),
    "delta0": Setting(None, "grid", "delta0", _FINITE),
}


def _need(cond, msg):
    if not cond:
        raise ModelError(msg)


@contextmanager
def _named(where):
    """Re-raise any error of the block but a ModelError as a ModelError
    whose message starts with where."""
    try:
        yield
    except ModelError:
        raise
    except Exception as exc:
        raise ModelError(f"{where}: {exc}") from None


def _float_list(values, where):
    _need(isinstance(values, list) and all(map(_is_number, values)), f"{where}: expected a list of finite numbers")
    return [float(v) for v in values]


def _float_matrix(rows, where):
    """A float array of a list of _float_list rows of one length."""
    _need(isinstance(rows, list), f"{where}: expected a list of rows")
    vals = [_float_list(row, f"{where} row {i}") for i, row in enumerate(rows)]
    _need(len(set(map(len, vals))) < 2, f"{where}: rows differ in length")
    return np.array(vals, float)


def _rows_to_halfspaces(rows, where):
    _need(isinstance(rows, list), f"{where}: rows must be a list")
    out = []
    for i, row in enumerate(rows):
        vals = _float_list(row, f"{where} row {i}")
        _need(len(vals) >= 2, f"{where} row {i}: need coefficients plus an offset")
        out.append(Halfspace(np.array(vals[:-1]), vals[-1]))
    return tuple(out)


def _poly_from_spec(spec, where) -> Polyhedron:
    _need(isinstance(spec, dict), f"{where}: expected an object")
    if "box" in spec:
        box = spec["box"]
        _need(
            isinstance(box, list) and len(box) == 2,
            f"{where}: box needs [lo, hi] corner lists",
        )
        lo = _float_list(box[0], f"{where} box lo")
        hi = _float_list(box[1], f"{where} box hi")
        _need(len(lo) == len(hi), f"{where}: box corners disagree on dimension")
        with _named(where):
            return Polyhedron.box(lo, hi)
    _need("rows" in spec, f"{where}: needs either 'box' or 'rows'")
    ineqs = _rows_to_halfspaces(spec["rows"], where)
    eqs = _rows_to_halfspaces(spec.get("eq_rows", []), f"{where} eq")
    _need(len(ineqs) + len(eqs) > 0, f"{where}: no rows given")
    dims = {h.normal.size for h in ineqs + eqs}
    _need(len(dims) == 1, f"{where}: rows disagree on dimension")
    return Polyhedron(ineqs, eqs)


def _poly_to_spec(P: Polyhedron) -> dict:
    spec = {"rows": [[*h.unit().normal.tolist(), float(h.unit().offset)] for h in P.ineqs]}
    if P.eqs:
        spec["eq_rows"] = [
            [*h.unit().normal.tolist(), float(h.unit().offset)] for h in P.eqs
        ]
    return spec


def _set_from_spec(spec, where):
    _need(isinstance(spec, dict), f"{where}: expected an object")
    if "levelset" in spec:
        _need(
            "lo" in spec and "hi" in spec,
            f"{where}: a level set needs its 'lo'/'hi' sampling box",
        )
        with _named(where):
            return LevelSet(
                str(spec["levelset"]),
                _float_list(spec["lo"], f"{where} lo"),
                _float_list(spec["hi"], f"{where} hi"),
            )
    return _poly_from_spec(spec, where)


def _set_to_spec(s) -> dict:
    if isinstance(s, LevelSet):
        return {
            "levelset": str(s.func),
            "lo": s.lo.tolist(),
            "hi": s.hi.tolist(),
        }
    return _poly_to_spec(s)


def _dyn_from_spec(spec, where):
    _need(isinstance(spec, dict), f"{where}: expected an object")
    if "matrix" in spec:
        M = _float_matrix(spec["matrix"], f"{where}.matrix")
        _need(M.ndim == 2 and M.shape[0] == M.shape[1], f"{where}: matrix must be square")
        return LinearDynamics(M)
    _need("expressions" in spec, f"{where}: needs 'matrix' or 'expressions'")
    exprs = spec["expressions"]
    _need(
        isinstance(exprs, list) and all(isinstance(e, str) for e in exprs),
        f"{where}: expressions must be a list of strings",
    )
    with _named(where):
        return ExpressionDynamics.parse(exprs)


def _dyn_to_spec(dyn) -> dict:
    if isinstance(dyn, LinearDynamics):
        return {"matrix": dyn.matrix.tolist()}
    return {"expressions": [str(c) for c in dyn.components]}


def _face_from_spec(spec, where) -> Face:
    _need(isinstance(spec, dict), f"{where}: expected an object")
    _need("sides" in spec and "base" in spec, f"{where}: needs 'sides' and 'base' rows")
    sides = _rows_to_halfspaces(spec["sides"], f"{where} sides")
    base_vals = _float_list(spec["base"], f"{where} base")
    _need(len(base_vals) >= 2, f"{where}: base row needs coefficients plus an offset")
    with _named(where):
        face = Face(
            np.array([h.normal for h in sides]),
            np.array([h.offset for h in sides]),
            np.array(base_vals[:-1]),
            base_vals[-1],
        )
    if face.check_orthonormal():
        face = Face(
            face.side_normals, face.side_offsets, face.base_normal, face.base_offset,
            orthonormal=True,
        )
    return face


def _face_to_spec(face: Face) -> dict:
    return {
        "sides": [
            [*face.side_normals[i].tolist(), float(face.side_offsets[i])]
            for i in range(face.side_normals.shape[0])
        ],
        "base": [*face.base_normal.tolist(), float(face.base_offset)],
    }


def _check_keys(data, allowed, where):
    extra = set(data) - allowed
    _need(not extra, f"{where}: unknown keys {sorted(extra)}")


@dataclass
class ModelFile:
    """A parsed problem file; which fields are set depends on the kind."""

    kind: str
    dynamics: object = None
    initial: object = None
    invariant: Polyhedron = None
    face: Face = None
    system: HybridSystem = None
    targets: tuple = ()
    grid: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    path: str = None

    def setting(self, name):
        """The model's value of the run setting name (a key of SETTINGS),
        cast by the setting's rule, or None when the model does not set it."""
        s = SETTINGS[name]
        v = getattr(self, s.section).get(s.key) if s.section else None
        return None if v is None else s.rule.cast(v)


def parse_model(data, path=None) -> ModelFile:
    _need(isinstance(data, dict), "model root must be an object")
    _check_keys(data, _TOP_KEYS, "model")
    schema = data.get("schema")
    _need(
        _is_number(schema) and schema == SCHEMA_VERSION,
        f"unsupported schema {schema!r}; this build reads version {SCHEMA_VERSION}",
    )
    kind = data.get("kind")
    _need(kind in KINDS, f"unknown problem kind {kind!r}; expected one of {KINDS}")

    m = ModelFile(kind=kind, path=path)
    for section in ("grid", "flags"):
        values = data.get(section, {})
        _need(isinstance(values, dict), f"{section}: expected an object")
        rules = {s.key: s.rule for s in SETTINGS.values() if s.section == section}
        _check_keys(values, set(rules), section)
        for key, val in values.items():
            _need(rules[key].ok(val), f"{section}.{key}: expected {rules[key].expected}")
        setattr(m, section, dict(values))

    if kind == "hybrid":
        locs = data.get("locations")
        _need(
            isinstance(locs, list) and locs,
            "hybrid model needs a nonempty 'locations' list",
        )
        for key in ("edges", "init", "target"):
            _need(isinstance(data.get(key, []), list), f"{key}: expected a list")
        names, invariants, dynamics = [], {}, {}
        for i, loc in enumerate(locs):
            _need(isinstance(loc, dict), f"locations[{i}]: expected an object")
            _check_keys(loc, {"name", "invariant", "dynamics"}, f"locations[{i}]")
            name = loc.get("name")
            _need(isinstance(name, str) and name, f"locations[{i}]: needs a name")
            _need(name not in invariants, f"duplicate location {name!r}")
            names.append(name)
            invariants[name] = _poly_from_spec(
                loc.get("invariant"), f"locations[{i}].invariant"
            )
            dynamics[name] = _dyn_from_spec(
                loc.get("dynamics"), f"locations[{i}].dynamics"
            )
        edges = []
        for i, spec in enumerate(data.get("edges", [])):
            _need(isinstance(spec, dict), f"edges[{i}]: expected an object")
            # "controllable" is accepted and ignored, so models that carry it still load
            _check_keys(
                spec,
                {"from", "to", "event", "guard", "reset_matrix", "reset_offset", "controllable"},
                f"edges[{i}]",
            )
            for key in ("from", "to", "event", "guard"):
                _need(key in spec, f"edges[{i}]: missing {key!r}")
            R = spec.get("reset_matrix")
            c = spec.get("reset_offset")
            with _named(f"edges[{i}]"):
                edges.append(
                    Edge(
                        source=str(spec["from"]),
                        guard=_poly_from_spec(spec["guard"], f"edges[{i}].guard"),
                        event=str(spec["event"]),
                        target=str(spec["to"]),
                        reset_matrix=None if R is None else _float_matrix(R, f"edges[{i}].reset_matrix"),
                        reset_offset=None if c is None else np.array(_float_list(c, f"edges[{i}].reset_offset")),
                    )
                )
        init = []
        for i, spec in enumerate(data.get("init", [])):
            _need(isinstance(spec, dict), f"init[{i}]: expected an object")
            _check_keys(spec, {"location", "set"}, f"init[{i}]")
            init.append(
                (str(spec.get("location")), _poly_from_spec(spec.get("set"), f"init[{i}].set"))
            )
        _need(init, "hybrid model needs a nonempty 'init' list")
        m.system = HybridSystem(tuple(names), invariants, dynamics, tuple(edges), tuple(init))
        targets = []
        for i, spec in enumerate(data.get("target", [])):
            _need(isinstance(spec, dict), f"target[{i}]: expected an object")
            _check_keys(spec, {"location", "set"}, f"target[{i}]")
            q = str(spec.get("location"))
            _need(q in invariants, f"target[{i}] names unknown location {q!r}")
            P = _poly_from_spec(spec.get("set"), f"target[{i}].set")
            _need(P.dim == m.system.dim, f"target[{i}]: wrong dimension")
            targets.append((q, P))
        m.targets = tuple(targets)
        _need("cell" in m.grid, "hybrid model needs grid.cell")
        # resets land in their target invariant (within one cell), initial sets in theirs
        m.system.validate(m.setting("cell"))
        return m

    _need("dynamics" in data, f"{kind} model needs a 'dynamics' section")
    m.dynamics = _dyn_from_spec(data["dynamics"], "dynamics")

    if kind == "polyapprox":
        _need(
            isinstance(m.dynamics, LinearDynamics),
            "polyapprox: dynamics must be a matrix",
        )
        _need("face" in data, "polyapprox model needs a 'face' section")
        m.face = _face_from_spec(data["face"], "face")
        _need(
            m.face.dim == m.dynamics.matrix.shape[0],
            "face and matrix disagree on dimension",
        )
        return m

    _need("initial" in data, f"{kind} model needs an 'initial' section")
    m.initial = _set_from_spec(data["initial"], "initial")
    dyn_dim = m.dynamics.dim
    _need(m.initial.dim == dyn_dim, "initial set and dynamics disagree on dimension")

    if "invariant" in data:
        m.invariant = _poly_from_spec(data["invariant"], "invariant")
        _need(m.invariant.dim == dyn_dim, "invariant and dynamics disagree on dimension")

    if kind == "reach-inv":
        _need(m.invariant is not None, "reach-inv model needs an 'invariant' section")
    return m


def bundled_model_path(name: str) -> str:
    """Absolute path of a model shipped inside the package."""
    path = os.path.join(os.path.dirname(__file__), "models", name)
    if not os.path.exists(path):
        raise ModelError(f"no bundled model named {name!r}")
    return path


def load_model(path) -> ModelFile:
    if not os.path.exists(path):
        raise ModelError(f"model file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"model file is not valid JSON: {exc}") from None
    return parse_model(data, path=str(path))


def model_to_dict(m: ModelFile) -> dict:
    out = {"schema": SCHEMA_VERSION, "kind": m.kind}
    if m.kind == "hybrid":
        H = m.system
        out["locations"] = [
            {
                "name": q,
                "invariant": _poly_to_spec(H.invariants[q]),
                "dynamics": _dyn_to_spec(H.dynamics[q]),
            }
            for q in H.locations
        ]
        out["edges"] = [
            {
                "from": e.source,
                "to": e.target,
                "event": e.event,
                "guard": _poly_to_spec(e.guard),
                "reset_matrix": e.reset_matrix.tolist(),
                "reset_offset": e.reset_offset.tolist(),
            }
            for e in H.edges
        ]
        out["init"] = [
            {"location": q, "set": _poly_to_spec(P)} for q, P in H.init
        ]
        if m.targets:
            out["target"] = [
                {"location": q, "set": _poly_to_spec(P)} for q, P in m.targets
            ]
    else:
        out["dynamics"] = _dyn_to_spec(m.dynamics)
        if m.kind == "polyapprox":
            out["face"] = _face_to_spec(m.face)
        else:
            out["initial"] = _set_to_spec(m.initial)
            if m.invariant is not None:
                out["invariant"] = _poly_to_spec(m.invariant)
    if m.grid:
        out["grid"] = dict(m.grid)
    if m.flags:
        out["flags"] = dict(m.flags)
    return out


def save_model(m: ModelFile, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(m), fh, indent=2, sort_keys=True)
        fh.write("\n")
