#!/usr/bin/env python3
"""Compare the command-line outputs of two reachkit trees byte for byte.

    python3 tools/compare_outputs.py --parent DIR

DIR is another checkout of the repository, for example the parent commit
unpacked by ``git archive <rev> | tar -x -C DIR``. The same matrix of 45
CLI runs is made in DIR and in the tree that holds this script, and
``reachkit golden`` once in each:

- ``reach`` and ``reach-inv`` models plain, with ``--under``, with
  ``--cell 0.02`` and with both;
- ``polyapprox`` in both bound modes;
- ``hybrid-reach`` plain and with ``--cell 0.02``;
- ``plot`` csv and svg of all eight bundled models;
- the three ``--cell 0.01`` runs of the grid-fine benchmark workload.

Every run is a fresh process (``python3 -m reachkit`` with PYTHONPATH at
the tree's ``src`` and PYTHONDONTWRITEBYTECODE=1) on the tree's own copy
of the model, and writes to a temporary directory, never into either
tree. Before comparing, the model path and the output directory are
replaced by placeholders wherever they appear (the report's ``"model"``,
the printed output paths), and the timings of ``done in ...s`` and of
the golden table are masked. Then every output file, stdout, stderr and
the exit code are compared. Prints ``IDENTICAL`` or one diff per run that
differs; exits 0 or 1.
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODELS = "src/reachkit/models"
DONE = re.compile(rb"done in \d+\.\d+s")
GOLDEN_SECONDS = re.compile(rb"^(A\d+ +\w+) +\d+\.\d+", re.M)
GOLDEN_DETAIL_TIME = re.compile(rb"\d+\.\d+s\b")


def matrix():
    """(label, argv) of every CLI run; a model is named without its path."""
    runs = []
    for model, command in (
        ("example1", "reach"),
        ("rotation_disk", "reach"),
        ("rotation_square", "reach"),
        ("drift_invariant", "reach-inv"),
        ("rotation_cap", "reach-inv"),
    ):
        for extra in ([], ["--under"], ["--cell", "0.02"], ["--under", "--cell", "0.02"]):
            runs.append([command, model, *extra])
    for bounds in ("conservative", "sampled"):
        runs.append(["polyapprox", "example2", "--bounds", bounds])
    for model in ("hybrid_drift", "hybrid_disjoint"):
        runs.append(["hybrid-reach", model])
        runs.append(["hybrid-reach", model, "--cell", "0.02"])
    models = sorted(f[:-5] for f in os.listdir(os.path.join(HERE, MODELS)) if f.endswith(".json"))
    for model in models:
        for fmt in ("csv", "svg"):
            runs.append(["plot", model, "--format", fmt])
    runs.append(["reach", "example1", "--cell", "0.01"])
    runs.append(["reach", "rotation_disk", "--cell", "0.01"])
    runs.append(["reach-inv", "drift_invariant", "--cell", "0.01"])
    return [(" ".join(argv), argv) for argv in runs]


def run_once(root, argv):
    """(exit code, {name: bytes}) of one run in the tree at root: stdout,
    stderr and every output file, with paths and timings masked."""
    root = os.path.abspath(root)
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory(prefix="reachkit-compare-") as tmp:
        out = os.path.join(tmp, "out")
        if argv == ["golden"]:
            cmd = ["golden"]
        else:
            model = os.path.join(root, MODELS, argv[1] + ".json")
            cmd = [argv[0], model, *argv[2:], "--out", out]
        proc = subprocess.run(
            [sys.executable, "-m", "reachkit", *cmd], cwd=tmp, env=env, capture_output=True
        )
        files = {"<stdout>": proc.stdout, "<stderr>": proc.stderr}
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = fh.read()
        if argv != ["golden"]:
            files = {k: v.replace(model.encode(), b"<model>") for k, v in files.items()}
        files = {k: v.replace(out.encode(), b"<out>") for k, v in files.items()}
    files["<stdout>"] = DONE.sub(b"done in <t>s", files["<stdout>"])
    if argv == ["golden"]:
        text = GOLDEN_SECONDS.sub(rb"\1 <t>", files["<stdout>"])
        files["<stdout>"] = GOLDEN_DETAIL_TIME.sub(b"<t>s", text)
    return proc.returncode, files


def diff(label, parent, change):
    """Lines that describe how change differs from parent; none if equal."""
    lines = []
    (pcode, pfiles), (ccode, cfiles) = parent, change
    if pcode != ccode:
        lines.append(f"exit code {pcode} -> {ccode}")
    for name in sorted(set(pfiles) | set(cfiles)):
        a, b = pfiles.get(name), cfiles.get(name)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{name}: only in {'change' if a is None else 'parent'}")
            continue
        delta = difflib.unified_diff(
            a.decode(errors="replace").splitlines(),
            b.decode(errors="replace").splitlines(),
            f"parent/{name}",
            f"change/{name}",
            lineterm="",
        )
        lines.extend(list(delta)[:40])
    return [f"== {label}", *lines] if lines else []


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout to compare against")
    args = parser.parse_args(argv)
    runs = matrix() + [("golden", ["golden"])]
    # each run's two sides go in parallel, one process per tree
    with ThreadPoolExecutor(max_workers=2) as pool:
        sides = [
            (label, pool.submit(run_once, args.parent, a), pool.submit(run_once, HERE, a))
            for label, a in runs
        ]
        results = [(label, p.result(), c.result()) for label, p, c in sides]
    failures = 0
    for label, parent, change in results:
        lines = diff(label, parent, change)
        if lines:
            failures += 1
            print("\n".join(lines))
    codes = Counter(change[0] for label, _, change in results if label != "golden")
    tally = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items()))
    print(f"{len(runs) - 1} runs ({tally}) and golden")
    print("IDENTICAL" if not failures else f"DIFFERENT: {failures} of {len(runs)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
