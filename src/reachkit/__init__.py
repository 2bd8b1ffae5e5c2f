"""Face-lifting reachability with polyhedral flow-tube over-approximation."""

import importlib

from . import cli, errors, expr, facelift, flow, geometry, hybrid, modelfile, polyapprox

__all__ = [
    "cli",
    "errors",
    "expr",
    "facelift",
    "flow",
    "geometry",
    "golden",
    "hybrid",
    "modelfile",
    "polyapprox",
]
__version__ = "0.1.0"


def __getattr__(name):
    # golden serves only ``reachkit golden``: it loads on first access
    if name == "golden":
        return importlib.import_module(f"{__name__}.golden")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
