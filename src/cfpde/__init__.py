"""Chen-Fliess series whose coefficients are differential operators in the
system parameters: word/operator algebra, parallel and series
interconnections, numerical evaluation of the induced input-output maps,
convergence bounds, and series solutions of transport and wave Cauchy
problems.

Importing the package loads none of its submodules; each submodule and
re-exported name is imported on first access (PEP 562), so a process
that only does series algebra never imports numpy."""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("bounds", "diffop", "expr", "iterint", "pde", "series", "words")
# re-exported name -> submodule that defines it
_EXPORTS = {
    "DiffOp": "diffop",
    "Grid": "iterint", "GridField": "iterint", "InputSignal": "iterint",
    "evaluate_series": "iterint",
    "GenSeries": "series", "NotLinear": "series", "OverlappingSupport": "series",
    "Letter": "words", "Word": "words",
}

__all__ = [
    "bounds", "diffop", "expr", "iterint", "pde", "series", "words",
    "DiffOp", "Grid", "GridField", "InputSignal", "evaluate_series",
    "GenSeries", "NotLinear", "OverlappingSupport", "Letter", "Word",
]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
