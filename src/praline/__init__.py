"""Probability bounds for Datalog programs with partially known input correlations."""

from praline.frontend import (
    Atom,
    ConflictError,
    InfeasibleError,
    Literal,
    NonStratifiedError,
    ParseError,
    PralineError,
    ProbabilityRangeError,
    Program,
    Rule,
    ScaleError,
    infer_correlation_classes,
    parse,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BoundsReport",
    "ConflictError",
    "InfeasibleError",
    "Literal",
    "NonStratifiedError",
    "ParseError",
    "PralineError",
    "ProbabilityRangeError",
    "Program",
    "Rule",
    "ScaleError",
    "infer_correlation_classes",
    "parse",
    "solve_program",
    "solve_source",
    "__version__",
]

# praline.cli loads the whole pipeline, so it is imported on first use of
# one of these names (PEP 562); `python -m praline.cli` then runs the module
# once, not after an import of it.
_FROM_CLI = ("BoundsReport", "solve_program", "solve_source")


def __getattr__(name):
    if name in _FROM_CLI:
        from praline import cli
        return getattr(cli, name)
    raise AttributeError(f"module 'praline' has no attribute {name!r}")
