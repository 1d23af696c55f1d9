"""multitime: multi-time evolution equations in quantum mechanics,
Hamilton-Jacobi theory and classical mechanics, with computable
consistency defects, holonomies and foliation-dependence experiments."""

import os

from .expr import (
    DomainError,
    ExpressionError,
    ExpressionSyntaxError,
    UnboundVariableError,
    UnknownFunctionError,
    evaluate,
    free_variables,
    parse_expression,
)
from .reports import DefectReport, DivergenceReport, ResidualReport

__version__ = "0.1.0"


def _one_blas_thread() -> None:
    """Run numpy's BLAS (OpenBLAS) in one thread, unless the user set
    ``OPENBLAS_NUM_THREADS`` to a non-empty value.  It takes effect only
    before numpy is first imported, so only the CLI's entry points call it:
    an import of the package changes no environment variable, which the
    importing process's children would inherit.  The CLI's BLAS work is 4x4
    ``eigh`` and ``matmul`` stacks, which a worker pool does not speed up,
    and whose idle thread would spin beside the run."""
    if not os.environ.get("OPENBLAS_NUM_THREADS"):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main() -> int:
    """The ``multitime`` console script: ``cli.main`` with one BLAS thread."""
    _one_blas_thread()
    from . import cli

    return cli.main()
