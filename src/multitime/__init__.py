"""multitime: multi-time evolution equations in quantum mechanics,
Hamilton-Jacobi theory and classical mechanics, with computable
consistency defects, holonomies and foliation-dependence experiments."""

import atexit
import os
import sys

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
from .reports import DefectReport

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


def _exit(code: int) -> int:
    """End a CLI process whose run returned ``code``, without tearing the
    interpreter down: run the ``atexit`` callbacks, flush stdout and stderr
    (a stream that is None or cannot be flushed is passed over; ``code``
    stands), then ``os._exit(code)``.  Clearing the module dicts and freeing
    numpy's objects after the report is written costs about 40 ms a process
    and does nothing for it.  Under a tracer or a profiler, or with ``-i``,
    something must still run after the CLI, so it returns ``code`` for
    ``sys.exit`` instead."""
    if sys.gettrace() is not None or sys.getprofile() is not None or sys.flags.inspect:
        return code
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError):  # a closed pipe, or a closed stream
            pass
    os._exit(code)


def main() -> int:
    """The ``multitime`` console script: ``cli.main`` with one BLAS thread,
    then a hard exit (``_exit``)."""
    _one_blas_thread()
    from . import cli

    return _exit(cli.main())
