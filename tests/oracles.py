"""Helpers of the test oracles.

``variable_bindings`` builds the bindings dict of the package's naming
convention, the input of the per-call algorithms (``numdiff`` central
differences, ``evaluate``) that the compiled conditions are pinned
against.
"""

from typing import Mapping, Sequence

import numpy as np

from multitime.expr import binding_names


def variable_bindings(times: Sequence[float] | np.ndarray = (),
                      x: Sequence[Sequence[float]] | np.ndarray | None = None,
                      p: Sequence[Sequence[float]] | np.ndarray | None = None,
                      constants: Mapping[str, float] | None = None,
                      ) -> dict[str, float]:
    """Bindings ``tJ`` from the time tuple and ``xJ_D``/``pJ_D`` from (n, d)
    position and momentum arrays (row J-1 is particle J), on top of
    ``constants``."""
    b = dict(constants or {})
    times = np.asarray(times, float).tolist()
    b.update(zip(binding_names("t", len(times), 0), times))
    for name, rows in (("x", x), ("p", p)):
        if rows is not None:
            rows = np.asarray(rows, float)
            n, d = rows.shape
            b.update(zip(binding_names(name, n, d), rows.ravel().tolist()))
    return b
