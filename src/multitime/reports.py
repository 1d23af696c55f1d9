"""Small result containers shared by the quantum, classical and HJ sectors,
and the CSV writer for tabular output."""

from __future__ import annotations

import math

__all__ = ["DefectReport", "pair_keys", "write_csv"]


def write_csv(path: str, columns: list[str], rows: list[list]) -> None:
    """Write a header row and the data rows as CSV (``csv`` loads here:
    only a run that writes one needs it)."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def pair_keys(n: int) -> list[str]:
    """The keys ``"j,k"`` of a defect grid's columns: 1,2 1,3 .. n-1,n."""
    return [f"{j},{k}" for j in range(1, n + 1) for k in range(j + 1, n + 1)]


class DefectReport:
    """Pairwise consistency-defect norms plus their maximum.

    ``pairs`` maps ``"j,k"`` (1-based indices) to the defect norm of that
    pair; ``h`` is the step of its central differences (None: exact).
    Reports are equal when their pairs and steps are.
    """

    def __init__(self, pairs: dict[str, float], h: float | None):
        self.pairs, self.h = pairs, h

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is DefectReport else NotImplemented

    @property
    def max_defect(self) -> float:
        """The largest pair's defect, 0.0 without a pair (n = 1), and a
        pair's NaN where there is one, as a grid row's numpy maximum reads."""
        values = self.pairs.values()
        return next(filter(math.isnan, values), max(values, default=0.0))
