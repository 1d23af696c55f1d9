"""Small result containers shared by the quantum, classical and HJ sectors,
and the CSV writer for tabular output."""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass

__all__ = ["DefectReport", "DivergenceReport", "write_csv"]


def write_csv(path: str, columns: list[str], rows: list[list]) -> None:
    """Write a header row and the data rows as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


@dataclass
class DefectReport:
    """Pairwise consistency-defect norms plus their maximum.

    ``pairs`` maps ``"j,k"`` (1-based indices) to the defect norm of that
    pair; ``h`` is the step of its central differences (None: exact).
    """

    pairs: dict[str, float]
    h: float | None

    @property
    def max_defect(self) -> float:
        """The largest pair's defect, 0.0 without a pair (n = 1), and a
        pair's NaN where there is one, as a grid row's numpy maximum reads."""
        values = self.pairs.values()
        return next(filter(math.isnan, values), max(values, default=0.0))

    def to_dict(self) -> dict:
        return {
            "pairs": dict(sorted(self.pairs.items())),
            "max_defect": self.max_defect,
            "h": self.h,
        }


@dataclass
class DivergenceReport:
    """Pairwise sup-distances between trajectory families."""

    labels: list[str]
    distances: list[list[float]]
    foliation_independent: bool
    tolerance: float

    def to_dict(self) -> dict:
        return asdict(self)
