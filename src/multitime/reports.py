"""Small result containers shared by the quantum, classical and HJ sectors,
and the CSV writer for tabular output."""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field

__all__ = ["DefectReport", "ResidualReport", "DivergenceReport", "write_csv"]


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
        """The largest pair's defect, 0.0 without a pair (n = 1)."""
        return max(self.pairs.values(), default=0.0)

    def to_dict(self) -> dict:
        return {
            "pairs": dict(sorted(self.pairs.items())),
            "max_defect": self.max_defect,
            "h": self.h,
        }


@dataclass
class ResidualReport:
    """Per-sample validity residuals along an n-path."""

    rows: list[dict] = field(default_factory=list)
    max_residual: float = 0.0
    rejected: int = 0  # samples whose lift was not spacelike


@dataclass
class DivergenceReport:
    """Pairwise sup-distances between trajectory families."""

    labels: list[str]
    distances: list[list[float]]
    foliation_independent: bool
    tolerance: float

    def to_dict(self) -> dict:
        return asdict(self)
