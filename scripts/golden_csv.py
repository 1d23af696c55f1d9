"""Write ``tests/golden_csv.json``: samples of the bulk CSVs of the shipped configs.

    python scripts/golden_csv.py [SRC]

Runs each config that writes a bulk CSV once through
``multitime.cli.run_config`` and records, per CSV, its column names, its
number of data rows, and every k-th data row plus the last, each cell read
as a float.  k keeps about ``SAMPLES`` rows per CSV, so the file stays
small.  ``SRC`` is the ``src`` directory to import ``multitime`` from
(default: this checkout's).  ``tests/test_acceptance.py`` compares the
column names and row counts exactly and the sampled rows within the
tolerance of ``tests/golden_results.json``.  A change of a golden is
explained in ``CHANGES.md``.
"""

import copy
import csv
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: the configs that write a bulk CSV
CSV_CONFIGS = ("classical_free_evolve", "grid_free", "grid_coupled",
               "hj_free_trajectories")
#: about this many data rows of each CSV are kept
SAMPLES = 200


def main(src: str) -> None:
    sys.path.insert(0, src)
    from multitime import cli
    from multitime.configs import EXAMPLE_CONFIGS

    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CSV_CONFIGS:
            cfg, csv_path = EXAMPLE_CONFIGS[name], Path(tmp) / f"{name}.csv"
            entry = cli._KINDS[cfg["formalism"], cfg["experiment"]["kind"]]
            cli.run_config(copy.deepcopy(cfg), entry.subcommand, csv_path=str(csv_path))
            with open(csv_path, newline="") as fh:
                columns, *rows = csv.reader(fh)
            every = max(1, len(rows) // SAMPLES)
            kept = sorted({*range(0, len(rows), every), len(rows) - 1})
            golden[name] = {"columns": columns, "rows": len(rows), "every": every,
                            "sampled": {str(i): [float(v) for v in rows[i]]
                                        for i in kept}}
    # one row (and the column names) per line
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                  lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]",
                  json.dumps(golden, indent=1))
    (ROOT / "tests" / "golden_csv.json").write_text(text + "\n")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else str(ROOT / "src"))
