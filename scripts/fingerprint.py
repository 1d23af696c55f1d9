"""Fingerprints of everything the shipped configs write.

    python scripts/fingerprint.py [SRC]

Runs every shipped config once through ``multitime.cli.run_config`` and
prints one SHA-256 per config of ``json.dumps(results, sort_keys=True)``,
each followed by one of its CSV where its kind writes CSV (``cli._KINDS``).
``SRC`` is the ``src`` directory to import ``multitime`` from (default: this
checkout's).  Two checkouts give the same results and CSVs byte for byte
exactly when their outputs are equal:

    diff <(python scripts/fingerprint.py) \\
         <(python scripts/fingerprint.py ../parent/src)
"""

import copy
import hashlib
import json
import sys
import tempfile
from pathlib import Path


def main(src: str) -> None:
    sys.path.insert(0, src)
    from multitime import cli
    from multitime.configs import EXAMPLE_CONFIGS

    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in sorted(EXAMPLE_CONFIGS.items()):
            entry = cli._KINDS[cfg["formalism"], cfg["experiment"]["kind"]]
            csv_path = str(Path(tmp) / f"{name}.csv") if entry.csv else None
            report = cli.run_config(copy.deepcopy(cfg), entry.subcommand, csv_path=csv_path)
            text = json.dumps(report["results"], sort_keys=True)
            print(hashlib.sha256(text.encode()).hexdigest(), name)
            if csv_path:
                data = Path(csv_path).read_bytes()
                print(hashlib.sha256(data).hexdigest(), f"{name}.csv")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else
         str(Path(__file__).resolve().parents[1] / "src"))
