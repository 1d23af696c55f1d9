"""Traced CLI launcher: install the benchmark's spans, run the CLI, save
the spans.

    python3 perfbench/launch.py SPANS_FILE <multitime CLI arguments>

It exits with the CLI's exit code.
"""

import sys

import numpy as np

import multitime.cli
import spans

if __name__ == "__main__":
    tracer = spans.Tracer()
    tracer.install()
    code = multitime.cli.main(sys.argv[2:])
    np.save(sys.argv[1], tracer.spans())
    sys.exit(code)
