"""A survey of the HJ world-line anchoring over seeded random draws.

    python scripts/anchor_survey.py [SRC] [--draws N] [--seed S] [--each]

Draws ``N`` (default 1000) cases from the ranges of the ``anchor_cases``
strategy of ``tests/test_hj.py`` with ``random.Random(S)`` (default seed
0): a system, its constants and masses, a boost u, anchor positions, a
span and a leaf step ``ds``.  Each case runs through
``hj.hj_trajectories_foliation`` at the default tolerance 1e-10 and 50
iterations, from ``multitime`` in ``SRC`` (default: this checkout's
``src``).  It prints the count of each outcome (``anchored``, or the error
class and the start of its message with the numbers masked) and the total
of leaf RK4 steps that the compiled sweep loops took, then the part of
it that the refused draws (those that raised) took.  With ``--each`` it
first prints one line per draw with the full outcome, so that two
checkouts can be compared draw by draw:

    diff <(python scripts/anchor_survey.py --each) \\
         <(python scripts/anchor_survey.py ../parent/src --each)
"""

import argparse
import collections
import random
import re
import sys
from pathlib import Path

#: n, d and S of each system, as in the tests' ``ANCHOR_SYSTEMS``
SYSTEMS = [
    (1, 1, "k1*x1_1 - (k1^2/2)*t1"),
    (2, 1, "k1*x1_1 - (k1^2/2)*t1 + k2*x2_1 - (k2^2/2)*t2"),
    (2, 1, "k1*x1_1 - (k1^2/2)*t1 + k2*x2_1 - (k2^2/2)*t2"
           " + 0.05*(x1_1 - x2_1)^2*(t1 + t2)"),
    (2, 1, "k1*x1_1 - (k1^2/2)*t1 + k2*x2_1 - (k2^2/2)*t2 + g*sin(x1_1 + t2)*x2_1"),
    (2, 2, "k1*(x1_1 + x1_2) + k2*x2_1 - k1*k1*t1 - (k2^2/2)*t2"
           " + g*(x1_1 - x2_2)^2*(t1 - t2)"),
]


def draw(rng: random.Random):
    """One case: ``(s_text, n, d, constants, masses, u, init, span, ds)``."""
    n, d, s_text = rng.choice(SYSTEMS)
    consts = {"k1": rng.uniform(-0.6, 0.6), "k2": rng.uniform(-0.6, 0.6),
              "g": rng.uniform(-0.1, 0.1)}
    masses = [rng.uniform(0.3, 3.0) for _ in range(n)]
    u = [rng.uniform(-0.8, 0.8) for _ in range(d)]
    if sum(v * v for v in u) >= 1.0:
        u = [0.0] * d
    init = [[rng.uniform(-1.5, 1.5) for _ in range(d)] for _ in range(n)]
    span = (rng.uniform(-1.0, 0.0), rng.uniform(0.05, 1.0))
    return (s_text, n, d, {k: v for k, v in consts.items() if k in s_text}, masses,
            u, init, span, rng.uniform(0.02, 0.25))


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?",
                        default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--draws", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--each", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from multitime import hj

    steps, real_loop = [0], hj._leaf_loop

    def counted_loop(*loop_args):
        loop = real_loop(*loop_args)

        def run(x, ts, hs):
            steps[0] += len(hs)
            return loop(x, ts, hs)

        return run

    hj._leaf_loop = counted_loop
    rng, counts = random.Random(args.seed), collections.Counter()
    refused = [0, 0]  # draws, and their leaf RK4 steps
    for i in range(args.draws):
        s_text, n, d, consts, masses, u, init, span, ds = draw(rng)
        before = steps[0]
        try:
            hj.hj_trajectories_foliation(hj.HJFunction(s_text, n, d, masses, consts),
                                         hj.Foliation(u), init, span, ds)
            outcome = short = "anchored"
        except Exception as exc:  # every outcome is counted
            outcome = f"{type(exc).__name__}: {exc}"
            short = re.sub(r"[-+]?\d[\d.]*(e[-+]?\d+)?", "#", outcome)[:60]
            refused[0] += 1
            refused[1] += steps[0] - before
        counts[short] += 1
        if args.each:
            print(f"draw {i}: {outcome}")
    for short, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{count:6d}  {short}")
    print(f"{steps[0]:6d}  leaf RK4 steps in {args.draws} draws (seed {args.seed})")
    print(f"{refused[1]:6d}  of them in the {refused[0]} refused draws")


if __name__ == "__main__":
    main(sys.argv[1:])
