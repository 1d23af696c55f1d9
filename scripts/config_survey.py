"""A survey of the CLI's config errors over single mutations of the configs.

    python scripts/config_survey.py [SRC]

For each shipped config, and one HJ ``defect-grid`` config (a kind none
of them runs), it visits every node of the config (every object, array
and leaf, the whole config too) and makes one mutation at a time: the
node replaced by each value of ``VALUES``, the node deleted, and, for an
object, an unknown key added.  Each mutated config is written to a file
and read by ``cli._load_config``, then checked by ``cli.run_config`` up to
the end of its kind's ``prepare``, which does no numerics; the run itself
is never called.  ``SRC`` is the ``src`` directory to import ``multitime``
from (default: this checkout's).  It prints one line per case: the config,
the pointer, the mutation, and the ``ConfigError`` text, or ``ok`` and the
echoed config JSON with its defaults, or any other exception.  Two
checkouts check configs alike exactly when their lines are equal:

    diff <(python scripts/config_survey.py) \\
         <(python scripts/config_survey.py ../parent/src)
"""

import copy
import json
import math
import os
import sys
import tempfile
from pathlib import Path

#: the values each node is replaced by, as in the CLI tests' mutation pool
VALUES = [None, True, "x", [], {}, [1.0, 2.0], 0, -1, 2, 0.5, -0.5,
          math.nan, math.inf, -math.inf]


class _Prepared(Exception):
    """Raised once a kind's ``prepare`` has returned, in place of its run."""


def _nodes(value, pointer=""):
    """``(pointer, parts, node)`` of ``value`` and of every node below it,
    parents first; ``parts`` are the keys and indices down to the node."""
    yield pointer, (), value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        for sub, parts, node in _nodes(item, f"{pointer}/{key}"):
            yield sub, (key, *parts), node


def _mutations(cfg):
    """``(pointer, label, mutated config)`` of every single mutation."""
    for pointer, parts, node in _nodes(cfg):
        for value in VALUES:
            yield pointer, f"= {json.dumps(value)}", _mutated(cfg, parts, value)
        if parts:
            yield pointer, "deleted", _mutated(cfg, parts, None, delete=True)
        if isinstance(node, dict):
            yield pointer, "+ unknown key", _mutated(
                cfg, (*parts, "unknown"), "x")


def _mutated(cfg, parts, value, delete=False):
    if not parts:
        return value
    new = copy.deepcopy(cfg)
    parent = new
    for part in parts[:-1]:
        parent = parent[part]
    if delete:
        del parent[parts[-1]]
    else:
        parent[parts[-1]] = value
    return new


def main(src: str) -> None:
    sys.path.insert(0, src)
    from multitime import cli
    from multitime.configs import EXAMPLE_CONFIGS

    def stop(prepare):
        def checked(system, exp, seed):
            prepare(system, exp, seed)
            raise _Prepared

        return checked

    # run_config looks each kind up in _KINDS at the call
    cli._KINDS = {key: entry._replace(prepare=stop(entry.prepare))
                  for key, entry in cli._KINDS.items()}
    configs = dict(EXAMPLE_CONFIGS)
    configs["hj_defect_grid"] = {**copy.deepcopy(EXAMPLE_CONFIGS["hj_free_residual"]),
                                 "experiment": {"kind": "defect-grid", "samples": {
                                     "count": 3, "t_box": [0.0, 1.0],
                                     "x_box": [-1.0, 1.0], "p_box": [-1.0, 1.0]}}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        for name, cfg in sorted(configs.items()):
            sub = cli._KINDS[cfg["formalism"], cfg["experiment"]["kind"]].subcommand
            for pointer, label, mutated in [("", "unchanged", cfg), *_mutations(cfg)]:
                with open(path, "w") as fh:
                    json.dump(mutated, fh)
                try:
                    loaded = cli._load_config(path)
                    cli.run_config(loaded, sub)
                except _Prepared:
                    outcome = f"ok {json.dumps(loaded, sort_keys=True)}"
                except cli.ConfigError as exc:
                    outcome = f"config error: {exc}"
                except Exception as exc:  # reported, so that a diff shows it
                    outcome = f"{type(exc).__name__}: {exc}"
                print(f"{name} {pointer or '/'} {label}: {outcome}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else
         str(Path(__file__).resolve().parents[1] / "src"))
