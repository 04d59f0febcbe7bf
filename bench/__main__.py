"""Command line of the benchmark: ``run`` and ``compare``.

    python -m bench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
    python -m bench compare PARENT_DIR CHANGE_DIR [--workload W] [--seed N]

``run`` takes ``--seconds`` and ``--trace 0|1`` because the benchmark is
invoked as ``<command> --workload W --seed N --seconds S --trace 0|1``;
both default to a plain ``python -m bench run``.  ``compare`` always runs
``run_seconds`` from ``BENCHMARK.json`` and ``compare.MIN_PAIRS`` pairs, so
both commits are measured alike.
"""

import argparse
import sys

from bench import compare, load_spec, run
from bench.workloads import WORKLOADS


def build_parser() -> argparse.ArgumentParser:
    seconds = load_spec()["run_seconds"]
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run workloads and check their outputs")
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: all four)")
    p.add_argument("--seed", type=int, default=1,
                   help="input seed (same seed, same inputs)")
    p.add_argument("--seconds", type=float, default=seconds,
                   help="measuring time per workload")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="report per-layer metrics from traced passes")
    p.set_defaults(func=run.main)

    p = sub.add_parser("compare", help="paired runs of two checkouts")
    p.add_argument("parent_dir", help="checkout of the parent commit")
    p.add_argument("change_dir", help="checkout of the change")
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to compare (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the first pair (pair i uses seed + i)")
    p.set_defaults(func=compare.main)
    return parser


if __name__ == "__main__":
    arguments = build_parser().parse_args()
    sys.exit(arguments.func(arguments))
