"""Time the search of two or more source trees against each other in one
process, on the benchmark's `sweep` and `grid` input pools.

    python tools/ab_time.py [--pool sweep|grid] [--rounds N] [--items N]
                            [--seed N] [--per-item] SRC [SRC ...]

Each SRC is a directory holding the `imrc` package, such as `src` or a
`git archive` of another commit; the first is the reference, and giving
one tree twice shows the noise (an A/A run). The trees are loaded under
distinct module names, so they share one process and one heap. The pools
come from perfbench/workloads.py, imported read-only on the first tree:
a `sweep` item is one row's refined `_search` on the CLI's default grid,
a `grid` item is `grid_search_sum_rate` on the benchmark's 201 x 99 grid.
Each round times every item once on every tree, and the tree that goes
first rotates from round to round. For each pool and tree it prints the
sum over items of each item's fastest time, that sum relative to the
first tree's, and the minor page faults per item (getrusage); then the
process's peak RSS. With --per-item it also prints, after each pool's
rows, every item's fastest time on each tree and that time relative to the
first tree's, with the item's P, PR and whether det(H) = 0, so a gain
that sits in a few items shows where it sits.

To run the Tier-1 tests against another tree, override pytest's own path:

    python -m pytest -q -o pythonpath=OTHER/src

pyproject.toml sets pythonpath = ["src"], which pytest puts ahead of
PYTHONPATH, so `PYTHONPATH=OTHER/src python -m pytest` silently tests this
checkout's src/ instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tree(src: Path, name: str):
    """The `imrc` package under src, imported as the module `name`."""
    init = src / "imrc" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads(src: Path):
    """perfbench/workloads.py, which imports `imrc` from src."""
    sys.path.insert(0, str(src))
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = module
    spec.loader.exec_module(module)
    return module


def pool_inputs(workloads, pool: str, seed: int) -> tuple[list, object]:
    """The pool's channels, each at its own budgets, and its grid."""
    with tempfile.TemporaryDirectory() as workdir:
        if pool == "sweep":
            load = workloads.Sweep(seed, Path(workdir))
            return ([load.setup_of(row) for row in load.make_pool()],
                    workloads.SWEEP_GRID)
        return workloads.Grid(seed, Path(workdir)).make_pool(), workloads.GRID


def item_calls(tree, pool: str, setups: list, grid) -> list:
    """One zero-argument call per pool item, on tree's own types."""
    grid = tree.GridSpec(grid.n_p, grid.n_rho)
    own = [tree.ChannelSetup(**{field.name: getattr(setup, field.name)
                                for field in dataclasses.fields(setup)
                                if field.init})
           for setup in setups]
    if pool == "sweep":
        return [lambda s=s: tree.search._search(s, grid, True) for s in own]
    return [lambda s=s: tree.grid_search_sum_rate(s, grid) for s in own]


def faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def time_pool(calls: list[list], rounds: int) -> tuple[list, list]:
    """Per tree: each item's fastest time in seconds, and the minor faults
    per item."""
    n = len(calls)
    fastest = [[float("inf")] * len(calls[0]) for _ in range(n)]
    counted = [0] * n
    for round_ in range(rounds):
        for t in [(round_ + k) % n for k in range(n)]:
            start = faults()
            for item, call in enumerate(calls[t]):
                begin = time.perf_counter()
                call()
                fastest[t][item] = min(fastest[t][item],
                                       time.perf_counter() - begin)
            counted[t] += faults() - start
    per_item = rounds * len(calls[0])
    return fastest, [c / per_item for c in counted]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, metavar="SRC")
    parser.add_argument("--pool", choices=("sweep", "grid"), action="append",
                        help="pool to time (repeatable; default both)")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--items", type=int, default=None,
                        help="time only the first N items of each pool")
    parser.add_argument("--seed", type=int, default=5151)
    parser.add_argument("--per-item", action="store_true",
                        help="also print each item's fastest time per tree")
    args = parser.parse_args(argv)
    srcs = [src.resolve() for src in args.trees]
    workloads = load_workloads(srcs[0])
    trees = [load_tree(src, f"imrc_ab{k}") for k, src in enumerate(srcs)]
    items = args.items if args.items is not None else sys.maxsize
    print(f"{'pool':6} {'tree':3} {'sum_min_ms':>11} {'ratio':>7} "
          f"{'minflt/item':>12}  src")
    for pool in args.pool or ("sweep", "grid"):
        setups, grid = pool_inputs(workloads, pool, args.seed)
        calls = [item_calls(tree, pool, setups[:items], grid)
                 for tree in trees]
        fastest, flt = time_pool(calls, args.rounds)
        total = [sum(times) for times in fastest]
        for k, src in enumerate(srcs):
            print(f"{pool:6} {k:3d} {1e3 * total[k]:11.3f} "
                  f"{total[k] / total[0]:7.4f} {flt[k]:12.1f}  {src}")
        if args.per_item:
            for item, setup in enumerate(setups[:items]):
                facts = (f"item {item}: P {setup.P:.3g}, PR {setup.PR:.3g}"
                         + (", det(H) = 0" if setup.hR_det == 0.0 else ""))
                for k, times in enumerate(fastest):
                    print(f"{pool:6} {k:3d} {1e3 * times[item]:11.3f} "
                          f"{times[item] / fastest[0][item]:7.4f}  {facts}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak RSS {peak:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
