"""Regenerate the series behind the paper's Figures 1–5 and Table 1.

Runs one benchmark grid and prints it figure by figure:

* every single-node configuration plus SciDB + coprocessor, on Q1–Q5, at
  the ``tiny`` and ``small`` sizes;
* every multi-node configuration plus its coprocessor variant, on Q1–Q5, at
  1, 2 and 4 simulated nodes on the ``small`` dataset.

Figures 1–2 and 3–4 are one table per query, a row per engine and a column
per size (or node count).  Each cell is the median of ``RUNS_PER_CELL``
runs, each on a freshly built and loaded engine: its ``data management +
analytics`` seconds, or the run's status when one run did not finish.  A
single run lets engines within noise of each other swap places between
invocations; the median run keeps their order.  The breakdowns of
Figures 2 and 4, the analytics share of Section 4.3 and the export cost of
Section 6.2 (``columnstore-r`` against ``columnstore-udf``) are read off the
same cells.  Figure 5 puts SciDB beside SciDB + coprocessor; Table 1 is the
analytics-time ratio of the multi-node pair.

Exits with status 1 if any run ends in an error, a timeout or a memory
failure.

Run with::

    python examples/paper_figures.py
"""

from __future__ import annotations

import sys

from repro.core import QUERY_NAMES, BenchmarkRunner, RunStatus
from repro.core.engines import MULTI_NODE_ENGINES, SINGLE_NODE_ENGINES, make_engine
from repro.datagen import GenBaseDataset

SIZES = ("tiny", "small")
NODE_COUNTS = (1, 2, 4)
MULTI_NODE_SIZE = "small"
SEED = 42
#: Runs per cell, each on a fresh engine; the cell shows the median run.
RUNS_PER_CELL = 5
TIMEOUT_SECONDS = 20.0
#: The queries the paper offloads to the coprocessor (Figure 5, Table 1).
OFFLOADED = ("covariance", "svd", "statistics", "biclustering")
FAILED = (RunStatus.ERROR, RunStatus.TIMEOUT, RunStatus.MEMORY_ERROR)


def run_grid(runner, engines, columns, runs=RUNS_PER_CELL):
    """Run Q1–Q5 per engine and column ``runs`` times, on a fresh engine each
    time; ``columns`` maps a column to its ``(dataset, engine options)``.
    Returns ``{(engine, query, column): median run}``."""
    grid = {}
    for name in engines:
        for column, (dataset, options) in columns.items():
            trials = {query: [] for query in QUERY_NAMES}
            for _ in range(runs):
                engine = make_engine(name, **options)
                for query in QUERY_NAMES:
                    trials[query].append(runner.run(query, engine, dataset, **options))
            for query, results in trials.items():
                grid[name, query, column] = median_run(results)
    return grid


def median_run(results):
    """The run with the median total time, or the first one that did not finish."""
    unfinished = [result for result in results if result.status is not RunStatus.OK]
    if unfinished:
        return unfinished[0]
    return sorted(results, key=lambda result: result.total_seconds)[len(results) // 2]


def cell(result) -> str:
    if result.status is not RunStatus.OK:
        return result.status.value
    return f"{result.data_management_seconds:.4f}+{result.analytics_seconds:.4f}"


def print_tables(title, grid, engines, queries, columns) -> None:
    print(f"\n=== {title} ===")
    for query in queries:
        print(f"\n-- {query} --")
        print(f"  {'engine':24s}" + "".join(f"{column!s:>16s}" for column in columns))
        for name in engines:
            print(f"  {name:24s}"
                  + "".join(f"{cell(grid[name, query, column]):>16s}" for column in columns))


def analytics_ratio(base, fast) -> str:
    if (base.status is not RunStatus.OK or fast.status is not RunStatus.OK
            or fast.analytics_seconds <= 0):
        return "-"
    return f"{base.analytics_seconds / fast.analytics_seconds:.2f}"


def main() -> int:
    runner = BenchmarkRunner(timeout_seconds=TIMEOUT_SECONDS)
    datasets = {size: GenBaseDataset.generate(size, seed=SEED) for size in SIZES}
    # One untimed query first, so the grid's first cells do not absorb the
    # process's first-call costs (lazy imports, numpy's first sort).
    runner.run(QUERY_NAMES[0], SINGLE_NODE_ENGINES[0], datasets[SIZES[0]])
    single = run_grid(runner, (*SINGLE_NODE_ENGINES, "scidb-phi"),
                      {size: (datasets[size], {}) for size in SIZES})
    multi = run_grid(runner, (*MULTI_NODE_ENGINES, "scidb-phi-cluster"),
                     {n: (datasets[MULTI_NODE_SIZE], {"n_nodes": n}) for n in NODE_COUNTS})

    print("Cells are data management + analytics seconds, or the run status.")
    print_tables("Figures 1-2: single-node query time by dataset size",
                 single, SINGLE_NODE_ENGINES, QUERY_NAMES, SIZES)
    print_tables(f"Figures 3-4: multi-node query time by node count ({MULTI_NODE_SIZE})",
                 multi, MULTI_NODE_ENGINES, QUERY_NAMES, NODE_COUNTS)
    print_tables("Figure 5: SciDB vs SciDB + coprocessor by dataset size",
                 single, ("scidb", "scidb-phi"), OFFLOADED, SIZES)

    print(f"\n=== Table 1: analytics speedup, scidb-cluster / scidb-phi-cluster "
          f"({MULTI_NODE_SIZE}) ===")
    print(f"  {'query':24s}" + "".join(f"{f'{n} nodes':>10s}" for n in NODE_COUNTS))
    for query in OFFLOADED:
        ratios = (analytics_ratio(multi["scidb-cluster", query, n],
                                  multi["scidb-phi-cluster", query, n]) for n in NODE_COUNTS)
        print(f"  {query:24s}" + "".join(f"{ratio:>10s}" for ratio in ratios))

    failed = [(key, result) for grid in (single, multi) for key, result in grid.items()
              if result.status in FAILED]
    for key, result in failed:
        print(f"FAILED {key}: {result.status.value} {result.error}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
