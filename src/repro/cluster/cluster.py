"""The simulated cluster: per-node execution plus a parallel time model.

How the simulation works (the substrate's design notes):

* every node's work runs for real, in this process, and is timed per node;
* the *simulated parallel elapsed time* of a phase is the maximum per-node
  compute time (the nodes would have run concurrently) plus the network
  time charged by the :class:`~repro.cluster.network.NetworkModel`;
* per-node data really is partitioned — a node only sees its partition — so
  algorithms that need data from other nodes must move it through the
  network model and pay for it.

That reproduces the paper's multi-node behaviour: more nodes reduce the
max-per-node compute term but grow the communication term, which is why no
system shows linear speedup and some regress from one node to two.

Timing semantics
----------------

:meth:`Cluster.run_on_nodes` runs the nodes' work items one after another
on the calling thread and times each with the wall clock
(:func:`time.perf_counter`).  The simulated clock takes the slowest node,
as if they had overlapped; ``wall_seconds`` is what the driver really
waited, the sum of all fragments.  A fragment sees only its own node's
partition and returns its result — it never writes driver state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.cluster.network import NetworkModel

@dataclass
class NodeTiming:
    """Accumulated compute seconds for one simulated node."""

    node_id: int
    compute_seconds: float = 0.0


@dataclass
class ParallelRunResult:
    """Result of one parallel phase.

    Attributes:
        outputs: per-node outputs, in node order.
        elapsed_seconds: simulated parallel elapsed time of the phase
            (max per-node compute + network seconds charged during it).
        per_node_seconds: measured wall-clock compute seconds per node.
        network_seconds: network seconds charged during the phase.
        wall_seconds: real (non-simulated) wall clock of the whole
            dispatch — what the driver process actually waited: the sum
            of all fragments.
    """

    outputs: list
    elapsed_seconds: float
    per_node_seconds: list[float]
    network_seconds: float
    wall_seconds: float = 0.0


@dataclass
class Cluster:
    """A fixed-size simulated cluster.

    Attributes:
        n_nodes: number of nodes.
        network: the interconnect model shared by all phases.
    """

    n_nodes: int
    network: NetworkModel = field(default_factory=NetworkModel)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.node_timings = [NodeTiming(node_id=i) for i in range(self.n_nodes)]
        self._simulated_elapsed = 0.0

    # -- execution ----------------------------------------------------------------

    def run_on_nodes(self, per_node_work: Sequence[Callable[[int], object]]) -> ParallelRunResult:
        """Run one callable per node "in parallel".

        Args:
            per_node_work: one zero/one-argument callable per node; each is
                invoked with its node id.

        Returns:
            A :class:`ParallelRunResult`; the phase's elapsed time is also
            added to the cluster's running simulated clock.
        """
        if len(per_node_work) != self.n_nodes:
            raise ValueError(
                f"expected {self.n_nodes} work items, got {len(per_node_work)}"
            )
        network_before = self.network.total_seconds
        wall_started = time.perf_counter()
        outputs, per_node_seconds = [], []
        for node_id, work in enumerate(per_node_work):
            started = time.perf_counter()
            outputs.append(work(node_id))
            per_node_seconds.append(time.perf_counter() - started)
        wall_seconds = time.perf_counter() - wall_started
        for node_id, seconds in enumerate(per_node_seconds):
            self.node_timings[node_id].compute_seconds += seconds
        network_seconds = self.network.total_seconds - network_before
        phase_elapsed = (max(per_node_seconds) if per_node_seconds else 0.0) + network_seconds
        self._simulated_elapsed += phase_elapsed
        return ParallelRunResult(
            outputs=outputs,
            elapsed_seconds=phase_elapsed,
            per_node_seconds=per_node_seconds,
            network_seconds=network_seconds,
            wall_seconds=wall_seconds,
        )

    def map_partitions(self, partitions: Sequence, function: Callable[[object, int], object]) -> ParallelRunResult:
        """Apply ``function(partition, node_id)`` to each node's partition."""
        if len(partitions) != self.n_nodes:
            raise ValueError(
                f"expected {self.n_nodes} partitions, got {len(partitions)}"
            )
        work = [
            (lambda node_id, part=part: function(part, node_id))
            for part in partitions
        ]
        return self.run_on_nodes(work)

    # -- data movement ----------------------------------------------------------------

    def scatter(self, partitions: Sequence, source: int = 0, label: str = "scatter") -> ParallelRunResult:
        """Distribute partitions from a source node to every node.

        The source's own partition is free; the others pay network cost.
        """
        if len(partitions) != self.n_nodes:
            raise ValueError("need one partition per node")
        network_before = self.network.total_seconds
        outputs = []
        for node_id, partition in enumerate(partitions):
            copy, _ = self.network.transfer(partition, source, node_id, label=label)
            outputs.append(copy)
        network_seconds = self.network.total_seconds - network_before
        self._simulated_elapsed += network_seconds
        return ParallelRunResult(
            outputs=outputs,
            elapsed_seconds=network_seconds,
            per_node_seconds=[0.0] * self.n_nodes,
            network_seconds=network_seconds,
        )

    def gather(self, per_node_values: Sequence, destination: int = 0, label: str = "gather") -> ParallelRunResult:
        """Collect one value from every node at the destination node."""
        if len(per_node_values) != self.n_nodes:
            raise ValueError("need one value per node")
        network_before = self.network.total_seconds
        gathered, _ = self.network.gather(
            list(per_node_values), sources=list(range(self.n_nodes)),
            destination=destination, label=label,
        )
        network_seconds = self.network.total_seconds - network_before
        self._simulated_elapsed += network_seconds
        return ParallelRunResult(
            outputs=gathered,
            elapsed_seconds=network_seconds,
            per_node_seconds=[0.0] * self.n_nodes,
            network_seconds=network_seconds,
        )

    def all_reduce_sum(self, per_node_arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Sum one array per node, charging a ring all-reduce to the clock."""
        total = np.zeros_like(per_node_arrays[0])
        for array in per_node_arrays:
            total = total + array
        self._simulated_elapsed += self.network.all_reduce_cost(
            per_node_arrays[0].nbytes, self.n_nodes)
        return total

    # -- accounting ---------------------------------------------------------------------

    @property
    def simulated_elapsed_seconds(self) -> float:
        """Total simulated parallel elapsed time across all phases so far."""
        return self._simulated_elapsed

    def reset_clock(self) -> None:
        """Zero the simulated clock and per-node compute counters."""
        self._simulated_elapsed = 0.0
        self.network.reset()
        for timing in self.node_timings:
            timing.compute_seconds = 0.0
