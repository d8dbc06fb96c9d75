"""The simulated cluster: per-node execution plus a parallel time model.

How the simulation works (the substrate's design notes):

* every node's work runs for real, in this process, and is timed per node;
* the cluster is the only place that issues a collective, and the
  :class:`~repro.cluster.network.NetworkModel` is the only thing that prices
  one;
* per-node data really is partitioned — a node only sees its partition — so
  algorithms that need data from other nodes must move it through a
  collective and pay for it.

That reproduces the paper's multi-node behaviour: more nodes reduce the
max-per-node compute term but grow the communication term, which is why no
system shows linear speedup and some regress from one node to two.

Timing semantics
----------------

The simulated clock has one charging path.  :meth:`Cluster.run_on_nodes`
runs the nodes' work items one after another on the calling thread, times
each with the wall clock (:func:`time.perf_counter`) and adds the slowest
node's seconds, as if they had overlapped.  Each collective (:meth:`scatter`,
:meth:`gather`, :meth:`broadcast`, :meth:`all_reduce_sum`) adds exactly the
seconds the network model priced, when it is issued.  So the clock always
equals the dispatches' slowest nodes plus ``network.total_seconds``.  A
fragment sees only its own node's partition and returns its result — it
never writes driver state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.cluster.network import NetworkModel


@dataclass
class Cluster:
    """A fixed-size simulated cluster; node 0 is the driver.

    Attributes:
        n_nodes: number of nodes.
        network: the interconnect model every collective is priced by.
    """

    n_nodes: int

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.network = NetworkModel()
        self._simulated_elapsed = 0.0

    # -- execution ----------------------------------------------------------------

    def run_on_nodes(self, per_node_work: Sequence[Callable[[int], object]]) -> list:
        """Run one callable per node "in parallel"; returns their outputs in node order.

        Each callable is invoked with its node id.  The slowest node's
        seconds are added to the cluster's simulated clock.
        """
        if len(per_node_work) != self.n_nodes:
            raise ValueError(
                f"expected {self.n_nodes} work items, got {len(per_node_work)}"
            )
        outputs, slowest = [], 0.0
        for node_id, work in enumerate(per_node_work):
            started = time.perf_counter()
            outputs.append(work(node_id))
            slowest = max(slowest, time.perf_counter() - started)
        self._simulated_elapsed += slowest
        return outputs

    def map_partitions(self, partitions: Sequence, function: Callable[[object, int], object]) -> list:
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

    # -- collectives --------------------------------------------------------------------

    def _send(self, payload):
        copy, seconds = self.network.send(payload)
        self._simulated_elapsed += seconds
        return copy

    def scatter(self, partitions: Sequence) -> list:
        """Send partition ``i`` from node 0 to node ``i``; node 0 keeps its own."""
        if len(partitions) != self.n_nodes:
            raise ValueError("need one partition per node")
        return [partitions[0], *(self._send(partition) for partition in partitions[1:])]

    def gather(self, per_node_values: Sequence) -> list:
        """Collect one value from every node at node 0."""
        if len(per_node_values) != self.n_nodes:
            raise ValueError("need one value per node")
        return [per_node_values[0], *(self._send(value) for value in per_node_values[1:])]

    def broadcast(self, payload) -> None:
        """Send ``payload`` from node 0 to every other node (a binomial tree).

        The nodes compute on the caller's object; only the price is simulated.
        """
        self._simulated_elapsed += self.network.broadcast(payload, self.n_nodes)

    def all_reduce_sum(self, per_node_arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Sum one array per node over a ring all-reduce."""
        total = np.zeros_like(per_node_arrays[0])
        for array in per_node_arrays:
            total = total + array
        self._simulated_elapsed += self.network.all_reduce(
            per_node_arrays[0].nbytes, self.n_nodes)
        return total

    # -- accounting ---------------------------------------------------------------------

    @property
    def simulated_elapsed_seconds(self) -> float:
        """Total simulated parallel elapsed time across all phases so far."""
        return self._simulated_elapsed

    def reset_clock(self) -> None:
        """Zero the simulated clock and the network's counters."""
        self._simulated_elapsed = 0.0
        self.network.reset()
