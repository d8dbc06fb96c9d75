"""The interconnect model for the simulated cluster.

:class:`NetworkModel` prices every collective the
:class:`~repro.cluster.cluster.Cluster` issues and counts what it moved.  One
message of ``bytes`` costs

    LATENCY_SECONDS + bytes / BANDWIDTH_BYTES_PER_SECOND

where ``bytes`` is the payload's real pickled size, not an estimate.  The
constants approximate the gigabit-Ethernet cluster the paper used.  The
collectives are shaped the way MPI implementations run them:

* **point to point** (scatter, gather): one message per other node, in turn;
* **broadcast**: a binomial tree — ⌈log₂ n⌉ rounds of one message, with
  n − 1 copies on the wire;
* **all-reduce**: a ring — 2 (n − 1) steps, each moving ⌊bytes / n⌋ per node.

On four nodes, broadcasting 1,000 bytes (1,018 pickled) is two rounds of one
message and three copies on the wire; all-reducing 4,000 bytes is six steps
of 1,000 bytes, sent by each of the four nodes:

>>> network = NetworkModel()
>>> round(network.broadcast(b"x" * 1000, 4) * 1e6, 2)   # µs: 2 × (500 + 1018 / 110)
1018.51
>>> network.total_bytes
3054
>>> round(network.all_reduce(4000, 4) * 1e6, 2)          # µs: 6 × (500 + 1000 / 110)
3054.55
>>> network.total_bytes - 3054                           # 4 × 6 × 1000
24000
>>> network.reset()
>>> network.total_bytes, network.total_seconds
(0, 0.0)
"""

from __future__ import annotations

import pickle

#: Per-message fixed cost (gigabit Ethernet, ~0.5 ms).
LATENCY_SECONDS = 0.0005
#: Sustained point-to-point bandwidth (~110 MB/s effective).
BANDWIDTH_BYTES_PER_SECOND = 110e6


def message_seconds(n_bytes: int) -> float:
    """Simulated seconds to move one message of ``n_bytes`` point to point."""
    return LATENCY_SECONDS + n_bytes / BANDWIDTH_BYTES_PER_SECOND


class NetworkModel:
    """Prices collectives and keeps running totals of what they moved.

    Attributes:
        total_bytes: bytes put on the wire since the last :meth:`reset`.
        total_seconds: simulated seconds priced since the last :meth:`reset`.
    """

    def __init__(self) -> None:
        self.reset()

    def _count(self, n_bytes: int, seconds: float) -> float:
        self.total_bytes += n_bytes
        self.total_seconds += seconds
        return seconds

    def send(self, payload) -> tuple[object, float]:
        """One message: a real copy of ``payload`` (pickled, like MPI send/recv
        of a Python object) and its simulated seconds."""
        wire = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        return pickle.loads(wire), self._count(len(wire), message_seconds(len(wire)))

    def broadcast(self, payload, n_nodes: int) -> float:
        """Seconds for a binomial-tree broadcast of ``payload`` from one node to
        the other ``n_nodes - 1``.  The payload is pickled once, for its size."""
        if n_nodes <= 1:
            return 0.0
        n_bytes = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        rounds = (n_nodes - 1).bit_length()  # ⌈log₂ n⌉
        return self._count((n_nodes - 1) * n_bytes, rounds * message_seconds(n_bytes))

    def all_reduce(self, n_bytes: int, n_nodes: int) -> float:
        """Seconds for a ring all-reduce of ``n_bytes`` held on every node."""
        if n_nodes <= 1:
            return 0.0
        steps = 2 * (n_nodes - 1)
        chunk = max(1, n_bytes // n_nodes)
        return self._count(n_nodes * steps * chunk, steps * message_seconds(chunk))

    def reset(self) -> None:
        self.total_bytes = 0
        self.total_seconds = 0.0
