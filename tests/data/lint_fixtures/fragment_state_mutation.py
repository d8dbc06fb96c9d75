# Fixture: fragment-state-mutation fires on nonlocal/global rebinding and
# self-attribute mutation inside per-node worker closures; pure workers
# and driver-side mutation pass.
# expect: fragment-state-mutation
# expect: fragment-state-mutation
# expect: fragment-state-mutation
import numpy as np


def bad_nonlocal_accumulator(cluster, partitions):
    total = 0

    def work(node_id):
        nonlocal total
        total += len(partitions[node_id])  # races across worker threads
        return total

    return cluster.run_on_nodes([work])


class BadDriver:
    def run(self, table, cluster):
        def partial(node_id, local_rows):
            self.seen = node_id  # worker thread mutating driver state
            return np.sum(local_rows)

        return run_shared_plan(self.plan, table, cluster, on_fragment=partial)


COUNTER = 0


def bad_global(cluster):
    def work(node_id):
        global COUNTER
        return node_id

    return cluster.run_on_nodes([work])


def blessed_pure_worker(cluster, partitions):
    def work(node_id):
        # Pure: reads the closure, returns the value — reduced on the driver.
        return len(partitions[node_id])

    results = cluster.run_on_nodes([work])
    total = sum(results)  # driver-side accumulation is fine
    return total


def run_shared_plan(plan, table, cluster, on_fragment=None):
    return on_fragment
