"""Observed-cardinality hooks for the per-engine plan executors.

Every engine bridge accepts an optional :class:`PlanObservation`; the
shared driver (:func:`repro.plan.execute.execute`) fills it with what the
run actually produced — engine, output rows, pivot cells — and the
MapReduce bridge adds the records and serialised bytes that crossed the
shuffle.  The differential fuzzer records these observations next to
the optimizer's *predictions* (:func:`repro.plan.optimizer.estimate_output_rows`
and :func:`repro.mapreduce.bridge.estimate_shuffle_bytes`) into the cost
calibration report gated by ``tools/check_cost_calibration.py``.

The hook is deliberately write-only from the executor's side: passing one
never changes what a bridge computes, only what it reports.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PlanObservation:
    """What one plan execution actually produced.

    Attributes:
        engine: the engine family that filled the observation.
        output_rows: cardinality of the plan's result — rows of a
            relational result, selected coordinates of an array selection,
            group count of an ``Aggregate``, row-label count of a ``Pivot``.
        output_cells: dense cell count of a ``Pivot`` matrix (None for
            other terminals).
        shuffle_records: map-output records that reached the shuffle
            across every MapReduce job the plan ran (MapReduce only).
        shuffle_bytes: serialised spill bytes across those jobs
            (MapReduce only).
    """

    engine: str = ""
    output_rows: int | None = None
    output_cells: int | None = None
    shuffle_records: int | None = None
    shuffle_bytes: int | None = None
