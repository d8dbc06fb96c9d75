"""The delta-store trust battery: snapshot equivalence + concurrency.

Three layers of evidence that the writable tier (``repro.colstore.delta``)
is safe to put under the analytics paths:

- **Unit tests** pin the write API's contracts: version monotonicity,
  dtype admission (no silent float→int truncation, no clipped strings),
  deletion idempotence, compaction generations.
- **Property tests (hypothesis)**: for random interleavings of
  append/delete/compact over a table holding all four encodings, and for
  every plan shape (filter / aggregate / pivot / unsampled approx), a
  snapshot's answer is bit-identical to a fresh store loaded with exactly
  that snapshot's logical rows.  ``sample`` shapes are excluded by design:
  the sample is a pure function of *row positions*, and compaction
  renumbers positions — the logical content is equal but the drawn rows
  legitimately differ (same reason the fuzzer's mutation prelude skips
  the sample shape).
- **Concurrency tests**: writer threads appending while reader threads
  hold snapshots — no torn state, monotone versions, and a snapshot held
  across a compaction keeps answering from its own generation.  All
  assertions are content-based (never timing-based): a snapshot's version
  must exactly determine its row count, so any torn publish is caught as
  arithmetic, not as a race we hope to observe.

Aggregate values are integer-valued floats throughout: a merged column
adds its sealed and tail partials by key, which reassociates float
addition (the column store's one such merge), and integer sums are exact
under any association, which is what makes the bit-identical comparison
legitimate.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.colstore import AGGREGATE_FUNCTIONS, ColumnStore, ColumnTable, ColumnVector
from repro.colstore import reduce_by_inverse
from repro.colstore.delta import DeltaStore, MergedColumn, merge_group_parts
from repro.colstore.planner import run_plan
from repro.colstore.synopsis import POOL_SLACK
from repro.plan import approx_mean, col
from repro.plan.logical import Aggregate, ApproxAggregate, Filter, Pivot, Scan

COLUMNS = ("rid", "grp", "run", "val")


class WriterFailed(RuntimeError):
    """Raised by a patched write step on purpose."""


def _seed_arrays(n: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "rid": np.arange(n, dtype=np.int64),
        "grp": rng.choice(np.array(["a", "b", "c"]), n),
        "run": np.sort(rng.integers(0, 4, n)).astype(np.int64),
        "val": rng.integers(-50, 50, n).astype(np.float64),
    }


def _sealed_four_encodings(n: int, seed: int) -> ColumnTable:
    """One column per encoding, forced, so every fast path is exercised."""
    arrays = _seed_arrays(n, seed)
    return ColumnTable("events", [
        ColumnVector("rid", arrays["rid"], encoding="delta"),
        ColumnVector("grp", arrays["grp"], encoding="dictionary"),
        ColumnVector("run", arrays["run"], encoding="rle"),
        ColumnVector("val", arrays["val"], encoding="plain"),
    ])


def _store_with(table: ColumnTable) -> ColumnStore:
    store = ColumnStore("delta-test")
    store.register(table)
    return store


def _append_batch(store: ColumnStore, seed: int) -> None:
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 8))
    store.append("events", {
        "rid": rng.integers(0, 1000, k),
        "grp": rng.choice(np.array(["a", "b", "c", "d"]), k),
        "run": rng.integers(0, 5, k),
        "val": rng.integers(-50, 50, k).astype(np.float64),
    })


def _delete_some(store: ColumnStore, seed: int) -> None:
    """Delete a random subset of live rows, always leaving at least one."""
    rng = np.random.default_rng(seed)
    snapshot = store.snapshot("events")
    live = snapshot.live_selection()
    if live is None:
        live = np.arange(snapshot.row_count, dtype=np.int64)
    if len(live) <= 1:
        return
    count = int(rng.integers(1, len(live)))
    store.delete("events", rng.choice(live, size=count, replace=False))


def _apply_ops(store: ColumnStore, ops) -> None:
    for kind, op_seed in ops:
        if kind == "append":
            _append_batch(store, op_seed)
        elif kind == "delete":
            _delete_some(store, op_seed)
        else:
            store.compact("events")


# ---------------------------------------------------------------------------- #
# Unit: write API contracts
# ---------------------------------------------------------------------------- #


class TestDeltaStoreBasics:
    def test_versions_start_at_zero_and_count_every_write(self):
        store = _store_with(_sealed_four_encodings(20, seed=1))
        assert store.snapshot("events").version == 0
        v1 = store.append("events", _seed_arrays(3, seed=2))
        v2 = store.delete("events", [0, 5])
        v3 = store.compact("events")
        assert (v1, v2, v3) == (1, 2, 3)
        assert store.snapshot("events").version == 3

    def test_append_rejects_schema_mismatch(self):
        store = _store_with(_sealed_four_encodings(10, seed=1))
        with pytest.raises(ValueError, match="missing.*val"):
            store.append("events", {"rid": [1], "grp": ["a"], "run": [0]})
        with pytest.raises(ValueError, match="unexpected"):
            store.append("events", {**_seed_arrays(1, 2), "bogus": [1]})
        with pytest.raises(ValueError, match="expected"):
            store.append("events", {"rid": [1, 2], "grp": ["a"], "run": [0], "val": [1.0]})
        empty = {name: values[:0] for name, values in _seed_arrays(1, 2).items()}
        with pytest.raises(ValueError, match="at least one row"):
            store.append("events", empty)

    def test_append_refuses_lossy_casts(self):
        store = _store_with(_sealed_four_encodings(10, seed=1))
        bad = _seed_arrays(1, 2)
        bad["rid"] = np.array([1.5])  # float into an int64 column
        with pytest.raises(TypeError):
            store.append("events", bad)
        wide = _seed_arrays(1, 2)
        wide["grp"] = np.array(["toolong"])  # <U1 column
        with pytest.raises(ValueError, match="too wide"):
            store.append("events", wide)

    @pytest.mark.parametrize("write, error", [
        (lambda store: store.append("events", {"rid": [1], "grp": ["a"], "run": [0]}),
         ValueError),
        (lambda store: store.append("events", {**_seed_arrays(1, 2), "rid": np.array([1.5])}),
         TypeError),
        (lambda store: store.append("events", {**_seed_arrays(2, 2), "val": np.array([1.0])}),
         ValueError),
        (lambda store: store.delete_where("events", col("bogus") > 0), KeyError),
    ], ids=["missing-column", "uncastable-dtype", "short-column", "delete-unknown-column"])
    def test_a_rejected_write_publishes_nothing(self, write, error):
        store = _store_with(_sealed_four_encodings(10, seed=1))
        store.append("events", _seed_arrays(3, seed=2))
        store.delete("events", [4])
        delta, held = store.writable("events"), store.snapshot("events")

        def observed():
            return delta.version, delta.tail_rows, delta.deleted_count, held.row_count

        before = observed()
        with pytest.raises(error):
            write(store)
        assert observed() == before
        assert store.snapshot("events").version == before[0]

    @staticmethod
    def _written_store():
        """A store with a tail and a deletion, its delta store, and a reader
        of the state, a held snapshot's included, that a failed write must
        not move."""
        store = _store_with(_sealed_four_encodings(10, seed=1))
        store.append("events", _seed_arrays(3, seed=2))
        store.delete("events", [4])
        delta, held = store.writable("events"), store.snapshot("events")

        def observed():
            return (delta.version, delta.generation, delta.tail_rows,
                    delta.deleted_count, held.row_count, held.version)

        return store, delta, observed

    @staticmethod
    def _assert_unlocked_and_writable(store, delta, version):
        assert not delta._lock.locked()  # released: the next writer proceeds
        assert store.append("events", _seed_arrays(1, seed=4)) == version + 1

    @pytest.mark.parametrize("write", [
        lambda store: store.append("events", _seed_arrays(2, seed=3)),
        lambda store: store.delete("events", [0]),
        lambda store: store.compact("events"),
    ], ids=["append", "delete", "compact"])
    def test_a_writer_failing_before_its_publish_changes_nothing(self, write, monkeypatch):
        store, delta, observed = self._written_store()
        built = []

        def failing_publish(self, state):
            built.append(state.version)
            raise WriterFailed("died between building and publishing")

        monkeypatch.setattr(DeltaStore, "_publish", failing_publish)
        before = observed()
        with pytest.raises(WriterFailed):
            write(store)
        assert built == [before[0] + 1]  # the new state was built, once
        assert observed() == before
        monkeypatch.undo()
        self._assert_unlocked_and_writable(store, delta, before[0])

    def test_compaction_failing_mid_build_changes_nothing(self, monkeypatch):
        store, delta, observed = self._written_store()
        calls = []

        def failing_from_arrays(cls, *args, **kwargs):
            calls.append(args[0])
            raise WriterFailed("died while resealing")

        monkeypatch.setattr(ColumnTable, "from_arrays", classmethod(failing_from_arrays))
        before = observed()
        with pytest.raises(WriterFailed):
            store.compact("events")
        assert calls == ["events"]
        assert observed() == before
        monkeypatch.undo()
        self._assert_unlocked_and_writable(store, delta, before[0])

    def test_delete_validates_range_and_is_idempotent(self):
        store = _store_with(_sealed_four_encodings(10, seed=1))
        with pytest.raises(IndexError):
            store.delete("events", [10])
        with pytest.raises(IndexError):
            store.delete("events", [-1])
        store.delete("events", [3, 4])
        store.delete("events", [3, 4])  # no-op on content
        assert store.live_row_count("events") == 8
        np.testing.assert_array_equal(
            store.query("events").column("rid"),
            [0, 1, 2, 5, 6, 7, 8, 9],
        )

    def test_rows_appended_after_a_delete_are_live(self):
        store = _store_with(_sealed_four_encodings(5, seed=1))
        store.delete("events", [0])
        store.append("events", _seed_arrays(3, seed=9))
        assert store.live_row_count("events") == 7
        # The bitmap is shorter than the logical space; the new tail rows
        # are implicitly live and deletable by their logical ids.
        store.delete("events", [5])  # first appended row
        assert store.live_row_count("events") == 6

    def test_delete_where_uses_plan_expressions(self):
        store = _store_with(_sealed_four_encodings(30, seed=3))
        removed = store.delete_where("events", col("val") >= 0)
        assert removed == int((_seed_arrays(30, 3)["val"] >= 0).sum())
        assert (store.query("events").column("val") < 0).all()
        assert store.delete_where("events", col("val") >= 0) == 0

    def test_compact_reseals_generation_and_preserves_content(self):
        store = _store_with(_sealed_four_encodings(40, seed=5))
        _append_batch(store, 11)
        _delete_some(store, 12)
        expected = store.snapshot("events").logical_arrays()
        delta = store.writable("events")
        assert delta.generation == 0
        store.compact("events")
        assert delta.generation == 1
        assert delta.tail_rows == 0 and delta.deleted_count == 0
        for name in COLUMNS:
            np.testing.assert_array_equal(store.query("events").column(name),
                                          expected[name])
        # The resealed segment is a real compressed table again.
        assert not any(isinstance(store.effective_table("events").column(name), MergedColumn)
                       for name in COLUMNS)

    def test_snapshot_is_immune_to_later_writes_and_compaction(self):
        store = _store_with(_sealed_four_encodings(25, seed=6))
        _append_batch(store, 21)
        snapshot = store.snapshot("events")
        frozen = snapshot.logical_arrays()
        store.delete("events", [0, 1, 2])
        _append_batch(store, 22)
        store.compact("events")
        _append_batch(store, 23)
        assert snapshot.generation == 0
        for name in COLUMNS:
            np.testing.assert_array_equal(snapshot.query().column(name), frozen[name])

    def test_should_compact_thresholds_on_tail_plus_deletions(self):
        store = _store_with(_sealed_four_encodings(100, seed=7))
        delta = store.writable("events")
        assert not delta.should_compact()
        store.delete("events", np.arange(20))
        store.append("events", _seed_arrays(10, seed=8))
        assert delta.should_compact(tail_fraction=0.25)
        assert not delta.should_compact(tail_fraction=0.5)
        assert delta.maybe_compact(tail_fraction=0.25)
        assert not delta.maybe_compact(tail_fraction=0.25)

    def test_sealed_table_view_versus_logical_view(self):
        store = _store_with(_sealed_four_encodings(10, seed=1))
        store.append("events", _seed_arrays(5, seed=2))
        store.delete("events", [0])
        assert store.table("events").row_count == 10  # sealed only
        assert store.effective_table("events").row_count == 15  # logical space
        assert store.live_row_count("events") == 14
        rid = store.effective_table("events").column("rid")
        assert isinstance(rid, MergedColumn) and rid._sealed.encoding_name == "delta"
        # Storage accounting reads the logical view, so the tail's bytes count.
        assert store.total_compressed_bytes() > store.table("events").compressed_bytes

    def test_merged_column_surface(self):
        store = _store_with(_sealed_four_encodings(12, seed=9))
        store.append("events", _seed_arrays(4, seed=10))
        column = store.effective_table("events").column("val")
        assert isinstance(column, MergedColumn)
        assert len(column) == 16
        full = column.values()
        np.testing.assert_array_equal(column.take(np.array([-1, 0, 13])),
                                      full[[-1, 0, 13]])
        np.testing.assert_array_equal(column.isin(np.array([0.0, 3.0])),
                                      np.isin(full, [0.0, 3.0]))
        # Only the sealed part pushes predicates down: a dictionary column
        # shows the predicate its distinct values, the plain tail every row.
        groups = store.effective_table("events").column("grp")
        seen = []

        def is_a(values):
            seen.append(len(values))
            return values == "a"

        np.testing.assert_array_equal(groups.filter_mask(is_a),
                                      groups.values() == "a")
        assert seen == [len(np.unique(_seed_arrays(12, seed=9)["grp"])), 4]

    def test_merge_group_parts_rejects_mean(self):
        part = (np.array([1]), np.array([2.0]))
        with pytest.raises(ValueError, match="mean"):
            merge_group_parts([part, part], "mean", np.dtype(np.int64))


    MERGED_SELECTIONS = {
        "no selection": lambda rng: None,
        "contiguous split": lambda rng: np.flatnonzero(rng.random(48) < 0.5),
        "interleaved": lambda rng: rng.permutation(48)[:30],
        "tail only": lambda rng: np.array([40, 41, 44, 47]),
        "sealed only": lambda rng: np.array([0, 3, 4, 17, 39]),
        "empty": lambda rng: np.empty(0, dtype=np.int64),
    }

    @pytest.mark.parametrize("key", ["grp", "run", "rid"])
    @pytest.mark.parametrize("shape", list(MERGED_SELECTIONS))
    @pytest.mark.parametrize("function", AGGREGATE_FUNCTIONS)
    def test_merged_group_reduce_equals_numpy_on_the_decoded_column(
            self, function, shape, key):
        """Every function x selection shape against ``reduce_by_inverse`` over
        ``values()`` — ``mean`` included, which reduces sum and count from one
        split and one set of group codes per part."""
        store = _store_with(_sealed_four_encodings(40, seed=31))
        store.append("events", _seed_arrays(5, seed=32))
        store.append("events", _seed_arrays(3, seed=33))
        column = store.effective_table("events").column(key)
        assert isinstance(column, MergedColumn) and len(column) == 48
        selection = self.MERGED_SELECTIONS[shape](np.random.default_rng(34))
        decoded = column.values() if selection is None else column.values()[selection]
        # Non-integer floats: sums may associate differently (1e-12), the
        # rest is exact.
        reduced = np.random.default_rng(35).normal(size=len(decoded))
        keys, aggregates = MergedColumn(column._sealed, column._tail_chunks).group_reduce(
            None if function == "count" else reduced, function, selection)
        expected_keys, inverse = np.unique(decoded, return_inverse=True)
        expected = reduce_by_inverse(inverse, len(expected_keys), reduced, function)
        np.testing.assert_array_equal(keys, expected_keys)
        assert aggregates.shape == expected.shape and aggregates.dtype == np.float64
        if function in ("count", "min", "max"):
            np.testing.assert_array_equal(aggregates, expected)
        else:
            np.testing.assert_allclose(aggregates, expected, rtol=1e-12, atol=0.0)

    def test_a_write_that_deletes_nothing_keeps_the_full_selection_paths(self):
        """``delete([])`` publishes a bitmap with nothing set; the live
        selection must stay None, also after a later append (no explicit
        ``arange`` costing every later scan its compressed full-column paths)."""
        store = _store_with(_sealed_four_encodings(40, seed=37))
        twin = _store_with(_sealed_four_encodings(40, seed=37))
        store.delete("events", [])
        twin.append("events", _seed_arrays(4, seed=38))
        store.append("events", _seed_arrays(4, seed=38))
        snapshot = store.snapshot("events")
        assert snapshot.deleted_count == 0 and snapshot.live_rows == 44
        assert snapshot.live_selection() is None
        assert snapshot.query()._full_selection
        for plan in _plan_suite(threshold=5):
            _assert_same_answer(plan, store, twin)
            _assert_same_answer(plan, store, _fresh_equivalent(store))
        store.delete("events", [2])  # a real delete still narrows
        np.testing.assert_array_equal(store.snapshot("events").live_selection(),
                                      np.delete(np.arange(44), 2))


# ---------------------------------------------------------------------------- #
# Property: snapshot ≡ fresh store over its logical rows
# ---------------------------------------------------------------------------- #

_OPS = st.lists(
    st.tuples(st.sampled_from(["append", "delete", "compact"]),
              st.integers(0, 2**16)),
    min_size=1, max_size=6,
)


def _fresh_equivalent(store: ColumnStore) -> ColumnStore:
    """A brand-new store loaded with exactly the snapshot's logical rows."""
    fresh = ColumnStore("fresh")
    fresh.create_table("events", store.snapshot("events").logical_arrays())
    return fresh


def _plan_suite(threshold: int):
    scan = Scan("events")
    filtered = Filter(scan, col("val") > threshold)
    plans = [filtered]
    plans += [Aggregate(scan, "grp", "val", fn)
              for fn in ("sum", "count", "min", "max", "mean")]
    plans += [Aggregate(filtered, "run", "val", "sum"),
              Pivot(scan, "grp", "run", "val"),
              approx_mean(scan, "rid"),
              approx_mean(filtered, "val")]
    return plans


def _assert_same_answer(plan, store, fresh):
    for optimized in (True, False):
        got = run_plan(plan, store, optimized=optimized)
        want = run_plan(plan, fresh, optimized=optimized)
        if isinstance(plan, ApproxAggregate):
            # assert_array_equal treats NaN == NaN (an empty filtered
            # child legitimately yields a NaN mean on both sides).
            np.testing.assert_array_equal(
                np.array([got.estimate, got.ci_low, got.ci_high], dtype=float),
                np.array([want.estimate, want.ci_low, want.ci_high], dtype=float),
            )
        elif isinstance(got, tuple):
            for mine, theirs in zip(got, want, strict=True):
                np.testing.assert_array_equal(mine, theirs)
        else:
            for name in COLUMNS:
                np.testing.assert_array_equal(got.column(name), want.column(name))


def _check_scenario(n0, data_seed, threshold, ops):
    store = _store_with(_sealed_four_encodings(n0, data_seed))
    _apply_ops(store, ops)
    fresh = _fresh_equivalent(store)
    for plan in _plan_suite(threshold):
        _assert_same_answer(plan, store, fresh)


class TestSnapshotEquivalence:
    @given(n0=st.integers(10, 40), data_seed=st.integers(0, 2**16),
           threshold=st.integers(-40, 40), ops=_OPS)
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_mutated_store_matches_fresh_reload(self, n0, data_seed, threshold, ops):
        """PR profile: bounded, derandomized."""
        _check_scenario(n0, data_seed, threshold, ops)

    @pytest.mark.slow
    @given(n0=st.integers(10, 80), data_seed=st.integers(0, 2**20),
           threshold=st.integers(-50, 50), ops=_OPS)
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mutated_store_matches_fresh_reload_deep(self, n0, data_seed,
                                                     threshold, ops):
        """Nightly profile: many more examples, randomized exploration."""
        _check_scenario(n0, data_seed, threshold, ops)


# ---------------------------------------------------------------------------- #
# Concurrency: writers, readers, compactor
# ---------------------------------------------------------------------------- #

BATCH = 7  # every concurrent append is exactly this many rows


def _concurrent_store(n0: int = 200) -> ColumnStore:
    rng = np.random.default_rng(7)
    store = ColumnStore("conc")
    store.create_table("events", {
        "batch": np.full(n0, -1, dtype=np.int64),  # sealed rows marked -1
        "val": rng.integers(0, 100, n0).astype(np.float64),
    })
    return store


def _marked_batch(marker: int) -> dict[str, np.ndarray]:
    return {
        "batch": np.full(BATCH, marker, dtype=np.int64),
        "val": np.full(BATCH, float(marker % 13), dtype=np.float64),
    }


def _run_threads(workers: list[threading.Thread]) -> None:
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        assert not worker.is_alive(), "worker thread did not finish"


class TestConcurrency:
    def test_readers_never_see_torn_appends_and_versions_are_monotone(self):
        """N append-only writers, M snapshotting readers, no sleeps.

        With appends as the only writes, a snapshot's version *is* the
        number of batches it can see, so ``rows == n0 + version * BATCH``
        must hold exactly — a torn publish (rows visible before the
        version, or a half-visible chunk) breaks the arithmetic.  Each
        visible batch must appear with all-or-none of its rows.
        """
        n0, writers, readers, batches = 200, 4, 3, 15
        store = _concurrent_store(n0)
        errors: list[str] = []
        gate = threading.Barrier(writers + readers)
        done = threading.Event()

        def write(writer_id: int) -> None:
            gate.wait()
            for i in range(batches):
                store.append("events", _marked_batch(writer_id * 1000 + i))

        def read() -> None:
            gate.wait()
            last_version = -1
            while True:
                finished = done.is_set()  # read *before* snapshotting
                snapshot = store.snapshot("events")
                if snapshot.version < last_version:
                    errors.append(
                        f"version went backwards: {last_version} -> "
                        f"{snapshot.version}"
                    )
                last_version = snapshot.version
                markers = snapshot.query().column("batch")
                if len(markers) != n0 + snapshot.version * BATCH:
                    errors.append(
                        f"torn state: version {snapshot.version} but "
                        f"{len(markers)} rows"
                    )
                counts = np.unique(markers[markers >= 0], return_counts=True)[1]
                if counts.size and not (counts == BATCH).all():
                    errors.append(f"half-visible batch: counts {counts}")
                if finished:
                    break

        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        threads += [threading.Thread(target=read) for _ in range(readers)]
        writer_threads, reader_threads = threads[:writers], threads[writers:]
        for thread in threads:
            thread.start()
        for thread in writer_threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        done.set()
        for thread in reader_threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors, errors[:5]
        final = store.snapshot("events")
        assert final.version == writers * batches
        assert final.live_rows == n0 + writers * batches * BATCH
        markers, counts = np.unique(final.query().column("batch"),
                                    return_counts=True)
        assert counts[markers >= 0].tolist() == [BATCH] * (writers * batches)

    def test_reads_are_constant_under_a_racing_compactor(self):
        """Compaction preserves logical content, so every read answer —
        across generations, mid-swap, whenever — must equal the baseline."""
        store = _concurrent_store(300)
        store.append("events", _marked_batch(1))
        store.delete("events", np.arange(0, 50))
        baseline_keys, baseline_sums = store.query("events").group_aggregate(
            "batch", "val", "sum")
        delta = store.writable("events")
        errors: list[str] = []
        done = threading.Event()

        def compact_repeatedly() -> None:
            for _ in range(30):
                delta.compact()
            done.set()

        def read() -> None:
            while True:
                finished = done.is_set()
                keys, sums = store.query("events").group_aggregate(
                    "batch", "val", "sum")
                if not (np.array_equal(keys, baseline_keys)
                        and np.array_equal(sums, baseline_sums)):
                    errors.append("aggregate drifted during compaction")
                if finished:
                    break

        _run_threads([threading.Thread(target=compact_repeatedly)]
                     + [threading.Thread(target=read) for _ in range(3)])
        assert not errors, errors[:3]
        assert delta.generation == 30

    def test_snapshot_acquired_mid_compaction_answers_from_its_generation(self):
        store = _concurrent_store(150)
        store.append("events", _marked_batch(5))
        delta = store.writable("events")
        captured: list = []
        done = threading.Event()

        def compact_repeatedly() -> None:
            for _ in range(25):
                delta.compact()
            done.set()

        def snapshotter() -> None:
            while True:
                finished = done.is_set()
                snapshot = store.snapshot("events")
                captured.append(
                    (snapshot.generation, snapshot.version,
                     snapshot.query().column("val").sum())
                )
                if finished:
                    break

        _run_threads([threading.Thread(target=compact_repeatedly),
                      threading.Thread(target=snapshotter)])
        expected = store.query("events").column("val").sum()
        generations = {generation for generation, _, _ in captured}
        for generation, version, total in captured:
            assert total == expected  # content identical in every generation
            assert version >= generation
        assert generations <= set(range(26))
        # Writes after the fact never leak into an already-held snapshot.
        held = store.snapshot("events")
        held_rows = held.live_rows
        store.append("events", _marked_batch(9))
        delta.compact()
        assert held.live_rows == held_rows
        assert held.generation < delta.generation

    def test_mixed_writers_and_compactor_keep_integrity(self):
        """Appends + a compactor racing: every batch survives exactly whole."""
        n0, writers, batches = 120, 3, 10
        store = _concurrent_store(n0)
        delta = store.writable("events")
        errors: list[str] = []
        gate = threading.Barrier(writers + 2)
        done = threading.Event()

        def write(writer_id: int) -> None:
            gate.wait()
            for i in range(batches):
                store.append("events", _marked_batch(writer_id * 1000 + i))

        def compact_repeatedly() -> None:
            gate.wait()
            while not done.is_set():
                delta.maybe_compact(tail_fraction=0.05)

        def read() -> None:
            gate.wait()
            last_version = -1
            while True:
                finished = done.is_set()
                snapshot = store.snapshot("events")
                if snapshot.version < last_version:
                    errors.append("version went backwards")
                last_version = snapshot.version
                markers = snapshot.query().column("batch")
                counts = np.unique(markers[markers >= 0], return_counts=True)[1]
                if counts.size and not (counts == BATCH).all():
                    errors.append(f"half-visible batch: counts {counts}")
                if finished:
                    break

        writer_threads = [threading.Thread(target=write, args=(w,))
                          for w in range(writers)]
        other = [threading.Thread(target=compact_repeatedly),
                 threading.Thread(target=read)]
        for thread in writer_threads + other:
            thread.start()
        for thread in writer_threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        done.set()
        for thread in other:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors, errors[:5]
        markers, counts = np.unique(store.query("events").column("batch"),
                                    return_counts=True)
        assert counts[markers >= 0].tolist() == [BATCH] * (writers * batches)
        assert int(counts[markers == -1][0]) == n0


# ---------------------------------------------------------------------------- #
# Regression: synopsis cache staleness after writes
# ---------------------------------------------------------------------------- #


class TestSynopsisStaleness:
    def test_post_append_approx_answer_reflects_the_new_rows(self):
        """A synopsis drawn before an append must not answer after it.

        The cache used to serve one selection per ``(kind, table, fraction,
        seed)`` whatever had been written since, silently excluding
        appended rows from every later approximate answer.  An entry is now
        stamped with the version it answers and advanced to the reader's
        snapshot, so the post-append answer is bit-identical to a fresh
        store loaded with the same logical rows.
        """
        store = _store_with(_sealed_four_encodings(60, seed=13))
        plan = approx_mean(Scan("events"), "val", fraction=0.5, seed=3)
        before = run_plan(plan, store)
        assert len(store.synopses) == 1
        store.append("events", {
            "rid": np.arange(60, 90), "grp": np.full(30, "c"),
            "run": np.full(30, 9, dtype=np.int64),
            "val": np.full(30, 10_000.0),
        })
        after = run_plan(plan, store)
        expected = run_plan(plan, _fresh_equivalent(store))
        assert (after.estimate, after.ci_low, after.ci_high) == \
               (expected.estimate, expected.ci_low, expected.ci_high)
        # 30 rows of 10k among 90 must move a 50% sample's mean estimate.
        assert after.estimate != before.estimate
        # One entry per (table, fraction, seed), answering the current
        # version — advanced in place, not accumulated per version.
        assert len(store.synopses) == 1
        np.testing.assert_array_equal(
            store.synopses.uniform("events", 0.5, seed=3),
            store.query("events").sample(0.5, 3).selection)

    def test_uniform_synopsis_cache_hits_within_a_version(self):
        store = _store_with(_sealed_four_encodings(50, seed=17))
        first = store.synopses.uniform("events", 0.4, seed=2)
        again = store.synopses.uniform("events", 0.4, seed=2)
        assert first is again
        store.append("events", _seed_arrays(5, seed=18))
        redrawn = store.synopses.uniform("events", 0.4, seed=2)
        assert redrawn is not first
        inline = store.query("events").sample(0.4, 2).selection
        np.testing.assert_array_equal(redrawn, inline)


# ---------------------------------------------------------------------------- #
# Synopsis maintenance: an advanced entry *is* the fresh draw
# ---------------------------------------------------------------------------- #

#: Two fractions and seeds asked of one table throughout the battery.
SYNOPSIS_KEYS = ((0.3, 1), (0.05, 2), (1.0, 5))

_SYNOPSIS_OPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "delete", "delete_where", "compact",
                         "silent-append", "silent-delete"]),
        st.integers(0, 2**16)),
    min_size=1, max_size=10,
)


def _never_warm_answer(plan, store):
    """``plan`` answered by ``store`` with a catalog that has drawn nothing yet."""
    warm, store._synopses = store._synopses, None
    try:
        return run_plan(plan, store)
    finally:
        store._synopses = warm


def _write(store: ColumnStore, kind: str, seed: int) -> None:
    rng = np.random.default_rng(seed)
    if kind in ("append", "silent-append"):
        _append_batch(store, seed)
    elif kind in ("delete", "silent-delete"):
        _delete_some(store, seed)
    elif kind == "delete_where":
        store.delete_where("events", col("val") > int(rng.integers(-40, 40)))
    else:
        store.compact("events")


def _assert_synopses_are_fresh_draws(store: ColumnStore) -> None:
    """Every maintained selection equals ``ColumnQuery.sample`` on the current
    snapshot, and the approximate answer a never-warm catalog's."""
    for fraction, seed in SYNOPSIS_KEYS:
        maintained = store.synopses.uniform("events", fraction, seed)
        fresh = store.query("events").sample(fraction, seed).selection
        np.testing.assert_array_equal(maintained, fresh)
        assert maintained.dtype == np.int64
        plan = approx_mean(Scan("events"), "val", fraction=fraction, seed=seed)
        got, want = run_plan(plan, store), _never_warm_answer(plan, store)
        np.testing.assert_array_equal(  # NaN == NaN: an emptied table
            np.array([got.estimate, got.ci_low, got.ci_high]),
            np.array([want.estimate, want.ci_low, want.ci_high]))
    assert len(store.synopses) == len(SYNOPSIS_KEYS)


class TestSynopsisMaintenance:
    @given(n0=st.integers(1, 120), data_seed=st.integers(0, 2**16), ops=_SYNOPSIS_OPS)
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_maintained_selection_is_the_fresh_draw_after_every_write(
            self, n0, data_seed, ops):
        """Random interleavings of every write, checked after every step —
        except the ``silent-`` ones, which leave the entry several versions
        behind so the next check advances it across all of them at once."""
        store = _store_with(_sealed_four_encodings(n0, data_seed))
        _assert_synopses_are_fresh_draws(store)
        for kind, seed in ops:
            _write(store, kind, seed)
            if not kind.startswith("silent-"):
                _assert_synopses_are_fresh_draws(store)
        _assert_synopses_are_fresh_draws(store)

    def test_entry_is_advanced_not_redrawn_within_a_generation(self, monkeypatch):
        """After a write the catalog scores only the appended rows."""
        store = _store_with(_sealed_four_encodings(2_000, seed=41))
        store.synopses.uniform("events", 0.1, seed=7)
        scored = []
        real = np.random.Generator.random
        monkeypatch.setattr(np.random, "Generator", type(
            "Counting", (np.random.Generator,),
            {"random": lambda self, size: scored.append(size) or real(self, size)}))
        store.append("events", _seed_arrays(50, seed=42))
        store.delete("events", np.arange(0, 300, 3))
        store.append("events", _seed_arrays(25, seed=43))
        advanced = store.synopses.uniform("events", 0.1, seed=7)
        assert scored == [75]
        monkeypatch.undo()
        np.testing.assert_array_equal(
            advanced, store.query("events").sample(0.1, 7).selection)
        assert len(advanced) == round(0.1 * (2_075 - 100))

    def test_pool_underflow_redraws(self):
        """Deleting most of the sample (and its slack) leaves the pool short:
        the entry is redrawn, and still equals the fresh draw."""
        store = _store_with(_sealed_four_encodings(1_000, seed=44))
        catalog = store.synopses
        first = catalog.uniform("events", 0.2, seed=9)
        (entry,) = catalog._entries.values()
        assert len(first) == 200 and len(entry.pool_rows) == 200 + int(200 * POOL_SLACK)
        store.delete("events", entry.pool_rows[:180])
        from repro.colstore.synopsis import _advance_uniform
        assert _advance_uniform(entry, store.snapshot("events"), 0.2, 9) is None
        redrawn = catalog.uniform("events", 0.2, seed=9)
        np.testing.assert_array_equal(
            redrawn, store.query("events").sample(0.2, 9).selection)
        assert len(redrawn) == 164 and not np.intersect1d(redrawn, entry.pool_rows[:180]).size
        # The redrawn entry has a full pool again and advances from here.
        store.delete("events", redrawn[:10])
        (entry,) = catalog._entries.values()
        assert _advance_uniform(entry, store.snapshot("events"), 0.2, 9) is not None
        _ = catalog.uniform("events", 0.2, seed=9)
        np.testing.assert_array_equal(
            _, store.query("events").sample(0.2, 9).selection)

    def test_reader_holding_an_older_snapshot_gets_its_own_draw(self):
        """A snapshot older than the entry is answered for *its* version and
        does not set the entry back for current readers."""
        store = _store_with(_sealed_four_encodings(300, seed=45))
        old = store.snapshot("events")
        store.append("events", _seed_arrays(40, seed=46))
        store.delete("events", np.arange(10, 60))
        current = store.synopses.uniform("events", 0.25, seed=3)
        older = store.synopses.uniform("events", 0.25, seed=3, snapshot=old)
        np.testing.assert_array_equal(older, old.query().sample(0.25, 3).selection)
        assert len(older) == 75 and older.max() < 300
        assert store.synopses.uniform("events", 0.25, seed=3) is current
        # The same across a compaction: the old generation's ids are its own.
        store.compact("events")
        compacted = store.synopses.uniform("events", 0.25, seed=3)
        np.testing.assert_array_equal(
            compacted, store.query("events").sample(0.25, 3).selection)
        np.testing.assert_array_equal(
            store.synopses.uniform("events", 0.25, seed=3, snapshot=old), older)
        assert store.synopses.uniform("events", 0.25, seed=3) is compacted
        assert len(store.synopses) == 1

    def test_racing_readers_each_get_their_own_snapshots_draw(self):
        """Readers advance one shared entry while writers (and a compactor)
        move the table: entries are immutable and swapped whole, so whichever
        reader stores last, every reader's rows are its own snapshot's."""
        store = _concurrent_store(400)
        errors: list[str] = []
        done = threading.Event()

        def write(writer_id: int) -> None:
            rng = np.random.default_rng(writer_id)
            for i in range(40):
                store.append("events", _marked_batch(writer_id * 1000 + i))
                live = store.snapshot("events").live_selection()
                if live is not None and len(live) > 100:
                    store.delete("events", rng.choice(live[:100], size=3, replace=False))
                if writer_id == 0 and i % 13 == 12:
                    store.compact("events")

        def read() -> None:
            while not errors:
                finished = done.is_set()
                snapshot = store.snapshot("events")
                got = store.synopses.uniform("events", 0.2, seed=6, snapshot=snapshot)
                if not np.array_equal(got, snapshot.query().sample(0.2, 6).selection):
                    errors.append(f"version {snapshot.version}: not the fresh draw")
                if finished:
                    break

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [threading.Thread(target=write, args=(w,)) for w in range(3)]
            readers = [threading.Thread(target=read) for _ in range(4)]
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=120)
                assert not thread.is_alive()
            done.set()
            for thread in readers:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:3]
        assert len(store.synopses) == 1


class TestSynopsisRouteReadsOneSnapshot:
    """``_sampled_base`` derives table, selection and population from the one
    snapshot the execution froze: a write landing mid-plan is invisible."""

    PLAN = approx_mean(Scan("events"), "val", fraction=0.5, seed=3)

    def _answer_with_a_write_around_the_synopsis_lookup(self, write, when):
        store = _store_with(_sealed_four_encodings(60, seed=13))
        catalog = store.synopses
        real, fired = catalog.uniform, []

        def uniform(*args, **kwargs):
            if when == "before" and not fired:
                fired.append(write(store))
            selection = real(*args, **kwargs)
            if when == "after" and not fired:
                fired.append(write(store))
            return selection

        catalog.uniform = uniform
        answer = run_plan(self.PLAN, store)
        assert len(fired) == 1
        return answer

    @pytest.mark.parametrize("when", ["before", "after"])
    @pytest.mark.parametrize("write", [
        lambda store: store.append("events", {
            "rid": np.arange(60, 90), "grp": np.full(30, "c"),
            "run": np.full(30, 9, dtype=np.int64), "val": np.full(30, 10_000.0)}),
        lambda store: store.delete("events", np.arange(0, 60, 2)),
        lambda store: (store.delete("events", np.arange(0, 50)),
                       store.compact("events")),
    ], ids=["append", "delete", "delete+compact"])
    def test_a_write_landing_mid_plan_does_not_change_the_answer(self, write, when):
        quiet = run_plan(self.PLAN, _store_with(_sealed_four_encodings(60, seed=13)))
        raced = self._answer_with_a_write_around_the_synopsis_lookup(write, when)
        assert (raced.estimate, raced.ci_low, raced.ci_high) == \
               (quiet.estimate, quiet.ci_low, quiet.ci_high)

    def test_self_join_and_sample_share_the_scans_snapshot(self):
        """The synopsis route reuses the snapshot a ``Scan`` already froze."""
        from repro.colstore.planner import ColumnStoreBackend
        store = _store_with(_sealed_four_encodings(60, seed=13))
        backend = ColumnStoreBackend(store, None)
        scanned = backend.lower(Scan("events"))
        store.append("events", _seed_arrays(9, seed=14))
        sampled, population = backend._sampled_base(Scan("events"), 0.5, 3)
        assert sampled.table is scanned.table and population == 60
        assert sampled.selection.max() < 60


class TestDeltaScanGateTrips:
    """The committed delta_scan entry is gated and its gate is live.

    The bench op times the merged sealed/tail scan against the
    always-decode merge it replaced and against the sealed-only scan
    (recorded as ``sealed_only_s``).  These tests pin both halves of the
    claim: the committed record actually holds the 1.2x tail-overhead
    bound, and a candidate that regresses to always-decode behaviour, or
    whose tail misses that bound, demonstrably fails CI.
    """

    REPO = pathlib.Path(__file__).resolve().parent.parent
    GATE = REPO / "benchmarks" / "check_bench_regression.py"
    RECORD = REPO / "BENCH_colstore.json"

    def _run_gate(self, candidate: pathlib.Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(self.GATE), "--candidate", str(candidate)],
            capture_output=True, text=True,
        )

    def _delta_entry(self, record: dict) -> dict:
        (entry,) = [e for e in record["results"] if e["op"] == "delta_scan"]
        return entry

    def test_committed_record_gates_a_real_speedup(self):
        entry = self._delta_entry(json.loads(self.RECORD.read_text()))
        assert entry["gated"] is True
        assert entry["speedup"] > 1.0

    def test_committed_record_holds_the_tail_overhead_bound(self):
        entry = self._delta_entry(json.loads(self.RECORD.read_text()))
        # The gate holds every candidate to this; the committed numbers
        # must still show it (same bound, same noise floor).
        assert entry["compressed_s"] <= 1.2 * entry["sealed_only_s"] + 200e-6

    def test_a_tail_over_the_overhead_bound_trips_the_gate(self, tmp_path):
        record = json.loads(self.RECORD.read_text())
        entry = self._delta_entry(record)
        # The speedup over always-decode holds; only the tail costs too much
        # against the pristine scan.
        entry["compressed_s"] = 1.2 * entry["sealed_only_s"] + 201e-6
        candidate = tmp_path / "doctored.json"
        candidate.write_text(json.dumps(record))
        result = self._run_gate(candidate)
        assert result.returncode == 1
        assert "tail-overhead bound" in result.stderr
        assert "delta_scan" in result.stderr

    def test_simulated_always_decode_tail_merge_trips_the_gate(self, tmp_path):
        record = json.loads(self.RECORD.read_text())
        entry = self._delta_entry(record)
        # Simulate losing MergedColumn: every scan of a written table
        # decodes the sealed segment and concatenates the tail, so the
        # merged path costs what the always-decode baseline costs.
        entry["compressed_s"] = entry["baseline_s"]
        entry["speedup"] = 1.0
        candidate = tmp_path / "doctored.json"
        candidate.write_text(json.dumps(record))
        result = self._run_gate(candidate)
        assert result.returncode == 1
        assert "REGRESSION" in result.stdout
        assert "delta_scan" in result.stdout


@pytest.mark.parametrize("op, encoding, lost", [
    ("sample", "uniform-5pct", "sample() sorts every score again"),
    ("take", "rle-sorted", "the RLE gather probes the run ends once per position"),
    ("synopsis_refresh", "append+delete", "every write retires the synopsis entry"),
])
class TestWriteCostGateTrips:
    """The three what-a-write-costs-the-reader rows are gated, and each gate
    trips when its fast path is lost (the candidate then costs its baseline)."""

    def _entry(self, record: dict, op: str, encoding: str) -> dict:
        (entry,) = [e for e in record["results"]
                    if (e["op"], e["encoding"]) == (op, encoding)]
        return entry

    def test_committed_record_gates_a_real_speedup(self, op, encoding, lost):
        record = json.loads(TestDeltaScanGateTrips.RECORD.read_text())
        entry = self._entry(record, op, encoding)
        assert entry["gated"] is True
        assert entry["speedup"] > 3.0

    def test_losing_the_fast_path_trips_the_gate(self, tmp_path, op, encoding, lost):
        record = json.loads(TestDeltaScanGateTrips.RECORD.read_text())
        entry = self._entry(record, op, encoding)
        entry["compressed_s"] = entry["baseline_s"]  # i.e. ``lost``
        entry["speedup"] = 1.0
        candidate = tmp_path / "doctored.json"
        candidate.write_text(json.dumps(record))
        result = TestDeltaScanGateTrips()._run_gate(candidate)
        assert result.returncode == 1, lost
        assert "REGRESSION" in result.stdout
        assert op in result.stdout
