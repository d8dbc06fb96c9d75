"""Phase timing: splitting a query run into data management and analytics.

Figures 2 and 4 of the paper break each query's elapsed time into its data
management and analytics portions.  Engine adapters wrap their work in
``timer.data_management()`` / ``timer.analytics()`` blocks; the timer
accumulates measured wall-clock per phase and also accepts *modelled*
seconds (from the cluster's network model or the coprocessor model) so
simulated components land in the right bucket.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class PhaseTimer:
    """Accumulates per-phase seconds for one query run."""

    data_management_seconds: float = 0.0
    analytics_seconds: float = 0.0
    #: Free-form notes engines can attach (bytes copied, jobs run, ...).
    notes: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def data_management(self):
        """Time a data-management block."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.data_management_seconds += time.perf_counter() - started

    @contextmanager
    def analytics(self):
        """Time an analytics block."""
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.analytics_seconds += time.perf_counter() - started

    def add_data_management(self, seconds: float) -> None:
        """Add modelled (not measured) data-management seconds."""
        if seconds < 0:
            raise ValueError("cannot add negative seconds")
        self.data_management_seconds += seconds

    def add_analytics(self, seconds: float) -> None:
        """Add modelled (not measured) analytics seconds."""
        if seconds < 0:
            raise ValueError("cannot add negative seconds")
        self.analytics_seconds += seconds

    def note(self, key: str, value: float) -> None:
        """Attach (or accumulate into) a named note."""
        self.notes[key] = self.notes.get(key, 0.0) + value

    @property
    def total_seconds(self) -> float:
        return self.data_management_seconds + self.analytics_seconds

