"""Hypothesis strategies over the fuzz grammar, for ``test_fuzz.py``.

The grammar itself lives in :mod:`repro.fuzz.generate`; this module only
supplies a :class:`Chooser` whose decisions are hypothesis draws, so the
*same* generator yields shrinkable cases: when a property fails, hypothesis
minimises the draw sequence, which walks the grammar toward fewer filters,
smaller literal pools, and the simplest failing shape.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.fuzz.generate import Chooser, FuzzCase, FuzzSchema, generate_case


class DrawChooser(Chooser):
    """Grammar decisions as hypothesis draws (shrink-friendly)."""

    def __init__(self, draw):
        self.draw = draw

    def choice(self, options):
        return self.draw(st.sampled_from(list(options)))

    def randint(self, low: int, high: int) -> int:
        return self.draw(st.integers(min_value=low, max_value=high))

    def chance(self, probability: float) -> bool:
        # The probability is a sampling weight for the random driver;
        # hypothesis explores both branches and shrinks toward False —
        # i.e. toward fewer optional grammar parts.
        return self.draw(st.booleans())


@st.composite
def fuzz_cases(draw, schema: FuzzSchema) -> FuzzCase:
    """One random-but-valid :class:`FuzzCase` over the given schema."""
    return generate_case(DrawChooser(draw), schema)
