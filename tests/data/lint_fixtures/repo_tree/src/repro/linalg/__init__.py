# Fixture (whole-tree rules): a re-export, which calls nothing.
from repro.linalg.lanczos import exported_entry_point

__all__ = ["exported_entry_point"]
