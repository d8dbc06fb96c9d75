# Fixture (whole-tree rules): a lazy re-export, which calls nothing.
_LAZY_EXPORTS = {"lazily_exported": ("repro.linalg.lanczos", "lazily_exported")}

__all__ = sorted(_LAZY_EXPORTS)
