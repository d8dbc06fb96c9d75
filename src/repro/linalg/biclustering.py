"""Cheng–Church biclustering (GenBase Query 3).

Query 3 clusters rows (patients) and columns (genes) of the expression
matrix simultaneously to find sub-matrices with similar patterns (paper
Section 3.2.3) — e.g. a block of patients and genes that are jointly
under-expressed.

The paper does not pin a specific algorithm, so we implement the classic
Cheng & Church (2000) δ-bicluster procedure: repeatedly find a sub-matrix
whose *mean squared residue* (MSR) is below a threshold δ by greedy node
deletion, then grow it back with node addition, mask the found bicluster
with noise and repeat.  This is the algorithm most biclustering packages
(including the R ``biclust`` package the original GenBase scripts use)
implement as their reference method.

Supported domain: a finite float64 matrix (a non-finite cell raises
``ValueError``); a matrix smaller than ``min_rows × min_cols`` has no
bicluster.  The steps carry the current block of ``rows × cols`` and
shrink it as rows and columns leave; each deletion round computes its
residue matrix once, in one buffer (:func:`_residues`), and reads the MSR,
the row scores and the column scores off it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Bicluster:
    """One discovered bicluster.

    Attributes:
        rows: indices of the member rows (patients).
        columns: indices of the member columns (genes).
        msr: the mean squared residue of the final block.
    """

    rows: np.ndarray
    columns: np.ndarray
    msr: float


@dataclass
class BiclusteringResult:
    """All biclusters found in one run."""

    biclusters: list[Bicluster] = field(default_factory=list)

    def __iter__(self):
        return iter(self.biclusters)


def mean_squared_residue(block: np.ndarray) -> float:
    """Compute the Cheng–Church mean squared residue of a matrix block.

    The residue of cell (i, j) is
    ``a_ij - row_mean_i - col_mean_j + block_mean``; the MSR is the mean of
    its square.  An MSR of 0 means the block is perfectly "additive"
    (all rows shift by a constant relative to each other).
    """
    block = np.asarray(block, dtype=np.float64)
    if block.size == 0:
        return 0.0
    return _residues(block)[0]


def _residues(block: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The block's MSR and its per-row and per-column means, from one residue matrix."""
    squared = block - block.mean(axis=1, keepdims=True)
    squared -= block.mean(axis=0, keepdims=True)
    squared += block.mean()
    np.square(squared, out=squared)
    return float(squared.mean()), squared.mean(axis=1), squared.mean(axis=0)


def _single_node_deletion(
    block: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    delta: float,
    min_rows: int,
    min_cols: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Greedily delete the worst row/column until the MSR drops below delta."""
    while len(rows) > min_rows and len(cols) > min_cols:
        msr, row_res, col_res = _residues(block)
        if msr <= delta:
            break
        worst_row = int(np.argmax(row_res))
        worst_col = int(np.argmax(col_res))
        if row_res[worst_row] >= col_res[worst_col]:
            rows = np.delete(rows, worst_row)
            block = np.delete(block, worst_row, axis=0)
        else:
            cols = np.delete(cols, worst_col)
            block = np.delete(block, worst_col, axis=1)
    return block, rows, cols


def _multiple_node_deletion(
    block: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    delta: float,
    alpha: float,
    min_rows: int,
    min_cols: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Delete all rows/columns whose residue exceeds ``alpha * MSR`` at once.

    This is the speed-up phase Cheng & Church use for large matrices; it
    converges much faster than single deletion and the benchmark matrices
    are large enough for it to matter.
    """
    changed = True
    while changed and len(rows) > min_rows and len(cols) > min_cols:
        changed = False
        msr, row_res, col_res = _residues(block)
        if msr <= delta:
            break
        keep_rows = row_res <= alpha * msr
        if keep_rows.sum() >= min_rows and not keep_rows.all():
            rows = rows[keep_rows]
            block = block[keep_rows]
            changed = True
            # The column scores are of the block the rows just left.
            msr, _, col_res = _residues(block)
            if msr <= delta:
                break
        keep_cols = col_res <= alpha * msr
        if keep_cols.sum() >= min_cols and not keep_cols.all():
            cols = cols[keep_cols]
            # compress keeps the block C-ordered (a boolean column index
            # would not), so every mean sums in the order a gather would.
            block = block.compress(keep_cols, axis=1)
            changed = True
    return block, rows, cols


def _node_addition(
    matrix: np.ndarray,
    block: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Add back rows/columns whose residue is below the block MSR."""
    # Column addition.
    col_candidates = np.setdiff1d(np.arange(matrix.shape[1]), cols)
    if len(col_candidates):
        sub = matrix[np.ix_(rows, col_candidates)]
        residues = ((sub - block.mean(axis=1, keepdims=True) - sub.mean(axis=0, keepdims=True)
                     + block.mean()) ** 2).mean(axis=0)
        additions = col_candidates[residues <= mean_squared_residue(block)]
        if len(additions):
            cols = np.sort(np.concatenate([cols, additions]))
            block = matrix[np.ix_(rows, cols)]

    # Row addition.
    row_candidates = np.setdiff1d(np.arange(matrix.shape[0]), rows)
    if len(row_candidates):
        sub = matrix[np.ix_(row_candidates, cols)]
        residues = ((sub - sub.mean(axis=1, keepdims=True) - block.mean(axis=0, keepdims=True)
                     + block.mean()) ** 2).mean(axis=1)
        additions = row_candidates[residues <= mean_squared_residue(block)]
        if len(additions):
            rows = np.sort(np.concatenate([rows, additions]))
            block = matrix[np.ix_(rows, cols)]

    return block, rows, cols


def cheng_church(
    matrix: np.ndarray,
    n_biclusters: int = 3,
    delta: float | None = None,
    alpha: float = 1.2,
    min_rows: int = 2,
    min_cols: int = 2,
    seed: int = 0,
) -> BiclusteringResult:
    """Run the Cheng–Church δ-biclustering algorithm.

    Args:
        matrix: ``(n_rows, n_cols)`` expression (sub-)matrix.
        n_biclusters: how many biclusters to extract.
        delta: MSR threshold; defaults to 10% of the whole-matrix MSR, which
            adapts the threshold to the data's noise level.
        alpha: multiple-node-deletion aggressiveness (>1).
        min_rows: smallest number of rows a bicluster may shrink to.
        min_cols: smallest number of columns a bicluster may shrink to.
        seed: seed for the noise used to mask found biclusters.

    Returns:
        A :class:`BiclusteringResult`; biclusters are returned in discovery
        order and each has at least ``min_rows`` × ``min_cols`` cells.
    """
    working = np.array(matrix, dtype=np.float64, copy=True)
    if working.ndim != 2:
        raise ValueError("cheng_church expects a 2-D matrix")
    if not np.isfinite(working).all():
        raise ValueError("cheng_church: matrix must be finite (found NaN or infinity)")
    n_rows, n_cols = working.shape
    if n_rows < min_rows or n_cols < min_cols:
        return BiclusteringResult(biclusters=[])
    if alpha <= 1.0:
        raise ValueError("alpha must be greater than 1")

    rng = np.random.default_rng(seed)
    if delta is None:
        delta = 0.1 * mean_squared_residue(working)
        if delta <= 0:
            delta = 1e-12

    value_min = float(working.min())
    value_max = float(working.max())
    if value_max <= value_min:
        value_max = value_min + 1.0

    result = BiclusteringResult()
    for _ in range(n_biclusters):
        block, rows, cols = _multiple_node_deletion(
            working, np.arange(n_rows), np.arange(n_cols), delta=delta, alpha=alpha,
            min_rows=min_rows, min_cols=min_cols,
        )
        block, rows, cols = _single_node_deletion(
            block, rows, cols, delta=delta, min_rows=min_rows, min_cols=min_cols,
        )
        block, rows, cols = _node_addition(working, block, rows, cols)
        result.biclusters.append(Bicluster(rows=rows, columns=cols, msr=mean_squared_residue(block)))
        # Mask the discovered bicluster with uniform noise so later rounds
        # find different structure (the standard Cheng–Church masking step).
        noise = rng.uniform(value_min, value_max, size=block.shape)
        working[np.ix_(rows, cols)] = noise

    return result
