"""Dataset size presets for the GenBase benchmark.

The paper (Section 3.1.1) defines four microarray sizes:

* small:       5,000 genes ×  5,000 patients
* medium:     15,000 genes × 20,000 patients
* large:      30,000 genes × 40,000 patients
* extra large: 60,000 genes × 70,000 patients  (no system completed this one)

Those sizes target a 4-node cluster with 48 GB of RAM per node.  This
reproduction runs on a single laptop-scale machine, so the *default* presets
("tiny" … "large") are scaled-down versions of the paper grid that preserve
the aspect ratios and the relative growth factors between consecutive sizes.
The original paper sizes are available under the ``paper-*`` names for users
with the hardware to run them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SizeSpec:
    """Parameters controlling the size of one generated GenBase dataset.

    Attributes:
        name: preset name (or a custom label).
        n_genes: number of genes (columns of the microarray matrix).
        n_patients: number of patients / samples (rows of the matrix).
        n_go_terms: number of gene-ontology categories.
        n_diseases: number of distinct diseases in the patient metadata.
        n_functions: number of distinct gene-function codes.
        latent_rank: rank of the planted low-rank expression structure.
        n_biclusters: number of planted biclusters.
        n_causal_genes: genes that actually drive drug response.
    """

    name: str
    n_genes: int
    n_patients: int
    n_go_terms: int = 50
    n_diseases: int = 21
    n_functions: int = 500
    latent_rank: int = 10
    n_biclusters: int = 3
    n_causal_genes: int = 20

    def __post_init__(self) -> None:
        if self.n_genes < 1 or self.n_patients < 1:
            raise ValueError("dataset must have at least one gene and one patient")
        if self.n_go_terms < 1:
            raise ValueError("dataset must have at least one GO term")
        if self.latent_rank < 1:
            raise ValueError("latent_rank must be positive")
        if self.n_causal_genes > self.n_genes:
            raise ValueError("n_causal_genes cannot exceed n_genes")

    @property
    def n_cells(self) -> int:
        """Number of cells in the dense microarray matrix."""
        return self.n_genes * self.n_patients

    @property
    def microarray_bytes(self) -> int:
        """Approximate size of the dense microarray matrix in float64 bytes."""
        return self.n_cells * 8


def _preset(name: str, genes: int, patients: int, **kwargs: int) -> SizeSpec:
    return SizeSpec(name=name, n_genes=genes, n_patients=patients, **kwargs)


#: Scaled-down defaults (laptop scale) plus the original paper sizes.
#: The scaled presets preserve the paper's genes:patients aspect ratios and
#: the ~3x/2x growth factors between consecutive sizes.
SIZE_PRESETS: dict[str, SizeSpec] = {
    # Reproduction-scale grid: small/medium/large mirror the paper's
    # 5k x 5k, 15k x 20k and 30k x 40k shapes at 1/50 linear scale.
    "tiny": _preset("tiny", genes=50, patients=60, n_go_terms=12,
                    n_functions=40, latent_rank=4, n_causal_genes=6),
    "small": _preset("small", genes=100, patients=100, n_go_terms=20,
                     n_functions=100, latent_rank=6, n_causal_genes=10),
    "medium": _preset("medium", genes=300, patients=400, n_go_terms=40,
                      n_functions=250, latent_rank=8, n_causal_genes=15),
    "large": _preset("large", genes=600, patients=800, n_go_terms=60,
                     n_functions=500, latent_rank=10, n_causal_genes=20),
    "xlarge": _preset("xlarge", genes=1200, patients=1400, n_go_terms=80,
                      n_functions=500, latent_rank=12, n_causal_genes=25),
    # Original paper sizes (Section 3.1.1).  These need cluster-class memory.
    "paper-small": _preset("paper-small", genes=5_000, patients=5_000),
    "paper-medium": _preset("paper-medium", genes=15_000, patients=20_000),
    "paper-large": _preset("paper-large", genes=30_000, patients=40_000),
    "paper-xlarge": _preset("paper-xlarge", genes=60_000, patients=70_000),
}

#: The three sizes the paper actually reports numbers for, in report order.
PAPER_REPORTED_SIZES = ("small", "medium", "large")


def resolve_size(size: "str | SizeSpec") -> SizeSpec:
    """Resolve a preset name or pass through an explicit :class:`SizeSpec`.

    Raises:
        KeyError: if ``size`` is a string that names no known preset.
    """
    if isinstance(size, SizeSpec):
        return size
    try:
        return SIZE_PRESETS[size]
    except KeyError:
        known = ", ".join(sorted(SIZE_PRESETS))
        raise KeyError(f"unknown size preset {size!r}; known presets: {known}") from None
