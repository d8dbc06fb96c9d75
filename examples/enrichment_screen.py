"""GO-term enrichment screen: the paper's Query 5 workflow as a screening tool.

Runs the statistics (Wilcoxon enrichment) query on the vanilla-R engine and
on the array DBMS, checks that both recover the GO terms the generator
planted as enriched, and prints the per-term p-values and verdicts of the
query's answer — the output a biologist would actually read.

Run with::

    python examples/enrichment_screen.py
"""

from __future__ import annotations

import numpy as np

from repro.core import BenchmarkRunner
from repro.core.spec import default_parameters
from repro.datagen import GenBaseDataset


def main() -> None:
    dataset = GenBaseDataset.generate("small", seed=21)
    planted = set(int(term) for term in dataset.ontology.enriched_terms)
    print(f"Generator planted {len(planted)} enriched GO terms: {sorted(planted)}")

    alpha = default_parameters(dataset.spec).statistics_alpha
    runner = BenchmarkRunner()
    for engine in ("vanilla-r", "scidb"):
        result = runner.run("statistics", engine, dataset)
        answer = result.output.answer
        significant = set(answer.go_ids[answer.significant].tolist())
        recovered = planted & significant
        print(f"\n{engine}: {result.output.summary['n_significant']} significant terms "
              f"(alpha={alpha}), "
              f"{len(recovered)}/{len(planted)} planted terms recovered "
              f"in {result.total_seconds:.3f}s")
        print("  top terms (go_id, p-value, verdict):")
        for term in np.argsort(answer.p_values, kind="stable")[:5]:
            verdict = "significant" if answer.significant[term] else "not significant"
            print(f"    GO:{answer.go_ids[term]:04d}  p={answer.p_values[term]:.2e}  {verdict}")


if __name__ == "__main__":
    main()
