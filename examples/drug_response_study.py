"""Drug-response study: the paper's Query 1 workflow end to end.

A bioinformatician wants to predict patient drug response from gene
expression (the motivating use case of GenBase Query 1).  This example runs
the complete workflow on the row-store engine and then validates the fitted
model against the generator's planted ground truth:

1. select genes with a particular set of functions,
2. join them with the microarray table and project the expression values,
3. restructure the result as a patients × genes matrix,
4. fit a QR-decomposition linear regression of drug response on expression,
5. report R² and the most predictive genes.

Run with::

    python examples/drug_response_study.py
"""

from __future__ import annotations

import numpy as np

from repro.core import BenchmarkRunner
from repro.core.spec import default_parameters
from repro.datagen import GenBaseDataset


def main() -> None:
    dataset = GenBaseDataset.generate("small", seed=13)
    parameters = default_parameters(dataset.spec)
    threshold = parameters.function_threshold(dataset.spec)
    print(f"Selecting genes with function < {threshold} "
          f"({dataset.spec.n_functions} function codes in total)")

    runner = BenchmarkRunner()
    result = runner.run("regression", "postgres-madlib", dataset, parameters=parameters)
    fit = result.output.answer

    print(f"\nEngine: postgres-madlib  status={result.status.value}")
    print(f"  data management: {result.data_management_seconds:.3f}s")
    print(f"  analytics:       {result.analytics_seconds:.3f}s")
    print(f"  model R^2:       {fit.r_squared:.3f} over "
          f"{result.output.summary['n_selected_genes']} genes")

    # Compare the most predictive genes against the planted causal genes.
    # Only causal genes that survived the function filter can possibly appear
    # in the model, so the recovery rate is reported over that subset.
    selected = np.flatnonzero(dataset.genes.function < threshold)
    importance = np.abs(fit.coefficients)
    top = selected[np.argsort(importance)[::-1][:10]]
    planted = set(dataset.microarray.structure.causal_genes.tolist())
    selectable = planted & set(selected.tolist())
    overlap = sum(1 for gene in top if int(gene) in planted)
    print(f"\nTop 10 model genes: {sorted(int(g) for g in top)}")
    if selectable:
        print(f"Planted causal genes that passed the function filter: {sorted(selectable)}")
        print(f"Of those, recovered among the top model genes: {overlap}")
    else:
        print("No planted causal gene passed the function filter for this seed; "
              "the model explains drug response through genes correlated with them "
              f"(R^2 stays at {fit.r_squared:.2f}).")
    profile = dataset.expression_matrix[0, selected]
    print(f"Drug response for a new patient profile: "
          f"{profile @ fit.coefficients + fit.intercept:.3f}")


if __name__ == "__main__":
    main()
