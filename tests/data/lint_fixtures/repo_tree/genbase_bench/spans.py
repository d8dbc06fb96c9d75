# Fixture (whole-tree rules): names the benchmark binds by string.
FUNCTION_SPANS = (
    ("repro.linalg.lanczos", "bound_by_the_benchmark", "linalg.bound"),
    ("repro.arraydb.linalg", "lanczos_svd_chunked", "arraydb.lanczos"),
)
