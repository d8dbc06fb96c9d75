# Fixture (whole-tree rules): the one blessed call site of lanczos_eigsh,
# public names that are referenced — by a caller, by a binding in
# genbase_bench/spans.py — and two that only re-exports name: a package
# ``__all__`` and ``repro/__init__.py``'s ``_LAZY_EXPORTS`` are not callers.
# expect: no-caller
# expect: no-caller


def lanczos_eigsh(operator, dimension, k):
    return operator, dimension, k


def truncated_svd(operand, k):
    def product(vector):
        return operand.rmatvec(operand.matvec(vector))

    return lanczos_eigsh(product, operand.shape[1], k)


def exported_entry_point(matrix):
    return matrix


def lazily_exported(matrix):
    return matrix


def bound_by_the_benchmark(matrix):
    return matrix


class Result:
    def reconstruct(self):
        return self

    def _private(self):
        return self
