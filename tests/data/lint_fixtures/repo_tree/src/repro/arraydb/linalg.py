# Fixture (whole-tree rules): a second copy of Lanczos SVD, at function and at
# module level, and public surface only its own body (or nothing) mentions.
# expect: single-lanczos-site
# expect: single-lanczos-site
# expect: no-caller
# expect: no-caller
# expect: no-caller
from repro.linalg import lanczos
from repro.linalg.lanczos import lanczos_eigsh, truncated_svd


def lanczos_svd_chunked(array, k):
    return lanczos_eigsh(array.matvec, array.shape[1], k)


TABLE = lanczos.lanczos_eigsh(None, 0, 0)


def native_svd(array, k):
    return truncated_svd(array, k)


def orphan(depth):
    # Recursion is not a caller.
    return orphan(depth - 1) if depth else 0


class Facade:
    def used(self):
        return native_svd(self, 1)

    def unused(self):
        return self.used()


class OrphanClass:
    pass
