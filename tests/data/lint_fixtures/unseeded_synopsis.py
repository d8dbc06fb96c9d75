# Fixture: unseeded-rng fires on a synopsis builder that scores rows
# without an explicit seed — a cached sample selection must reproduce
# bit-identically across runs, so only default_rng(seed) is admitted — or,
# for the rows appended since a synopsis was drawn, the same seeded stream
# jumped ahead: Generator(PCG64(seed).advance(n)).
# expect: unseeded-rng
# expect: unseeded-rng
# expect: unseeded-rng
import numpy as np


def bad_uniform_synopsis(table, fraction):
    scores = np.random.default_rng().random(table.row_count)
    n_keep = max(1, round(fraction * table.row_count))
    return np.sort(np.argsort(scores, kind="stable")[:n_keep])


def bad_stratified_synopsis(table, inverse, fraction):
    scores = np.random.random(table.row_count)
    order = np.lexsort((scores, inverse))
    return order[: max(1, round(fraction * table.row_count))]


def blessed_synopsis(table, fraction, seed):
    scores = np.random.default_rng(seed).random(table.row_count)
    n_keep = max(1, round(fraction * table.row_count))
    return np.sort(np.argsort(scores, kind="stable")[:n_keep])


def bad_synopsis_advance(first_new_row, appended):
    jumped = np.random.PCG64().advance(first_new_row)
    return np.random.Generator(jumped).random(appended)


def blessed_synopsis_advance(first_new_row, appended, seed):
    jumped = np.random.PCG64(seed).advance(first_new_row)
    return np.random.Generator(jumped).random(appended)
