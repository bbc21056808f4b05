"""Reference oracle for the samplers: the form they had before the stub
buffer was reused across tries.  Each try draws a fresh permutation, sorts
every matched pair into a (u, v) row with u <= v and checks those rows for
repeats; the library must make the same number of tries from the same
stream and return the same edges."""

import numpy as np

from stardecomp.graphs import Graph


def _sorted_pairs(stubs):
    pairs = stubs.reshape(-1, 2)
    pairs.sort(axis=1)
    return pairs


def _pairs_distinct(pairs, n):
    keys = np.sort(pairs[:, 0] * n + pairs[:, 1])
    return not np.any(keys[1:] == keys[:-1])


def config_model_sample(n, d, seed):
    if d < 1:
        raise ValueError("d must be >= 1")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d = {n * d} must be even")
    rng = np.random.default_rng(seed)
    return Graph(n, _sorted_pairs(rng.permutation(n * d) // d))


def sample_simple(n, d, seed, max_tries=100000):
    if max_tries < 1:
        raise ValueError("max_tries must be >= 1")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d = {n * d} must be even")
    rng = np.random.default_rng(seed)
    for tries in range(1, max_tries + 1):
        stubs = rng.permutation(n * d) // d
        if np.any(stubs[0::2] == stubs[1::2]):
            continue
        pairs = _sorted_pairs(stubs)
        if _pairs_distinct(pairs, n):
            return Graph(n, pairs), tries
    raise RuntimeError(f"max tries exceeded ({max_tries}) for n={n}, d={d}")
