import numpy as np
import pytest

from rareevent import _blas


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)


def make_rng(*key):
    return np.random.default_rng(list(key))


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS on two threads, so a one-thread scope shows on any host."""
    saved = _blas.blas_threads()
    if not saved:
        pytest.skip("no OpenBLAS found in /proc/self/maps")
    _blas.set_blas_threads(2)
    yield [2] * len(saved)
    for (_, set_threads), n in zip(_blas._libraries(), saved):
        set_threads(n)
