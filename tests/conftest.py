import pytest

from fedspectra import federation


@pytest.fixture
def one_blas_thread():
    """Hold numpy's BLAS to one thread for the test. Runs at different
    worker counts are byte-identical only there: at `workers: 1` a client
    descends at every BLAS thread, elsewhere with BLAS held to one, and BLAS
    may split a product's sums differently with more threads."""
    with federation._blas_held(True):
        yield
