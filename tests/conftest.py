import pytest

from fedspectra import federation


@pytest.fixture
def one_blas_thread():
    """Hold numpy's BLAS to one thread for the test. Runs on different
    numbers of usable cores are byte-identical only there: on one core a
    client descends at every BLAS thread, on more with BLAS held to one, and
    BLAS may split a product's sums differently with more threads."""
    with federation._blas_held(True):
        yield


@pytest.fixture
def usable_cores(monkeypatch):
    """usable_cores(k) makes every client pool the test opens see k usable
    cores, as a process bound to k CPUs (e.g. by `taskset`) does: one runs
    every round serially, k > 1 gives the pool k threads."""

    def usable(count):
        monkeypatch.setattr(federation, "_usable_cores", lambda: count)

    return usable
