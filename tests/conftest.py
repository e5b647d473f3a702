import pytest

from fedspectra import analysis, federation


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


@pytest.fixture
def cheap_rounds_side_by_side(monkeypatch):
    """Let rounds of clients far cheaper than federation.SIDE_BY_SIDE_COST,
    as most tests' are, descend side by side on more than one usable core:
    any client that costs a multiply-add reaches the patched constant."""
    monkeypatch.setattr(federation, "SIDE_BY_SIDE_COST", 1)


@pytest.fixture
def first_order_probes(monkeypatch):
    """The FirstOrderReports of every analysis.predict_first_order call in
    the test, in call order: verify.half_rate_probe makes the eta/2 probe,
    and verify.first_order the eta probe."""
    probes = []

    def recorded(*args, _predict=analysis.predict_first_order, **kwargs):
        probes.append(_predict(*args, **kwargs))
        return probes[-1]

    monkeypatch.setattr(analysis, "predict_first_order", recorded)
    return probes
