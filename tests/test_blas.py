"""OpenBLAS thread pinning: overlapping blocks, nested or in different threads, share one pin."""

import threading

import pytest

from toepquant import _blas
from toepquant._blas import single_blas_thread


@pytest.fixture
def fake_openblas(monkeypatch):
    """A stand-in OpenBLAS thread count of 4, read and set through ``_blas._openblas``."""
    count = [4]
    monkeypatch.setattr(_blas, "_openblas", lambda: (lambda: count[0], lambda k: count.__setitem__(0, k)))
    return count


def test_nested_blocks_restore_on_the_last_exit(fake_openblas):
    with single_blas_thread():
        with single_blas_thread():
            assert fake_openblas[0] == 1
        assert fake_openblas[0] == 1
    assert fake_openblas[0] == 4


def test_overlapping_blocks_in_two_threads_share_one_pin(fake_openblas):
    # the first thread leaves while the second is still inside: the count
    # must stay pinned until the second leaves, then return to 4
    first_in, first_may_leave, first_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def first():
        with single_blas_thread():
            first_in.set()
            first_may_leave.wait(5)
        first_out.set()

    def second():
        first_in.wait(5)
        with single_blas_thread():
            first_may_leave.set()
            first_out.wait(5)
            seen.append(fake_openblas[0])

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not any(t.is_alive() for t in threads)
    assert seen == [1]
    assert fake_openblas[0] == 4
