"""child.fork_call, join_child and fan_out, apart from the work they fork."""

import errno
import os

import numpy as np
import pytest

from conftest import assert_no_child_left

from plotburn.child import fan_out, fork_call, join_child


def refuse_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_fork_call_closes_its_pipe_when_fork_fails(monkeypatch):
    monkeypatch.setattr(os, "fork", refuse_fork)
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        with pytest.raises(BlockingIOError):
            fork_call(print)
    assert len(os.listdir("/proc/self/fd")) == before


def test_fan_out_reaps_the_workers_it_started_when_a_fork_fails(monkeypatch):
    forks = []

    def second_fork_fails(_fork=os.fork):
        if forks:
            refuse_fork()
        forks.append(_fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(BlockingIOError):
        fan_out(lambda i: i, 6, 3)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_fan_out_returns_results_in_item_order(k):
    records = []
    results = fan_out(lambda i: i * i, 5, k, records, noun="square", nouns="squares")
    assert_no_child_left()
    assert results == [0, 1, 4, 9, 16]
    assert [r["squares"] for r in records] == [list(range(w, 5, k)) for w in range(1, k)]


def test_item_i_runs_in_process_i_mod_k():
    pids = fan_out(lambda i: os.getpid(), 7, 3)
    assert_no_child_left()
    assert pids[0::3] == [os.getpid()] * 3
    assert len({*pids[1::3]}) == len({*pids[2::3]}) == 1
    assert len({pids[0], pids[1], pids[2]}) == 3


def test_a_result_larger_than_the_pipe_comes_back_whole():
    values = np.random.default_rng(0).random((3, 1 << 16))  # 1.5 MB
    joined = join_child(fork_call(values.copy))
    assert_no_child_left()
    assert joined.error is None and joined.value.tobytes() == values.tobytes()
    assert joined.cost["peak_rss_mb"] > 0


def test_a_child_that_sends_nothing_fails_with_its_exit_status():
    joined = join_child(fork_call(os._exit, 3))
    assert_no_child_left()
    assert joined.value is None and str(joined.error) == "exit status 3"


def test_a_worker_that_fails_outside_its_items_fails_the_fan_out():
    records = []
    with pytest.raises(Exception) as err:  # the worker's result does not pickle
        fan_out(lambda i: (lambda: i), 2, 2, records)
    assert_no_child_left()
    assert records[0]["items"] == [1] and records[0]["error"] == str(err.value)
