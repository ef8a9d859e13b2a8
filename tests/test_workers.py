import time

import numpy as np
import pytest

from sysid_rls import workers

from support import cpus


def test_tail_bytes_come_back_whole():
    with cpus(2):
        head, replies = workers.fork_tail(lambda: "head", lambda: np.arange(5000.0))
    assert head == "head" and replies == [np.arange(5000.0).tobytes()]


def test_one_cpu_runs_no_tail():
    def tail():
        raise AssertionError("no worker on one CPU")

    with cpus(1):
        assert workers.fork_tail(lambda: "head", tail, tail) == ("head", [None, None])


def test_no_tail_is_no_reply():
    with cpus(2):
        assert workers.fork_tail(lambda: "head") == ("head", [])


def test_two_tails_on_three_cpus_both_reply():
    with cpus(3):
        head, replies = workers.fork_tail(lambda: "head", lambda: np.arange(3000.0),
                                          lambda: b"second")
    assert head == "head" and replies == [np.arange(3000.0).tobytes(), b"second"]


def test_tail_past_the_worker_count_runs_in_no_worker(tmp_path, monkeypatch):
    forked, real = [], workers.fork_worker
    monkeypatch.setattr(workers, "fork_worker", lambda run: forked.append(run) or real(run))

    def second():
        (tmp_path / "ran").write_text("the second tail ran")
        return b"second"

    with cpus(2):
        assert workers.fork_tail(lambda: "head", lambda: b"first", second) == \
            ("head", [b"first", None])
    assert len(forked) == 1 and not (tmp_path / "ran").exists()


@pytest.mark.parametrize("sent", [b"", b"\x64\x00\x00", (100).to_bytes(8, "little") + b"x" * 50],
                         ids=["nothing", "part-of-the-count", "part-of-the-bytes"])
def test_short_reply_is_none(monkeypatch, sent):
    # a worker that dies while it writes leaves the tail to the caller
    monkeypatch.setattr(workers, "_reply", lambda tail, pipe: pipe.write(sent))
    with cpus(2):
        assert workers.fork_tail(lambda: "head", lambda: b"y" * 100) == ("head", [None])


def test_tail_that_raises_is_no_reply():
    def raises():
        raise ValueError("bad row")

    with cpus(3):
        assert workers.fork_tail(lambda: 1, raises, lambda: b"ok") == (1, [None, b"ok"])


def test_tail_that_returns_none_replies_with_no_bytes():
    # a tail that says it has nothing is not a worker that died
    with cpus(3):
        assert workers.fork_tail(lambda: 2, lambda: None, lambda: b"") == (2, [b"", b""])


@pytest.mark.parametrize("count", [2, 3])
def test_head_that_raises_stops_the_workers(count):
    # the autouse fixture fails the test if a worker is left unreaped
    def head():
        raise KeyboardInterrupt

    start = time.monotonic()
    with cpus(count), pytest.raises(KeyboardInterrupt):
        workers.fork_tail(head, lambda: time.sleep(60), lambda: time.sleep(60))
    assert time.monotonic() - start < 30


def test_interrupted_fork_stops_the_first_worker(monkeypatch):
    # an interruption between two forks still stops the worker forked first
    calls, real = [], workers.fork_worker

    def second_interrupted(run):
        calls.append(run)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(run)

    monkeypatch.setattr(workers, "fork_worker", second_interrupted)
    start = time.monotonic()
    with cpus(3), pytest.raises(KeyboardInterrupt):
        workers.fork_tail(lambda: "head", lambda: time.sleep(60), lambda: time.sleep(60))
    assert len(calls) == 2 and time.monotonic() - start < 30
