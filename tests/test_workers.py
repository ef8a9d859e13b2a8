import numpy as np
import pytest

from sysid_rls import workers

from support import cpus


def test_tail_bytes_come_back_whole():
    with cpus(2):
        head, reply = workers.fork_tail(lambda: "head", lambda: np.arange(5000.0))
    assert head == "head" and reply == np.arange(5000.0).tobytes()


def test_one_cpu_runs_no_tail():
    def tail():
        raise AssertionError("no worker on one CPU")

    with cpus(1):
        assert workers.fork_tail(lambda: "head", tail) == ("head", None)


@pytest.mark.parametrize("sent", [b"", b"\x64\x00\x00", (100).to_bytes(8, "little") + b"x" * 50],
                         ids=["nothing", "part-of-the-count", "part-of-the-bytes"])
def test_short_reply_is_none(monkeypatch, sent):
    # a worker that dies while it writes leaves the tail to the caller
    monkeypatch.setattr(workers, "_reply", lambda tail, pipe: pipe.write(sent))
    with cpus(2):
        assert workers.fork_tail(lambda: "head", lambda: b"y" * 100) == ("head", None)


def test_tail_that_raises_or_returns_none_is_no_reply():
    def raises():
        raise ValueError("bad row")

    with cpus(2):
        assert workers.fork_tail(lambda: 1, raises) == (1, None)
        assert workers.fork_tail(lambda: 2, lambda: None) == (2, None)


def test_head_that_raises_stops_the_worker():
    # the autouse fixture fails the test if the worker is left unreaped
    def head():
        raise KeyboardInterrupt

    with cpus(2), pytest.raises(KeyboardInterrupt):
        workers.fork_tail(head, lambda: b"tail")
