"""Forked worker processes: the one place the package calls ``os.fork``.

``experiment`` runs shares of its fit orders in workers, each sending its
manifest entries back as JSON; ``fit --emit-trace`` runs its history fold
in one, which sends a byte per finished chunk.  Either way a worker owns a
whole unit of work and writes only to its pipe and the files it was given.
Two more users split one computation over a row range with
:func:`fork_tail`: :func:`~sysid_rls.fileio.load_trajectory` parses the
second half of a trajectory CSV's data rows in a worker, and
:func:`~sysid_rls.excitation.partial_gram_min_eigs` computes the second half
of its curve in one; each worker sends its rows back as raw bytes.
The number of workers follows the CPUs in the affinity set; there is no
option for it (``taskset -c 0`` pins a command to one process).
"""

from __future__ import annotations

import functools
import os
import sys


def worker_count(units: int) -> int:
    """Processes for ``units`` units of work: one per CPU in the affinity
    set, at most one per unit, and one where ``os.fork`` is missing or would
    warn."""
    if not hasattr(os, "fork") or _fork_warns():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(cpus, units)


def _fork_warns() -> bool:
    """Whether ``os.fork`` would warn that this process has other threads, as
    Python 3.12 and later do (a BLAS thread pool counts).  Where the thread
    count cannot be read, assume it would."""
    if sys.version_info < (3, 12):
        return False
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:
        return True


def fork_worker(run):
    """Fork a child that calls ``run`` on the write end of a pipe, opened as
    a binary file: ``(pid, read end)``, or None when no pipe or process could
    be made (``EMFILE``, ``EAGAIN``, ``ENOMEM``).

    The child leaves through ``os._exit`` once ``run`` returns or raises, so
    it runs no atexit handler and flushes no stdio buffer it inherited; the
    pipe is closed, and so flushed, before it exits.  Whatever reads the
    pipe must end with :func:`stop` or reap the child itself.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                run(pipe)
            os._exit(0)
        finally:  # whatever was raised, the child goes no further
            os._exit(1)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def stop(pid: int, pipe) -> None:
    """Close the pipe of a child, kill it and reap it: the end of every
    child, whether its work is done, no longer wanted or cut short."""
    import signal  # only here: a command that forks nothing needs none

    pipe.close()
    os.kill(pid, signal.SIGKILL)  # the pid stays ours until it is reaped
    os.waitpid(pid, 0)


def fork_tail(head, tail):
    """``(head(), reply)``: ``head()`` run in this process while a forked
    worker runs ``tail()`` and sends back the bytes of the C-contiguous
    buffer it returns (an array or a ``bytes``), prefixed by their count.

    ``reply`` is those bytes, or None where no worker was forked (one CPU in
    the affinity set, or no fork to be had) or its reply came short:
    ``tail()`` raised or returned None, or the worker was killed.  The caller
    then runs the tail itself, so a split computation gives the same result
    with or without a worker.  The worker is stopped and reaped before this
    returns or raises.
    """
    worker = fork_worker(functools.partial(_reply, tail)) if worker_count(2) > 1 else None
    if worker is None:
        return head(), None
    pid, pipe = worker
    try:
        done = head()
        count = pipe.read(8)
        size = int.from_bytes(count, "little") if len(count) == 8 else -1
        reply = pipe.read(size) if size > 0 else b""
        return done, reply if len(reply) == size else None
    finally:
        stop(pid, pipe)


def _reply(tail, pipe):
    """A :func:`fork_tail` worker's run: the byte count of ``tail()``'s
    buffer, then its bytes; nothing where it returns None."""
    out = tail()
    if out is not None:
        view = memoryview(out)
        pipe.write(view.nbytes.to_bytes(8, "little"))
        pipe.write(view)
