"""Forked worker processes: the one place the package calls ``os.fork``.

Three users split one computation with :func:`fork_tail`, this process
running its head while forked workers run its tails, each sending back raw
bytes: ``experiment`` deals its fit orders into shares and runs each share
past the first in a worker, which replies with its manifest entries as JSON;
:func:`~sysid_rls.fileio.load_trajectory` parses the second half of a
trajectory CSV's data rows in a worker; and
:func:`~sysid_rls.excitation.partial_gram_min_eigs` computes the second half
of its curve in one.  A tail without a reply runs in the caller, so a worker
that dies costs time, never output.  ``fit --emit-trace`` runs its history
fold in a worker of its own (:func:`fork_worker`), which sends a byte per
finished chunk.  Either way a worker owns a whole unit of work and writes
only to its pipe and the files it was given.  The number of workers follows
the CPUs in the affinity set; there is no option for it (``taskset -c 0``
pins a command to one process).
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


def fork_tail(head, *tails):
    """``(head(), replies)``: ``head()`` run in this process while forked
    workers run the ``tails``, each sending back the bytes of the
    C-contiguous buffer its tail returns (an array or a ``bytes``), prefixed
    by their count.

    ``replies`` has one entry per tail: its bytes, ``b""`` where it returned
    None, or None where it ran in no worker or its reply came short (it
    raised, or the worker was killed).  The tails from the first are forked
    one worker each, at most ``worker_count(1 + len(tails)) - 1`` of them;
    the rest, and any whose fork fails, run in no worker.  The caller runs a
    tail whose reply is None itself, so a split computation gives the same
    result with or without workers.  Every worker forked is stopped and
    reaped before this returns or raises.
    """
    workers = []
    try:
        for tail in tails[:worker_count(1 + len(tails)) - 1]:
            workers.append(fork_worker(functools.partial(_reply, tail)))
        done = head()
        replies = [None if worker is None else _read(worker[1]) for worker in workers]
        return done, replies + [None] * (len(tails) - len(workers))
    finally:
        for worker in workers:
            if worker is not None:
                stop(*worker)


def _reply(tail, pipe):
    """A :func:`fork_tail` worker's run: the byte count of ``tail()``'s
    buffer, then its bytes; a zero count where it returns None."""
    out = tail()
    view = memoryview(b"" if out is None else out)
    pipe.write(view.nbytes.to_bytes(8, "little"))
    pipe.write(view)


def _read(pipe):
    """A :func:`_reply`'s bytes, or None where it came short."""
    count = pipe.read(8)
    size = int.from_bytes(count, "little") if len(count) == 8 else -1
    reply = pipe.read(size) if size > 0 else b""
    return reply if len(reply) == size else None
