"""Forked workers over blocks of work: the one place dntuple forks or counts CPUs."""

import os
from collections.abc import Callable, Iterator
from typing import BinaryIO, NoReturn, TypeVar

T = TypeVar("T")


class WorkerError(RuntimeError):
    """A forked worker failed, died or could not be forked; its work has no result."""


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, which taskset narrows."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return 1


def jobs_for(work: int, floor: int) -> int:
    """The workers for work: every usable CPU from floor on where os.fork exists, else 1."""
    return usable_cpus() if hasattr(os, "fork") and work >= floor else 1


def fork_map(fn: Callable[[int, int], T], blocks: list[tuple[int, int]],
             jobs: int) -> Iterator[T]:
    """fn(lo, hi) for each block in turn, computed by up to jobs forked workers.

    fn runs in a child forked from this process, so it sees this
    process's data as it was at the fork, and it returns a picklable
    value. Worker w runs blocks w, w + jobs, w + 2*jobs, ... in turn and
    writes each result, pickled whole, to its own pipe; this process
    reads block i from worker i % jobs, so results come in block order
    and a worker waits only for this process to read. The children end
    with os._exit, so they never run this process's exit handlers or
    flush its buffers. If a worker fails, or cannot be forked, the
    iteration raises WorkerError; on any exit, closing the iterator early
    included, every worker is killed if still running and reaped.
    """
    jobs = min(jobs, len(blocks))
    if jobs <= 1:
        for lo, hi in blocks:
            yield fn(lo, hi)
        return
    import pickle  # only a forked run pays for these imports
    import signal

    pids: list[int] = []
    replies: list[BinaryIO] = []
    try:
        for w in range(jobs):
            reply, reply_in = os.pipe()
            replies.append(open(reply, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, blocks[w::jobs], reply_in, replies)
            except OSError as exc:  # EAGAIN: no room for another process
                raise WorkerError(f"cannot fork a worker: {exc}") from exc
            finally:
                os.close(reply_in)  # in this process only: _serve never returns
            pids.append(pid)
        for i in range(len(blocks)):
            try:
                ok, value = pickle.load(replies[i % jobs])
            except (EOFError, OSError, pickle.UnpicklingError) as exc:  # perhaps mid-reply
                raise WorkerError(f"a worker ended without block {i}") from exc
            if not ok:
                raise WorkerError(f"worker failed: {value}")
            yield value
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for reply in replies:
            reply.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(fn: Callable[[int, int], object], blocks: list[tuple[int, int]], reply: int,
           inherited: list[BinaryIO]) -> NoReturn:
    # a worker's whole life: run its blocks in turn, write each result (or
    # the failure) to its pipe as one whole pickle, and exit without
    # unwinding into the parent's code
    import pickle

    status = 1
    try:
        for other in inherited:
            other.close()  # the parent's ends of the pipes
        out = open(reply, "wb")
        for lo, hi in blocks:
            out.write(pickle.dumps((True, fn(lo, hi))))
            out.flush()
        status = 0
    except BaseException as exc:
        import traceback

        where = traceback.extract_tb(exc.__traceback__)[-1]
        failure = f"{exc!r} at {os.path.basename(where.filename)}:{where.lineno}"
        os.write(reply, pickle.dumps((False, failure)))  # out was flushed after its last reply
    finally:
        os._exit(status)
