"""One way to run a function in a forked child and collect what it returned
or raised: fork_call starts the child, join_child collects it, and fan_out
spreads independent items over several processes with them.

The child runs fn(*args) on its copy-on-write snapshot of the parent's
memory and pickles ("ok", value) or ("error", exception) into a pipe. It
leaves through os._exit in a finally, so it never returns into the caller's
code and never flushes the buffered files it shares with the parent.

join_child reads the child's outcome before it reaps the child: a child
whose result fills the pipe (64 KiB on Linux) blocks until it is read, and
would never exit. It unpickles straight off the pipe, so a large result
(numpy arrays) is never held a second time as pickled bytes. It reaps that
one pid with os.wait4, never with a wait on any child, which could reap a
child another part of the run is tracking.

The child holds only the forking thread, so fn must take no lock another
thread could hold. plotburn starts no threads of its own, and the work it
forks (writing features.csv, training fold forests, reading a scene's grid
passes) makes no BLAS call, so numpy's threads never matter.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import NamedTuple


class Child(NamedTuple):
    pid: int
    pipe: int  # read end of the pipe the child pickles its outcome into


class Joined(NamedTuple):
    value: object                # what fn returned; None when it raised
    error: BaseException | None  # what fn raised, as portable gave it
    cost: dict                   # the child's cpu_s and peak_rss_mb, the parent's wait_s


def portable(exc: BaseException) -> BaseException:
    """exc when it survives a pickle round trip, else a RuntimeError that
    carries its type name and text."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def fork_call(fn, *args) -> Child:
    """fn(*args) in a forked child, while the caller goes on; join_child
    collects it. The caller checks that os.fork exists."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:  # EAGAIN or ENOMEM: no child holds the pipe
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                payload = pickle.dumps(("ok", fn(*args)), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:  # sent to the parent, which raises it
                payload = pickle.dumps(("error", portable(exc)), pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return Child(pid, read_end)


def join_child(child: Child) -> Joined:
    """Unpickle the child's outcome off the pipe, then reap it. A child that
    sent nothing failed with a RuntimeError naming its exit status."""
    t0 = time.perf_counter()
    outcome = None
    try:
        with os.fdopen(child.pipe, "rb") as pipe:
            outcome = pickle.load(pipe)
    except EOFError:  # the child sent nothing
        pass
    finally:
        _, status, usage = os.wait4(child.pid, 0)
    cost = {"cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "wait_s": time.perf_counter() - t0}
    if outcome is None:
        code = os.waitstatus_to_exitcode(status)
        return Joined(None, RuntimeError(f"exit status {code}"), cost)
    kind, value = outcome
    return Joined(value, None, cost) if kind == "ok" else Joined(None, value, cost)


def processes(n: int, work: float, threshold: float) -> int:
    """How many processes fan_out should run n items in: one when their
    work is below threshold, without os.fork or with one core; else one per
    core of the process's affinity set, and at most one per item."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or work < threshold:
        return 1
    return min(len(os.sched_getaffinity(0)), n)


def fan_out(fn, n: int, k: int, records: list | None = None, *,
            noun: str = "item", nouns: str = "items") -> list:
    """[fn(i) for i in range(n)], item i run in process i % k: the caller is
    process 0 and forked workers (fork_call) the rest. Every worker is reaped
    before the lowest-index failing item's exception is raised (a worker's as
    portable gives it). records gets one record per worker: its items under
    nouns, join_child's cost, and "error" ("<noun> <i>: <message>") if it failed."""
    def run(items, port=None):
        done = []
        for i in items:
            try:
                done.append(fn(i))
            except Exception as exc:
                return done, (i, port(exc) if port else exc)
        return done, None

    workers = []
    try:
        for w in range(1, k):
            workers.append(fork_call(run, range(w, n, k), portable))
        outcomes = [run(range(0, n, k))]
    finally:
        joined = [join_child(worker) for worker in workers]
    for w, (value, error, cost) in enumerate(joined, start=1):
        record = {nouns: list(range(w, n, k)), **cost}
        if error is not None:  # the worker failed outside its items
            value = [], (w, error)
            record["error"] = str(error)
        elif value[1]:
            record["error"] = "{} {}: {}".format(noun, *value[1])
        outcomes.append(value)
        if records is not None:
            records.append(record)
    failures = [failed for _, failed in outcomes if failed]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [outcomes[i % k][0][i // k] for i in range(n)]  # item i: its process's (i // k)th
