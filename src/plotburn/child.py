"""One way to run a function in a forked child and collect what it returned
or raised: fork_call starts the child, join_child collects it.

The child runs fn(*args) on its copy-on-write snapshot of the parent's
memory and pickles ("ok", value) or ("error", exception) into a pipe. It
leaves through os._exit in a finally, so it never returns into the caller's
code and never flushes the buffered files it shares with the parent.

join_child reads the pipe to EOF before it reaps the child: a child whose
result fills the pipe (64 KiB on Linux) blocks until it is read, and would
never exit. It reaps that one pid with os.wait4, never with a wait on any
child, which could reap a child another part of the run is tracking.

The child holds only the forking thread, so fn must take no lock another
thread could hold. plotburn starts no threads of its own, and the work it
forks (writing features.csv, training fold forests) makes no BLAS call, so
numpy's threads never matter.
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
    pid = os.fork()
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
    """Read the child's outcome to EOF, then reap it. A child that sent
    nothing failed with a RuntimeError naming its exit status."""
    t0 = time.perf_counter()
    with os.fdopen(child.pipe, "rb") as pipe:
        payload = pipe.read()
    _, status, usage = os.wait4(child.pid, 0)
    cost = {"cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "wait_s": time.perf_counter() - t0}
    if not payload:
        code = os.waitstatus_to_exitcode(status)
        return Joined(None, RuntimeError(f"exit status {code}"), cost)
    kind, value = pickle.loads(payload)
    return Joined(value, None, cost) if kind == "ok" else Joined(None, value, cost)
