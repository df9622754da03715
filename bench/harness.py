"""Closed-loop task runner, child processes and the end-to-end metrics.

A task is any object with a ``label``, a ``run()`` that calls qmem and
returns its output, and a ``check(output)`` that raises when the output
is wrong.  Only ``run()`` is timed.  One caller runs the task list in
whole rounds until the timed work reaches the run length, so every run
attempts the same mix.  Set-up probes are spread over the run, between
tasks, so that their median samples the same stretch of time as the
task times rather than only its first seconds.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

CHILD_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """A task's output disagrees with the benchmark's own computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_close(name: str, value, expected, rel: float = 0.0, abs_tol: float = 0.0) -> None:
    """Raise unless |value - expected| <= max(rel*|expected|, abs_tol)."""
    value, expected = float(value), float(expected)
    limit = max(rel * abs(expected), abs_tol)
    if not abs(value - expected) <= limit:
        raise CheckFailed(
            f"{name} = {value!r}, expected {expected!r} within {limit:.3g}"
        )


@dataclass
class RunStats:
    task_seconds: list = field(default_factory=list)  # per task, one entry per success
    busy_seconds: float = 0.0  # every attempted task
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    mismatches: list = field(default_factory=list)
    setup_seconds: list = field(default_factory=list)  # one entry per probe


def run_rounds(tasks, seconds: float, tracer=None, clock=time.perf_counter,
               probe=None, probes: int = 0) -> RunStats:
    """Run whole rounds of ``tasks`` until the timed work reaches ``seconds``.

    A task whose ``run`` raises counts as failed; a task whose ``check``
    raises is a mismatch, which makes the run incorrect.  ``probe(k)``
    returns the k-th set-up sample in seconds.  It is called exactly
    ``probes`` times: probe k before the first task that starts once the
    timed work has reached ``k * seconds / probes``, and any probe still
    due after the last round.
    """
    stats = RunStats(task_seconds=[[] for _ in tasks])

    def probe_due(limit: float) -> None:
        while len(stats.setup_seconds) < probes and \
                len(stats.setup_seconds) * seconds / probes <= limit:
            stats.setup_seconds.append(probe(len(stats.setup_seconds)))

    while stats.rounds == 0 or stats.busy_seconds < seconds:
        for task, times in zip(tasks, stats.task_seconds):
            probe_due(stats.busy_seconds)
            if tracer is not None:
                tracer.task = stats.attempted
            start = clock()
            try:
                output = task.run()
            except Exception:  # counted as a failed operation, the run goes on
                end = clock()
                stats.failed += 1
                print(f"task {task.label} failed:", file=sys.stderr)
                traceback.print_exc()
                succeeded = False
            else:
                end = clock()
                times.append(end - start)
                succeeded = True
            finally:
                if tracer is not None:
                    tracer.task = None
            stats.attempted += 1
            stats.busy_seconds += end - start
            if not succeeded:
                continue
            try:
                task.check(output)
            except Exception as exc:  # any exception means the output is wrong
                stats.mismatches.append(f"{task.label}: {type(exc).__name__}: {exc}")
        stats.rounds += 1
    probe_due(float("inf"))
    return stats


def end_to_end(stats: RunStats, peak_rss_kb: float) -> dict:
    """The four end-to-end metrics of one run."""
    return {
        "tasks_per_s": stats.attempted / stats.busy_seconds,
        # median over the task list of each task's mean over the rounds: the
        # host's speed shifts by tens of percent for seconds at a time, and a
        # mean moves smoothly with the share of a run that was slow where a
        # median over all calls jumps between the levels
        "task_p50_ms": 1e3 * statistics.median(
            statistics.fmean(times) for times in stats.task_seconds if times),
        "setup_s": statistics.median(stats.setup_seconds),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def run_child(argv, env, cwd, stdout_path, stderr_path) -> tuple[int, int]:
    """Run one child process to its end; return (exit code, peak RSS in KiB).

    ``os.wait4`` reports the resource usage of exactly this child.  A
    child still running after ``CHILD_TIMEOUT_S`` is killed.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss
