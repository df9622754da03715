"""Benchmark of qmem, driven from outside as its users drive it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of ``WORKLOADS`` or ``OPTIONAL``; ``all`` runs each of them
in its own process.
One closed-loop caller runs the workload's fixed task list in whole
rounds until the timed work reaches S seconds, checking every output
against the benchmark's own computations.  qmem runs from ``src``
with BLAS and OpenMP pinned to one thread.

``--trace 0`` reports the end-to-end metrics and installs no wrappers;
``--trace 1`` wraps qmem's public functions and reports the per-layer
metrics of ``tracing``.  Every metric is printed by name with its unit,
with the number of tasks attempted and failed; the last line of stdout
is one JSON object with exactly the keys correct, attempted, failed and
metrics.  The result, with the environment, also goes to
``bench/out/<workload>-trace<0|1>.json``, and a traced run writes its
spans to ``bench/out/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import harness
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CONFIG = ROOT / "tests" / "data" / "reference_config.json"
REQUIRED = (SRC / "qmem" / "cli.py", CONFIG, ROOT / "tests" / "data" / "golden" / "couple_keys.json")
# the workloads of BENCHMARK.json
WORKLOADS = ("swap_gate", "crystal_design", "characterize")
# runs by name and in ``all``, but is left out of BENCHMARK.json: its import
# cost shows in every workload's setup_s, and three workloads leave each
# run of the benchmark's fixed time budget longer and steadier
OPTIONAL = ("cli_session",)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# fresh interpreters timed for setup_s, spread over the run; their median is reported
SETUP_SAMPLES = 7


@dataclass
class Context:
    """What a workload's tasks need from the runner."""

    root: Path
    bench: Path
    work: Path
    config: dict
    env: dict
    tracer: object = None
    child_rss_kb: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def git_sha():
    """HEAD of the checkout, or None where it is no git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def setup_probe(ctx: Context, k: int) -> float:
    """Seconds to import qmem.cli and load the reference config in a fresh interpreter."""
    argv = [sys.executable, str(BENCH / "launch.py"), "setup", str(CONFIG)]
    spans = ctx.work / f"setup{k}.spans"
    if ctx.tracer is not None:
        argv.append(str(spans))
    out, err = ctx.work / f"setup{k}.out", ctx.work / f"setup{k}.err"
    code, _ = harness.run_child(argv, ctx.env, ctx.root, out, err)
    if code != 0:
        raise RuntimeError(f"setup probe exited {code}: {err.read_text()[-500:]}")
    timing = json.loads(out.read_text())
    if ctx.tracer is not None:
        ctx.tracer.merge(tracing.read_spans(spans), f"setup{k}")
    return timing["import_s"] + timing["load_config_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np  # only once main() has pinned the thread count

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir()
    try:
        compileall.compile_dir(str(SRC / "qmem"), quiet=1)
        with open(CONFIG) as fh:
            config = json.load(fh)
        ctx = Context(ROOT, BENCH, work, config, child_env(),
                      tracing.Tracer() if trace else None)

        sys.path.insert(0, str(SRC))
        module = importlib.import_module(name)
        if ctx.tracer is not None and module.IN_PROCESS:
            ctx.tracer.install()
        tasks = module.make_tasks(np.random.default_rng(seed), ctx)
        # the benchmark's own inputs and references are never garbage; keep
        # them out of the collections that run during timed calls
        gc.collect()
        gc.freeze()
        stats = harness.run_rounds(tasks, seconds, ctx.tracer,
                                   probe=lambda k: setup_probe(ctx, k), probes=SETUP_SAMPLES)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if module.IN_PROCESS:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_rss_kb = max(ctx.child_rss_kb)
    # kept in traced runs too, to show the tracing overhead
    end_to_end = harness.end_to_end(stats, peak_rss_kb)
    shares = None
    if trace:
        metrics = tracing.layer_metrics(ctx.tracer.spans)
        units = tracing.metric_units()
        shares = tracing.layer_shares(ctx.tracer.spans, stats.busy_seconds)
        ctx.tracer.write(OUT / f"{name}.spans.jsonl")
    else:
        metrics, units = end_to_end, harness.END_TO_END_UNITS
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "rounds": stats.rounds,
        "tasks": [task.label for task in tasks],
        "task_seconds": stats.task_seconds,
        "setup_seconds": stats.setup_seconds,
        "mismatches": stats.mismatches,
        "end_to_end": end_to_end,
        "layer_shares": shares,
        "summary": {
            "correct": not stats.mismatches,
            "attempted": stats.attempted,
            "failed": stats.failed,
            "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
        },
    }


def report(result: dict) -> None:
    summary = result["summary"]
    state = "outputs correct" if summary["correct"] else "OUTPUTS WRONG"
    print(f"{result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{summary['attempted']} attempted, {summary['failed']} failed, "
          f"{result['rounds']} rounds, {state}")
    for key, metric in summary["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    if result["layer_shares"]:
        print("  share of task time inside each layer: " + ", ".join(
            f"{name} {100 * share:.1f} %" for name, share in result["layer_shares"].items()))
    for mismatch in result["mismatches"]:
        print(f"mismatch: {mismatch}", file=sys.stderr)


def run_all(args) -> int:
    """Run every workload in its own process and combine the summaries."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS + OPTIONAL:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        summary = json.loads(lines[-1])
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for key, metric in summary["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + OPTIONAL + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not path.exists()]
    if missing:
        print(f"error: {missing[0]} not found; run from a qmem checkout", file=sys.stderr)
        return 2
    # before numpy is first imported here or in any child
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # one core for the single caller and the children it waits for; on the
    # 2-vCPU host this was tuned on, the last CPU is the quieter one
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.workload == "all":
        return run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print("environment " + json.dumps(result["environment"]))
    report(result)
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
