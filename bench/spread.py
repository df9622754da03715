"""Run-to-run spread of the benchmark over several seeds.

    python3 bench/spread.py --workloads swap_gate,cli_session --seeds 1-10 \
        --seconds 20 [--trace 0] [--out FILE]

Runs ``bench/run.py`` once per workload and seed, one run at a time,
and prints for every metric the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, with the attempted and failed counts.  ``--out`` keeps the
raw values as JSON; the reference figures in ``bench/README.md`` come
from such files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
OUT = RUN.parent / "out"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    # a layer that the workload never calls reads 0 in every run
    share = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": share}


def print_row(key: str, unit: str, values: list[float]) -> None:
    stats = summarize(values)
    print(f"  {key:42s} median {stats['median']:11.5g} {unit:5s} "
          f"q1 {stats['q1']:11.5g} q3 {stats['q3']:11.5g} "
          f"IQR/median {100 * stats['iqr_share']:6.2f} %")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/spread.py")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the raw values here as JSON")
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in seed_range(args.seeds):
            done = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"{workload} seed {seed}: exited {done.returncode}", file=sys.stderr)
                return 1
            summary = json.loads(lines[-1])
            with open(OUT / f"{workload}-trace{args.trace}.json") as fh:
                result = json.load(fh)
            summary.update(seed=seed, end_to_end=result["end_to_end"],
                           layer_shares=result["layer_shares"], task_seconds=result["task_seconds"])
            runs.setdefault(workload, []).append(summary)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.5g}" for k, m in summary["metrics"].items()), flush=True)

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "trace": args.trace, "runs": runs}, fh, indent=1)
    print()
    for workload, results in runs.items():
        attempted = [r["attempted"] for r in results]
        failed = [r["failed"] for r in results]
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, attempted {min(attempted)}-{max(attempted)}, "
              f"failed {sum(failed)}, outputs {'correct' if correct else 'WRONG'}")
        for key, metric in results[0]["metrics"].items():
            print_row(key, metric["unit"], [r["metrics"][key]["value"] for r in results])
        if args.trace:
            print("  end-to-end figures of the traced runs:")
            for key in results[0]["end_to_end"]:
                print_row(key, "", [r["end_to_end"][key] for r in results])
    return 0


if __name__ == "__main__":
    sys.exit(main())
