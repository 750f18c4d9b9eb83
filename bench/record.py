"""Write one entry of the benchmark ledger: BENCH_<entry>.json.

    python3 bench/record.py --entry 13 --baseline PATH --seeds 1 2 3
        [--workloads gd-roundtrip ...]

For every workload and seed this runs ``perfbench/run.py --trace 0`` for the
seconds BENCHMARK.json gives (``run_seconds``) on this checkout and on the
checkout at PATH (for example an unpacked copy of the parent commit).  The
two sides of a pair run one after the other, and the side that runs first
alternates from seed to seed, so a slow spell of a shared machine does not
fall on one side only.  Each side then runs once more with ``--trace 1`` and
the first seed, for the traced work counts (the metrics counted in ``count``
or ``bytes``) and the per-layer timings (the per-layer metrics BENCHMARK.json
counts in ``s`` or ``ms``).  The timings come from that one short traced run,
unpaired and slowed by the tracer, so they are kept under their own key with
a note that no claim may rest on them.

The entry holds, per workload and side, every run's end-to-end metrics and
their median and quartiles, and the work counts.  It also holds, per
end-to-end metric, the ratio of the medians (change over baseline) and the
number of pairs the change won, by the direction that BENCHMARK.json gives
the metric.  A run that is not ``"correct": true`` is recorded as it is,
and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-window", "feq-solve", "closure-probe", "gd-roundtrip")
TIMING_UNITS = ("s", "ms")
TIMINGS_NOTE = ("one traced run of the first seed, unpaired and slowed by "
                "the tracer: a guide to where time goes, on which no claim "
                "may rest")


def perfbench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """The JSON line of one perfbench run in ``checkout``.

    The run reads and writes bytecode under an empty directory of its own,
    so that a checkout with ``__pycache__`` files does not set up faster, or
    with less memory, than one without.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        done = subprocess.run(argv, cwd=checkout, env=env,
                              capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "error": done.stderr.strip()[-2000:]}
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(runs: list[dict], names: list[str]) -> dict:
    return {name: spread([run["metrics"][name]["value"] for run in runs])
            for name in names}


def layer_timings(traced: dict, per_layer: list[dict]) -> dict:
    """The traced run's per-layer timings, under the note that marks them."""
    metrics = traced.get("metrics", {})
    return {"note": TIMINGS_NOTE,
            "values": {m["name"]: metrics[m["name"]]["value"]
                       for m in per_layer
                       if m["unit"] in TIMING_UNITS and m["name"] in metrics}}


def wins(baseline: list[dict], change: list[dict], name: str,
         direction: str) -> int:
    """Pairs in which the change's run is better than the baseline's."""
    count = 0
    for b, c in zip(baseline, change):
        b, c = b["metrics"][name]["value"], c["metrics"][name]["value"]
        count += c > b if direction == "higher" else c < b
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--entry", required=True, type=int,
                        help="the ledger entry; the file is BENCH_<entry>.json")
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--baseline", required=True, type=Path,
                        help="the checkout to pair every run with")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    sides = {"baseline": args.baseline.resolve(), "change": ROOT}
    order = list(sides)

    entry = {
        "entry": args.entry,
        "command": f"perfbench/run.py --seconds {seconds:g} --trace 0",
        "machine": {"python": platform.python_version(),
                    "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "seeds": args.seeds,
        "workloads": {},
    }
    correct = True
    for workload in args.workloads:
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for k, seed in enumerate(args.seeds):
            for side in order[k % 2:] + order[:k % 2]:
                result = perfbench(sides[side], workload, seed, seconds, 0)
                result["seed"] = seed
                runs[side].append(result)
                print(f"{workload} seed {seed} {side}: "
                      f"correct {result['correct']}", file=sys.stderr)
        all_correct = all(run["correct"] is True
                          for side_runs in runs.values() for run in side_runs)
        correct &= all_correct
        record = {}
        for side, path in sides.items():
            traced = perfbench(path, workload, args.seeds[0], 1, 1)
            correct &= traced["correct"] is True
            record[side] = {
                "end_to_end": (summary(runs[side], list(better))
                               if all_correct else None),
                "work_counts": {name: m["value"] for name, m
                                in traced.get("metrics", {}).items()
                                if m["unit"] in ("count", "bytes")},
                "layer_timings": layer_timings(traced, declared["per_layer"]),
                "runs": runs[side],
            }
        if all_correct:
            record["comparison"] = {name: {
                "ratio": (record["change"]["end_to_end"][name]["median"]
                          / record["baseline"]["end_to_end"][name]["median"]),
                "change_wins": wins(runs["baseline"], runs["change"], name,
                                    direction),
                "pairs": len(args.seeds),
            } for name, direction in better.items()}
        entry["workloads"][workload] = record

    out = ROOT / f"BENCH_{args.entry}.json"
    out.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(out)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
