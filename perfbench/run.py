"""Benchmark of the zlca CLI: seeded workloads with known verdicts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; zlca is imported from its ``src``.
Each run drives one workload in this process as a closed loop with one
client: every job is a call to ``zlca.cli.main(argv)`` with stdout and
stderr captured.  A job fails when it raises, exits with another code than
its known verdict, writes to stderr, prints a report that disagrees with the
known answer (``oracle``), or prints other bytes than an earlier run of the
same job in this run or in an earlier run of the same seed on the same
sources.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics.
Job and set-up times are scaled to a reference interpreter speed: between
jobs the run times a fixed loop of Fraction and dict arithmetic that does not
touch zlca, and each job's time is multiplied by CALIBRATION_S over the local
median of that loop's time.  This takes out the drift in CPU speed of a
shared machine; the unscaled figures are printed too.

``--trace 1`` runs the round once untraced and twice traced, prints the
per-layer metrics of the second traced round, and checks that its work
counts equal the first round's and those of earlier traced runs of the seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and sample count, and the failure ratio.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracer
from workloads import ROUND_MAKERS, call

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
#: The calibration loop's time at the reference speed (about its median on
#: the machine the baselines in README.md were recorded on).
CALIBRATION_S = 0.005
#: Jobs on each side whose calibrations set a job's speed.
SPEED_WINDOW = 4


def calibrate() -> float:
    """Seconds for a fixed loop of Fraction and dict arithmetic."""
    gc.disable()
    start = perf_counter()
    acc: dict = {}
    step = Fraction(1, 3)
    for i in range(1000):
        key = (i % 17, i % 5)
        acc[key] = acc.get(key, 0) + step * i
    elapsed = perf_counter() - start
    gc.enable()
    return elapsed


def scaled(times: list[float], calib: list[float]) -> list[float]:
    """Times at the reference speed; calib[i] and calib[i+1] bracket job i."""
    around = [(a + b) / 2 for a, b in zip(calib, calib[1:])]
    return [t * CALIBRATION_S / statistics.median(
                around[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
            for i, t in enumerate(times)]


class Results:
    """Per-job samples, report digests and known-answer problems of a run."""

    def __init__(self):
        self.samples: list[tuple[str, float, bool]] = []   # key, seconds, ok
        self.calib: list[float] = []
        self.digest: dict[str, str] = {}
        self.first: dict[str, tuple] = {}                  # key -> (job, out)
        self.problems: dict[str, list[str]] = defaultdict(list)

    def record(self, job, seconds: float, code: int, out: str, err: str) -> None:
        digest = hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()
        problems = []
        if code != job.exit_code:
            problems.append(f"exit code {code}, expected {job.exit_code}")
        if err:
            problems.append(f"stderr: {err.strip()[:200]}")
        if self.digest.setdefault(job.key, digest) != digest:
            problems.append("report bytes differ from an earlier run of the job")
        self.first.setdefault(job.key, (job, out))
        if problems:
            self.problems[job.key].extend(problems)
        self.samples.append((job.key, seconds, not problems))

    def check_answers(self) -> None:
        """Known-answer check of the first report of every job (untimed)."""
        for key, (job, out) in sorted(self.first.items()):
            try:
                problems = job.check(out)
            except Exception as exc:  # a report the oracle cannot read fails
                problems = [f"report check raised {type(exc).__name__}: {exc}"]
            self.problems[key].extend(problems)

    def compare_with(self, state: dict) -> None:
        """Reports must match earlier runs of the same seed, job by job."""
        earlier = state.setdefault("digests", {})
        for key, digest in self.digest.items():
            if earlier.setdefault(key, digest) != digest:
                self.problems[key].append(
                    "report bytes differ from an earlier run of this seed")

    @property
    def failed(self) -> int:
        return sum(1 for key, _, ok in self.samples
                   if not ok or self.problems.get(key))


def run_jobs(main, jobs, results: Results, deadline=None, tr=None) -> float:
    """Run the jobs in order, cycling until the deadline if one is given.

    With a deadline, the calibration loop runs before the first job and
    after every job.  Returns the seconds spent in jobs.
    """
    busy = 0.0
    if deadline is not None:
        results.calib.append(calibrate())
    while True:
        for job in jobs:
            t0 = perf_counter()
            code, out, err = call(main, job.argv)
            t1 = perf_counter()
            busy += t1 - t0
            results.record(job, t1 - t0, code, out, err)
            if tr is not None:
                tr.job += 1
                tr.count["cli.report_bytes"] += len(out)
            if deadline is not None:
                results.calib.append(calibrate())
                if t1 >= deadline:
                    return busy
        if deadline is None:
            return busy


def set_up(rnd, workdir: Path):
    """Import zlca afresh, write the spec files, run one warm-up job."""
    for name in [m for m in sys.modules if m == "zlca" or m.startswith("zlca.")]:
        del sys.modules[name]
    start = perf_counter()
    cli = importlib.import_module("zlca.cli")
    zlca = SimpleNamespace(cli=cli, **{name: sys.modules[f"zlca.{name}"]
                                       for name in tracer.MODULES if name != "cli"})
    workdir.mkdir(parents=True, exist_ok=True)
    for name, writer in rnd.files.items():
        writer(str(workdir / name), zlca)
    call(cli.main, rnd.warmup.argv)
    return perf_counter() - start, zlca


def source_digest() -> str:
    """Names the program version, so each version keeps its own state."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "zlca").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def load_state(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def save_state(path: Path, state: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(times, setup, peak_rss) -> dict:
    """name -> (value, unit, sample count) for one list of job times."""
    n = len(times)
    return {
        "jobs_per_s": (n / sum(times), "1/s", n),
        "verdict_s_p50": (statistics.median(times), "s", n),
        "verdict_s_p90": (p90(times), "s", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mib": (peak_rss, "MiB", 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zlca" / "cli.py").is_file():
        print(f"zlca sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def traced_rounds(zlca, rnd, results: Results, notes: list) -> dict:
    """One untraced and two traced rounds; the second round's layer metrics."""
    untraced = run_jobs(zlca.cli.main, rnd.jobs, results)
    tr = tracer.Tracer()
    tr.install(vars(zlca))
    rounds = []
    try:
        for _ in range(2):
            tr.reset()
            busy = run_jobs(zlca.cli.main, rnd.jobs, results, tr=tr)
            rounds.append((busy, tracer.layer_metrics(tr)))
    finally:
        tr.uninstall()
    metrics = rounds[-1][1]
    if tracer.work_counts(metrics) != tracer.work_counts(rounds[0][1]):
        notes.append("work counts differ between the two traced rounds")
    jobs = len(rnd.jobs)
    traced_rate = 2 * jobs / (rounds[0][0] + rounds[1][0])
    metrics.update({
        "trace.jobs_per_s": (traced_rate, "1/s"),
        "trace.untraced_jobs_per_s": (jobs / untraced, "1/s"),
        "trace.overhead_jobs_per_s": (traced_rate - jobs / untraced, "1/s"),
    })
    return {name: (value, unit, jobs) for name, (value, unit)
            in metrics.items()}


def run(args, workdir: Path) -> int:
    rnd = ROUND_MAKERS[args.workload](args.seed, workdir)
    setup, setup_raw = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        seconds, zlca = set_up(rnd, workdir)
        setup_raw.append(seconds)
        setup += scaled([seconds], [before, calibrate()])
    if not Path(zlca.cli.__file__).resolve().is_relative_to(SRC):
        print(f"zlca imported from {zlca.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    results = Results()
    notes: list[str] = []
    extra: dict = {}
    if args.trace:
        metrics = traced_rounds(zlca, rnd, results, notes)
    else:
        run_jobs(zlca.cli.main, rnd.jobs, results,
                 deadline=perf_counter() + args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raw = [t for _, t, _ in results.samples]
        metrics = end_to_end(scaled(raw, results.calib), setup, peak)
        extra = {f"{name} (unscaled)": value for name, value
                 in end_to_end(raw, setup_raw, peak).items()
                 if name != "peak_rss_mib"}
        extra["calibration_s (median)"] = (statistics.median(results.calib),
                                           "s", len(results.calib))

    results.check_answers()
    state_path = STATE / source_digest() / f"{args.workload}-{args.seed}.json"
    state = load_state(state_path)
    results.compare_with(state)
    if args.trace:
        counts = tracer.work_counts(metrics)
        if state.setdefault("work_counts", counts) != counts:
            notes.append("work counts differ from an earlier traced run")
    save_state(state_path, state)

    attempted, failed = len(results.samples), results.failed
    for key, problems in sorted(results.problems.items()):
        if problems:
            notes.append(f"FAIL {key}: {'; '.join(problems[:3])}")
    for note in notes:
        print(note)
    shown = {**metrics, **extra,
             "fail_ratio": (failed / attempted, "ratio", attempted)}
    width = max(len(name) for name in shown)
    for name, (value, unit, n) in shown.items():
        print(f"{name:<{width}}  {value:>14.6g} {unit:<6} (n={n})")
    print(json.dumps({
        "correct": failed == 0 and not notes,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
