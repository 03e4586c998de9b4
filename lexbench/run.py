"""Run one benchmark workload and print its metrics.

    python3 lexbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The inputs are generated from the seed inside the repository checkout
(``.lexbench_work/``, removed afterwards). A closed loop with one client
then runs the workload's `lexmine` commands one after another, each in a
fresh interpreter at the default `--jobs 1`, for S seconds, and checks
every output. Between command sequences a set-up probe times a fresh
interpreter that imports ``lexmine.cli`` and runs the workload's input
readers.

--trace 0 reports the end-to-end metrics: wall_s (median wall-clock of
the command sequence, spawn to exit), setup_s (median set-up probe) and
peak_rss_mb (median over sequences of the largest process-tree resident
set, from wait4). --trace 1 spends half of S on the same untraced loop and
half on traced runs (tracer.py), and reports per-layer calls and self
time, the layer counters, the input properties, the tracing overhead and,
where a command has a `--jobs` pool, its speedup at `--jobs 2`.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A run that fails (non-zero exit, a
traceback on stderr, or a failed output check) counts in `failed`. A run
that would last longer than S plus 150 seconds stops and exits 1 without
a result line.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracer import SPANS
from workloads import WORKLOADS, Prepared, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".lexbench_work"
# time a run may take beyond --seconds: inputs, warm-up, the last round, the pool check
RUN_ALLOWANCE_S = 150.0
MIN_SAMPLES = 3
TRACED_MIN_SAMPLES = 2
PROBES_PER_ROUND = 2
LEXMINE = ["-c", "import sys; from lexmine.cli import main; main()"]

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

COUNTER_UNITS = {
    "mining.score_cells": "count",
    "mining.align.hit_ratio": "ratio",
    "mining.filter.keep_ratio": "ratio",
    "mining.filter.overloaded_trigrams": "count",
    "w2w.oov_rate": "ratio",
    "metrics.bleu.hyp_ngrams": "count",
    "sentiment.bpe.merges": "count",
    "sentiment.models.lr_steps": "count",
    "manifest.bytes_hashed": "bytes",
    "cli.import_s": "s",
    "pool.speedup.jobs2": "x",
    "pool.cpu_ratio.jobs2": "ratio",
    "input.bytes": "bytes",
    "input.items": "count",
    "input.word_types": "count",
    "input.overcap_share": "ratio",
    "input.oov_rate": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update(COUNTER_UNITS)
    return units


class Deadline(Exception):
    """The run is about to exceed its time budget."""


def _on_alarm(signum, frame):
    raise Deadline


@dataclass
class Exit:
    wall: float
    rss_mib: float
    cpu: float
    code: int
    stderr: str

    @property
    def ok(self) -> bool:
        return self.code == 0 and "Traceback (most recent call last)" not in self.stderr


class Spawner:
    """Starts one child at a time and reaps it with its resource usage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SOURCE))
        # lexmine's bytecode is cached under src/ (by the warm-up), as an
        # installed package would have it, whatever the caller's setting
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def run(self, argv: list[str]) -> Exit:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise Deadline
        stdout_path, stderr_path = self.work / "stdout.log", self.work / "stderr.log"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env, cwd=self.work)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except Deadline:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Exit(wall, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime,
                    proc.returncode, stderr_path.read_text(encoding="utf-8", errors="replace"))


@dataclass
class Layers:
    """Per-span calls and self time, plus counters, of one traced sequence."""

    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    counters: Counter = field(default_factory=Counter)
    import_s: list[float] = field(default_factory=list)

    def add_trace(self, prefix: Path) -> None:
        meta = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
        n = meta["spans"]
        name_ids, parents, starts, ends = array("i"), array("i"), array("d"), array("d")
        with open(prefix.with_suffix(".spans"), "rb") as handle:
            for column in (name_ids, parents, starts, ends):
                column.fromfile(handle, n)
        duration = [end - start for start, end in zip(starts, ends)]
        covered = [0.0] * n
        for idx, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += duration[idx]
        names = meta["names"]
        for idx, name_id in enumerate(name_ids):
            self.calls[names[name_id]] += 1
            self.self_s[names[name_id]] += duration[idx] - covered[idx]
        self.counters.update(meta["counters"])
        self.import_s.append(meta["import_s"])


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Bench:
    def __init__(self, workload: Workload, prepared: Prepared, spawner: Spawner):
        self.workload = workload
        self.prepared = prepared
        self.spawner = spawner
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verified: dict[int, tuple] = {}   # command index -> checked output bytes

    def _tally(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def _clear(self, index: int) -> None:
        """Remove a command's previous outputs, so each run must write its own."""
        for path in self.prepared.commands[index].outputs:
            path.unlink(missing_ok=True)
            if path.name.endswith(".manifest.json"):
                path.with_name(path.name.replace(".manifest.json", ".timing.json")).unlink(
                    missing_ok=True)

    def _snapshot(self, index: int) -> tuple:
        return tuple(path.read_bytes() if path.exists() else None
                     for path in self.prepared.commands[index].outputs)

    def _check(self, index: int, run: Exit) -> list[str]:
        argv = " ".join(self.prepared.commands[index].argv[:2])
        if not run.ok:
            return [f"{argv}: exit {run.code}: {run.stderr.strip()[-300:]}"]
        snapshot = self._snapshot(index)
        if snapshot == self.verified.get(index):
            return []
        try:
            problems = self.workload.check(self.prepared, index)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if not problems:
            self.verified[index] = snapshot
        return [f"{argv}: {p}" for p in problems]

    def sequence(self, trace_dir: Path | None = None) -> tuple[float, float, Layers | None]:
        """Run every command once; returns (wall, peak MiB, layers if traced)."""
        wall, peak, problems = 0.0, 0.0, []
        layers = Layers() if trace_dir is not None else None
        for index, command in enumerate(self.prepared.commands):
            self._clear(index)
            if layers is None:
                run = self.spawner.run(LEXMINE + command.argv)
            else:
                prefix = trace_dir / f"cmd{index}"
                run = self.spawner.run([str(HERE / "tracer.py"), str(prefix), *command.argv])
            wall += run.wall
            peak = max(peak, run.rss_mib)
            problems += self._check(index, run)
            if layers is not None and run.ok:
                layers.add_trace(prefix)
        if layers is not None and layers.counters["sentiment.cv.partition_failures"]:
            problems.append("sent cv: test folds do not partition the rows")
        self._tally(problems)
        return wall, peak, layers

    def setup_probe(self) -> float:
        code = "import sys\nimport lexmine.cli\n" + self.prepared.readers
        run = self.spawner.run(["-c", code, *self.prepared.reader_args])
        self._tally([] if run.ok else [f"set-up probe: exit {run.code}: "
                                       f"{run.stderr.strip()[-300:]}"])
        return run.wall

    def loop(self, seconds: float, minimum: int, probe: bool, trace_dir: Path | None = None):
        """Closed loop for `seconds` (at least `minimum` rounds); failed rounds
        are timed too, and show in `failed`."""
        walls, peaks, setups, traces = [], [], [], []
        end = time.perf_counter() + seconds
        while len(walls) < minimum or time.perf_counter() < end:
            wall, peak, layers = self.sequence(trace_dir)
            walls.append(wall)
            peaks.append(peak)
            if layers is not None:
                traces.append(layers)
            if probe:
                setups += [self.setup_probe() for _ in range(PROBES_PER_ROUND)]
        return walls, peaks, setups, traces

    def pool(self) -> tuple[float, float]:
        """(wall speedup, CPU-time ratio) of the pooled command at --jobs 2.

        Outputs at --jobs 2 must be byte-identical to the checked --jobs 1
        outputs. A command that no longer accepts --jobs has no pool: (0, 0).
        """
        index = next((i for i, c in enumerate(self.prepared.commands) if c.takes_jobs), None)
        if index is None or index not in self.verified:
            return 0.0, 0.0
        argv = self.prepared.commands[index].argv
        walls, cpus = {1: [], 2: []}, {1: [], 2: []}
        for jobs in (2, 1, 1, 2):
            self._clear(index)
            run = self.spawner.run(LEXMINE + argv + ["--jobs", str(jobs)])
            if run.code == 2 and "--jobs" in run.stderr:
                return 0.0, 0.0
            problems = [] if run.ok else [f"--jobs {jobs}: exit {run.code}"]
            if run.ok and self._snapshot(index) != self.verified[index]:
                problems.append(f"--jobs {jobs} outputs differ from --jobs 1")
            self._tally(problems)
            walls[jobs].append(run.wall)
            cpus[jobs].append(run.cpu)
        return (_median(walls[1]) / _median(walls[2]), _median(cpus[2]) / _median(cpus[1]))


def _summary_line(name: str, values: list[float], unit: str) -> str:
    q1, q3 = _quartiles(values)
    return (f"{name:<12} {_median(values):10.4f} {unit:<5} median of {len(values)} "
            f"(q1 {q1:.4f}, q3 {q3:.4f})")


def measure(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    bench.sequence()  # warm-up: fills caches and checks the outputs in full
    walls, peaks, setups, _ = bench.loop(seconds, MIN_SAMPLES, probe=True)
    metrics = {"wall_s": _median(walls), "setup_s": _median(setups),
               "peak_rss_mb": _median(peaks)}
    lines = [_summary_line("wall_s", walls, "s"), _summary_line("setup_s", setups, "s"),
             _summary_line("peak_rss_mb", peaks, "MiB")]
    return metrics, lines


def measure_layers(bench: Bench, seconds: float, trace_dir: Path) -> tuple[dict, list[str]]:
    bench.sequence()
    walls, _, _, _ = bench.loop(seconds / 2, TRACED_MIN_SAMPLES, probe=False)
    traced_walls, _, _, traces = bench.loop(seconds / 2, TRACED_MIN_SAMPLES, probe=False,
                                            trace_dir=trace_dir)
    speedup, cpu_ratio = bench.pool()
    metrics = {name: 0 for name in per_layer_units()}
    metrics.update(bench.prepared.properties)
    if traces:
        last = traces[-1]
        for span in SPANS:
            metrics[f"{span}.calls"] = last.calls[span]
            metrics[f"{span}.self_s"] = _median([t.self_s[span] for t in traces])
        c = last.counters
        metrics.update({
            "mining.align.hit_ratio": _ratio(c["mining.aligned_pairs"],
                                             bench.prepared.expected.get("source_sentences", 0)),
            "mining.filter.keep_ratio": _ratio(c["mining.filter.pairs_out"],
                                               c["mining.filter.pairs_in"]),
            "w2w.oov_rate": _ratio(c["w2w.oov_tokens"], c["w2w.tokens"]),
            "metrics.bleu.hyp_ngrams": c["metrics.bleu.hyp_ngrams"],
            "sentiment.bpe.merges": c["sentiment.bpe.merges"],
            "sentiment.models.lr_steps": c["sentiment.models.lr_steps"],
            "manifest.bytes_hashed": c["manifest.bytes_hashed"],
            "cli.import_s": _median([s for t in traces for s in t.import_s]),
        })
    metrics["pool.speedup.jobs2"] = speedup
    metrics["pool.cpu_ratio.jobs2"] = cpu_ratio
    metrics["trace.overhead_s"] = _median(traced_walls) - _median(walls)
    lines = [_summary_line("wall_s", walls, "s"),
             _summary_line("traced", traced_walls, "s")]
    top = sorted(SPANS, key=lambda span: -metrics[f"{span}.self_s"])[:5]
    lines += [f"self {span:<40} {metrics[f'{span}.self_s']:9.4f} s "
              f"{metrics[f'{span}.calls']:>8} calls" for span in top]
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the benchmark's (self-test: small)")
    args = parser.parse_args()
    if not (SOURCE / "lexmine" / "cli.py").is_file():
        print(f"lexbench: no lexmine source under {SOURCE}", file=sys.stderr)
        return 2

    budget = args.seconds + RUN_ALLOWANCE_S
    started = time.perf_counter()
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        for sub in ("inputs", "outputs", "trace"):
            (work / sub).mkdir(parents=True)
        prepared = workload.prepare(args.seed, args.scale, work / "inputs", work / "outputs")
        bench = Bench(workload, prepared, Spawner(work, started + budget))
        if args.trace:
            metrics, lines = measure_layers(bench, args.seconds, work / "trace")
            units = per_layer_units()
        else:
            metrics, lines = measure(bench, args.seconds)
            units = END_TO_END_UNITS
    except Deadline:
        print(f"lexbench: {args.workload} did not finish within {budget:.0f} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{bench.attempted} runs, {bench.failed} failed, "
          f"{time.perf_counter() - started:.1f} s")
    for line in lines:
        print(line)
    print(f"{'error_rate':<12} {_ratio(bench.failed, bench.attempted):10.4f} ratio "
          f"({bench.failed} of {bench.attempted} runs)")
    print("input " + " ".join(f"{k}={round(v, 4)}" for k, v in prepared.properties.items()))
    for problem in bench.problems[:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
