"""Tiny-size self-test of the benchmark.

    python3 lexbench/selftest.py

Runs every workload at a small input scale, untraced and traced, and
requires correct results with every metric BENCHMARK.json names, in its
unit. It also feeds each output check a wrong output, which must be
rejected, and runs the benchmark from a copy without the lexmine source,
which must fail without printing a result. Exits 0 when all of this holds.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import shutil
import subprocess
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".lexbench_work" / "selftest"
SCALE = "0.05"


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=root, capture_output=True, text=True, timeout=180)


def check_runs(spec: dict) -> list[str]:
    problems = []
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = _run(ROOT, workload, trace)
            if done.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            label = f"{workload} trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} failed: "
                                f"{done.stderr.strip()[-300:]}")
            units = {m["name"]: m["unit"] for m in wanted}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(units))}")
            if trace == 0 and not all(m["value"] > 0 for m in result["metrics"].values()):
                problems.append(f"{label}: an end-to-end metric is not positive")
            print(f"ok {label}: {result['attempted']} runs")
    return problems


def check_checks() -> list[str]:
    """Each workload's check must reject a deliberately wrong output."""
    problems = []
    for name, workload in WORKLOADS.items():
        work = SCRATCH / name
        (work / "in").mkdir(parents=True)
        (work / "out").mkdir()
        prepared = workload.prepare(3, float(SCALE), work / "in", work / "out")
        for index, command in enumerate(prepared.commands):
            wrong = _wrong_output(name, index, prepared)
            command.outputs[0].write_text(wrong, encoding="utf-8")
            if not workload.check(prepared, index):
                problems.append(f"{name}: check {index} accepted a wrong output")
            else:
                print(f"ok {name}: check {index} rejects a wrong output")
    return problems


def _wrong_output(name: str, index: int, prepared) -> str:
    if name == "mine-planted":
        rows = prepared.expected["corpus"].splitlines()
        return "".join(row + "\n" for row in rows[1:])           # one planted pair lost
    if name == "filter-boilerplate":
        return "".join(row + "\n" for row in prepared.generated.truth["rows"])  # nothing cut
    if name == "translate-bleu" and index == 0:
        return prepared.expected["hyp"].replace(" ", "  ", 1).replace("  ", " x ", 1)
    if name == "translate-bleu":
        return json.dumps({"bleu": prepared.expected["bleu"] + 1e-6, "lowercased": True})
    sizes = {"train": 1, "dev": 1, "test": 1}
    return json.dumps({"folds": [{"sizes": sizes}] * 5, "mean_f1_positive": 0.5})


def check_without_source() -> list[str]:
    """A copy holding only BENCHMARK.json and the benchmark must fail, silently."""
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name)
    done = _run(bare, next(iter(WORKLOADS)), 0)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"run without the lexmine source: exit {done.returncode}, "
                f"stdout {done.stdout[-200:]!r}"]
    print("ok without the lexmine source: exit", done.returncode)
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if [(w["name"], w["why"]) for w in spec["workloads"]] != [
            (w.name, w.why) for w in WORKLOADS.values()]:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    try:
        problems += check_checks()
        problems += check_without_source()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            SCRATCH.parent.rmdir()
        except OSError:
            pass
    problems += check_runs(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
