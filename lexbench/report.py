"""Run every workload over several seeds and summarize the end-to-end metrics.

    python3 lexbench/report.py [--runs N] [--baseline FILE]

For each workload, runs ``run.py`` once per seed (seeds 1..N) for the
run_seconds of BENCHMARK.json and prints wall_s, setup_s, peak_rss_mb
and error_rate with their units: the median of the runs, the quartiles,
and the spread (quartile distance over the median) next to the bound
from BENCHMARK.json. With --baseline it also
makes one traced run per workload and writes the environment, the input
properties, the layer shares, the layer-to-end-to-end map and the
summary to FILE.
"""
from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which end-to-end metric each layer metric should move, on which workload,
# and where the layer does (almost) no work.
LAYER_MAP = [
    {"layers": ["metrics.rouge1_f1.*", "mining.score_cells", "mining.align_sentences.self_s"],
     "moves": ["wall_s"], "on": ["mine-planted"],
     "idle_on": ["filter-boilerplate", "translate-bleu", "sent-cv"]},
    {"layers": ["textproc.split_sentences.*"], "moves": ["wall_s"], "on": ["mine-planted"],
     "idle_on": ["filter-boilerplate", "translate-bleu", "sent-cv"],
     "note": "3 calls per document pair today; 2 are needed"},
    {"layers": ["mining.diversity_filter.*", "mining.filter.*"],
     "moves": ["wall_s", "peak_rss_mb"], "on": ["filter-boilerplate"],
     "idle_on": ["mine-planted"], "note": "mine-planted has no trigram over the cap"},
    {"layers": ["textproc.tokenize.*"], "moves": ["wall_s"],
     "on": ["filter-boilerplate", "translate-bleu"], "idle_on": ["sent-cv"]},
    {"layers": ["w2w.translate_tokens.*", "w2w.oov_rate", "metrics.bleu.*"],
     "moves": ["wall_s", "peak_rss_mb"], "on": ["translate-bleu"],
     "idle_on": ["filter-boilerplate", "sent-cv"]},
    {"layers": ["sentiment.*"], "moves": ["wall_s"], "on": ["sent-cv"],
     "idle_on": ["mine-planted", "filter-boilerplate", "translate-bleu"]},
    {"layers": ["cli.import_s", "dictionary.load_dictionary.*", "mining.read_*"],
     "moves": ["setup_s"], "on": ["all"], "idle_on": []},
    {"layers": ["manifest.*", "mining.write_corpus.*"], "moves": ["wall_s"],
     "on": ["all (small)"], "idle_on": []},
    {"layers": ["pool.*"], "moves": [], "on": ["mine-planted", "translate-bleu"],
     "idle_on": [], "note": "no gated metric: keep-or-cut evidence for --jobs"},
]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds 1..N per workload")
    parser.add_argument("--baseline", help="write the summary and a traced run here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("quartiles need --runs 2 or more")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for name in WORKLOADS:
        results = [run_once(name, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        rows = {}
        print(f"{name}: {args.runs} runs of {seconds} s, "
              f"{'all correct' if all(r['correct'] for r in results) else 'NOT CORRECT'}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            median, q1, q3, share = spread(values)
            rows[metric] = {"unit": unit, "median": median, "q1": q1, "q3": q3,
                            "spread": share, "bound": bound, "values": values}
            flag = "ok" if share < bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            print(f"  {metric:<12} {median:10.4f} {unit:<5} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {share:6.2%} (bound {bound:.0%}: {flag}) "
                  f"[{' '.join(f'{v:.4f}' for v in values)}]")
        rows["error_rate"] = {"unit": "ratio", "value": failed / attempted,
                              "failed": failed, "attempted": attempted}
        print(f"  {'error_rate':<12} {failed / attempted:10.4f} ratio ({failed} of {attempted})")
        summary[name] = rows

    if args.baseline:
        workloads = []
        for name in WORKLOADS:
            traced = run_once(name, 1, seconds, 1)["metrics"]
            spans = {k[:-len(".self_s")]: v["value"] for k, v in traced.items()
                     if k.endswith(".self_s")}
            total = sum(spans.values())
            workloads.append({
                "name": name,
                "why": WORKLOADS[name].why,
                "input": {k: v["value"] for k, v in traced.items()
                          if k.startswith("input.") or k in ("mining.score_cells",
                                                             "mining.filter.overloaded_trigrams")},
                # share of the time spent inside cli.run
                "top_self_time_share": {span: spans[span] / total for span in
                                        sorted(spans, key=spans.get, reverse=True)[:5]},
                "pool": {k: traced[k]["value"] for k in ("pool.speedup.jobs2",
                                                         "pool.cpu_ratio.jobs2")},
                "end_to_end": summary[name],
            })
        payload = {"environment": environment(), "run_seconds": seconds, "runs": args.runs,
                   "workloads": workloads, "layer_map": LAYER_MAP}
        Path(args.baseline).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
