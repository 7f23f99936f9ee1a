"""Measure a baseline: repeated untraced runs and a few traced runs per workload.

    python3 perfbench/baseline.py --seeds 101-110 --traced 3 --out perfbench/baseline.json

Runs ``perfbench/run.py`` in a fresh subprocess for every (workload, seed)
and writes one JSON file with the environment record, each
end-to-end metric's median and quartile spread (IQR over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), the per-layer
medians of the traced runs, the share of training wall time of each layer
inside ``trainer.train``, and the tracing overhead: the untraced over the
traced ``epochs_per_s`` of the same seed, run back to back, minus one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# traced functions outside trainer.train in a training run
OUTSIDE_TRAIN = ("data.", "trainer.emit_curves", "trainer.save_checkpoint", "trainer.train",
                 "report.", "cli.")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="inclusive range, e.g. 101-110")
    parser.add_argument("--traced", type=int, default=3, help="traced runs per workload")
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "baseline.json"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for name in names:
        e2e: dict[str, list[float]] = {}
        traced, overheads = [], []
        attempted = failed = 0
        for i, seed in enumerate(seeds):
            result, env = run_once(name, seed, spec["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for key, metric in result["metrics"].items():
                e2e.setdefault(key, []).append(metric["value"])
            print(name, seed, {k: round(v[-1], 5) for k, v in e2e.items()}, flush=True)
            if i < args.traced:
                # right after the untraced run of the same seed, so that the
                # pair sees the same machine load
                layers = run_once(name, seed, spec["run_seconds"], 1)[0]["metrics"]
                traced.append(layers)
                overheads.append(e2e["epochs_per_s"][-1] / layers["traced.epochs_per_s"]["value"] - 1)
        entry = {
            "environment": env,
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {k: summarize(v) for k, v in e2e.items()},
        }
        if traced:
            layers = {k: statistics.median(run[k]["value"] for run in traced) for k in traced[0]}
            entry["per_layer"] = layers
            entry["tracing_overhead"] = {"median": statistics.median(overheads),
                                         "pairs": overheads}
            first = {k: m["value"] for k, m in traced[0].items()}
            if first["trainer.train.s"] > 0:
                # self times inside trainer.train add up to its wall time
                shares = {k[: -len(".self_s")]: v / first["trainer.train.s"]
                          for k, v in first.items()
                          if k.endswith(".self_s") and not k.startswith(OUTSIDE_TRAIN)}
                shares["trainer.train (self)"] = first["trainer.train.self_share"]
                entry["share_of_training_wall"] = dict(
                    sorted(shares.items(), key=lambda kv: -kv[1]))
        report["workloads"][name] = entry
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
