"""hvml benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload emotions --seed 1 --seconds 36 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` and
all files are written under ``.perfbench_work/``, which is removed at exit.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
repeats the run with a span around every call into a layer and prints the
per-layer metrics. Before the result line come the environment record and a
readable table; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("emotions", "yeast-c4", "analysis")


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _blas() -> tuple[str, str]:
    """BLAS library and its thread count, as reported by the loaded library."""
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    threads = "unknown"
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, str(fn())
    return name, threads


def _mem_total() -> str:
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(facts: dict) -> dict:
    import numpy as np
    blas, threads = _blas()
    return {
        "git_sha": _git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": _mem_total(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        **facts,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hvml" / "__init__.py").is_file():
        print(f"no hvml sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    program = workloads.Program()
    tracer = workloads.install_tracer(program) if args.trace else None
    try:
        if args.workload == "analysis":
            run = workloads.run_analysis(program, args.seed, args.seconds, tracer, work, ROOT)
        else:
            run = workloads.run_training(program, args.workload, args.seed, args.seconds,
                                         tracer, work)
        if not args.trace and run.end_to_end:
            run.end_to_end["peak_rss_mb"] = workloads.peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.unwrap()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    values = run.per_layer if args.trace else run.end_to_end
    if not values:
        print(f"none of {run.attempted} operations completed", file=sys.stderr)
        return 1
    env = environment(run.facts)
    if tracer is not None:
        env["absent"] = tracer.absent
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<6} ({m['better']} is better)")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
