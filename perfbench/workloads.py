"""The benchmark's workloads: two training shapes and the analysis stream.

Each workload is a single-process closed loop with one caller: it issues the
next operation only when the previous one has returned, until the run's
time is used up, then checks every output. A training operation is the call
sequence of ``hvml train`` (load, split, normalize, train, curves,
checkpoint); an analysis operation is one ``hvml hv`` or ``hvml report``
request through ``hvml.cli.main``. The program is reached only through
module attributes, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import inputs
import spans

# (module, function) pairs traced in the --trace 1 run, by layer
LAYER_FUNCTIONS = (
    ("data", "load_manifest"), ("data", "stratified_split"), ("data", "normalize"),
    ("cmaes", "sample_population"), ("cmaes", "update_covariance"),
    ("model", "forward"),
    ("losses", "binarize"), ("losses", "hamming_loss"), ("losses", "lrap"),
    ("losses", "micro_f1"), ("losses", "bce"),
    ("pareto", "mc_contribution"), ("pareto", "exact_hypervolume"),
    ("pareto", "exact_contribution"), ("pareto", "update_reference_set"),
    ("trainer", "train"), ("trainer", "emit_curves"), ("trainer", "save_checkpoint"),
    ("report", "write_report"),
    ("cli", "main"),
)


@dataclass(frozen=True)
class TrainingShape:
    """Synthetic data at a real dataset's dimensions, and the training length."""

    n: int
    d: int
    k: int
    embedding: int
    epochs: int
    datasets: int    # seeded datasets trained in turn within one run


TRAINING = {
    "emotions": TrainingShape(n=593, d=72, k=6, embedding=20, epochs=8, datasets=8),
    "yeast-c4": TrainingShape(n=2417, d=103, k=14, embedding=4, epochs=12, datasets=8),
}

REPORT = None   # a `hvml report` request on the bundled table
_MID = (12, 1, 1, 3, 0)     # 14 rows: 2^14 inclusion-exclusion
_TAIL = (14, 1, 1, 3, 0)    # 16 rows: 2^16 inclusion-exclusion
# One analysis epoch, in request order: (front rows, duplicate rows, dominated
# rows, rows with a tied coordinate, --mc-samples or 0) per `hvml hv`
# request, or REPORT. Fronts of 8-80 rows are the archive and population
# sizes seen in training and span the 20-row switch between exact kernels.
# Of the 36 requests, 12 cost less than a _MID request (the reports and the
# smallest fronts), 12 cost about the same (_MID, and the 26- and 48-row
# fronts) and 12 cost more, so the median request lies in the middle of the
# _MID group; the p90 request lies inside the _TAIL group. Neither falls on
# the edge between two costs. The deck opens with its cheapest request,
# which pays for the caches the checks of the previous deck left cold.
HV_DECK = (
    (6, 1, 1, 2, 0), _MID, _TAIL, REPORT, _MID, _TAIL,
    REPORT, (7, 0, 1, 2, 10_000), _MID, _TAIL, (22, 2, 2, 4, 10_000), _MID,
    _TAIL, REPORT, (8, 1, 1, 2, 0), _MID, (34, 3, 3, 6, 10_000), _TAIL,
    (20, 2, 2, 4, 0), _MID, REPORT, _TAIL, (40, 4, 4, 6, 0), _MID,
    (52, 4, 4, 8, 0), _TAIL, (9, 0, 1, 2, 10_000), _MID, REPORT, _TAIL,
    (28, 2, 2, 5, 0), _MID, (70, 5, 5, 10, 10_000), _TAIL, REPORT, _MID,
)
MC_TOTAL_SAMPLES = 20_000
STARTUP_REPEATS = 5
# published per-method medians of the bundled table's geometric means
PUBLISHED_MEDIANS = {"CLML": 0.240, "DELA": 0.254, "CLIF": 0.269, "MLKNN": 0.249,
                     "C2AE": 0.394, "GNB-CC": 0.415, "GNB-BR": 0.481}
CONTRIBUTION_TOL = 2e-3
# exact HV of a growing archive may differ by rounding when the kernel switches
HV_ROUNDING = 1e-12


class Program:
    """The hvml modules, imported by name; a missing module stays None."""

    def __init__(self):
        self.hvml = importlib.import_module("hvml")
        for layer in {m for m, _ in LAYER_FUNCTIONS} | {"synth"}:
            try:
                mod = importlib.import_module(f"hvml.{layer}")
            except ModuleNotFoundError:
                mod = None
            setattr(self, layer, mod)


@dataclass
class Run:
    """What one benchmark run hands back to the entry point."""

    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    facts: dict = field(default_factory=dict)   # environment additions, sample counts

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)


# ---------------------------------------------------------------------------
# tracing

def _len_info(args, kwargs, result):
    return {"points": len(args[0])}


def _useful_info(args, kwargs, result):
    return {"useful": float(result) > 0.0}


def _accepted_info(args, kwargs, result):
    offered = [str(pair[1]) for pair in args[1]]
    kept = set(result.tags)
    return {"offered": len(offered), "accepted": sum(t in kept for t in offered)}


def _dir_bytes_info(args, kwargs, result):
    out = Path(args[2])
    return {"bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file())}


def _file_bytes_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


INFO = {
    "pareto.exact_hypervolume": _len_info,
    "pareto.mc_contribution": _useful_info,
    "pareto.update_reference_set": _accepted_info,
    "trainer.save_checkpoint": _dir_bytes_info,
    "trainer.emit_curves": _file_bytes_info,
}


def install_tracer(program: Program) -> spans.Tracer:
    tracer = spans.Tracer()
    for layer, fn in LAYER_FUNCTIONS:
        name = f"{layer}.{fn}"
        tracer.wrap(getattr(program, layer), fn, name, INFO.get(name))
    tracer.enabled = False
    return tracer


def per_layer_metrics(tracer: spans.Tracer, ops: int, rate: float) -> dict[str, float]:
    """Per-operation calls and times of every traced function, each one's
    self time as a share of all traced wall time, and the layer counters."""
    stats = spans.layer_stats(tracer.spans)
    wall = spans.root_time(tracer.spans)
    out: dict[str, float] = {}
    for layer, fn in LAYER_FUNCTIONS:
        st = stats.get(f"{layer}.{fn}", spans.LayerStats())
        key = f"{layer}.{fn}"
        out[f"{key}.calls"] = st.calls / ops
        out[f"{key}.s"] = st.total_s / ops
        out[f"{key}.self_s"] = st.self_s / ops
        out[f"{key}.share"] = st.self_s / wall if wall > 0 else 0.0

    def info(name):
        return stats[name].info if name in stats else []

    mc = info("pareto.mc_contribution")
    out["pareto.mc_contribution.useful"] = (
        sum(i["useful"] for i in mc) / len(mc) if mc else 0.0)
    hv = info("pareto.exact_hypervolume")
    out["pareto.exact_hypervolume.points_mean"] = (
        sum(i["points"] for i in hv) / len(hv) if hv else 0.0)
    ref = info("pareto.update_reference_set")
    offered = sum(i["offered"] for i in ref)
    out["pareto.update_reference_set.accepted"] = (
        sum(i["accepted"] for i in ref) / offered if offered else 0.0)
    for name in ("trainer.save_checkpoint", "trainer.emit_curves"):
        sizes = [i["bytes"] for i in info(name)]
        out[f"{name}.bytes"] = statistics.median(sizes) if sizes else 0.0
    train = stats.get("trainer.train")
    out["trainer.train.self_share"] = train.self_s / train.total_s if train else 0.0
    epoch_ms = [g * 1000.0 for g in spans.start_gaps(tracer.spans, "cmaes.sample_population")]
    out["trainer.epoch_ms.p50"] = spans.percentile(epoch_ms, 50) if epoch_ms else 0.0
    out["trainer.epoch_ms.p90"] = spans.percentile(epoch_ms, 90) if epoch_ms else 0.0
    out["trace.absent"] = float(len(tracer.absent))
    out["traced.epochs_per_s"] = rate
    return out


@contextlib.contextmanager
def traced(tracer, op: int):
    """Record spans of one operation; outside it the wrappers only forward."""
    if tracer is None:
        yield
        return
    tracer.op = op
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(latencies_s: list[float], run: Run) -> None:
    ms = [t * 1000.0 for t in latencies_s]
    run.end_to_end["requests_per_s"] = len(ms) / sum(latencies_s)
    run.end_to_end["request_ms.p50"] = spans.percentile(ms, 50)
    run.end_to_end["request_ms.p90"] = spans.percentile(ms, 90)
    tail = spans.tail_percentile(ms)
    run.facts["request_samples"] = len(ms)
    run.facts["request_ms.tail"] = (
        {"percentile": tail[0], "value": tail[1], "samples": tail[2]} if tail else None)


# ---------------------------------------------------------------------------
# training workloads

@dataclass
class TrainOutcome:
    setup_s: float
    train_s: float
    write_s: float
    archive_points: np.ndarray
    archive_tags: tuple
    val_hv: float


def _train_op(p: Program, manifest: Path, shape: TrainingShape, seed: int, out: Path):
    t0 = time.perf_counter()
    ds = p.data.load_manifest(manifest)
    ds = ds.with_split(p.data.stratified_split(ds, seed))
    ds = p.data.normalize(ds)
    t1 = time.perf_counter()
    config = p.trainer.TrainConfig(epochs=shape.epochs, embedding=shape.embedding, seed=seed)
    result = p.trainer.train(ds, config)
    t2 = time.perf_counter()
    p.trainer.emit_curves(result.curves, out / "curves.csv")
    p.trainer.save_checkpoint(result.state, config, out / "checkpoint")
    t3 = time.perf_counter()
    return result, (t1 - t0, t2 - t1, t3 - t2)


def _check_training(p: Program, result, out: Path, shape: TrainingShape) -> list[str]:
    problems = []
    for rec in result.curves:
        for vec in (rec.train, rec.validation):
            if not all(0.0 <= v <= 1.0 for v in vec):
                problems.append(f"loss outside [0, 1] at epoch {rec.epoch}: {tuple(vec)}")
    try:
        result.archive.validate()
    except ValueError as exc:
        problems.append(f"final archive invalid: {exc}")
    hv = np.asarray(result.archive_hv, dtype=float)
    if hv.size != shape.epochs + 1:
        problems.append(f"{hv.size} archive HV values for {shape.epochs} epochs")
    elif (np.diff(hv) < -HV_ROUNDING).any():
        problems.append(f"archive HV decreased: {hv.tolist()}")
    state, _ = p.trainer.load_checkpoint(out / "checkpoint")
    if state.epoch != shape.epochs:
        problems.append(f"checkpoint epoch {state.epoch}, run had {shape.epochs}")
    if (state.archive.tags != result.archive.tags
            or not np.array_equal(state.archive.points, result.archive.points)):
        problems.append("checkpoint archive differs from the run's archive")
    return problems


def _sub_seed(seed: int, j: int) -> int:
    return int(np.random.default_rng([seed, j]).integers(2**31))


def _write_dataset(p: Program, shape: TrainingShape, name: str, seed: int, where: Path) -> Path:
    where.mkdir()
    ds = p.synth.linear_multilabel(n=shape.n, d=shape.d, k=shape.k, seed=seed)
    inputs.write_arff(where / "data.arff", ds.x, ds.y, relation=name)
    manifest = where / "manifest.json"
    manifest.write_text(json.dumps({"name": name, "arff_path": "data.arff",
                                    "label_count": shape.k, "labels_at": "back"}))
    return manifest


def run_training(p: Program, name: str, seed: int, seconds: float, tracer, work: Path) -> Run:
    """Train on ``shape.datasets`` seeded datasets in turn until the time is
    used up and each has been trained at least once. Each metric weighs the
    datasets equally: one dataset alone says more about its own archive (and
    so about the exact-HV work in early epochs) than about the program."""
    shape = TRAINING[name]
    sub_seeds = [_sub_seed(seed, j) for j in range(shape.datasets)]
    manifests = [_write_dataset(p, shape, name, s, work / f"data{j}")
                 for j, s in enumerate(sub_seeds)]
    out = work / "out"
    out.mkdir()
    # first calls pay one-off costs (thread pools, page faults); keep them out
    _train_op(p, manifests[0], replace(shape, epochs=2), sub_seeds[0], out)
    run = Run()
    outcomes: dict[int, list[TrainOutcome]] = {j: [] for j in range(shape.datasets)}
    start = time.perf_counter()
    while run.attempted < shape.datasets or time.perf_counter() - start < seconds:
        j = run.attempted % shape.datasets
        run.attempted += 1
        try:
            with traced(tracer, run.attempted):
                result, (setup_s, train_s, write_s) = _train_op(
                    p, manifests[j], shape, sub_seeds[j], out)
            problems = _check_training(p, result, out, shape)
            val_hv = p.pareto.exact_hypervolume(result.archive)
        except Exception:
            run.fail(f"{name} operation {run.attempted}:\n{traceback.format_exc()}")
            continue
        outcome = TrainOutcome(setup_s, train_s, write_s, result.archive.points,
                               result.archive.tags, val_hv)
        if outcomes[j]:
            first = outcomes[j][0]
            if (outcome.val_hv != first.val_hv or outcome.archive_tags != first.archive_tags
                    or not np.array_equal(outcome.archive_points, first.archive_points)):
                problems.append("repeat of the same seed gave a different archive")
        else:
            run.facts["L"] = int(result.final.params.flat.size)
            run.facts["lambda"] = sum(1 for rec in result.curves if rec.epoch == 1)
        outcomes[j].append(outcome)
        if problems:
            run.fail(f"{name} operation {run.attempted}: " + "; ".join(problems))
        del result  # the next command should not find this one's arrays resident
    done = [ops for ops in outcomes.values() if ops]
    if not done:
        return run

    def per_dataset(value):
        return statistics.fmean(statistics.median(value(o) for o in ops) for ops in done)

    eps = per_dataset(lambda o: shape.epochs / o.train_s)
    run.end_to_end.update({
        "epochs_per_s": eps,
        "setup_s": per_dataset(lambda o: o.setup_s),
        "write_s": per_dataset(lambda o: o.write_s),
        "val_hv": statistics.fmean(ops[0].val_hv for ops in done),
    })
    latencies = [o.setup_s + o.train_s + o.write_s for ops in done for o in ops]
    latency_metrics(latencies, run)
    run.facts["datasets"] = len(done)
    if tracer is not None:
        run.per_layer = per_layer_metrics(tracer, len(latencies), eps)
    return run


# ---------------------------------------------------------------------------
# analysis workload

def _cli(p: Program, argv: list[str]) -> tuple[int, float]:
    """Exit code and wall time of one in-process request; its printout is
    discarded (the checks read the files it writes)."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = p.cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, elapsed


def _check_hv(rows: np.ndarray, mc_samples: int, out: Path, rng) -> tuple[list[str], float]:
    """Problems with an `hvml hv` result, and the total HV it reported."""
    payload = json.loads((out / "hv.json").read_text())
    total = payload["total"]
    problems = []
    estimate = inputs.mc_hypervolume(rows, MC_TOTAL_SAMPLES, rng)
    if not inputs.within_standard_errors(estimate, total, MC_TOTAL_SAMPLES):
        problems.append(f"total {total} vs Monte Carlo {estimate}")
    if len(payload["rows"]) != rows.shape[0]:
        problems.append(f"{len(payload['rows'])} contributions for {rows.shape[0]} rows")
        return problems, total
    others_cover = [(np.delete(rows, i, axis=0) <= rows[i]).all(axis=1).any()
                    for i in range(rows.shape[0])]
    for row, covered in zip(payload["rows"], others_cover):
        c = row["contribution"]
        if not 0.0 <= c <= total:
            problems.append(f"{row['tag']}: contribution {c} outside [0, {total}]")
        if covered != (c == 0.0):
            problems.append(f"{row['tag']}: contribution {c}, weakly dominated: {covered}")
        if mc_samples:
            hits = round(row["mc_contribution"] * mc_samples)
            if not inputs.binomial_consistent(hits, mc_samples, c):
                problems.append(f"{row['tag']}: Monte Carlo {row['mc_contribution']} vs exact {c}")
    return problems, total


def _check_report(out: Path, table_path) -> list[str]:
    problems = []
    summary = json.loads((out / "summary.json").read_text())
    medians = {m: round(v, 3) for m, v in summary["medians"].items()}
    if medians != PUBLISHED_MEDIANS:
        problems.append(f"medians {medians} differ from the published {PUBLISHED_MEDIANS}")
    with open(table_path, newline="", encoding="utf-8") as fh:
        published = {(r["dataset"], r["method"]): float(r["hv_contribution"])
                     for r in csv.DictReader(fh)}
    with open(out / "contributions.csv", newline="", encoding="utf-8") as fh:
        got = {(r["dataset"], r["method"]): float(r["hv_contribution"])
               for r in csv.DictReader(fh)}
    if got.keys() != published.keys():
        return problems + ["report covers other cells than the table"]
    for key, want in published.items():
        if (want == 0.0 and got[key] != 0.0) or abs(got[key] - want) > CONTRIBUTION_TOL:
            problems.append(f"{key}: contribution {got[key]} vs published {want}")
    return problems


def _startup_s(root: Path) -> float:
    """Time a fresh interpreter, with numpy already loaded, takes to import
    the hvml command: the start-up work of every `hvml` request."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    probe = ("import time, numpy; t = time.perf_counter(); import hvml.cli; "
             "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(proc.stdout)


def run_analysis(p: Program, seed: int, seconds: float, tracer, work: Path, root: Path) -> Run:
    """Send decks of requests until the time is used up. A deck's requests
    run back to back, each writing to its own directory; their outputs are
    checked after the deck, so that no check runs between two requests."""
    run = Run()
    table = str(p.hvml.benchmark_results_path())
    latencies: list[float] = []
    report_s: list[float] = []
    startup_s: list[float] = []
    first_totals: list[float] = []
    decks = 0
    busy = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rng = np.random.default_rng([seed, decks])
        requests = []
        for i, spec in enumerate(HV_DECK):
            out = work / f"out{i}"
            if spec is REPORT:
                requests.append((["report", table, "--out", str(out)], out, None, 0))
                continue
            n_front, n_dup, n_dom, n_ties, mc = spec
            rows = inputs.grid_front(rng, n_front, n_dup, n_dom, n_ties)
            path = work / f"front{i}.csv"
            inputs.write_front_csv(path, rows)
            argv = ["hv", str(path), "--out", str(out), "--seed", str(int(rng.integers(2**31)))]
            requests.append((argv + (["--mc-samples", str(mc)] if mc else []), out, rows, mc))
        answered = []
        for argv, out, rows, mc in requests:
            run.attempted += 1
            try:
                with traced(tracer, run.attempted):
                    code, elapsed = _cli(p, argv)
            except Exception:
                run.fail(f"request {argv}:\n{traceback.format_exc()}")
                continue
            answered.append((argv, out, rows, mc, code))
            latencies.append(elapsed)
            busy += elapsed
            if rows is None:
                report_s.append(elapsed)
        for argv, out, rows, mc, code in answered:
            try:
                if code != 0:
                    problems = [f"exit code {code}"]
                elif rows is None:
                    problems = _check_report(out, table)
                else:
                    problems, total = _check_hv(rows, mc, out, rng)
                    if decks == 0:
                        first_totals.append(total)
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                run.fail(f"request {argv}: " + "; ".join(problems))
        if tracer is None:
            startup_s.append(_startup_s(root))
        decks += 1
    if not latencies:
        return run
    while tracer is None and len(startup_s) < STARTUP_REPEATS:
        startup_s.append(_startup_s(root))
    run.end_to_end.update({
        "epochs_per_s": decks / busy,
        "setup_s": statistics.median(startup_s) if startup_s else 0.0,
        "write_s": statistics.median(report_s) if report_s else 0.0,
        "val_hv": statistics.fmean(first_totals) if first_totals else 0.0,
    })
    latency_metrics(latencies, run)
    run.facts["report_samples"] = len(report_s)
    run.facts["startup_samples"] = len(startup_s)
    if tracer is not None:
        run.per_layer = per_layer_metrics(tracer, len(latencies), decks / busy)
    return run
