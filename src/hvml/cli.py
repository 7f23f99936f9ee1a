"""Command-line entry point.

Subcommands: train, hv, stats, report, sweep, eval; each takes only the
flags it reads. train and sweep resolve their configuration in layers, later
ones winning: a resumed checkpoint's config, the --config JSON file, then
the flags. eval takes its model, and the seed (so the split) and threshold,
from a run's checkpoint. Every command writes its resolved config next to
its outputs so the run can be reproduced exactly, and exits with a stable
code: 0 success, 2 input error, 3 precondition error, 4 numeric failure.
Failures emit a machine-readable error JSON on stdout.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import secrets
import sys
import typing
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import data, pareto, report, seeds, trainer
from .errors import (ConfigError, DimensionError, GridError, NumericError,
                     ParseError, UndefinedMetricError)
from .losses import geometric_mean

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4

_INPUT_ERRORS = (ParseError, DimensionError, FileNotFoundError, IsADirectoryError,
                 NotADirectoryError, PermissionError, KeyError)
_PRECONDITION_ERRORS = (ConfigError, GridError, UndefinedMetricError, ValueError)
_NUMERIC_ERRORS = (NumericError, FloatingPointError, np.linalg.LinAlgError)

# each key train and sweep resolve, with its --config type: manifest and the TrainConfig fields
_RUN_TYPES = {"manifest": str, **trainer.FIELD_TYPES}


def _json(obj, **kwargs) -> str:
    """``obj`` as indented JSON; a NaN or infinity, which strict parsers refuse, raises."""
    return json.dumps(obj, indent=2, allow_nan=False, **kwargs)


def _fail(exc: Exception, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc), "exit_code": code},
                     allow_nan=False))
    return code


def _resolve(args, types: dict, base: dict | None = None) -> dict:
    """Merge a run's configuration layers, later ones winning: ``base`` (a
    resumed checkpoint's config), the --config file, then the flags given.
    The file may hold the keys of ``types``, each of its type, and
    ``command``, which every command records. A manifest is required; a run
    left without a seed gets a fresh one."""
    file_cfg = {}
    if args.config is not None:
        path = _expand_path(args.config)
        try:
            file_cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"config file is not valid JSON: {exc}", path) from None
        trainer.check_json(file_cfg, path, {**types, "command": str})
    resolved = dict(base or {})
    for key in types:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
    if "manifest" not in resolved:
        raise ConfigError("a dataset manifest is required (--manifest or config)")
    if resolved.get("seed") is None:
        resolved["seed"] = secrets.randbits(32)
    return resolved


def _expand_path(p):
    return Path(os.path.expandvars(os.path.expanduser(str(p))))


def _out_dir(args, command: str) -> Path:
    """The --out directory (default hvml_out/<command>); ``_write_resolved`` creates it."""
    return _expand_path(getattr(args, "out", None) or f"hvml_out/{command}")


def _write_resolved(out: Path, command: str, resolved: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.json").write_text(
        _json({"command": command, **resolved}, sort_keys=True))


def _losses_json(lv, bce) -> dict:
    return {"l1": lv.l1, "l2": lv.l2, "l3": lv.l3, "l4": bce,
            "geometric_mean": geometric_mean(lv)}


def _prepare_dataset(manifest_path, seed: int) -> data.Dataset:
    ds = data.load_manifest(_expand_path(manifest_path))
    ds = ds.with_split(data.stratified_split(ds, seed))
    return data.normalize(ds)


def _check_width(command: str, dataset: data.Dataset, state: trainer.TrainState) -> None:
    """Refuse a dataset whose feature or label count is not the checkpoint model's."""
    if (dataset.d, dataset.k) != (state.shape.d, state.shape.k):
        raise DimensionError(f"{command}: the manifest has {dataset.d} features and {dataset.k} "
                             f"labels, the checkpoint's model {state.shape.d} and "
                             f"{state.shape.k}")


def _train_config(resolved: dict) -> trainer.TrainConfig:
    return trainer.TrainConfig(**{k: v for k, v in resolved.items() if k in trainer.FIELD_TYPES})


# ---------------------------------------------------------------------------
# commands

def cmd_train(args) -> int:
    resume_state, saved = None, {}
    if args.resume:
        resume_state, saved_cfg = trainer.load_checkpoint(_expand_path(args.resume))
        saved = asdict(saved_cfg)
    resolved = _resolve(args, _RUN_TYPES, base=saved)
    for key, value in saved.items():
        if key != "epochs" and resolved[key] != value:
            raise ConfigError(f"resume: {key} is {value!r} in the checkpoint, {resolved[key]!r} "
                              f"was given; only epochs may change")
    config = _train_config(resolved)
    if resume_state is not None and config.epochs < resume_state.epoch:
        raise ConfigError(f"resume: epochs {config.epochs} is below the checkpoint's "
                          f"epoch {resume_state.epoch}")
    dataset = _prepare_dataset(resolved["manifest"], config.seed)
    if resume_state is not None:
        _check_width("resume", dataset, resume_state)
    state = resume_state if resume_state is not None else trainer.initial_state(dataset, config)
    # written only once the run is accepted, so a refused run leaves the
    # resolved config of the run already in --out as it was
    out = _out_dir(args, "train")
    _write_resolved(out, "train", resolved)
    result = trainer.train(dataset, config, resume_state=state)

    trainer.emit_curves(result.curves, out / "curves.csv")
    trainer.save_checkpoint(result.state, config, out)

    def scored(inc: trainer.Incumbent) -> dict:
        return {"validation": _losses_json(inc.validation, inc.validation_bce),
                "test": _losses_json(*trainer.evaluate(inc.params, dataset, "test",
                                                       config.threshold))}

    summary = {
        "dataset": dataset.name,
        "epochs": result.state.epoch,
        "seed": config.seed,
        "final": scored(result.final),
        "per_loss": {key: {**scored(inc), "epoch": inc.epoch}
                     for key, inc in sorted(result.state.best_per_loss.items())},
        "archive_size": len(result.archive),
        "archive_hv": result.archive_hv[-1],
    }
    (out / "summary.json").write_text(_json(summary))
    print(_json(summary))
    return EXIT_OK


def cmd_hv(args) -> int:
    if args.mc_samples is not None and args.mc_samples < 0:
        raise ConfigError(f"--mc-samples must be >= 0, got {args.mc_samples}")
    path = _expand_path(args.front)
    vecs = []
    tag_lines: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, cells in enumerate(csv.reader(fh), start=1):
            if not cells or all(not c.strip() for c in cells):
                continue
            if lineno == 1 and any(not _is_float(c) for c in cells[-3:]):
                continue  # header row
            if len(cells) < 3:
                raise ParseError(f"need at least 3 loss columns, got {len(cells)}", path, lineno)
            try:
                vec = [float(c) for c in cells[-3:]]
            except ValueError:
                raise ParseError(f"non-numeric loss value in row {cells!r}", path, lineno) from None
            # a Monte Carlo estimate samples only from 0 up
            if not all(0.0 <= v < math.inf for v in vec):
                raise ParseError(f"negative loss value, or one that is not a finite number, "
                                 f"in row {cells!r}", path, lineno)
            vecs.append(vec)
            tag = cells[0] if len(cells) > 3 else f"row{lineno}"
            if tag in tag_lines:
                raise ParseError(f"tag {tag!r} already names the row on line "
                                 f"{tag_lines[tag]}", path, lineno)
            tag_lines[tag] = lineno
    front = pareto.Front(np.array(vecs), tuple(tag_lines))
    ref = _parse_ref(args.ref) if args.ref else pareto.UNIT_REF
    total, contribs = pareto.exact_contributions(front, ref)
    lines = [f"total_hypervolume {total:.6f}"]
    report_rows = []
    for (vec, tag), exact in zip(front, contribs.tolist()):
        entry = {"tag": tag, "losses": list(vec), "contribution": exact}
        if args.mc_samples:
            entry["mc_contribution"] = pareto.mc_contribution(
                front, tag, ref, g=args.mc_samples,
                seed=seeds.seed_sequence(args.seed or 0, seeds.STREAM_MC, 0, len(report_rows)))
        report_rows.append(entry)
        mc = f" mc={entry['mc_contribution']:.6f}" if "mc_contribution" in entry else ""
        lines.append(f"{tag} contribution={exact:.6f}{mc}")
    out = _out_dir(args, "hv")
    _write_resolved(out, "hv", {"front": str(path), "ref": list(map(float, ref)),
                                "mc_samples": args.mc_samples, "seed": args.seed or 0})
    (out / "hv.json").write_text(_json({"total": total, "rows": report_rows}))
    print("\n".join(lines))
    return EXIT_OK


def _parse_ref(text: str) -> np.ndarray:
    try:
        ref = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ParseError(f"--ref must be comma-separated numbers, got {text!r}") from None
    if not np.isfinite(ref).all():
        raise ParseError(f"--ref must be finite numbers, got {text!r}")
    return ref


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def cmd_stats(args) -> int:
    ds = data.load_manifest(_expand_path(args.manifest))
    stats = data.compute_stats(ds)
    out = _out_dir(args, "stats")
    _write_resolved(out, "stats", {"manifest": str(args.manifest)})
    payload = asdict(stats)
    payload["name"] = ds.name
    (out / "stats.json").write_text(_json(payload))
    print(_json(payload))
    return EXIT_OK


def cmd_report(args) -> int:
    table = report.ResultsTable.from_csv(_expand_path(args.results))
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha}")
    # write_report refuses the table (exit 3) before it creates --out
    out = _out_dir(args, "report")
    summary = report.write_report(table, out, alpha=args.alpha)
    _write_resolved(out, "report", {"results": str(args.results), "alpha": args.alpha})
    print(_json({"medians": summary["medians"], "cd": summary["cd"]}))
    return EXIT_OK


def cmd_sweep(args) -> int:
    resolved = _resolve(args, {**_RUN_TYPES, "c_list": list[int]})
    if "embedding" in resolved:
        raise ConfigError("sweep takes its embedding dimensions from c_list, not embedding")
    c_values = resolved.get("c_list")
    if not c_values:
        raise ConfigError("sweep requires a non-empty embedding dimension list "
                          "(--c-list or config c_list)")
    runs = []
    for c in c_values:
        run_seed = int(seeds.rng_for(resolved["seed"], seeds.STREAM_SWEEP, c).integers(2**31))
        config = _train_config({**resolved, "embedding": c, "seed": run_seed})
        dataset = _prepare_dataset(resolved["manifest"], run_seed)
        runs.append((c, run_seed, config, dataset, trainer.initial_state(dataset, config)))
    # written only once every run is accepted, as in train
    out = _out_dir(args, "sweep")
    _write_resolved(out, "sweep", resolved)

    rows = []
    for c, run_seed, config, dataset, state in runs:
        result = trainer.train(dataset, config, resume_state=state)
        bests = result.state.best_per_loss
        row = {
            "c": c, "seed": run_seed,
            "best_l1": bests["l1"].validation.l1, "best_l2": bests["l2"].validation.l2,
            "best_l3": bests["l3"].validation.l3, "best_l4": bests["l4"].validation_bce,
            "final_gm": geometric_mean(result.final.validation),
            "archive_hv": result.archive_hv[-1],
        }
        rows.append(row)
        np.savetxt(out / f"archive_hv_c{c}.csv",
                   np.column_stack([np.arange(len(result.archive_hv)), result.archive_hv]),
                   delimiter=",", header="epoch,archive_hv", comments="", fmt="%.17g")
    with open(out / "sweep.csv", "w", encoding="utf-8") as fh:
        cols = ["c", "seed", "best_l1", "best_l2", "best_l3", "best_l4", "final_gm", "archive_hv"]
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")
    print(_json(rows))
    return EXIT_OK


def cmd_eval(args) -> int:
    # the run's checkpoint gives the model, and the seed (so the split) and
    # threshold it was trained with
    state, config = trainer.load_checkpoint(_expand_path(args.checkpoint))
    dataset = _prepare_dataset(args.manifest, config.seed)
    _check_width("eval", dataset, state)
    out = _out_dir(args, "eval")
    _write_resolved(out, "eval", {"checkpoint": str(args.checkpoint),
                                  "manifest": str(args.manifest), "split": args.split,
                                  "threshold": config.threshold, "seed": config.seed})
    lv, bce = trainer.evaluate(state.incumbent.params, dataset, args.split, config.threshold)
    payload = _losses_json(lv, bce)
    (out / "eval.json").write_text(_json(payload))
    print(_json(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------

def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output directory (default hvml_out/<command>)")


def _add_run_flags(p: argparse.ArgumentParser, embedding: bool = True) -> None:
    """The flags of train and sweep: --config, --out, --manifest and one per
    TrainConfig field, of the field's type, except --embedding for sweep (it
    takes --c-list instead)."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    _add_out(p)
    p.add_argument("--manifest", help="dataset manifest JSON")
    for f in fields(trainer.TrainConfig):
        if embedding or f.name != "embedding":
            hint = trainer.FIELD_TYPES[f.name]
            p.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"],
                           type=next(t for t in (*typing.get_args(hint), hint)
                                     if t is not type(None)))


def _int_list(text: str) -> list[int]:
    return [int(c) for c in text.split(",") if c.strip()]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once: building it costs more than a parse."""
    parser = argparse.ArgumentParser(prog="hvml",
                                     description="Hypervolume-guided multi-label learning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a dataset manifest")
    _add_run_flags(p)
    p.add_argument("--resume", help="checkpoint directory to resume from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("hv", help="hypervolume and contributions of a front CSV")
    _add_out(p)
    p.add_argument("--seed", type=int, help="root seed of the Monte Carlo estimates (default 0)")
    p.add_argument("front", help="CSV of loss triples; optional leading tag column")
    p.add_argument("--ref", help="reference vector as 'r1,r2,r3' (default 1,1,1)")
    p.add_argument("--mc-samples", dest="mc_samples", type=int,
                   help="also print Monte Carlo estimates with this sample count")
    p.set_defaults(func=cmd_hv)

    p = sub.add_parser("stats", help="dataset statistics from a manifest")
    _add_out(p)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="aggregate statistics over a results CSV")
    _add_out(p)
    p.add_argument("results", help="CSV with dataset,method,l1,l2,l3[,geometric_mean]")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="train once per embedding dimension")
    _add_run_flags(p, embedding=False)
    p.add_argument("--c-list", type=_int_list, help="comma-separated embedding dimensions")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="evaluate a run's incumbent on one split")
    _add_out(p)
    p.add_argument("--checkpoint", required=True,
                   help="run directory whose checkpoint gives the model, seed and threshold")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=("train", "validation", "test"), default="test")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        return _fail(exc, EXIT_NUMERIC)
    except _PRECONDITION_ERRORS as exc:
        return _fail(exc, EXIT_PRECONDITION)
    except _INPUT_ERRORS as exc:
        return _fail(exc, EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
