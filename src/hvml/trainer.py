"""The training loop: hypervolume-contribution fitness driving a CMA-ES.

Each epoch samples a population of parameter vectors and scores every
candidate with one forward pass over the training and validation rows
stacked together (each output row depends only on its own input row; the
stacked rows are checked once per run, ``model.Features``), then takes the
losses of each split against its label matrix, which is checked and indexed
once per run (``losses.Truth``). A candidate's fitness is
its exclusive hypervolume contribution within its own generation: the
volume of loss space it alone dominates among the population's TRAINING
loss vectors, bounded by the unit reference vector. Validation losses go
into the archives (full non-dominated front plus per-loss bests) and never
touch fitness; the test split is scored by ``hvml train``, not here.

Every contribution is exact, and all of a generation's come from one sweep
(``pareto.exact_contributions``), so fitness draws no random numbers: the
population sampler is the loop's only random stream. Everything derives from
one root seed, so repeats are bit-identical and a resumed run equals an
uninterrupted one.
"""

from __future__ import annotations

import json
import os
import typing
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import cmaes, losses, model, pareto, seeds
from .data import Dataset
from .errors import ConfigError, DimensionError, ParseError
from .losses import LossVector

LOSS_KEYS = ("l1", "l2", "l3", "l4")

STATE_FILE = "state.npz"
CURVES_HEADER = ["epoch", "candidate", "split", "l1", "l2", "l3", "l4", "fitness"]


def _setting(default, help: str, low=None):
    """A TrainConfig field: its default, its flag help and its lowest usable value."""
    return field(default=default, metadata={"help": help, "low": low})


@dataclass(frozen=True)
class TrainConfig:
    """The settings of a training run, in one table: per field its type (the annotation),
    default, flag help and lowest usable value. The CLI flags and ``check_json`` derive from it."""

    epochs: int = _setting(750, "epochs to train in total", low=0)
    embedding: int = _setting(20, "embedding dimension C", low=1)
    seed: int = _setting(0, "root seed (auto-generated and recorded if absent)")
    threshold: float = _setting(0.5, "decision threshold of the losses, in (0, 1)")
    sigma: float = _setting(0.3, "initial step size of the search", low=0)
    lambda_pop: int | None = _setting(None, "population size (default from L)", low=2)
    mu: int | None = _setting(None, "parents per generation, below the population size", low=1)
    c_cov: float | None = _setting(None, "covariance learning rate in [0, 1]", low=0)
    archive_cap: int = _setting(512, "most points the validation archive keeps", low=1)

    def __post_init__(self):
        """Refuse every value that no run could use, so a run is refused
        before it writes anything; ``mu`` against a default population size
        needs the parameter count and is checked by ``initial_state``."""
        for f in fields(self):
            low, value = f.metadata["low"], getattr(self, f.name)
            if low is not None and value is not None and value < low:
                raise ConfigError(f"{f.name} must be >= {low}, got {value}")
        if self.mu is not None and self.lambda_pop is not None and self.mu >= self.lambda_pop:
            raise ConfigError(f"mu must be below lambda_pop, got mu={self.mu} "
                              f"lambda_pop={self.lambda_pop}")
        if self.c_cov is not None and self.c_cov > 1.0:
            raise ConfigError(f"c_cov must lie in [0, 1], got {self.c_cov}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie in (0, 1)")


FIELD_TYPES = typing.get_type_hints(TrainConfig)


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field type: a bool is not an int, an int is
    a float, None fits only an optional field and a list only a list type."""
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, typing.get_args(hint)[0]) for v in value)
    if not isinstance(hint, type):
        return any(_fits(value, h) for h in typing.get_args(hint))   # an optional type
    fits = isinstance(value, (int, float) if hint is float else hint)
    return fits and (hint is bool or not isinstance(value, bool))


def check_json(values: dict, path, types: dict = FIELD_TYPES) -> None:
    """Refuse, as ``ParseError`` naming the JSON file ``path`` and the key, a
    config that holds a key not in ``types`` (by default the TrainConfig
    fields) or a value that does not fit its key's type."""
    if not isinstance(values, dict):
        raise ParseError("config must be a JSON object", path)
    unknown = sorted(set(values) - set(types))
    if unknown:
        raise ParseError(f"unknown config key(s) {', '.join(unknown)}", path)
    for key, value in values.items():
        hint = types[key]
        if not _fits(value, hint):
            name = hint.__name__ if isinstance(hint, type) else hint
            raise ParseError(f"config key {key} must be {name}, got {value!r}", path)


@dataclass
class CandidateRecord:
    """Per-candidate curve point: losses on both splits plus the fitness."""

    epoch: int
    candidate: int
    train: LossVector
    train_bce: float
    validation: LossVector
    validation_bce: float
    fitness: float


@dataclass
class Incumbent:
    params: model.ModelParams
    validation: LossVector
    validation_bce: float
    epoch: int
    candidate: int


@dataclass
class TrainState:
    """Everything the loop carries between epochs (and into checkpoints)."""

    cma: cmaes.CmaState
    shape: model.ModelShape
    epoch: int
    incumbent: Incumbent
    best_per_loss: dict[str, Incumbent]
    archive: pareto.Front
    curves: list[CandidateRecord] = field(default_factory=list)
    archive_hv: list[float] = field(default_factory=list)


@dataclass
class TrainResult:
    """The final loop state and, taken from it, the incumbent, archive and curves."""

    final: Incumbent
    archive: pareto.Front
    curves: list[CandidateRecord]
    archive_hv: list[float]
    state: TrainState


def evaluate(params: model.ModelParams, dataset: Dataset, split: str,
             threshold: float = 0.5) -> tuple[LossVector, float]:
    """Loss vector and BCE of a model on one split of a dataset."""
    x, y = dataset.rows(split)
    return _split_losses(model.forward(params, x), losses.Truth(y), threshold)


def _split_losses(scores, truth: losses.Truth, threshold: float) -> tuple[LossVector, float]:
    """Loss vector and BCE of one split's scores; the scores are checked once."""
    checked = losses.Scores(scores)
    return losses.loss_vector(checked, truth, threshold), losses.bce(checked, truth)


def _prune_archive(front: pareto.Front, cap: int) -> pareto.Front:
    """Drop the smallest exact contribution first until the front fits."""
    while len(front) > cap:
        drop = int(np.argmin(pareto.exact_contributions(front)[1]))
        keep = [i for i in range(len(front)) if i != drop]
        front = pareto.Front(front.points[keep], tuple(front.tags[i] for i in keep))
    return front


def _initial_cma(shape: model.ModelShape, config: TrainConfig) -> cmaes.CmaState:
    """The search distribution before epoch 1; its constants (sigma, lambda,
    mu, c_cov) come from the config and the parameter count alone."""
    return cmaes.CmaState.initial(shape.n_params, sigma=config.sigma,
                                  lambda_pop=config.lambda_pop, mu=config.mu, c_cov=config.c_cov)


def initial_state(dataset: Dataset, config: TrainConfig) -> TrainState:
    """The state before epoch 1: the initial search distribution, and the
    neutral model at its mean as incumbent, per-loss best and archive."""
    shape = model.ModelShape(d=dataset.d, c=config.embedding, k=dataset.k)
    cma = _initial_cma(shape, config)
    params0 = model.ModelParams(cma.mean.copy(), shape)
    val_lv, val_bce = evaluate(params0, dataset, "validation", config.threshold)
    seed0 = Incumbent(params0, val_lv, val_bce, epoch=0, candidate=-1)
    archive = pareto.Front([val_lv], ("e0",))
    return TrainState(cma=cma, shape=shape, epoch=0, incumbent=seed0,
                      best_per_loss=dict.fromkeys(LOSS_KEYS, seed0),
                      archive=archive, archive_hv=[pareto.exact_hypervolume(archive)])


def train(dataset: Dataset, config: TrainConfig,
          resume_state: TrainState | None = None) -> TrainResult:
    """Run the optimization loop from ``resume_state`` (a loaded checkpoint
    or ``initial_state``'s result; built here when None) and return the final
    state with its incumbent, archive and curves. The loop works on a copy,
    so the given state is left as it was. The stacked features and each
    split's labels are checked once, before epoch 1."""
    if dataset.split is None:
        raise ConfigError("dataset must be split before training")
    state = resume_state if resume_state is not None else initial_state(dataset, config)
    state = replace(state, best_per_loss=dict(state.best_per_loss), curves=list(state.curves),
                    archive_hv=list(state.archive_hv))
    x_tr, y_tr = dataset.rows("train")
    x_va, y_va = dataset.rows("validation")
    features = model.Features(np.concatenate([x_tr, x_va]), state.shape)
    n_tr = x_tr.shape[0]
    truth_tr, truth_va = losses.Truth(y_tr), losses.Truth(y_va)

    def eval_candidate(p):
        scores = model.forward(p, features)
        return (_split_losses(scores[:n_tr], truth_tr, config.threshold),
                _split_losses(scores[n_tr:], truth_va, config.threshold))

    cma = state.cma
    for epoch in range(state.epoch + 1, config.epochs + 1):
        population = cmaes.sample_population(
            cma, seeds.seed_sequence(config.seed, seeds.STREAM_SAMPLE, epoch))
        params = [model.ModelParams(theta, state.shape) for theta in population]

        evals = [eval_candidate(p) for p in params]
        train_vecs = np.array([np.asarray(tr[0]) for tr, _ in evals])
        val = np.array([(*va_lv, va_bce) for _, (va_lv, va_bce) in evals])  # l1-l3, BCE

        # fitness: each candidate's exclusive contribution among the
        # generation's own training loss vectors, bounded by the unit vector.
        # Scoped to the generation, the front is never empty; contributions
        # against the all-time archive starve to zero once it outruns the
        # distribution.
        tags = tuple(str(i) for i in range(len(params)))
        fitness = pareto.exact_contributions(pareto.Front(train_vecs, tags))[1]

        # archives and curves use validation losses only
        for i, ((tr_lv, tr_bce), (va_lv, va_bce)) in enumerate(evals):
            state.curves.append(CandidateRecord(
                epoch=epoch, candidate=i, train=tr_lv, train_bce=tr_bce,
                validation=va_lv, validation_bce=va_bce, fitness=float(fitness[i])))
        # a per-loss best moves to the generation's first lowest value only
        # when that is strictly below the value held
        for j, key in enumerate(LOSS_KEYS):
            i, held = int(np.argmin(val[:, j])), state.best_per_loss[key]
            if val[i, j] < (*held.validation, held.validation_bce)[j]:
                state.best_per_loss[key] = Incumbent(params[i], *evals[i][1],
                                                     epoch=epoch, candidate=i)
        val_pairs = [(val[i, :3], f"e{epoch}c{i}") for i in range(len(params))]
        state.archive = pareto.update_reference_set(state.archive, val_pairs)
        state.archive = _prune_archive(state.archive, config.archive_cap)
        state.archive_hv.append(pareto.exact_hypervolume(state.archive))

        # distribution update from the top-mu by fitness (ties: candidate order)
        order = np.argsort(-fitness, kind="stable")
        cma = cmaes.evolve(cma, population[order[: cma.mu]])

        best_i = int(order[0])
        state.incumbent = Incumbent(params[best_i], *evals[best_i][1],
                                    epoch=epoch, candidate=best_i)
        state.cma = cma
        state.epoch = epoch

    return TrainResult(final=state.incumbent, archive=state.archive, curves=state.curves,
                       archive_hv=state.archive_hv, state=state)


def emit_curves(curves: list[CandidateRecord], path) -> None:
    """Write the per-candidate loss trajectories as CSV: one row per candidate
    per split per epoch."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CURVES_HEADER) + "\n")
        for rec in curves:
            for split, lv, b in (("train", rec.train, rec.train_bce),
                                 ("validation", rec.validation, rec.validation_bce)):
                fh.write(f"{rec.epoch},{rec.candidate},{split},"
                         f"{lv.l1:.17g},{lv.l2:.17g},{lv.l3:.17g},{b:.17g},{rec.fitness:.17g}\n")


# ---------------------------------------------------------------------------
# checkpointing

# a checkpoint's candidate record row: epoch, candidate, the train l1-l3 and
# BCE, the validation l1-l3 and BCE, fitness
CURVE_COLUMNS = 11
META_TYPES = {"epoch": int, "shape": list[int], "config": dict}


def save_checkpoint(state: TrainState, config: TrainConfig, out_dir) -> None:
    """Write a resumable checkpoint. ``state.npz`` holds all of it, and only
    what training changes: a ``meta`` JSON string (epoch, model shape,
    config), the search mean and update vectors, the archive arrays, the
    incumbent and per-loss bests (``params`` and ``params_meta``: row 0 the
    incumbent, then one row per ``LOSS_KEYS`` entry) and the curve records.
    The optimizer's constants are not stored: they follow from the config.
    ``state.npz`` is the only file written: ``hvml eval`` reads the incumbent
    from it too.

    The file is written under a temporary name and renamed over the old one,
    so the one rename commits the checkpoint: a failed save leaves the
    previous ``state.npz`` whole, and no file is ever half-written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    held = [state.incumbent, *(state.best_per_loss[k] for k in LOSS_KEYS)]
    meta = {"epoch": state.epoch, "shape": [state.shape.d, state.shape.c, state.shape.k],
            "config": asdict(config)}
    tmp = out / (STATE_FILE + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh, meta=json.dumps(meta),
                mean=state.cma.mean, cov_steps=state.cma.cov_steps,
                archive_points=state.archive.points,
                archive_tags=np.array(state.archive.tags, dtype=str),
                archive_hv=np.array(state.archive_hv),
                params=np.array([inc.params.flat for inc in held]),
                params_meta=np.array([[*inc.validation, inc.validation_bce, inc.epoch,
                                       inc.candidate] for inc in held]),
                curves=np.array([[r.epoch, r.candidate, *r.train, r.train_bce, *r.validation,
                                  r.validation_bce, r.fitness] for r in state.curves],
                                dtype=float).reshape(-1, CURVE_COLUMNS),
            )
        os.replace(tmp, out / STATE_FILE)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(out_dir) -> tuple[TrainState, TrainConfig]:
    """Read the checkpoint ``save_checkpoint`` wrote to ``out_dir``, from its
    ``state.npz`` alone. The optimizer's constants are rebuilt from the
    config, as ``initial_state`` builds them; the entries a checkpoint of the
    previous format also holds for them (and ``best_keys``) are ignored.
    Object arrays are refused (``allow_pickle=False``), so loading a file
    never runs code. A file that is not such a checkpoint raises
    ``ParseError`` naming it: a missing array (a checkpoint of the former
    three-file format has no ``meta``), a ``meta`` that is not JSON or whose
    epoch, shape or config does not fit its type, a config that
    ``TrainConfig`` or the optimizer refuses, or an array whose shape does
    not fit the model shape and the epoch (``mean`` needs one entry per
    parameter, ``cov_steps`` ``epoch`` rows, ``archive_hv`` ``epoch + 1``
    entries and ``curves`` ``epoch × lambda_pop`` rows)."""
    path = Path(out_dir) / STATE_FILE
    try:
        with np.load(path, allow_pickle=False) as blob:
            a = dict(blob)
        meta = json.loads(a["meta"].item())
        check_json(meta, path, META_TYPES)
        check_json(meta["config"], path)
        config = TrainConfig(**meta["config"])
        shape = model.ModelShape(*meta["shape"])
        cma, epoch, n_held = _initial_cma(shape, config), meta["epoch"], len(LOSS_KEYS) + 1
        for name, need in (("mean", (shape.n_params,)), ("cov_steps", (epoch, shape.n_params)),
                           ("archive_hv", (epoch + 1,)),
                           ("curves", (epoch * cma.lambda_pop, CURVE_COLUMNS)),
                           ("params", (n_held, shape.n_params)), ("params_meta", (n_held, 6))):
            if a[name].shape != need:
                raise ParseError(f"{name} has shape {a[name].shape}, a checkpoint at epoch "
                                 f"{epoch} of model {shape} needs {need}", path)
        cma = replace(cma, mean=a["mean"], cov_steps=a["cov_steps"])
        held = [Incumbent(model.ModelParams(flat, shape), LossVector(*row[:3]), float(row[3]),
                          epoch=int(row[4]), candidate=int(row[5]))
                for flat, row in zip(a["params"], a["params_meta"])]
        curves = [CandidateRecord(int(r[0]), int(r[1]), LossVector(*r[2:5]), r[5],
                                  LossVector(*r[6:9]), r[9], r[10]) for r in a["curves"].tolist()]
        state = TrainState(
            cma=cma, shape=shape, epoch=epoch, incumbent=held[0],
            best_per_loss=dict(zip(LOSS_KEYS, held[1:])),
            archive=pareto.Front(a["archive_points"], tuple(str(t) for t in a["archive_tags"])),
            curves=curves, archive_hv=list(a["archive_hv"]))
    except (KeyError, ValueError, TypeError, EOFError, ConfigError, DimensionError,
            zipfile.BadZipFile) as exc:
        raise ParseError(f"not a readable checkpoint: {exc}", path) from exc
    return state, config
