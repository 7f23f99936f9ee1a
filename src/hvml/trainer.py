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
touch fitness; the test split is only evaluated once at the end.

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
MODEL_FILE = "incumbent.model"
META_FILE = "checkpoint.json"
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
    config: TrainConfig
    shape: model.ModelShape
    final: Incumbent
    final_test: LossVector
    final_test_bce: float
    best_per_loss: dict[str, Incumbent]
    best_per_loss_test: dict[str, tuple[LossVector, float]]
    archive: pareto.Front
    curves: list[CandidateRecord]
    archive_hv: list[float]
    epochs_run: int
    state: "TrainState" = None  # final loop state, for checkpointing


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


def _update_bests(bests: dict[str, Incumbent], cand: Incumbent) -> None:
    values = dict(zip(LOSS_KEYS, (*cand.validation, cand.validation_bce)))
    for key in LOSS_KEYS:
        cur = bests.get(key)
        cur_val = None if cur is None else dict(zip(LOSS_KEYS, (*cur.validation, cur.validation_bce)))[key]
        if cur is None or values[key] < cur_val:
            bests[key] = cand


def initial_state(dataset: Dataset, config: TrainConfig) -> TrainState:
    """The state before epoch 1: the initial search distribution, and the
    neutral model at its mean as incumbent, per-loss best and archive."""
    shape = model.ModelShape(d=dataset.d, c=config.embedding, k=dataset.k)
    cma = cmaes.CmaState.initial(
        shape.n_params, sigma=config.sigma, lambda_pop=config.lambda_pop,
        mu=config.mu, c_cov=config.c_cov)
    params0 = model.ModelParams(cma.mean.copy(), shape)
    val_lv, val_bce = evaluate(params0, dataset, "validation", config.threshold)
    seed0 = Incumbent(params0, val_lv, val_bce, epoch=0, candidate=-1)
    bests: dict[str, Incumbent] = {}
    _update_bests(bests, seed0)
    archive = pareto.Front([val_lv], ("e0",))
    return TrainState(cma=cma, shape=shape, epoch=0, incumbent=seed0, best_per_loss=bests,
                      archive=archive, archive_hv=[pareto.exact_hypervolume(archive)])


def train(dataset: Dataset, config: TrainConfig,
          resume_state: TrainState | None = None) -> TrainResult:
    """Run the optimization loop from ``resume_state`` (a loaded checkpoint
    or ``initial_state``'s result; built here when None) and return
    incumbents, archives, and curves. The loop works on a copy, so the given
    state is left as it was. The stacked features and each split's labels
    are checked once, before epoch 1."""
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
            cand = Incumbent(params[i], va_lv, va_bce, epoch=epoch, candidate=i)
            _update_bests(state.best_per_loss, cand)
        val_pairs = [(np.asarray(evals[i][1][0]), f"e{epoch}c{i}")
                     for i in range(len(params))]
        state.archive = pareto.update_reference_set(state.archive, val_pairs)
        state.archive = _prune_archive(state.archive, config.archive_cap)
        state.archive_hv.append(pareto.exact_hypervolume(state.archive))

        # distribution update from the top-mu by fitness (ties: candidate order)
        order = np.argsort(-fitness, kind="stable")
        cma = cmaes.evolve(cma, population[order[: cma.mu]])

        best_i = int(order[0])
        state.incumbent = Incumbent(params[best_i], evals[best_i][1][0],
                                    evals[best_i][1][1], epoch=epoch, candidate=best_i)
        state.cma = cma
        state.epoch = epoch

    final_test, final_test_bce = evaluate(state.incumbent.params, dataset, "test", config.threshold)
    best_test = {
        key: evaluate(inc.params, dataset, "test", config.threshold)
        for key, inc in state.best_per_loss.items()
    }
    return TrainResult(
        config=config, shape=state.shape,
        final=state.incumbent, final_test=final_test, final_test_bce=final_test_bce,
        best_per_loss=state.best_per_loss, best_per_loss_test=best_test,
        archive=state.archive, curves=state.curves, archive_hv=state.archive_hv,
        epochs_run=state.epoch, state=state,
    )


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


def read_curves(path) -> list[CandidateRecord]:
    """Parse a curves CSV back into records (inverse of emit_curves). A row
    with the wrong number of cells, a split other than train or validation,
    or a cell that is not a number raises ParseError at its line, and so
    does a file that lacks one of a candidate's two rows."""
    rows: dict[tuple[int, int], dict] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != CURVES_HEADER:
            raise ParseError(f"curves header must be {','.join(CURVES_HEADER)!r}, "
                             f"got {','.join(header)!r}", path, 1)
        for lineno, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if len(cells) != len(CURVES_HEADER) or cells[2] not in ("train", "validation"):
                raise ParseError(f"not a curves row: {line.strip()!r}", path, lineno)
            try:
                key = (int(cells[0]), int(cells[1]))
                l1, l2, l3, bce, fit = map(float, cells[3:])
            except ValueError as exc:
                raise ParseError(f"not a curves row: {exc}", path, lineno) from None
            entry = rows.setdefault(key, {"fitness": fit})
            entry[cells[2]] = (LossVector(l1, l2, l3), bce)
    out = []
    for (epoch, cand), entry in sorted(rows.items()):
        if len(entry) != 3:
            raise ParseError(f"epoch {epoch} candidate {cand} lacks its train or validation "
                             f"row", path)
        tr, tr_b = entry["train"]
        va, va_b = entry["validation"]
        out.append(CandidateRecord(epoch, cand, tr, tr_b, va, va_b, entry["fitness"]))
    return out


# ---------------------------------------------------------------------------
# checkpointing

def save_checkpoint(state: TrainState, config: TrainConfig, out_dir) -> None:
    """Write a resumable checkpoint: the incumbent in the binary model format,
    the optimizer/archive arrays, and a JSON sidecar with config and epoch.

    Every file is first written under a temporary name; only when all three
    are complete are they renamed over the previous checkpoint, so a failed
    save leaves that checkpoint as it was and no file is ever half-written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    best_keys = sorted(state.best_per_loss)
    meta = {"epoch": state.epoch, "shape": [state.shape.d, state.shape.c, state.shape.k],
            "config": asdict(config)}
    tmp = {name: out / (name + ".tmp") for name in (MODEL_FILE, STATE_FILE, META_FILE)}
    try:
        model.save_model(state.incumbent.params, tmp[MODEL_FILE])
        with open(tmp[STATE_FILE], "wb") as fh:
            np.savez_compressed(
                fh,
                mean=state.cma.mean, cov_steps=state.cma.cov_steps, sigma=state.cma.sigma,
                lambda_pop=state.cma.lambda_pop, mu=state.cma.mu,
                weights=state.cma.weights, c_cov=state.cma.c_cov,
                archive_points=state.archive.points,
                archive_tags=np.array(state.archive.tags, dtype=str),
                archive_hv=np.array(state.archive_hv),
                best_keys=np.array(best_keys, dtype=str),
                best_params=np.array([state.best_per_loss[k].params.flat for k in best_keys]),
                best_meta=np.array([[*state.best_per_loss[k].validation,
                                     state.best_per_loss[k].validation_bce,
                                     state.best_per_loss[k].epoch,
                                     state.best_per_loss[k].candidate] for k in best_keys]),
                incumbent_meta=np.array([*state.incumbent.validation,
                                         state.incumbent.validation_bce,
                                         state.incumbent.epoch, state.incumbent.candidate]),
            )
        tmp[META_FILE].write_text(json.dumps(meta, indent=2))
        for name, path in tmp.items():
            os.replace(path, out / name)
    finally:
        for path in tmp.values():
            path.unlink(missing_ok=True)


def load_checkpoint(out_dir) -> tuple[TrainState, TrainConfig]:
    """Read a checkpoint written by ``save_checkpoint``. Object arrays are
    refused (``allow_pickle=False``), so loading a file never runs code; a
    state file that is not such a checkpoint (an object array, a missing
    array, or arrays that do not fit the model shape) raises ``ParseError``
    naming it, and so does a sidecar that is not valid JSON or whose config
    or shape does not fit ``TrainConfig`` and ``ModelShape``."""
    out = Path(out_dir)
    meta_path = out / META_FILE
    try:
        meta = json.loads(meta_path.read_text())
        check_json(meta["config"], meta_path)
        config = TrainConfig(**meta["config"])
        shape = model.ModelShape(*meta["shape"])
        epoch = int(meta["epoch"])
    except (ValueError, KeyError, TypeError) as exc:   # JSONDecodeError is a ValueError
        raise ParseError(f"not a readable checkpoint config: {exc}", meta_path) from exc
    inc_params = model.load_model(out / MODEL_FILE)

    def unpack_meta(row, params):
        return Incumbent(params, LossVector(row[0], row[1], row[2]), float(row[3]),
                         epoch=int(row[4]), candidate=int(row[5]))

    path = out / STATE_FILE
    try:
        with np.load(path, allow_pickle=False) as blob:
            cma = cmaes.CmaState(
                mean=blob["mean"], cov_steps=blob["cov_steps"], sigma=float(blob["sigma"]),
                lambda_pop=int(blob["lambda_pop"]), mu=int(blob["mu"]),
                weights=blob["weights"], c_cov=float(blob["c_cov"]),
            )
            if cma.n_dims != shape.n_params:
                raise ValueError(f"mean has {cma.n_dims} entries, shape {shape} needs "
                                 f"{shape.n_params}")
            bests = {}
            for key, flat, row in zip(blob["best_keys"], blob["best_params"], blob["best_meta"]):
                bests[str(key)] = unpack_meta(row, model.ModelParams(flat, shape))
            state = TrainState(
                cma=cma, shape=shape, epoch=epoch,
                incumbent=unpack_meta(blob["incumbent_meta"], inc_params),
                best_per_loss=bests,
                archive=pareto.Front(blob["archive_points"],
                                     tuple(str(t) for t in blob["archive_tags"])),
                archive_hv=list(blob["archive_hv"]),
            )
    except (KeyError, ValueError, DimensionError, zipfile.BadZipFile) as exc:
        raise ParseError(f"not a readable checkpoint state: {exc}", path) from exc
    return state, config
