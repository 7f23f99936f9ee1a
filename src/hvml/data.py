"""Dataset ingestion, normalization, stratified splitting, and statistics.

Datasets are dense: an N x D float feature matrix paired with an N x K
binary label matrix. Two on-disk formats are supported: multi-label ARFF in
the Mulan/MEKA convention (labels as {0,1} nominals grouped at the front or
back of the attribute list, dense or sparse data rows) and a pair of CSV
files (features, labels). An ARFF data block becomes floats through one
numpy cast of all its cells; only the distinct strings of label and {0,1}
columns are read as text.

Splitting follows iterative stratification: 30% of samples to the test set,
then 20% of the remainder to validation, balancing per-fold label counts
label by label, rarest label first; each label's round selects its
unassigned positives with one mask and visits only those. Normalization is
min-max to [0, 1] per numeric column using training-split statistics only;
other splits are clipped into [0, 1], and binary columns pass through
untouched.
"""

from __future__ import annotations

import csv
import json
import logging
import os
from dataclasses import dataclass, replace
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError
from . import seeds

logger = logging.getLogger(__name__)

TEST_FRACTION = 0.30
VALIDATION_FRACTION = 0.20  # of the non-test remainder

NUMERIC = "numeric"
BINARY = "binary"


@dataclass(frozen=True)
class SplitIndices:
    """Disjoint, exhaustive train/validation/test row indices."""

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "validation", "test"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))

    def check(self, n: int) -> "SplitIndices":
        parts = [self.train, self.validation, self.test]
        combined = np.concatenate(parts)
        if len(np.unique(combined)) != len(combined):
            raise ConfigError("split indices overlap")
        if not np.array_equal(np.sort(combined), np.arange(n)):
            raise ConfigError(f"split indices do not cover 0..{n - 1} exactly")
        return self


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, binary labels, per-column kinds, and optional split."""

    x: np.ndarray
    y: np.ndarray
    feature_kinds: tuple[str, ...]
    name: str = "dataset"
    split: SplitIndices | None = None
    imputed: int = 0  # count of missing values filled during loading

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y)
        if x.ndim != 2 or y.ndim != 2:
            raise ParseError(f"features and labels must be 2-D, got {x.shape} and {y.shape}")
        if x.shape[0] != y.shape[0]:
            raise ParseError(f"row count mismatch: {x.shape[0]} feature rows vs {y.shape[0]} label rows")
        if not np.isin(y, (0, 1)).all():
            raise ParseError("labels must contain only 0/1 entries")
        if len(self.feature_kinds) != x.shape[1]:
            raise ParseError("one feature kind per column required")
        x.setflags(write=False)
        y = y.astype(np.int8)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "feature_kinds", tuple(self.feature_kinds))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def k(self) -> int:
        return self.y.shape[1]

    def with_split(self, split: SplitIndices) -> "Dataset":
        return replace(self, split=split.check(self.n))

    def rows(self, which: str) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) restricted to one split part: 'train', 'validation', or 'test'."""
        if self.split is None:
            raise ConfigError("dataset has no split; call stratified_split first")
        idx = getattr(self.split, which)
        if idx.size == 0:
            raise ConfigError(f"{which} split is empty")
        return self.x[idx], self.y[idx]


@dataclass(frozen=True)
class DatasetStats:
    """Size statistics: label cardinality and feature-label interaction figures."""

    n: int
    d: int
    k: int
    dk: int
    cardinality: float   # mean positive labels per instance
    dispersion: float | None   # dk / cardinality; None when no sample has a positive label
    interaction: float   # d * cardinality


def compute_stats(dataset: Dataset) -> DatasetStats:
    card = float(dataset.y.sum(axis=1).mean())
    dk = dataset.d * dataset.k
    return DatasetStats(
        n=dataset.n,
        d=dataset.d,
        k=dataset.k,
        dk=dk,
        cardinality=card,
        dispersion=dk / card if card > 0 else None,
        interaction=dataset.d * card,
    )


# ---------------------------------------------------------------------------
# ARFF loading

def _parse_attribute(line: str, path, lineno: int) -> tuple[str, object]:
    body = (line.split(None, 1) + [""])[1].strip()   # "" when the line names no attribute
    if body.startswith(("'", '"')):
        name, closed, rest = body[1:].partition(body[0])
        if not closed:
            raise ParseError(f"unterminated attribute name: {line!r}", path, lineno)
    else:
        parts = body.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"malformed @attribute line: {line!r}", path, lineno)
        name, rest = parts
    rest = rest.strip()
    if rest.startswith("{"):
        if not rest.endswith("}"):
            raise ParseError(f"unterminated nominal value list for attribute {name!r}", path, lineno)
        values = [v.strip().strip("'\"") for v in rest[1:-1].split(",")]
        return name, tuple(values)
    kind = (rest.split() or [""])[0].lower()
    if kind in ("numeric", "real", "integer"):
        return name, NUMERIC
    raise ParseError(f"unsupported attribute type {rest!r} for attribute {name!r}", path, lineno)


def load_arff(path, label_count: int, labels_at: str = "back", name: str | None = None) -> Dataset:
    """Load a Mulan/MEKA-style multi-label ARFF file.

    label_count attributes at the chosen end of the attribute list are the
    labels and must be {0,1}-valued. Dense and sparse ({index value, ...})
    data rows are both accepted; missing values ('?') are imputed to the
    column mean (numeric) or mode (binary) and counted in ``imputed``
    (features only). A numeric cell that is not a finite number is refused.
    Labels are checked before features, and the first column at fault is
    the one named.
    """
    if labels_at not in ("front", "back"):
        raise ConfigError(f"labels_at must be 'front' or 'back', got {labels_at!r}")
    path = Path(path)
    attrs: list[tuple[str, object]] = []
    rows: list[list[str]] = []        # cells as written, surrounding whitespace kept
    holes: dict[int, list[int]] = {}  # row -> attributes whose cell is '?'
    relation = None
    in_data = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if not in_data:
                low = line.lower()
                if low.startswith("@relation"):
                    parts = line.split(None, 1)
                    relation = parts[1].strip().strip("'\"") if len(parts) > 1 else "arff"
                elif low.startswith("@attribute"):
                    attrs.append(_parse_attribute(line, path, lineno))
                elif low.startswith("@data"):
                    if not attrs:
                        raise ParseError("@data before any @attribute", path, lineno)
                    in_data = True
                else:
                    raise ParseError(f"unrecognized header line: {line!r}", path, lineno)
                continue
            cells = _parse_arff_row(line, len(attrs), path, lineno)
            if "?" in line:
                at = [j for j, c in enumerate(cells) if c.strip() == "?"]
                if at:
                    holes[len(rows)] = at
            rows.append(cells)
    if not in_data:
        raise ParseError("no @data section found", path)
    if not rows:
        raise ParseError("no data rows found", path)
    n_attrs = len(attrs)
    if not 1 <= label_count < n_attrs:
        raise ParseError(
            f"label_count {label_count} invalid for {n_attrs} attributes", path
        )
    if labels_at == "back":
        label_idx, feature_idx = range(n_attrs - label_count, n_attrs), range(n_attrs - label_count)
    else:
        label_idx, feature_idx = range(label_count), range(label_count, n_attrs)

    def distinct(col: int) -> set[str]:
        return {c.strip() for c in set(map(itemgetter(col), rows))}

    for col in label_idx:
        attr_name, attr_type = attrs[col]
        if isinstance(attr_type, tuple) and not set(attr_type) <= {"0", "1"}:
            raise ParseError(f"label attribute {attr_name!r} is not {{0,1}}-valued: {sorted(attr_type)}", path)
        bad = sorted(distinct(col) - {"?", "0", "1", "0.0", "1.0"})
        if bad:
            raise ParseError(f"label attribute {attr_name!r} has non-binary value {bad[0]!r}", path)

    missing = np.zeros((len(rows), n_attrs), dtype=bool)
    numbers = list(rows)  # the rows as the cast reads them: each '?' as 'nan'
    for i, cols in holes.items():
        missing[i, cols] = True
        numbers[i] = ["nan" if m else c for c, m in zip(rows[i], missing[i].tolist())]
    try:
        block = np.array(numbers, dtype=float)
        cast = True
    except ValueError:  # some cell is not a number: cast column by column to name it
        block = np.empty((len(rows), n_attrs))
        cast = False

    def column(col: int, binary: bool) -> np.ndarray:
        """Column col of the block with each '?' cell set to the mean of the
        observed cells (0 when none is observed), rounded for a {0,1} column.
        Raises ValueError when a cell is not a number."""
        if not cast:
            block[:, col] = np.array([r[col].strip() for r in numbers], dtype=float)
        vals = block[:, col]
        hole = missing[:, col]
        if hole.any():
            observed = vals[~hole]
            mean = observed.mean() if observed.size else 0.0
            vals[hole] = round(mean) if binary else mean
        return vals

    for col in label_idx:
        column(col, binary=True)
    kinds: list[str] = []
    for col in feature_idx:
        attr_name, attr_type = attrs[col]
        if isinstance(attr_type, tuple):
            if not set(attr_type) <= {"0", "1"}:
                raise ParseError(
                    f"nominal feature {attr_name!r} is not binary: {sorted(attr_type)}", path
                )
            try:
                binary = {float(c) for c in distinct(col) - {"?"}} <= {0.0, 1.0}
            except ValueError:
                binary = False
            if not binary:
                raise ParseError(f"binary feature {attr_name!r} has non-binary data", path)
            column(col, binary=True)
            kinds.append(BINARY)
        else:
            try:
                vals = column(col, binary=False)
            except ValueError:
                raise ParseError(f"non-numeric value in numeric attribute {attr_name!r}", path) from None
            if not np.isfinite(vals).all():
                raise ParseError(f"non-finite value in numeric attribute {attr_name!r}", path)
            kinds.append(NUMERIC)
    imputed = int(missing[:, feature_idx.start:feature_idx.stop].sum())
    if imputed:
        logger.warning("%s: imputed %d missing feature values", path, imputed)
    return Dataset(x=block[:, feature_idx.start:feature_idx.stop],
                   y=block[:, label_idx.start:label_idx.stop].astype(np.int8),
                   feature_kinds=tuple(kinds), name=name or relation or path.stem,
                   imputed=imputed)


def _parse_arff_row(line: str, n_attrs: int, path, lineno: int) -> list[str]:
    """The cells of one data line, with the whitespace around a dense line's
    cells kept: the float cast skips it, and the string checks strip it."""
    if line.startswith("{"):
        if not line.endswith("}"):
            raise ParseError("unterminated sparse data row", path, lineno)
        row = ["0"] * n_attrs
        body = line[1:-1].strip()
        if body:
            for item in body.split(","):
                parts = item.split()
                if len(parts) != 2 or not parts[0].isdecimal():
                    raise ParseError(f"malformed sparse entry {item!r}", path, lineno)
                idx = int(parts[0])
                if not 0 <= idx < n_attrs:
                    raise ParseError(f"sparse index {idx} out of range", path, lineno)
                row[idx] = parts[1]
        return row
    # only a quoted cell needs the csv quoting rules
    cells = next(csv.reader([line], skipinitialspace=True)) if '"' in line else line.split(",")
    if len(cells) != n_attrs:
        raise ParseError(f"row has {len(cells)} values, expected {n_attrs}", path, lineno)
    return cells


# ---------------------------------------------------------------------------
# CSV loading

def _read_csv_matrix(path) -> np.ndarray:
    """Float matrix from a CSV file; a leading non-numeric row is treated as a
    header. A ragged row or a cell that is not a finite number raises
    ParseError at its line."""
    path = Path(path)
    rows: list[tuple[int, list[str]]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for cells in reader:
            if any(c.strip() for c in cells):
                rows.append((reader.line_num, [c.strip() for c in cells]))
    if not rows:
        raise ParseError("empty file", path)
    try:
        [float(c) for c in rows[0][1]]
    except ValueError:
        rows = rows[1:]  # a header
    if not rows:
        raise ParseError("no data rows (header only)", path)
    width = len(rows[0][1])
    data = np.empty((len(rows), width))
    for i, (lineno, cells) in enumerate(rows):
        if len(cells) != width:
            raise ParseError(f"ragged row: {len(cells)} values, expected {width}", path, lineno)
        try:
            data[i] = [float(c) for c in cells]
        except ValueError as exc:
            raise ParseError(str(exc), path, lineno) from None
        finite = np.isfinite(data[i])
        if not finite.all():
            raise ParseError(f"non-finite value {cells[int(np.argmin(finite))]!r}", path, lineno)
    return data


def load_csv(features_path, labels_path, name: str | None = None) -> Dataset:
    """Load a dataset from paired CSV files (one row per sample in each)."""
    x = _read_csv_matrix(features_path)
    y = _read_csv_matrix(labels_path)
    if x.shape[0] != y.shape[0]:
        raise ParseError(
            f"row count mismatch: {x.shape[0]} feature rows vs {y.shape[0]} label rows",
            Path(features_path),
        )
    if not np.isin(y, (0.0, 1.0)).all():
        raise ParseError("labels must contain only 0/1 entries", Path(labels_path))
    kinds = tuple(BINARY if np.isin(x[:, j], (0.0, 1.0)).all() else NUMERIC
                  for j in range(x.shape[1]))
    return Dataset(x=x, y=y.astype(np.int8), feature_kinds=kinds,
                   name=name or Path(features_path).stem)


# ---------------------------------------------------------------------------
# manifest

def load_manifest(path) -> Dataset:
    """Load a dataset described by a JSON manifest.

    Keys: name, label_count + labels_at + arff_path for ARFF, or
    csv_paths: [features, labels]. Paths may use environment variables and
    are resolved relative to the manifest file.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest is not valid JSON: {exc}", path) from None
    if not isinstance(manifest, dict):
        raise ParseError("manifest must hold a JSON object", path)

    def resolve(p):
        p = Path(os.path.expandvars(os.path.expanduser(str(p))))
        return p if p.is_absolute() else path.parent / p

    name = manifest.get("name")
    if "arff_path" in manifest:
        if type(manifest.get("label_count")) is not int:   # a bool is not a count
            raise ParseError("ARFF manifest requires an integer label_count", path)
        if manifest.get("labels_at", "back") not in ("front", "back"):
            raise ParseError(f"labels_at must be 'front' or 'back', got "
                             f"{manifest['labels_at']!r}", path)
        return load_arff(resolve(manifest["arff_path"]), manifest["label_count"],
                         labels_at=manifest.get("labels_at", "back"), name=name)
    if "csv_paths" in manifest:
        paths = manifest["csv_paths"]
        if not isinstance(paths, (list, tuple)) or len(paths) != 2:
            raise ParseError("csv_paths must be [features_csv, labels_csv]", path)
        return load_csv(resolve(paths[0]), resolve(paths[1]), name=name)
    raise ParseError("manifest needs either arff_path or csv_paths", path)


# ---------------------------------------------------------------------------
# normalization and splitting

def normalize(dataset: Dataset) -> Dataset:
    """Min-max scale numeric columns to [0, 1].

    Statistics come from the training split when the dataset has one (all
    rows otherwise); validation/test values outside the training range are
    clipped. Columns constant on the statistics rows map to all zeros.
    Binary columns are untouched.
    """
    stat_rows = dataset.split.train if dataset.split is not None else np.arange(dataset.n)
    x = np.array(dataset.x)
    for j, kind in enumerate(dataset.feature_kinds):
        if kind == BINARY:
            continue
        col = x[:, j]
        lo = col[stat_rows].min()
        hi = col[stat_rows].max()
        if hi <= lo:
            x[:, j] = 0.0
        else:
            x[:, j] = np.clip((col - lo) / (hi - lo), 0.0, 1.0)
    return replace(dataset, x=x)


def _iterative_stratify(y: np.ndarray, proportions, rng: np.random.Generator) -> np.ndarray:
    """Assign each sample to one of len(proportions) folds, balancing per-fold
    label counts label by label, rarest label first.

    Samples are visited in one seeded permutation. Each round masks out the
    unassigned positives of the label with the fewest of them (the lower
    index on a tie) and gives each, in visiting order, to the fold that wants
    the most of that label; ties go to the fold with the most remaining
    capacity, then to a seeded draw. Samples with no positive label come
    last, each to the fold with the most remaining capacity (ties: a seeded
    draw)."""
    n = y.shape[0]
    props = np.asarray(proportions, dtype=float)
    props = props / props.sum()
    capacity = (props * n).tolist()
    label_desired = props[:, None] * y.sum(axis=0)[None, :]
    priority = rng.permutation(n)
    positives = y[priority] > 0                  # rows in visiting order
    fold_of = np.full(n, -1, dtype=np.int64)     # in visiting order
    remaining = positives.sum(axis=0)

    def assign(s: int, folds) -> int:
        """Give sample s to the one of folds with the most remaining capacity
        (ties: a seeded draw)."""
        most = max(capacity[f] for f in folds)
        best = [f for f in folds if capacity[f] == most]
        j = best[0] if len(best) == 1 else int(rng.choice(np.array(best)))
        fold_of[s] = j
        capacity[j] -= 1.0
        return j

    while remaining.any():
        candidates = np.flatnonzero(remaining > 0)
        label = candidates[np.argmin(remaining[candidates])]
        picked = np.flatnonzero((fold_of < 0) & positives[:, label])
        want = label_desired[:, label].tolist()
        for s in picked.tolist():
            top = max(want)
            j = assign(s, [f for f, w in enumerate(want) if w == top])
            want[j] -= 1.0
            # one sample at a time: subtracting a count at once can round
            # differently once the wanted count is below 0
            label_desired[j] -= positives[s]
        remaining -= positives[picked].sum(axis=0)
    for s in np.flatnonzero(fold_of < 0).tolist():   # samples with no positive label
        assign(s, range(len(capacity)))
    folds = np.empty(n, dtype=np.int64)
    folds[priority] = fold_of
    return folds


def stratified_split(dataset: Dataset, seed: int) -> SplitIndices:
    """Iteratively stratified split: 30% test, then 20% of the rest validation."""
    if dataset.n < 10:
        raise ConfigError(f"need at least 10 samples to split, got {dataset.n}")
    rng = seeds.rng_for(seed, seeds.STREAM_SPLIT)
    stage1 = _iterative_stratify(dataset.y, (1.0 - TEST_FRACTION, TEST_FRACTION), rng)
    test = np.flatnonzero(stage1 == 1)
    rest = np.flatnonzero(stage1 == 0)
    stage2 = _iterative_stratify(dataset.y[rest],
                                 (1.0 - VALIDATION_FRACTION, VALIDATION_FRACTION), rng)
    train = rest[stage2 == 0]
    validation = rest[stage2 == 1]
    return SplitIndices(np.sort(train), np.sort(validation), np.sort(test)).check(dataset.n)
