"""Multi-label loss functions.

Three losses form the optimization targets, all minimized on [0, 1]:

* ``l1`` hamming loss,
* ``l2`` one minus label-ranking average precision (LRAP),
* ``l3`` one minus micro-averaged F1.

Binary cross-entropy (``l4``) is computed alongside them for monitoring but
is never optimized. Conventions that are not forced by the definitions:

* binarization threshold 0.5, boundary inclusive (score == threshold -> 1);
* LRAP ranks from descending score; a label's rank is the count of labels
  scoring at least as high (competition "max" ranking, the reference
  implementation's tie rule, which keeps the metric inside [0, 1] - average
  ranks would push tied positives above 1); samples without positive labels
  are skipped;
* micro F1 of two all-negative matrices is 1 (no possible error occurred);
* BCE is the mean over samples of per-sample sums over labels, with scores
  clipped to [1e-7, 1 - 1e-7]; each entry takes one logarithm, of the clipped
  probability of its true value: log(p) at a positive, log1p(-p) at a negative.

Every loss takes plain matrices, which it checks on each call, or a
``Truth`` and ``Scores`` prepared once: the trainer checks and indexes each
split's labels once per run (``Truth``: 2-D, non-empty, 0/1) and each
candidate's score matrix once (``Scores``: 2-D, non-empty, finite, inside
[0, 1]), not once per loss. Prepared and plain inputs give bit-identical
losses.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, UndefinedMetricError

BCE_EPS = 1e-7
DEFAULT_THRESHOLD = 0.5


class LossVector(NamedTuple):
    """A point in [0,1]^3 objective space. Lower is better in every component."""

    l1: float  # hamming loss
    l2: float  # 1 - LRAP
    l3: float  # 1 - micro F1


def _as_2d(name: str, m, dtype=float) -> np.ndarray:
    a = np.asarray(m, dtype=dtype)
    if a.ndim != 2 or a.size == 0:
        raise DimensionError(f"{name} must be a non-empty 2-D matrix, got shape {a.shape}")
    return a


def _binary(name: str, m) -> np.ndarray:
    """A 0/1 matrix as booleans; a boolean matrix is binary by type and is
    only checked for shape."""
    if isinstance(m, np.ndarray) and m.dtype == bool:
        return _as_2d(name, m, bool)
    a = _as_2d(name, m)
    if not ((a == 0.0) | (a == 1.0)).all():
        raise DimensionError(f"{name} must contain only 0/1 entries")
    return a == 1.0


class Truth:
    """A binary label matrix, checked once and indexed for the losses.

    Holds the boolean matrix, the row and the flat (row * K + label) index
    of each positive entry in row-major order, the flat index of each
    negative entry, the truth row of each
    positive as a K x positives matrix, and each positive's LRAP weight
    1 / (positives in its row * rows with a positive), so that LRAP is the
    weighted sum of the positives' precisions. Every loss accepts a Truth
    wherever it accepts a plain truth matrix.
    """

    __slots__ = ("matrix", "rows", "flat", "neg_flat", "row_truth", "weights", "positives")

    def __init__(self, truth):
        self.matrix = _binary("truth", truth)
        self.flat = np.flatnonzero(self.matrix)
        self.neg_flat = np.flatnonzero(~self.matrix)
        self.rows = self.flat // self.matrix.shape[1]
        self.row_truth = np.ascontiguousarray(self.matrix[self.rows].T)
        self.positives = int(self.rows.size)
        per_row = np.count_nonzero(self.matrix, axis=1)
        counted = np.count_nonzero(per_row)
        self.weights = 1.0 / (per_row[self.rows] * counted) if counted else np.empty(0)


class Scores:
    """A score matrix checked once: 2-D, non-empty, finite, inside [0, 1].
    The score-based losses accept one wherever they accept a plain matrix.

    The range check is one min and one max: a NaN propagates into both and
    fails it, and so does an infinity. Only a refused matrix is looked at
    again, to say which of the two rules it breaks."""

    __slots__ = ("matrix",)

    def __init__(self, scores):
        s = _as_2d("scores", scores)
        if not (s.min() >= 0.0 and s.max() <= 1.0):
            if not np.isfinite(s).all():
                raise DimensionError("scores contains non-finite entries")
            raise DimensionError("scores entries must lie in [0, 1]")
        self.matrix = s


def _truth(truth, like: np.ndarray) -> Truth:
    t = truth if isinstance(truth, Truth) else Truth(truth)
    if like.shape != t.matrix.shape:
        raise DimensionError(f"shape mismatch: {like.shape} vs {t.matrix.shape}")
    return t


def _scores(scores) -> np.ndarray:
    return (scores if isinstance(scores, Scores) else Scores(scores)).matrix


def binarize(scores, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Threshold scores into a boolean label matrix; the boundary is inclusive."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    return _scores(scores) >= threshold


def hamming_loss(pred, truth) -> float:
    """Fraction of mismatched label slots over all N*K entries."""
    p = _binary("pred", pred)
    t = _truth(truth, p)
    return float(np.count_nonzero(p != t.matrix) / p.size)


def lrap(scores, truth) -> float:
    """Label-ranking average precision.

    For every true label of a sample: the fraction of labels scoring at
    least as high that are themselves true, averaged over the sample's true
    labels, then over samples. Samples with no positive label are skipped;
    if every sample is skipped the metric is undefined. Each positive entry
    is compared with its own row only: a K x positives array, not the
    N x K x K cube of all label pairs.
    """
    s = _scores(scores)
    t = _truth(truth, s)
    if t.positives == 0:
        raise UndefinedMetricError("LRAP is undefined: no sample has a positive label")
    # [k, p]: label k of positive p's row scores at least as high as p
    at_least = np.take(s.T, t.rows, axis=1) >= s.take(t.flat)
    rank = np.add.reduce(at_least, axis=0, dtype=np.intp)   # competition "max" rank of p
    true_above = np.add.reduce(at_least & t.row_truth, axis=0, dtype=np.intp)
    return float(np.sum(t.weights * (true_above / rank)))


def micro_f1(pred, truth) -> float:
    """Micro-averaged F1 from TP/FP/FN pooled over all entries.

    Returns 1 when both matrices are all-negative (vacuously perfect).
    """
    p = _binary("pred", pred)
    t = _truth(truth, p)
    tp = float(np.count_nonzero(p & t.matrix))
    fp = float(np.count_nonzero(p)) - tp
    fn = float(t.positives) - tp
    denom = 2.0 * tp + fp + fn
    if denom == 0.0:
        return 1.0
    return 2.0 * tp / denom


def bce(scores, truth) -> float:
    """Binary cross-entropy: mean over samples of the per-sample sum over
    labels, with one logarithm per entry: log(p) over the positives' and
    log1p(-p) over the negatives' clipped scores, each gathered by flat index."""
    s = _scores(scores)
    t = _truth(truth, s)
    p = np.clip(s, BCE_EPS, 1.0 - BCE_EPS)
    pos, neg = p.take(t.flat), p.take(t.neg_flat)
    np.log(pos, out=pos)
    np.negative(neg, out=neg)
    np.log1p(neg, out=neg)
    return -float(pos.sum() + neg.sum()) / s.shape[0]


def loss_vector(scores, truth, threshold: float = DEFAULT_THRESHOLD) -> LossVector:
    """The three optimized losses of a score matrix against binary truth.
    Scores and truth are each checked once here, not once per loss."""
    if not isinstance(scores, Scores):
        scores = Scores(scores)
    t = _truth(truth, scores.matrix)
    pred = binarize(scores, threshold)
    return LossVector(
        l1=hamming_loss(pred, t),
        l2=1.0 - lrap(scores, t),
        l3=1.0 - micro_f1(pred, t),
    )


def geometric_mean(v) -> float:
    """Cube root of the product of the three loss components."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise DimensionError(f"expected a 3-component loss vector, got shape {a.shape}")
    if (a < 0).any():
        raise ValueError("loss components must be non-negative")
    return float(np.cbrt(a[0] * a[1] * a[2]))
