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

``block_losses`` takes all four losses of a block of candidates at once,
from the label-major (B, K, N) scores of ``model.forward_population`` over
the rows of one or more splits side by side, each split's ``Truth`` placed
at its columns of the block. It gives, bit for bit, what the per-candidate
functions give on each candidate's N x K scores of each split.
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

    For ``block_losses`` it also holds its placement in a label-major block
    of ``columns`` samples whose columns ``offset`` on are its rows: each
    positive's column there (``block_cols``) and, in row-major order, each
    positive's and each negative's flat (label * columns + column) position
    in one candidate's (K, columns) scores (``block_pos``, ``block_neg``).
    By default the block is the matrix's own rows.
    """

    __slots__ = ("matrix", "rows", "flat", "neg_flat", "row_truth", "weights", "positives",
                 "offset", "columns", "block_cols", "block_pos", "block_neg")

    def __init__(self, truth, offset: int = 0, columns: int | None = None):
        self.matrix = _binary("truth", truth)
        n, k = self.matrix.shape
        self.flat = np.flatnonzero(self.matrix)
        self.neg_flat = np.flatnonzero(~self.matrix)
        self.rows = self.flat // k
        self.row_truth = np.ascontiguousarray(self.matrix[self.rows].T)
        self.positives = int(self.rows.size)
        per_row = np.count_nonzero(self.matrix, axis=1)
        counted = np.count_nonzero(per_row)
        self.weights = 1.0 / (per_row[self.rows] * counted) if counted else np.empty(0)
        self.offset, self.columns = offset, n if columns is None else columns
        if offset < 0 or offset + n > self.columns:
            raise DimensionError(f"{n} truth rows do not fit at column {offset} of a block of "
                                 f"{self.columns}")
        self.block_cols = offset + self.rows
        self.block_pos = self.flat % k * self.columns + self.block_cols
        neg_rows, neg_labels = np.divmod(self.neg_flat, k)
        self.block_neg = neg_labels * self.columns + offset + neg_rows


class Scores:
    """A score matrix checked once: 2-D, non-empty, finite, inside [0, 1].
    The score-based losses accept one wherever they accept a plain matrix.

    The range check is one min and one max: a NaN propagates into both and
    fails it, and so does an infinity. Only a refused matrix is looked at
    again, to say which of the two rules it breaks."""

    __slots__ = ("matrix",)

    def __init__(self, scores):
        self.matrix = _checked_range(_as_2d("scores", scores))


def _checked_range(s: np.ndarray) -> np.ndarray:
    """``s`` if every entry lies in [0, 1]; else ``DimensionError`` naming the
    broken rule (non-finite entries, or entries outside the interval)."""
    if not (s.min() >= 0.0 and s.max() <= 1.0):
        if not np.isfinite(s).all():
            raise DimensionError("scores contains non-finite entries")
        raise DimensionError("scores entries must lie in [0, 1]")
    return s


def _truth(truth, like: np.ndarray) -> Truth:
    t = truth if isinstance(truth, Truth) else Truth(truth)
    if like.shape != t.matrix.shape:
        raise DimensionError(f"shape mismatch: {like.shape} vs {t.matrix.shape}")
    return t


def _scores(scores) -> np.ndarray:
    return (scores if isinstance(scores, Scores) else Scores(scores)).matrix


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")


def binarize(scores, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """Threshold scores into a boolean label matrix; the boundary is inclusive."""
    _check_threshold(threshold)
    return _scores(scores) >= threshold


def hamming_loss(pred, truth) -> float:
    """Fraction of mismatched label slots over all N*K entries."""
    p = _binary("pred", pred)
    t = _truth(truth, p)
    return float(np.count_nonzero(p != t.matrix) / p.size)


def _check_defined(t: Truth) -> None:
    if t.positives == 0:
        raise UndefinedMetricError("LRAP is undefined: no sample has a positive label")


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
    _check_defined(t)
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


def block_losses(scores: np.ndarray, splits, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """l1, l2, l3 and BCE of every candidate of a label-major (B, K, N) block
    of scores against each split of ``splits``, a sequence of ``Truth`` placed
    in the block: an (S, B, 4) array. The block is checked (finite, inside
    [0, 1]) and thresholded once. Per split, the positives' own scores are
    one gather by ``block_pos``; hamming and micro F1 come from the counts of
    predicted positives and of those among the true ones, LRAP from one (B,
    K, positives) comparison with the scores in each positive's column, and
    BCE from the positives' and negatives' gathered scores, each summed in
    the per-candidate order."""
    _check_threshold(threshold)
    s = _checked_range(np.ascontiguousarray(scores, dtype=float))
    b, k, n = s.shape
    counts = np.min_scalar_type(k)
    flat = s.reshape(b, k * n)
    pred = s >= threshold
    out = np.empty((len(splits), b, 4))
    for t, o in zip(splits, out):
        rows = t.matrix.shape[0]
        if (k, n) != (t.matrix.shape[1], t.columns):
            raise DimensionError(f"shape mismatch: scores of {k} labels over {n} samples vs truth "
                                 f"of {t.matrix.shape[1]} labels placed in {t.columns}")
        _check_defined(t)
        own = flat.take(t.block_pos, axis=1)    # C order: each row sums as a vector
        hits = np.add.reduce(pred[:, :, t.offset:t.offset + rows], axis=(1, 2), dtype=np.intp)
        tp = np.add.reduce(own >= threshold, axis=1, dtype=np.intp)
        fp, fn = hits - tp, t.positives - tp
        o[:, 0] = (fp + fn) / t.matrix.size
        denom = 2.0 * tp + fp + fn
        o[:, 2] = 1.0 - np.divide(2.0 * tp, denom, out=np.ones(b), where=denom != 0.0)
        # [b, k, p]: label k of positive p's row scores at least as high as p,
        # as 0/1 bytes counted in the smallest unsigned type that holds K
        at_least = (s.take(t.block_cols, axis=2) >= own[:, None, :]).view(np.uint8)
        rank = np.add.reduce(at_least, axis=1, dtype=counts)
        at_least &= t.row_truth
        true_above = np.add.reduce(at_least, axis=1, dtype=counts)
        o[:, 1] = 1.0 - (t.weights * (true_above / rank)).sum(axis=1)
        pos = np.clip(own, BCE_EPS, 1.0 - BCE_EPS)
        neg = np.clip(flat.take(t.block_neg, axis=1), BCE_EPS, 1.0 - BCE_EPS)
        np.log(pos, out=pos)
        np.negative(neg, out=neg)
        np.log1p(neg, out=neg)
        o[:, 3] = -(pos.sum(axis=1) + neg.sum(axis=1)) / rows
    return out


def geometric_mean(v) -> float:
    """Cube root of the product of the three loss components."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise DimensionError(f"expected a 3-component loss vector, got shape {a.shape}")
    if (a < 0).any():
        raise ValueError("loss components must be non-negative")
    return float(np.cbrt(a[0] * a[1] * a[2]))
