"""Multi-label losses.

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
  are skipped, and truth with no positive label at all is refused
  (``UndefinedMetricError``), so micro F1 is always defined;
* BCE is the mean over samples of per-sample sums over labels, with scores
  clipped to [1e-7, 1 - 1e-7]; each entry takes one logarithm, of the clipped
  probability of its true value: log(p) at a positive, log1p(-p) at a negative.

``block_losses`` takes all four losses of a block of candidates at once,
from the label-major (B, K, N) scores of ``model.forward_population`` over
the rows of one or more splits side by side, each split's labels checked
and indexed once as a ``Truth`` placed at its columns of the block.
``loss_vector`` is its one-candidate call on an N x K score matrix.
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


def _as_2d(name: str, m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DimensionError(f"{name} must be a non-empty 2-D matrix, got shape {a.shape}")
    return a


class Truth:
    """A binary label matrix, checked once (2-D, non-empty, 0/1) and indexed
    for ``block_losses``, placed in a label-major block of ``columns``
    samples whose columns ``offset`` on are its rows; by default the block
    is the matrix's own rows.

    Holds the boolean matrix and the count of its positive entries, and for
    each positive, in row-major order: its LRAP weight 1 / (positives in its
    row * rows with a positive), so that LRAP is the weighted sum of the
    positives' precisions; its truth row, as a K x positives matrix
    (``row_truth``); its column in the block (``block_cols``); and its flat
    (label * columns + column) position in one candidate's (K, columns)
    scores (``block_pos``). ``block_neg`` holds that position of each
    negative entry, in row-major order.
    """

    __slots__ = ("matrix", "row_truth", "weights", "positives",
                 "offset", "columns", "block_cols", "block_pos", "block_neg")

    def __init__(self, truth, offset: int = 0, columns: int | None = None):
        a = _as_2d("truth", truth)
        if not ((a == 0.0) | (a == 1.0)).all():
            raise DimensionError("truth must contain only 0/1 entries")
        self.matrix = a == 1.0
        n, k = a.shape
        flat = np.flatnonzero(self.matrix)
        rows = flat // k
        self.row_truth = np.ascontiguousarray(self.matrix[rows].T)
        self.positives = int(rows.size)
        per_row = np.count_nonzero(self.matrix, axis=1)
        counted = np.count_nonzero(per_row)
        self.weights = 1.0 / (per_row[rows] * counted) if counted else np.empty(0)
        self.offset, self.columns = offset, n if columns is None else columns
        if offset < 0 or offset + n > self.columns:
            raise DimensionError(f"{n} truth rows do not fit at column {offset} of a block of "
                                 f"{self.columns}")
        self.block_cols = offset + rows
        self.block_pos = flat % k * self.columns + self.block_cols
        neg_rows, neg_labels = np.divmod(np.flatnonzero(~self.matrix), k)
        self.block_neg = neg_labels * self.columns + offset + neg_rows


def _checked_range(s: np.ndarray) -> np.ndarray:
    """``s`` if every entry lies in [0, 1]; else ``DimensionError`` naming the
    broken rule (non-finite entries, or entries outside the interval). The
    check is one min and one max: a NaN propagates into both and fails it,
    and so does an infinity. Only a refused array is looked at again, to say
    which of the two rules it breaks."""
    if not (s.min() >= 0.0 and s.max() <= 1.0):
        if not np.isfinite(s).all():
            raise DimensionError("scores contains non-finite entries")
        raise DimensionError("scores entries must lie in [0, 1]")
    return s


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")


def _check_defined(t: Truth) -> None:
    if t.positives == 0:
        raise UndefinedMetricError("LRAP is undefined: no sample has a positive label")


def loss_vector(scores, truth, threshold: float = DEFAULT_THRESHOLD) -> LossVector:
    """The three optimized losses of an N x K score matrix against binary
    truth (a matrix or a ``Truth``): ``block_losses`` of one candidate."""
    s = _as_2d("scores", scores)
    t = truth if isinstance(truth, Truth) else Truth(truth)
    if s.shape != t.matrix.shape:
        raise DimensionError(f"shape mismatch: {s.shape} vs {t.matrix.shape}")
    return LossVector(*block_losses(s.T[None], (t,), threshold)[0, 0, :3].tolist())


def block_losses(scores: np.ndarray, splits, threshold: float = DEFAULT_THRESHOLD) -> np.ndarray:
    """l1, l2, l3 and BCE of every candidate of a label-major (B, K, N) block
    of scores against each split of ``splits``, a sequence of ``Truth`` placed
    in the block: an (S, B, 4) array. The block is checked (finite, inside
    [0, 1]) and thresholded once. Per split, the positives' own scores are
    one gather by ``block_pos``; hamming and micro F1 come from the counts of
    predicted positives and of those among the true ones, LRAP from one (B,
    K, positives) comparison with the scores in each positive's column, and
    BCE from the positives' and negatives' gathered scores."""
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
        o[:, 2] = 1.0 - 2.0 * tp / denom
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
