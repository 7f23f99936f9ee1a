"""The shallow feedforward scorer and its flat parameter vector.

The network maps an N x D feature matrix to N x K label scores in (0, 1):

    h1 = sigmoid(standardize(X @ E + b_e))      encoder, D -> C
    h2 = sigmoid(standardize(h1 @ W + b_w))     feedforward, C -> C
    Y  = sigmoid(h2 @ Dec + b_dec)              decoder, C -> K

``standardize`` is a per-row z-score (population standard deviation, guarded
divisor), applied within each sample's embedding, never across the batch, so
each output row depends only on its own input row. All learnable parameters
live in one flat vector so a derivative-free optimizer can treat the model
as a point in R^L, with L = D*C + C + C*C + C + C*K + K.

``forward`` takes a plain feature matrix, which it checks on each call
(2-D, D columns, finite), or a ``Features`` checked once: the trainer checks
its stacked training and validation rows once per run, not once per
candidate. The checked-once and per-call inputs give bit-identical scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError

ROW_STD_EPS = 1e-8


@dataclass(frozen=True)
class ModelShape:
    """Layer sizes: d input features, c embedding dimensions, k labels."""

    d: int
    c: int
    k: int

    def __post_init__(self):
        if self.d < 1 or self.c < 1 or self.k < 1:
            raise ValueError(f"all shape dimensions must be >= 1, got {self}")

    @property
    def n_params(self) -> int:
        d, c, k = self.d, self.c, self.k
        return d * c + c + c * c + c + c * k + k


@dataclass(frozen=True)
class ModelParams:
    """A model as a flat parameter vector plus its shape."""

    flat: np.ndarray
    shape: ModelShape

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=float)
        if flat.ndim != 1 or flat.size != self.shape.n_params:
            raise DimensionError(
                f"parameter vector must have length {self.shape.n_params}, got {flat.shape}"
            )
        if not np.isfinite(flat).all():
            raise NumericError("parameter vector contains non-finite entries")
        object.__setattr__(self, "flat", flat)

    @classmethod
    def zeros(cls, shape: ModelShape) -> "ModelParams":
        return cls(np.zeros(shape.n_params), shape)


def unpack(params: ModelParams):
    """Split the flat vector into (E, b_e, W, b_w, Dec, b_dec) views, the blocks
    laid out in that order, each row-major."""
    d, c, k = params.shape.d, params.shape.c, params.shape.k
    flat = params.flat
    o1 = d * c
    o2 = o1 + c
    o3 = o2 + c * c
    o4 = o3 + c
    o5 = o4 + c * k
    return (
        flat[:o1].reshape(d, c),
        flat[o1:o2],
        flat[o2:o3].reshape(c, c),
        flat[o3:o4],
        flat[o4:o5].reshape(c, k),
        flat[o5:],
    )


def _standardize_rows(a: np.ndarray) -> np.ndarray:
    """Per-row z-score of a float array, in place; returns ``a``. The
    reductions are ``np.mean`` without its wrapper: a row sum over n."""
    n = a.shape[-1]
    a -= np.add.reduce(a, axis=-1, keepdims=True) / n
    std = np.add.reduce(a * a, axis=-1, keepdims=True) / n
    np.sqrt(std, out=std)
    a /= np.maximum(std, ROW_STD_EPS, out=std)
    return a


def row_standardize(m) -> np.ndarray:
    """Per-row z-score with population std; constant rows map to zero."""
    return _standardize_rows(np.array(m, dtype=float))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|, which is
    -x for x >= 0 (giving 1/(1+e^-x)) and x for x < 0 (giving e^x/(1+e^x)),
    with one division for both signs."""
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    out = np.where(x >= 0, 1.0, z)
    z += 1.0
    out /= z
    return out


class Features:
    """A feature matrix checked once for a model shape: 2-D, ``shape.d``
    columns, finite. ``forward`` accepts one wherever it accepts a plain
    matrix and then only compares its column count with the model's, so the
    trainer pays the checks once per run instead of once per candidate."""

    __slots__ = ("matrix",)

    def __init__(self, x, shape: ModelShape):
        xm = np.asarray(x, dtype=float)
        if xm.ndim != 2:
            raise DimensionError(f"input must be a 2-D matrix, got shape {xm.shape}")
        if xm.shape[1] != shape.d:
            raise DimensionError(f"input has {xm.shape[1]} columns, model expects {shape.d}")
        if not np.isfinite(xm).all():
            raise NumericError("input matrix contains non-finite entries")
        self.matrix = xm


def forward(params: ModelParams, x) -> np.ndarray:
    """Score an N x D feature matrix (plain or ``Features``); returns an
    N x K matrix in (0, 1)."""
    if not isinstance(x, Features):
        x = Features(x, params.shape)
    elif x.matrix.shape[1] != params.shape.d:   # checked for another shape
        raise DimensionError(f"input has {x.matrix.shape[1]} columns, model expects "
                             f"{params.shape.d}")
    xm = x.matrix
    e, b_e, w, b_w, dec, b_dec = unpack(params)
    a = xm @ e
    a += b_e
    h = _sigmoid(_standardize_rows(a))
    a = h @ w
    a += b_w
    h = _sigmoid(_standardize_rows(a))
    a = h @ dec
    a += b_dec
    return _sigmoid(a)
