"""The shallow feedforward scorer and its flat parameter vector.

The network maps an N x D feature matrix to N x K label scores in (0, 1):

    h1 = hidden(X @ E + b_e)        encoder, D -> C
    h2 = hidden(h1 @ W + b_w)       feedforward, C -> C
    Y  = sigmoid(h2 @ Dec + b_dec)  decoder, C -> K

``hidden`` is 0.5 + 0.5 tanh(z / 2), the logistic of z, for the per-row
z-score z (population standard deviation, guarded divisor), taken within
each sample's embedding, never across the batch, so each output row depends
only on its own input row; |z| <= sqrt(C - 1) keeps the tanh form accurate.
The decoder keeps the exact logistic, which resolves scores far below 0.5
that the tanh form would round to 0. Scores agree with the former hidden
layers (the exact logistic of the z-score) within 1e-12 relative, unless a
row's spread is tiny against its mean. All learnable parameters live in one
flat vector so a derivative-free optimizer can treat the model as a point
in R^L, with L = D*C + C + C*C + C + C*K + K.

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


def _hidden(a: np.ndarray) -> np.ndarray:
    """The hidden-layer activation of an N x C matrix, in place; returns
    ``a``. Each row is centred, scaled by 0.5 over its population standard
    deviation (at least ``ROW_STD_EPS``) and mapped to 0.5 + 0.5 tanh. The
    row mean and sum of squares are row products, not short-row reductions."""
    n = a.shape[1]
    a -= (a @ np.full(n, 1.0 / n))[:, None]
    std = np.sqrt(np.einsum("ij,ij->i", a, a) / n)
    a *= (0.5 / np.maximum(std, ROW_STD_EPS))[:, None]
    np.tanh(a, out=a)
    a *= 0.5
    a += 0.5
    return a


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: exp only sees -|x|, which is
    -x for x >= 0 (giving 1/(1+e^-x)) and x for x < 0 (giving e^x/(1+e^x)),
    with one division for both signs. The numerator, 1 or e^-|x|, is the
    larger of e^-|x| and the 0/1 sign test, which takes no branch."""
    z = np.abs(x)
    np.negative(z, out=z)
    np.exp(z, out=z)
    out = np.maximum(z, x >= 0)
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
    a = _hidden(a) @ w
    a += b_w
    a = _hidden(a) @ dec
    a += b_dec
    return _sigmoid(a)
