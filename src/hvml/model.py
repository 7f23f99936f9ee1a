"""The shallow feedforward scorer and its flat parameter vector.

The network maps an N x D feature matrix to N x K label scores in (0, 1):

    h1 = hidden(X @ E + b_e)        encoder, D -> C
    h2 = hidden(h1 @ W + b_w)       feedforward, C -> C
    Y  = sigmoid(h2 @ Dec + b_dec)  decoder, C -> K

``hidden`` is the logistic 1 / (1 + e^-z) of the z-score z of each
sample's embedding (population standard deviation, guarded divisor), taken
within the sample, never across the batch, so each output row depends only
on its own input row, to rounding (within 1e-12 relative);
|z| <= sqrt(C - 1) keeps e^-z finite for any C below 500,000. The decoder's
input has no such bound, so its logistic never takes e^x of a positive x.
Scores agree with the former hidden layers (the exact logistic of the
z-score, then 0.5 + 0.5 tanh(z / 2)) within 1e-12 relative, except where a
sample's spread is tiny against its mean: there the former centring lost
digits that a shift by the sample's first entry, made before centring,
keeps, and a sample of equal entries maps to exactly 0.5 whatever their
value. All learnable parameters live in one flat vector so a
derivative-free optimizer can treat the model as a point in R^L, with
L = D*C + C + C*C + C + C*K + K.

There is one forward kernel, ``forward_population``: it scores a block of B
parameter vectors at once, with one encoder product ``[E_1|...|E_B]^T X^T``,
and works label-major, on (B, C, N) and (B, K, N) arrays, so that every
layer after the encoder is one batched product and one elementwise pass
over the block. ``forward`` is its one-candidate call. The trainer scores a
population in blocks of ``block_size`` candidates; a candidate's scores
depend in their last bits on the block it is scored in.

Both take a plain feature matrix, which they check on each call (2-D, D
columns, finite), or a ``Features`` checked once: the trainer checks its
stacked training and validation rows once per run, not once per block. The
checked-once and per-call inputs give bit-identical scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError

ROW_STD_EPS = 1e-8
# most entries of one (candidates x max(C, K) x rows) layer array of a block
# of the population (512 KB as float64)
_BLOCK = 1 << 16


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


def _layers(flats: np.ndarray, shape: ModelShape):
    """Split a (..., L) array of flat vectors into (E, b_e, W, b_w, Dec, b_dec)
    views of shapes (..., D, C), (..., C), (..., C, C), (..., C), (..., C, K)
    and (..., K), the blocks laid out in that order, each row-major."""
    d, c, k = shape.d, shape.c, shape.k
    lead = flats.shape[:-1]
    o1, o2, o3, o4, o5 = np.cumsum([d * c, c, c * c, c, c * k])
    return (
        flats[..., :o1].reshape(*lead, d, c),
        flats[..., o1:o2],
        flats[..., o2:o3].reshape(*lead, c, c),
        flats[..., o3:o4],
        flats[..., o4:o5].reshape(*lead, c, k),
        flats[..., o5:],
    )


def _hidden(a: np.ndarray) -> np.ndarray:
    """The hidden-layer activation of a label-major (..., C, N) array, in
    place; returns ``a``. Each sample (a column of C entries) is shifted by
    its first entry, so that a sample of equal entries is all zeros and maps
    to exactly 0.5, then centred and divided by its population standard
    deviation (at least ``ROW_STD_EPS``), and its z-score z is mapped to the
    logistic 1 / (1 + e^-z). The sums run across the C axis, one row of N
    samples at a time; the sum of squares is one einsum, with no squared
    copy of ``a``."""
    c = a.shape[-2]
    a -= a[..., :1, :].copy()
    a -= np.add.reduce(a, axis=-2, keepdims=True) / c
    scale = np.sqrt(np.einsum("...cn,...cn->...n", a, a) / c)
    np.maximum(scale, ROW_STD_EPS, out=scale)
    a *= (-1.0 / scale)[..., None, :]
    np.exp(a, out=a)
    a += 1.0
    return np.reciprocal(a, out=a)


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
    columns, finite. The forward kernel accepts one wherever it accepts a
    plain matrix and then only compares its column count with the model's,
    so the trainer pays the checks once per run instead of once per block."""

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


def block_size(shape: ModelShape, rows: int) -> int:
    """Candidates per block of ``forward_population`` over ``rows`` samples:
    as many as keep each layer array within ``_BLOCK`` entries, at least one."""
    return max(1, _BLOCK // (max(shape.c, shape.k) * rows))


def forward_population(flats: np.ndarray, shape: ModelShape, x) -> np.ndarray:
    """Score an N x D feature matrix (plain or ``Features``) under each row of
    a (B, L) array of finite parameter vectors (not checked here: the trainer
    checks a population once); returns the label-major (B, K, N) array of
    scores in (0, 1). The encoder is one product of the B transposed
    encoders stacked with the transposed features (a view: no copy of X),
    which gives the (B, C, N) embeddings in place; the feedforward and
    decoder layers are batched products of each candidate's transposed
    matrix with its (C, N) embeddings."""
    if not isinstance(x, Features):
        x = Features(x, shape)
    elif x.matrix.shape[1] != shape.d:   # checked for another shape
        raise DimensionError(f"input has {x.matrix.shape[1]} columns, model expects {shape.d}")
    xm = x.matrix
    b, n, c = flats.shape[0], xm.shape[0], shape.c
    e, b_e, w, b_w, dec, b_dec = _layers(flats, shape)
    encoders = e.transpose(0, 2, 1).reshape(b * c, shape.d)    # [E_1|...|E_B]^T
    h = (encoders @ xm.T).reshape(b, c, n)
    h += b_e[..., None]
    h = np.matmul(w.transpose(0, 2, 1), _hidden(h))
    h += b_w[..., None]
    y = np.matmul(dec.transpose(0, 2, 1), _hidden(h))
    y += b_dec[..., None]
    return _sigmoid(y)


def forward(params: ModelParams, x) -> np.ndarray:
    """Score an N x D feature matrix (plain or ``Features``) under one model;
    returns an N x K matrix in (0, 1), ``forward_population``'s one-candidate
    scores transposed."""
    return forward_population(params.flat[None], params.shape, x)[0].T
