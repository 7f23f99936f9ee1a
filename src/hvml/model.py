"""The shallow feedforward scorer and its flat parameter vector.

The network maps an N x D feature matrix to N x K label scores in (0, 1):

    h1 = hidden(X @ E + b_e)        encoder, D -> C
    h2 = hidden(h1 @ W + b_w)       feedforward, C -> C
    Y  = sigmoid(h2 @ Dec + b_dec)  decoder, C -> K

``hidden`` is the logistic 1 / (1 + e^-z) of the z-score z of each
sample's embedding (population standard deviation, guarded divisor), taken
within the sample, never across the batch, so each output row depends only
on its own input row, to rounding (within 1e-12 relative). The embeddings
are centred in parameter space, not per sample: each row of the stacked
encoder [E; b_e] and of the stacked feedforward [W; b_w] is shifted by its
first entry and then has its mean over its C outputs subtracted, which
leaves every sample's C pre-activations centred (to rounding) while costing
O(L) per candidate instead of a pass over its (C x N) embeddings. So the
kernel only divides by the root mean square: |z| <= sqrt(C) keeps e^-z
finite for any C below 500,000. The decoder's input has no such bound, so
its logistic never takes e^x of a positive x. Scores agree with the
data-space centring of the z-score within 1e-12 relative, and an encoder
whose C columns and biases are all equal has all-zero centred weights, so it
maps every sample to exactly 0.5 whatever its values. All learnable
parameters live in one flat vector so a derivative-free optimizer can treat
the model as a point in R^L, with L = D*C + C + C*C + C + C*K + K.

There is one forward kernel, ``forward_population``: it scores a block of B
parameter vectors at once, with one encoder product of the B centred
``[E; b_e]^T`` stacked with ``[X | 1]^T`` (so the bias rides in the product),
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
    """Split a (..., L) array of flat vectors into the views ([E; b_e],
    [W; b_w], Dec, b_dec) of shapes (..., D + 1, C), (..., C + 1, C),
    (..., C, K) and (..., K): the blocks E, b_e, W, b_w, Dec and b_dec are
    laid out in that order, each row-major, so each bias is the last row of
    its stacked block."""
    d, c, k = shape.d, shape.c, shape.k
    lead = flats.shape[:-1]
    o1, o2, o3 = (d + 1) * c, (d + 2 + c) * c, (d + 2 + c + k) * c
    return (
        flats[..., :o1].reshape(*lead, d + 1, c),
        flats[..., o1:o2].reshape(*lead, c + 1, c),
        flats[..., o2:o3].reshape(*lead, c, k),
        flats[..., o3:],
    )


def _centred(stacked: np.ndarray) -> np.ndarray:
    """The (B, C, R) transpose of a (B, R, C) block of stacked weights with
    each of its R rows centred across its C outputs: shifted by its first
    entry, so that a row of equal entries is exactly zero, then its mean
    subtracted. A layer product with these weights gives embeddings already
    centred within each sample."""
    c = stacked.shape[-1]
    out = np.empty(stacked.shape[:1] + (c, stacked.shape[1]))
    np.subtract(stacked.transpose(0, 2, 1), stacked[:, None, :, 0], out=out)
    out -= np.add.reduce(out, axis=1, keepdims=True) / c
    return out


def _hidden(a: np.ndarray) -> np.ndarray:
    """The hidden-layer activation of a label-major (..., C, N) array of
    samples already centred across C (``_centred`` weights), in place;
    returns ``a``. Each sample (a column of C entries) is divided by its
    root mean square (at least ``ROW_STD_EPS``), the population standard
    deviation of a centred sample, and its z-score z is mapped to the
    logistic 1 / (1 + e^-z); an all-zero sample maps to exactly 0.5. The
    sum of squares runs across the C axis as one einsum, with no squared
    copy of ``a``."""
    c = a.shape[-2]
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
    so the trainer pays the checks once per run instead of once per block.
    It holds one N x (D + 1) array ``augmented``, the features with a
    column of ones after them, for the encoder bias to ride in the encoder
    product; ``matrix`` is the view of its first D columns."""

    __slots__ = ("augmented", "matrix")

    def __init__(self, x, shape: ModelShape):
        xm = np.asarray(x, dtype=float)
        if xm.ndim != 2:
            raise DimensionError(f"input must be a 2-D matrix, got shape {xm.shape}")
        if xm.shape[1] != shape.d:
            raise DimensionError(f"input has {xm.shape[1]} columns, model expects {shape.d}")
        if not np.isfinite(xm).all():
            raise NumericError("input matrix contains non-finite entries")
        self.augmented = np.ones((xm.shape[0], shape.d + 1))
        self.matrix = self.augmented[:, :shape.d]
        self.matrix[...] = xm


def block_size(shape: ModelShape, rows: int) -> int:
    """Candidates per block of ``forward_population`` over ``rows`` samples:
    as many as keep each layer array within ``_BLOCK`` entries, at least one."""
    return max(1, _BLOCK // (max(shape.c, shape.k) * rows))


def forward_population(flats: np.ndarray, shape: ModelShape, x) -> np.ndarray:
    """Score an N x D feature matrix (plain or ``Features``) under each row of
    a (B, L) array of finite parameter vectors (not checked here: the trainer
    checks a population once); returns the label-major (B, K, N) array of
    scores in (0, 1). The encoder is one product of the B centred, transposed
    ``[E; b_e]`` blocks stacked with the transposed ``[X | 1]`` (a view: no
    copy of it), which gives the (B, C, N) centred embeddings with their
    bias; the feedforward and decoder layers are batched products of each
    candidate's transposed matrix with its (C, N) embeddings."""
    if not isinstance(x, Features):
        x = Features(x, shape)
    elif x.matrix.shape[1] != shape.d:   # checked for another shape
        raise DimensionError(f"input has {x.matrix.shape[1]} columns, model expects {shape.d}")
    xa = x.augmented
    b, n, c, d = flats.shape[0], xa.shape[0], shape.c, shape.d
    encoder, feedforward, dec, b_dec = _layers(flats, shape)
    h = (_centred(encoder).reshape(b * c, d + 1) @ xa.T).reshape(b, c, n)
    ff = _centred(feedforward)                  # (B, C, C + 1): centred [W^T | b_w]
    h = np.matmul(ff[..., :c], _hidden(h))
    h += ff[..., c:]
    y = np.matmul(dec.transpose(0, 2, 1), _hidden(h))
    y += b_dec[..., None]
    return _sigmoid(y)


def forward(params: ModelParams, x) -> np.ndarray:
    """Score an N x D feature matrix (plain or ``Features``) under one model;
    returns an N x K matrix in (0, 1), ``forward_population``'s one-candidate
    scores transposed."""
    return forward_population(params.flat[None], params.shape, x)[0].T
