import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hvml import model
from hvml.errors import DimensionError, NumericError

from oracles import masked_sigmoid, split_forward, two_pass_standardize

# best forward time over 4000 rows divided by that over 2000 rows
SCALING_TIMER = """
import time
import numpy as np
from hvml import model
shape = model.ModelShape(d=40, c=10, k=8)
params = model.ModelParams(np.random.default_rng(7).standard_normal(shape.n_params), shape)
x1 = np.random.default_rng(8).random((2000, 40))
x2 = np.random.default_rng(9).random((4000, 40))
model.forward(params, x1)  # warm up
best = {2000: np.inf, 4000: np.inf}
for _ in range(9):
    for x in (x1, x2):
        t0 = time.perf_counter()
        model.forward(params, x)
        best[len(x)] = min(best[len(x)], time.perf_counter() - t0)
print(best[4000] / best[2000])
"""

# frozen fixture: params from default_rng(14), inputs from default_rng(1001),
# outputs recorded from the implementation and verified against a 50-digit
# arbitrary-precision recomputation below
GOLD_SHAPE = model.ModelShape(d=3, c=2, k=2)
GOLD_PARAMS = [0.6955197700381686, -0.9794741683587314, -1.5734903329477068,
               -2.924970571840865, -0.35323216358269055, 1.2476063726111246,
               0.03307262346929485, 0.5118440276808229, 1.0232382136634648,
               -0.8821458480598934, 2.6522866971695453, -0.8769082522563802,
               0.3735530621878692, 2.7395808181161874, -0.11425241215164042,
               0.11429451370904192, -0.5118795445527522, 0.33452648360440757,
               -2.1266836963811473, -0.6468087625992227]
GOLD_X = [[0.6125949285699509, 0.01570046782033152, 0.18768957688192967],
          [0.8578900645411249, 0.07619863426781426, 0.20109024444542412],
          [0.6301009993730667, 0.09856213352097432, 0.1522044045102997],
          [0.180245007412709, 0.13192838801799178, 0.9841169795989557]]
GOLD_OUT = [[0.07367068565033792, 0.40817577327283516],
            [0.07367068565033792, 0.40817577327283516],
            [0.07367068565033792, 0.40817577327283516],
            [0.08723486567474158, 0.3838390826139302]]


class TestShape:
    def test_small_parameter_count(self):
        assert model.ModelShape(d=2, c=1, k=1).n_params == 7

    def test_recommended_embedding_parameter_count(self):
        # 72 features, 20 embedding dims, 6 labels
        assert model.ModelShape(d=72, c=20, k=6).n_params == 2006

    def test_dimensions_must_be_positive(self):
        with pytest.raises(ValueError):
            model.ModelShape(d=0, c=1, k=1)


class TestPackUnpack:
    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(0)
        for d, c, k in [(2, 1, 1), (5, 3, 4), (7, 2, 2)]:
            shape = model.ModelShape(d, c, k)
            flat = rng.standard_normal(shape.n_params)
            blocks = model._layers(flat, shape)
            assert np.array_equal(np.concatenate([b.ravel() for b in blocks]), flat)

    def test_block_shapes(self):
        shape = model.ModelShape(d=4, c=3, k=2)
        flat = np.arange(float(shape.n_params))
        encoder, feedforward, dec, b_dec = model._layers(flat, shape)
        assert encoder.shape == (5, 3) and feedforward.shape == (4, 3)
        assert dec.shape == (3, 2) and b_dec.shape == (2,)
        # each bias is the last row of its stacked block: b_e after E, b_w after W
        assert np.array_equal(encoder[-1], flat[12:15])
        assert np.array_equal(feedforward[-1], flat[24:27])

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            model.ModelParams(np.zeros(6), model.ModelShape(d=2, c=1, k=1))

    def test_non_finite_rejected(self):
        flat = np.zeros(7)
        flat[3] = np.nan
        with pytest.raises(NumericError):
            model.ModelParams(flat, model.ModelShape(d=2, c=1, k=1))


def hidden(m):
    """The hidden layer on the rows of ``m`` as samples: each row shifted by
    its first entry and centred in data space, as the forward pass's
    centred weights leave a sample, then the kernel on the label-major
    result (it works in place), transposed back."""
    a = np.array(m, dtype=float).T.copy()
    a -= a[:1].copy()
    a -= np.add.reduce(a, axis=0, keepdims=True) / a.shape[0]
    return model._hidden(a).T


def assert_close(got, want, rel=1e-12):
    """Equal shapes and every entry within ``rel`` of the other's magnitude."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * np.abs(want))


class TestRowStandardize:
    """The row z-score of the hidden layer (data-space centring, then the
    kernel), seen through its output, the logistic of z."""

    def test_constant_row_maps_to_zero(self):
        # a row of equal entries gives z = 0 exactly, also where its mean
        # does not round back to the entry (20 entries of 123.456, 3 of -7.0)
        for m in ([[3.0, 3.0, 3.0]], np.full((3, 7), 2.5), np.zeros((2, 5)),
                  np.full((1, 20), 123.456), np.full((1, 3), -7.0)):
            assert (hidden(m) == 0.5).all()

    def test_unit_spread_row_unchanged(self):
        assert_close(hidden([[1.0, -1.0]]), masked_sigmoid(np.array([[1.0, -1.0]])))

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 8)) * 4.0 + 3.0
        assert_close(hidden(two_pass_standardize(m)), hidden(m))

    def test_population_std(self):
        # mean 2, population std 1 for [1, 3]
        assert_close(hidden([[1.0, 3.0]]), masked_sigmoid(np.array([[-1.0, 1.0]])))

    def test_shift_by_a_constant_changes_nothing(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((50, 20)) * 10.0 ** rng.uniform(-3, 3, (50, 1))
        for shift in (-7.0, 0.5, 3.0):
            assert_close(hidden(m + shift * np.abs(m).max(axis=1, keepdims=True)), hidden(m))

    def test_within_tolerance_of_two_pass_form(self):
        rng = np.random.default_rng(5)
        huge = np.array([[1e300, -1e300, 1e300], [1e300, 1e300, 1e300], [-1e300, 0.0, 5.0],
                         [1e300, 1e300, -1e300]])
        cases = [rng.standard_normal((40, 13)) * 10.0 ** rng.uniform(-8, 8, (40, 1)),
                 rng.uniform(-3, 3, (1933, 4)), np.full((3, 7), 2.5), np.zeros((2, 5)),
                 huge, -huge, rng.standard_normal((63, 4)).T]
        with np.errstate(over="ignore", invalid="ignore"):
            for m in cases:
                assert_close(hidden(m), masked_sigmoid(two_pass_standardize(m)))


def population_blocks():
    """(lambda, N, C)-sized pre-activation blocks at the benchmark shapes
    (emotions: 26 x 593 x 20, yeast: 22 x 2417 x 4) and a wide one."""
    rng = np.random.default_rng(17)
    return [rng.standard_normal((26, 593, 20)) * 3.0,
            rng.standard_normal((22, 2417, 4)) * 10.0 ** rng.uniform(-3, 3, (22, 2417, 1)),
            rng.uniform(-50, 50, (3, 200, 53))]


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestKernelsOnPopulationBlocks:
    def test_hidden_within_tolerance_of_two_pass_form(self):
        for block in population_blocks():
            rows = block.reshape(-1, block.shape[-1])
            assert_close(hidden(rows), masked_sigmoid(two_pass_standardize(rows)))

    def test_sigmoid_bitwise_equal_to_masked_form(self):
        for block in population_blocks():
            assert_bitwise(model._sigmoid(block), masked_sigmoid(block))


class TestSigmoid:
    def test_bitwise_equal_to_masked_form(self):
        edges = np.array([0.0, -0.0, 40.0, -40.0, 700.0, -700.0, 710.0, -745.0, -800.0,
                          1e-300, -1e-300, 5e-324, -5e-324, 36.7, -36.7, 1e308, -1e308])
        rng = np.random.default_rng(11)
        x = np.concatenate([edges, rng.standard_normal(1000) * 10, rng.uniform(-800, 800, 1000)])
        for m in (x, x[:2016].reshape(63, 32)):
            got = model._sigmoid(m)
            want = masked_sigmoid(m)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_saturates_without_overflow(self):
        with np.errstate(over="raise", under="ignore"):
            out = model._sigmoid(np.array([-700.0, -40.0, 0.0, 40.0, 700.0]))
        assert out[2] == 0.5 and out[-1] == 1.0 and 0.0 < out[0] < 1e-300
        assert out[1] == pytest.approx(np.exp(-40.0), rel=1e-15)


def mp_forward(flat, shape, row_x):
    """One row's scores by the network's definition in 50-digit arithmetic:
    the logistic of the row z-score in both hidden layers, the logistic of
    the decoder output."""
    mpmath = pytest.importorskip("mpmath")
    mpf = mpmath.mpf
    mpmath.mp.dps = 50

    def sigmoid(v):
        return 1 / (1 + mpmath.e**(-v))

    def standardize(row):
        n = len(row)
        mean = sum(row) / n
        var = sum((v - mean) ** 2 for v in row) / n
        std = max(mpmath.sqrt(var), mpf("1e-8"))
        return [(v - mean) / std for v in row]

    def layer(h, m, b, rows, cols):
        return [sum(h[i] * m[i * cols + j] for i in range(rows)) + b[j] for j in range(cols)]

    d, c, k = shape.d, shape.c, shape.k
    p = [mpf(float(v)) for v in flat]
    o1, o2, o3, o4, o5 = np.cumsum([d * c, c, c * c, c, c * k])
    h = [mpf(float(v)) for v in row_x]
    h = [sigmoid(v) for v in standardize(layer(h, p[:o1], p[o1:o2], d, c))]
    h = [sigmoid(v) for v in standardize(layer(h, p[o2:o3], p[o3:o4], c, c))]
    return [float(sigmoid(v)) for v in layer(h, p[o4:o5], p[o5:], c, k)]


class TestForward:
    def test_zero_params_score_half(self):
        shape = model.ModelShape(d=3, c=4, k=2)
        params = model.ModelParams(np.zeros(shape.n_params), shape)
        out = model.forward(params, np.random.default_rng(0).random((5, 3)))
        assert out == pytest.approx(np.full((5, 2), 0.5))

    def test_duplicated_row_gives_identical_outputs(self):
        shape = model.ModelShape(d=4, c=3, k=2)
        params = model.ModelParams(np.random.default_rng(3).standard_normal(shape.n_params), shape)
        row = np.random.default_rng(4).random(4)
        out = model.forward(params, np.vstack([row, row]))
        assert np.array_equal(out[0], out[1])

    def test_equal_encoder_columns_map_every_sample_to_half(self):
        # equal columns and biases centre to exactly zero, so every sample's
        # embedding is 0.5 exactly: the scores are those of a zero encoder,
        # bit for bit, whatever the inputs
        shape = model.ModelShape(d=5, c=20, k=3)
        rng = np.random.default_rng(9)
        flat = rng.standard_normal(shape.n_params)
        zero = flat.copy()
        zero[:6 * 20] = 0.0
        flat[:6 * 20] = np.repeat(rng.uniform(-200, 200, 6), 20)
        x = rng.standard_normal((30, 5)) * 10.0 ** rng.uniform(-6, 6, (30, 1))
        got = model.forward(model.ModelParams(flat, shape), x)
        assert_bitwise(got, model.forward(model.ModelParams(zero, shape), x))
        assert (got == got[0]).all()

    @pytest.mark.parametrize("d,c,k", [(72, 20, 6), (103, 4, 14), (3, 2, 2)])
    def test_constant_added_to_a_weight_row_changes_nothing(self, d, c, k):
        # a row of [E; b_e] or [W; b_w] moved by one constant across its C
        # outputs moves every sample's pre-activations by one constant, which
        # the centring removes
        shape = model.ModelShape(d, c, k)
        rng = np.random.default_rng(d + c)
        flat = rng.standard_normal(shape.n_params)
        x = rng.standard_normal((40, d))
        want = model.forward(model.ModelParams(flat, shape), x)
        rows = (d + 1) + (c + 1)       # [E; b_e] then [W; b_w], C entries each
        for row in (0, d - 1, d, d + 1, rows - 1):
            for shift in (-3.0, 0.25, 40.0):
                moved = flat.copy()
                moved[row * c:(row + 1) * c] += shift
                assert_close(model.forward(model.ModelParams(moved, shape), x), want)

    def test_golden_outputs(self):
        params = model.ModelParams(np.array(GOLD_PARAMS), GOLD_SHAPE)
        out = model.forward(params, np.array(GOLD_X))
        assert out == pytest.approx(np.array(GOLD_OUT), abs=1e-15)

    def test_golden_against_high_precision_oracle(self):
        for row_x, expected in zip(GOLD_X, GOLD_OUT):
            want = mp_forward(GOLD_PARAMS, GOLD_SHAPE, row_x)
            for got, w in zip(expected, want):
                assert abs(got - w) < 1e-13

    def test_emotions_width_against_high_precision_oracle(self):
        # C = 20, K = 6: the tanh hidden layers against exact arithmetic
        shape = model.ModelShape(d=72, c=20, k=6)
        rng = np.random.default_rng(20)
        flat = rng.standard_normal(shape.n_params)
        x = rng.standard_normal((3, 72))
        out = model.forward(model.ModelParams(flat, shape), x)
        for got_row, row_x in zip(out, x):
            for got, want in zip(got_row, mp_forward(flat, shape, row_x)):
                assert abs(got - want) < 1e-13

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(5)
        shape = model.ModelShape(d=6, c=4, k=3)
        for _ in range(20):
            params = model.ModelParams(rng.standard_normal(shape.n_params), shape)
            out = model.forward(params, rng.random((10, 6)))
            assert (out > 0).all() and (out < 1).all()

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(6)
        shape = model.ModelShape(d=5, c=3, k=2)
        params = model.ModelParams(rng.standard_normal(shape.n_params), shape)
        x = rng.random((12, 5))
        perm = rng.permutation(12)
        assert np.array_equal(model.forward(params, x)[perm], model.forward(params, x[perm]))

    def test_input_validation(self):
        shape = model.ModelShape(d=3, c=2, k=1)
        params = model.ModelParams(np.zeros(shape.n_params), shape)
        with pytest.raises(DimensionError):
            model.forward(params, np.zeros((2, 4)))
        with pytest.raises(NumericError):
            model.forward(params, np.array([[1.0, np.inf, 0.0]]))

    @pytest.mark.parametrize("d,c,k,n", [(72, 20, 6, 593), (103, 4, 14, 2417), (3, 2, 2, 4),
                                         (1, 1, 1, 5), (40, 10, 8, 300)])
    def test_bitwise_equal_to_former_form(self, d, c, k, n):
        """Scores within 1e-12 relative of the former form (the logistic of
        the two-pass z-score in the hidden layers), and a ``Features`` input
        bitwise equal to a plain one and to a repeat."""
        rng = np.random.default_rng(d * 1000 + n)
        shape = model.ModelShape(d, c, k)
        x = rng.standard_normal((n, d))
        for scale in (0.1, 1.0, 30.0):
            flat = rng.standard_normal(shape.n_params) * scale
            params = model.ModelParams(flat, shape)
            got = model.forward(params, x)
            assert_close(got, split_forward(flat, d, c, k, x))
            assert_bitwise(model.forward(params, model.Features(x, shape)), got)
            assert_bitwise(model.forward(params, x), got)

    @pytest.mark.parametrize("x,error", [
        (np.zeros(3), DimensionError), (np.zeros((2, 4)), DimensionError),
        (np.array([[1.0, np.nan, 0.0]]), NumericError),
        (np.array([[1.0, -np.inf, 0.0]]), NumericError)])
    def test_features_checked_when_built(self, x, error):
        with pytest.raises(error):
            model.Features(x, model.ModelShape(d=3, c=2, k=1))

    def test_features_of_another_width_refused(self):
        features = model.Features(np.zeros((2, 4)), model.ModelShape(d=4, c=2, k=1))
        shape = model.ModelShape(d=3, c=2, k=1)
        with pytest.raises(DimensionError):
            model.forward(model.ModelParams(np.zeros(shape.n_params), shape), features)

    def test_cost_scales_roughly_linearly_in_samples(self):
        # coarse sanity check, not a precise benchmark. The two sizes are timed
        # in turn within one loop, so a swing in host load reaches both, in a
        # process of its own on one OpenBLAS thread, so that the larger product
        # cannot be the one that hands work to a second thread
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(Path(model.__file__).parents[1]),
                                              os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", SCALING_TIMER], env=env,
                              capture_output=True, text=True, check=True)
        assert float(proc.stdout) < 4.0


class TestForwardPopulation:
    """The one forward kernel on blocks of candidates, as the trainer calls it."""

    @pytest.mark.parametrize("d,c,k,n", [(72, 20, 6, 475), (103, 4, 14, 300), (3, 2, 2, 4),
                                         (1, 1, 1, 5), (50, 10, 53, 60)])
    @pytest.mark.parametrize("lam", [2, 13])
    def test_blocks_within_tolerance_of_split_oracle(self, d, c, k, n, lam):
        # every candidate of a population of 2 or 13 (prime, so the last block
        # is partial), at several block sizes, against the per-candidate oracle
        rng = np.random.default_rng(d * 100 + lam)
        shape = model.ModelShape(d, c, k)
        x = rng.standard_normal((n, d))
        flats = rng.standard_normal((lam, shape.n_params)) * rng.choice([0.1, 1.0, 30.0])
        features = model.Features(x, shape)
        for block in sorted({1, 2, 3, 5, model.block_size(shape, n)}):
            for first in range(0, lam, block):
                scores = model.forward_population(flats[first:first + block], shape, features)
                assert scores.shape == (min(block, lam - first), k, n)
                for i, got in enumerate(scores):
                    assert_close(got.T, split_forward(flats[first + i], d, c, k, x))

    def test_forward_is_the_one_candidate_call(self):
        rng = np.random.default_rng(31)
        shape = model.ModelShape(d=9, c=5, k=3)
        x = rng.standard_normal((40, 9))
        params = model.ModelParams(rng.standard_normal(shape.n_params), shape)
        got = model.forward(params, x)
        assert got.shape == (40, 3)
        assert_bitwise(np.ascontiguousarray(got),
                       model.forward_population(params.flat[None], shape, x)[0].T.copy())

    def test_block_size_from_the_shapes(self):
        # at most 2^16 entries per (candidates, max(C, K), rows) layer array;
        # stacked training and validation rows of emotions, yeast and an
        # enron-like shape, then the copy task
        assert model.block_size(model.ModelShape(d=72, c=20, k=6), 415) == 7
        assert model.block_size(model.ModelShape(d=103, c=4, k=14), 1691) == 2
        assert model.block_size(model.ModelShape(d=1001, c=20, k=53), 1191) == 1
        assert model.block_size(model.ModelShape(d=4, c=3, k=2), 45) == 485

    def test_input_checked(self):
        shape = model.ModelShape(d=3, c=2, k=1)
        flats = np.zeros((2, shape.n_params))
        with pytest.raises(DimensionError):
            model.forward_population(flats, shape, np.zeros((2, 4)))
        with pytest.raises(NumericError):
            model.forward_population(flats, shape, np.array([[1.0, np.nan, 0.0]]))
        with pytest.raises(DimensionError):
            model.forward_population(flats, shape,
                                     model.Features(np.zeros((2, 4)), model.ModelShape(4, 2, 1)))
