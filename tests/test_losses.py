import math

import numpy as np
import pytest

from hvml import losses
from hvml.errors import DimensionError, UndefinedMetricError

from oracles import (brute_hamming, brute_lrap, brute_micro_f1, cube_lrap, gather_bce,
                     gather_lrap, mean_hamming, two_log_bce)


def one_row(scores, truth, threshold=losses.DEFAULT_THRESHOLD):
    """``block_losses`` of one N x K score matrix: its (l1, l2, l3, BCE) row."""
    block = np.asarray(scores, dtype=float).T[None]
    return losses.block_losses(block, (losses.Truth(truth),), threshold)[0, 0]


def lrap(scores, truth):
    return 1.0 - losses.loss_vector(scores, truth).l2


def bce(scores, truth):
    return float(one_row(scores, truth)[3])


def oracle_row(scores, truth, threshold=losses.DEFAULT_THRESHOLD):
    """(l1, l2, l3, BCE) of an N x K score matrix from the independent
    oracles, each in the form the package once computed it."""
    pred = np.asarray(scores) >= threshold
    return [mean_hamming(pred, truth), 1.0 - gather_lrap(scores, truth),
            1.0 - brute_micro_f1(pred, truth), gather_bce(scores, truth)]


class TestBinarize:
    """Thresholding, seen through the hamming and micro-F1 losses."""

    def test_boundary_is_inclusive(self):
        lv = losses.loss_vector(np.full((2, 3), 0.5), np.ones((2, 3)), 0.5)
        assert lv.l1 == 0.0 and lv.l3 == 0.0

    def test_direct_comparison(self):
        lv = losses.loss_vector([[0.9, 0.2], [0.6, 0.4]], [[1, 0], [1, 0]], 0.5)
        assert lv.l1 == 0.0 and lv.l3 == 0.0

    def test_idempotent_on_binary(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert losses.loss_vector(m, m, 0.5) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.1, 1.5])
    def test_threshold_must_be_interior(self, t):
        with pytest.raises(ValueError):
            losses.loss_vector([[0.5]], [[1]], t)
        with pytest.raises(ValueError):
            losses.block_losses(np.full((1, 1, 1), 0.5), (losses.Truth([[1]]),), t)


class TestHamming:
    def test_perfect(self):
        m = np.array([[1, 0], [0, 1]])
        assert losses.loss_vector(m, m).l1 == 0.0

    def test_total_mismatch(self):
        t = np.array([[1, 0], [0, 1]])
        assert losses.loss_vector(1 - t, t).l1 == 1.0

    def test_hand_count(self):
        assert losses.loss_vector([[1, 0], [1, 0]], [[1, 0], [0, 1]]).l1 == 0.5

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            losses.loss_vector([[1, 0]], [[1], [0]])


class TestLrap:
    def test_perfect_ranking(self):
        scores = [[0.9, 0.8, 0.1, 0.05], [0.7, 0.1, 0.9, 0.2]]
        truth = [[1, 1, 0, 0], [1, 0, 1, 0]]
        assert losses.loss_vector(scores, truth).l2 == 0.0

    def test_hand_ranking(self):
        assert lrap([[0.9, 0.8, 0.7, 0.1]], [[1, 0, 1, 0]]) == pytest.approx(5 / 6)

    def test_single_label(self):
        assert losses.loss_vector([[0.13]], [[1]]).l2 == 0.0

    def test_all_zero_labels_undefined(self):
        with pytest.raises(UndefinedMetricError):
            losses.loss_vector([[0.3, 0.8]], [[0, 0]])

    def test_zero_positive_rows_skipped(self):
        scores = [[0.9, 0.8, 0.7, 0.1], [0.4, 0.3, 0.2, 0.1]]
        truth = [[1, 0, 1, 0], [0, 0, 0, 0]]
        assert lrap(scores, truth) == pytest.approx(5 / 6)

    def test_tied_scores_use_competition_rank(self):
        # both labels tied: rank 2 each, both positives at/above -> exactly 1
        assert lrap([[0.5, 0.5]], [[1, 1]]) == pytest.approx(1.0)
        # one positive among two tied scores: rank 2, one positive at/above
        assert lrap([[0.5, 0.5]], [[1, 0]]) == pytest.approx(0.5)

    def test_ties_never_push_above_one(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            scores = rng.integers(0, 2, (4, 5)) / 1.0
            truth = (rng.random((4, 5)) < 0.6).astype(int)
            truth[truth.sum(axis=1) == 0, 0] = 1
            assert losses.loss_vector(scores, truth).l2 >= -1e-12

    def test_matches_brute_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            scores = rng.random((6, 5))
            truth = (rng.random((6, 5)) < 0.4).astype(int)
            if not truth.any(axis=1).any():
                truth[0, 0] = 1
            assert lrap(scores, truth) == pytest.approx(brute_lrap(scores, truth), abs=1e-12)

    def test_matches_brute_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            scores = rng.integers(0, 3, (5, 4)) / 2.0  # heavy ties
            truth = (rng.random((5, 4)) < 0.5).astype(int)
            if not truth.any(axis=1).any():
                truth[0, 0] = 1
            assert lrap(scores, truth) == pytest.approx(brute_lrap(scores, truth), abs=1e-12)

    def test_matches_sklearn(self):
        sk = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(7)
        for _ in range(50):
            scores = np.round(rng.random((8, 6)), 1)  # some ties
            truth = (rng.random((8, 6)) < 0.4).astype(int)
            truth[truth.sum(axis=1) == 0, 0] = 1
            expected = sk.label_ranking_average_precision_score(truth, scores)
            assert lrap(scores, truth) == pytest.approx(expected, abs=1e-12)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(5)
        scores = rng.random((10, 4))
        truth = (rng.random((10, 4)) < 0.5).astype(int)
        truth[truth.sum(axis=1) == 0, 0] = 1
        perm = rng.permutation(10)
        assert lrap(scores, truth) == pytest.approx(lrap(scores[perm], truth[perm]))


class TestMicroF1:
    def test_perfect(self):
        m = np.array([[1, 0], [0, 1]])
        assert losses.loss_vector(m, m).l3 == 0.0

    def test_hand_counts(self):
        lv = losses.loss_vector([[1, 0], [1, 0]], [[1, 0], [0, 1]])
        assert 1.0 - lv.l3 == pytest.approx(0.5)

    def test_all_negative_prediction(self):
        assert losses.loss_vector([[0, 0]], [[1, 1]]).l3 == 1.0

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(5)
        pred = (rng.random((10, 4)) < 0.5).astype(int)
        truth = (rng.random((10, 4)) < 0.5).astype(int)
        perm = rng.permutation(10)
        lv, permuted = losses.loss_vector(pred, truth), losses.loss_vector(pred[perm], truth[perm])
        assert lv.l3 == permuted.l3
        assert lv.l1 == permuted.l1


def test_hamming_and_micro_f1_exhaustive_oracle():
    # all 2^(N*K) prediction matrices for a 3x3 problem, several truths, as
    # one label-major block of 512 candidates
    rng = np.random.default_rng(0)
    codes = np.arange(512)
    preds = ((codes[:, None] >> np.arange(9)) & 1).reshape(512, 3, 3)
    for _ in range(4):
        truth = (rng.random((3, 3)) < 0.5).astype(int)
        got = losses.block_losses(preds.transpose(0, 2, 1), (losses.Truth(truth),))[0]
        for pred, row in zip(preds, got):
            assert row[0] == pytest.approx(brute_hamming(pred, truth))
            assert 1.0 - row[2] == pytest.approx(brute_micro_f1(pred, truth))


class TestBce:
    def test_near_perfect_confidence(self):
        eps = losses.BCE_EPS
        assert bce([[1.0 - eps]], [[1]]) == pytest.approx(-math.log(1 - eps), rel=1e-6)

    def test_closed_form_at_half(self):
        assert bce([[0.5, 0.5]], [[1, 0]]) == pytest.approx(2 * math.log(2))

    def test_symmetric_case(self):
        # a negative at 0.5 costs what a positive at 0.5 costs
        assert bce([[0.5], [0.5]], [[1], [0]]) == pytest.approx(math.log(2))

    def test_clipping_keeps_loss_finite(self):
        assert np.isfinite(bce([[0.0, 1.0]], [[1, 0]]))

    def test_mean_over_samples_sum_over_labels(self):
        # two identical samples: same value as one; the two labels as two
        # samples of one label: half of one sample's sum over both
        one = bce([[0.3, 0.6]], [[1, 0]])
        assert bce([[0.3, 0.6]] * 2, [[1, 0]] * 2) == pytest.approx(one)
        assert 2 * bce([[0.3], [0.6]], [[1], [0]]) == pytest.approx(one)


class TestLossVector:
    def test_perfect_model(self):
        truth = [[1, 0], [0, 1]]
        assert losses.loss_vector(np.array(truth, dtype=float), truth) == (0.0, 0.0, 0.0)

    def test_composed_hand_example(self):
        lv = losses.loss_vector([[0.9, 0.2], [0.6, 0.4]], [[1, 0], [0, 1]])
        assert lv.l1 == pytest.approx(0.5)
        # row 1 ranks its positive first (1.0); row 2 ranks it second (1/2)
        assert lv.l2 == pytest.approx(1 - (1.0 + 0.5) / 2)
        assert lv.l3 == pytest.approx(0.5)

    def test_constant_scores_predict_everything(self):
        rng = np.random.default_rng(1)
        truth = (rng.random((8, 5)) < 0.4).astype(int)
        truth[truth.sum(axis=1) == 0, 0] = 1
        lv = losses.loss_vector(np.full((8, 5), 0.5), truth, 0.5)
        assert lv.l1 == pytest.approx(np.mean(truth == 0))

    def test_all_components_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores = rng.random((6, 4))
            truth = (rng.random((6, 4)) < 0.5).astype(int)
            truth[truth.sum(axis=1) == 0, 0] = 1
            lv = losses.loss_vector(scores, truth)
            assert all(0.0 <= v <= 1.0 for v in lv)

    @pytest.mark.parametrize("k", [1, 6, 53])
    def test_equals_the_one_candidate_row_of_block_losses(self, k):
        rng = np.random.default_rng(5000 + k)
        for n in (1, 7, 40):
            scores, truth = _grid_case(rng, n, k)
            for threshold in (0.3, 0.5, 0.9):
                for s in (scores, rng.random((n, k))):
                    lv = losses.loss_vector(s, losses.Truth(truth), threshold)
                    assert all(type(v) is float for v in lv)
                    assert list(lv) == one_row(s, truth, threshold)[:3].tolist()


def _grid_case(rng, n, k):
    """Scores on a 0.1 grid (ties, entries exactly at the 0.5 threshold) and
    truth with some rows that have no positive label."""
    scores = rng.integers(0, 11, (n, k)) / 10.0
    truth = (rng.random((n, k)) < rng.uniform(0.05, 0.6)).astype(int)
    truth[rng.random(n) < 0.2] = 0
    if not truth.any():
        truth[0, 0] = 1
    return scores, truth


class TestTruth:
    def test_indexes_positives_row_major(self):
        t = losses.Truth([[0, 1, 1], [0, 0, 0], [1, 0, 0]])
        # default placement: the block is the matrix's own 3 rows, and an
        # entry (row, label) sits at label * 3 + row, listed row-major
        assert t.offset == 0 and t.columns == 3
        assert t.block_cols.tolist() == [0, 0, 2]
        assert t.block_pos.tolist() == [3, 6, 2]
        assert t.block_neg.tolist() == [0, 1, 4, 7, 5, 8]
        assert t.row_truth.tolist() == [[0, 0, 1], [1, 1, 0], [1, 1, 0]]
        assert t.positives == 3
        # two counted rows: a row with two positives weighs 1/4 each
        assert t.weights.tolist() == [0.25, 0.25, 0.5]
        assert t.matrix.dtype == bool

    @pytest.mark.parametrize("bad", [[[0, 2]], [[0.5, 1]], [[np.nan, 1]], [0, 1], [[]]])
    def test_checked_once_when_built(self, bad):
        with pytest.raises(DimensionError):
            losses.Truth(bad)

    @pytest.mark.parametrize("bad", [[[0.2, np.nan]], [[1.5, 0.1]], [[-0.1, 0.3]], [0.4]])
    def test_scores_checked_when_built(self, bad):
        with pytest.raises(DimensionError):
            losses.loss_vector(bad, np.ones(np.shape(bad)))
        if np.ndim(bad) == 2:
            with pytest.raises(DimensionError):
                one_row(bad, np.ones(np.shape(bad)))

    @pytest.mark.parametrize("bad,message", [
        ([[0.2, np.nan]], "non-finite"), ([[np.nan, 0.2]], "non-finite"),
        ([[0.2, np.inf]], "non-finite"), ([[-np.inf, 0.2]], "non-finite"),
        ([[-0.5, np.nan]], "non-finite"), ([[1.5, np.nan]], "non-finite"),
        ([[0.3, -1e-300]], "must lie in"), ([[0.3, 1.0000000000000002, 0.2]], "must lie in"),
        ([[-0.0, 1.0], [0.5, -5e-324]], "must lie in")])
    def test_scores_refusals_name_the_rule(self, bad, message):
        with pytest.raises(DimensionError, match=message):
            losses.loss_vector(bad, np.ones(np.shape(bad)))
        with pytest.raises(DimensionError, match=message):
            one_row(bad, np.ones(np.shape(bad)))

    def test_scores_accept_the_closed_interval(self):
        edges = np.array([[0.0, 1.0, -0.0, 0.5]])
        assert losses.loss_vector(edges, [[0, 1, 0, 1]]) == (0.0, 0.0, 0.0)
        assert one_row(edges, [[0, 1, 0, 1]])[:3].tolist() == [0.0, 0.0, 0.0]

    def test_shape_mismatch_with_prepared_truth(self):
        t = losses.Truth([[1, 0], [0, 1]])
        with pytest.raises(DimensionError, match="shape mismatch"):
            losses.loss_vector([[0.3, 0.2, 0.1]], t)
        with pytest.raises(DimensionError, match="shape mismatch"):
            losses.loss_vector(np.ones((2, 3)), t)
        with pytest.raises(DimensionError, match="shape mismatch"):
            losses.block_losses(np.ones((1, 3, 2)), (t,))

    def test_undefined_lrap_through_prepared_truth(self):
        t = losses.Truth(np.zeros((3, 4), dtype=int))
        assert t.positives == 0
        with pytest.raises(UndefinedMetricError):
            losses.loss_vector(np.full((3, 4), 0.5), t)
        with pytest.raises(UndefinedMetricError):
            losses.block_losses(np.full((2, 4, 3), 0.5), (t,))


class TestPreparedTruthMatchesOracles:
    """A prepared ``Truth`` (as the trainer builds it) against plain arrays
    and the independent oracles, over random populations."""

    @pytest.mark.parametrize("k", [1, 6, 14, 53, 174])
    def test_population(self, k):
        rng = np.random.default_rng(1000 + k)
        n = 40 if k < 100 else 12
        scores0, truth = _grid_case(rng, n, k)
        prepared = losses.Truth(truth)
        for member in range(8):
            scores = scores0 if member == 0 else _grid_case(rng, n, k)[0]
            lv = losses.loss_vector(scores, prepared)
            assert lv == losses.loss_vector(scores, truth)
            assert bce(scores, truth) == gather_bce(scores, truth)
            pred = (scores >= 0.5).astype(int)
            assert lv.l1 == pytest.approx(brute_hamming(pred, truth), abs=1e-12)
            assert lv.l2 == pytest.approx(1.0 - brute_lrap(scores, truth), abs=1e-12)
            assert lv.l2 == pytest.approx(1.0 - cube_lrap(scores, truth), abs=1e-12)
            assert lv.l3 == pytest.approx(1.0 - brute_micro_f1(pred, truth), abs=1e-12)

    @pytest.mark.parametrize("k", [1, 6, 14, 53])
    def test_bitwise_equal_to_former_forms(self, k):
        # 0.1-grid scores: ties, entries exactly on the threshold, and rows
        # without a positive label; then continuous scores
        rng = np.random.default_rng(2000 + k)
        for n in (1, 7, 40, 593):
            for scores in (_grid_case(rng, n, k)[0], rng.random((n, k))):
                truth = _grid_case(rng, n, k)[1]
                pred = scores >= 0.5
                for t in (losses.Truth(truth), truth):
                    lv = losses.loss_vector(scores, t)
                    assert type(lv.l1) is float and type(lv.l2) is float
                    assert lv.l1 == mean_hamming(pred, truth)
                    assert lv.l2 == 1.0 - gather_lrap(scores, truth)

    def test_bce_against_direct_sum(self):
        rng = np.random.default_rng(12)
        scores, truth = _grid_case(rng, 30, 14)
        p = np.clip(scores, losses.BCE_EPS, 1 - losses.BCE_EPS)
        direct = np.mean([-sum(np.log(p[i, j]) if truth[i, j] else np.log1p(-p[i, j])
                               for j in range(14)) for i in range(30)])
        assert bce(scores, truth) == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 6, 14, 53])
    def test_bce_within_tolerance_of_two_log_form(self, k):
        # continuous and 0.1-grid scores, then the clipping edges 0, 1, eps and
        # 1 - eps, each on all-positive rows and on negative rows (with one
        # positive entry, since truth needs a positive label), alone and mixed
        rng = np.random.default_rng(3000 + k)
        eps = losses.BCE_EPS
        cases = [(rng.random((40, k)), _grid_case(rng, 40, k)[1]), _grid_case(rng, 40, k)]
        for edge in (0.0, 1.0, eps, 1.0 - eps):
            for label in (0, 1):
                labels = np.full((5, k), label)
                labels[-1, -1] = 1
                cases.append((np.full((5, k), edge), labels))
        edges = rng.choice([0.0, 1.0, eps, 1.0 - eps], (12, k))
        labels = np.repeat([[0], [1]], 6, axis=0) * np.ones(k, dtype=int)
        cases.append((edges, labels))
        for scores, truth in cases:
            assert bce(scores, truth) == pytest.approx(two_log_bce(scores, truth), rel=1e-12, abs=0)

    def test_lrap_matches_cube_on_continuous_scores(self):
        rng = np.random.default_rng(13)
        for k in (2, 6, 14, 53):
            scores = rng.random((200, k))
            truth = (rng.random((200, k)) < 0.3).astype(int)
            assert losses.loss_vector(scores, losses.Truth(truth)).l2 == pytest.approx(
                1.0 - cube_lrap(scores, truth), abs=1e-12)


class TestGeometricMean:
    def test_published_benchmark_value(self):
        # 3-decimal inputs reproduce the published 6-decimal aggregate to 1e-4
        assert losses.geometric_mean((0.547, 0.713, 0.647)) == pytest.approx(0.631976, abs=5e-4)

    def test_annihilator(self):
        assert losses.geometric_mean((0.0, 0.4, 0.9)) == 0.0

    def test_identity(self):
        assert losses.geometric_mean((1.0, 1.0, 1.0)) == 1.0

    @pytest.mark.parametrize("v,error", [((0.1, 0.2), DimensionError),
                                         ((0.1, -0.2, 0.3), ValueError)],
                             ids=["two-components", "negative-component"])
    def test_refused_vector(self, v, error):
        with pytest.raises(error):
            losses.geometric_mean(v)

    def test_bounded_by_min_and_max(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            v = rng.random(3)
            g = losses.geometric_mean(v)
            assert v.min() - 1e-12 <= g <= v.max() + 1e-12


def _block_case(rng, k, n_tr, n_va, b, saturated=False):
    """A label-major (b, K, n_tr + n_va) block of scores (0.1-grid ties and
    threshold hits, continuous, or saturated at 0, 1 and the BCE clip edges)
    and its truth, with rows that have no positive label in both splits."""
    n = n_tr + n_va
    if saturated:
        eps = losses.BCE_EPS
        scores = rng.choice([0.0, 1.0, eps, 1.0 - eps, 0.5], (b, k, n))
    else:
        scores = rng.integers(0, 11, (b, k, n)) / 10.0
        scores[::2] = rng.random((len(scores[::2]), k, n))
    truth = _grid_case(rng, n, k)[1]
    truth[[0, n_tr]] = 1            # each split: a row of every label,
    truth[[n_tr - 1, n - 1]] = 0    # and one of none where it has two rows
    truth[[0, n_tr], 0] = 1
    return scores, truth


class TestBlockLosses:
    """``block_losses`` on a label-major block against the oracles' losses of
    each candidate's N x K scores of each split, bit for bit."""

    @pytest.mark.parametrize("k", [1, 6, 14, 53])
    @pytest.mark.parametrize("saturated", [False, True])
    def test_bitwise_equal_to_per_candidate_losses(self, k, saturated):
        rng = np.random.default_rng(4000 + k + 100 * saturated)
        for n_tr, n_va, b in ((1, 1, 1), (7, 3, 2), (40, 13, 5), (332, 83, 7)):
            scores, truth = _block_case(rng, k, n_tr, n_va, b, saturated)
            n = n_tr + n_va
            splits = (losses.Truth(truth[:n_tr], 0, n), losses.Truth(truth[n_tr:], n_tr, n))
            got = losses.block_losses(scores, splits)
            assert got.shape == (2, b, 4)
            for (lo, hi), per_split in zip(((0, n_tr), (n_tr, n)), got):
                for cand, row in zip(scores, per_split):
                    assert row.tolist() == oracle_row(cand.T[lo:hi], truth[lo:hi])

    def test_ranks_beyond_255_labels(self):
        # 300 labels on a 0 / 0.5 / 1 grid: ranks and true-above counts pass
        # 255, the most that one byte holds
        rng = np.random.default_rng(4300)
        scores, truth = _block_case(rng, 300, 7, 3, 3, saturated=True)
        splits = (losses.Truth(truth[:7], 0, 10), losses.Truth(truth[7:], 7, 10))
        got = losses.block_losses(scores, splits)
        for (lo, hi), per_split in zip(((0, 7), (7, 10)), got):
            for cand, row in zip(scores, per_split):
                assert row.tolist() == oracle_row(cand.T[lo:hi], truth[lo:hi])

    def test_all_negative_split_rows_and_all_positive_labels(self):
        # a split whose rows are all negative but one, and a block thresholded
        # above every score: micro F1 then counts no hit
        truth = np.zeros((6, 3), dtype=int)
        truth[2, 1] = 1
        scores = np.full((2, 3, 6), 0.25)
        scores[1, 1, 2] = 0.75
        got = losses.block_losses(scores, (losses.Truth(truth),))
        for cand, row in zip(scores, got[0]):
            assert row.tolist() == oracle_row(cand.T, truth)
        assert got[0, 1, :3].tolist() == [0.0, 0.0, 0.0]

    def test_split_without_a_positive_label_is_undefined(self):
        truth = np.zeros((4, 3), dtype=int)
        with pytest.raises(UndefinedMetricError, match="no sample has a positive label"):
            losses.block_losses(np.full((2, 3, 4), 0.5), (losses.Truth(truth),))

    @pytest.mark.parametrize("bad,message", [
        (np.nan, "scores contains non-finite entries"),
        (np.inf, "scores contains non-finite entries"),
        (1.5, r"scores entries must lie in \[0, 1\]"),
        (-1e-300, r"scores entries must lie in \[0, 1\]")])
    def test_refused_scores_name_the_rule(self, bad, message):
        scores = np.full((3, 2, 5), 0.5)
        scores[2, 1, 4] = bad
        with pytest.raises(DimensionError, match=message):
            losses.block_losses(scores, (losses.Truth(np.eye(5, 2, dtype=int)),))

    def test_placement_must_fit_the_block(self):
        truth = losses.Truth(np.eye(4, 2, dtype=int), 3, 7)
        assert truth.block_cols.tolist() == [3, 4]
        assert truth.block_pos.tolist() == [3, 7 + 4]
        with pytest.raises(DimensionError):
            losses.block_losses(np.full((1, 2, 6), 0.5), (truth,))
        with pytest.raises(DimensionError):
            losses.block_losses(np.full((1, 3, 7), 0.5), (truth,))
        with pytest.raises(DimensionError):
            losses.Truth(np.eye(4, 2, dtype=int), 4, 7)
