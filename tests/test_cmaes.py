from dataclasses import replace

import numpy as np
import pytest

from hvml.cmaes import (CmaState, covariance_weights, default_weights, evolve,
                        ranked_steps, sample_population, update_covariance)

from oracles import dense_covariance
from sphere import minimize_sphere


def small_state(n=2, lam=8, mu=4, sigma=0.5, c_cov=0.2):
    return CmaState.initial(n, sigma=sigma, lambda_pop=lam, mu=mu, c_cov=c_cov)


def low_rank_cov(state):
    """C = a I + sum_j w_j v_j v_j^T from the state's update vectors."""
    a, w = covariance_weights(state)
    return a * np.eye(state.n_dims) + (state.cov_steps.T * w) @ state.cov_steps


def updated(state, steps):
    v = default_weights(state.mu) @ steps[: state.mu]
    return replace(state, cov_steps=update_covariance(state, v))


class TestWeights:
    @pytest.mark.parametrize("mu", list(range(1, 65)))
    def test_invariants(self, mu):
        w = default_weights(mu)
        assert w.shape == (mu,)
        assert (w > 0).all()
        assert (np.diff(w) < 0).all() or mu == 1
        assert w.sum() == pytest.approx(1.0)


class TestSampling:
    def test_same_seed_same_population(self):
        state = small_state()
        a = sample_population(state, 11)
        b = sample_population(state, 11)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_population(state, 12))

    def test_zero_sigma_degenerates_to_mean(self):
        state = small_state(sigma=0.0)
        pop = sample_population(state, 0)
        assert np.array_equal(pop, np.tile(state.mean, (state.lambda_pop, 1)))

    def test_identity_covariance_statistics(self):
        state = CmaState.initial(2, sigma=1.0, lambda_pop=100_000, mu=2, c_cov=0.1)
        pop = sample_population(state, 99)
        cov = np.cov(pop.T)
        assert np.abs(cov - np.eye(2)).max() < 0.05

    def test_population_shape(self):
        state = small_state(n=5, lam=12)
        assert sample_population(state, 0).shape == (12, 5)

    def test_sample_covariance_matches_adapted_covariance(self):
        state = CmaState.initial(3, sigma=1.0, lambda_pop=100_000, mu=2, c_cov=0.3)
        state = replace(state, cov_steps=np.array([[2.0, -1.0, 0.5], [0.3, 1.5, -2.0],
                                                   [1.0, 1.0, 1.0]]))
        cov = dense_covariance(state)
        assert np.linalg.eigvalsh(cov)[0] < 0.5 * np.linalg.eigvalsh(cov)[-1]
        pop = sample_population(state, 17)
        assert np.abs(np.cov(pop.T) - cov).max() < 0.05 * np.abs(cov).max()
        assert np.abs(pop.mean(axis=0)).max() < 0.03

    def test_sampling_survives_rank_deficient_covariance(self):
        # c_cov = 1 leaves C = v v^T: all spread lies along v
        state = CmaState(mean=np.zeros(2), cov_steps=np.array([[1.0, 0.0]]),
                         sigma=1.0, lambda_pop=4, mu=2, c_cov=1.0)
        pop = sample_population(state, 0)
        assert np.isfinite(pop).all()
        assert (pop[:, 1] == 0.0).all() and (pop[:, 0] != 0.0).all()


class TestMeanUpdate:
    def test_single_parent_moves_to_best(self):
        state = CmaState.initial(3, sigma=0.4, lambda_pop=4, mu=1, c_cov=0.1)
        best = np.array([1.0, -2.0, 0.5])
        top = np.array([best, best + 1, best + 2, best - 1])
        assert evolve(state, top).mean == pytest.approx(best)

    def test_zero_steps_keep_mean(self):
        state = small_state()
        pop = np.tile(state.mean, (state.mu, 1))
        assert evolve(state, pop).mean == pytest.approx(state.mean)

    def test_weighted_sum_by_hand(self):
        # default_weights(2): log(3) - log(1) and log(3) - log(2), over their sum log(4.5)
        state = CmaState.initial(2, sigma=1.0, lambda_pop=4, mu=2, c_cov=0.1)
        top = state.mean + np.array([[1.0, 0.0], [0.0, 1.0]])
        w = np.array([np.log(3.0), np.log(1.5)]) / np.log(4.5)
        assert w == pytest.approx([0.7304, 0.2696], abs=1e-4)
        assert evolve(state, top).mean == pytest.approx(state.mean + w)

    def test_too_few_candidates(self):
        state = small_state(mu=4)
        with pytest.raises(ValueError):
            ranked_steps(state, np.zeros((3, 2)))


class TestCovarianceUpdate:
    def test_zero_learning_rate_is_identity(self):
        state = small_state(c_cov=0.0)
        steps = ranked_steps(state, sample_population(state, 3)[: state.mu])
        assert np.array_equal(low_rank_cov(updated(state, steps)), np.eye(2))

    def test_full_learning_rate_outer_product(self):
        state = CmaState.initial(2, sigma=1.0, lambda_pop=4, mu=1, c_cov=1.0)
        steps = np.array([[1.0, 0.0]])
        assert np.array_equal(low_rank_cov(updated(state, steps)), [[1.0, 0.0], [0.0, 0.0]])

    def test_zero_steps_shrink_only(self):
        state = small_state(c_cov=0.3)
        steps = np.zeros((state.mu, 2))
        assert low_rank_cov(updated(state, steps)) == pytest.approx(0.7 * np.eye(2), abs=1e-15)

    @pytest.mark.parametrize("c_cov", [0.0, 0.1, 1.0],
                             ids=["0.0-False", "0.1-False", "1.0-False"])
    def test_matches_dense_recurrence(self, c_cov):
        rng = np.random.default_rng(7)
        state = small_state(n=6, lam=10, mu=5, sigma=0.5, c_cov=c_cov)
        for i in range(200):
            pop = sample_population(state, i)
            state = evolve(state, pop[rng.permutation(state.lambda_pop)[: state.mu]])
            dense = dense_covariance(state)
            scale = max(1.0, np.abs(dense).max())
            assert np.abs(low_rank_cov(state) - dense).max() <= 1e-12 * scale, i
        assert state.cov_steps.shape == (200, 6)

    def test_stays_symmetric_and_psd_over_many_updates(self):
        rng = np.random.default_rng(42)
        state = small_state(n=6, lam=10, mu=5, c_cov=0.25)
        for i in range(200):
            pop = sample_population(state, i)
            order = rng.permutation(state.lambda_pop)
            state = evolve(state, pop[order[: state.mu]])
            cov = low_rank_cov(state)
            assert np.abs(cov - cov.T).max() <= 1e-12
            assert np.linalg.eigvalsh(cov)[0] >= 0.0

    def test_evolve_is_pure(self):
        state = small_state(n=4, lam=8, mu=3, c_cov=0.2)
        for i in range(3):
            state = evolve(state, sample_population(state, i)[: state.mu])
        mean, steps = state.mean.copy(), state.cov_steps.copy()
        ranked = sample_population(state, 9)[: state.mu]
        a, b = evolve(state, ranked), evolve(state, ranked)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.cov_steps, b.cov_steps)
        assert np.array_equal(state.mean, mean) and np.array_equal(state.cov_steps, steps)
        assert np.array_equal(a.cov_steps[:-1], steps)


class TestSphere:
    def test_budget_zero_returns_initial_value(self):
        assert minimize_sphere(5, 0, seed=0) == 5.0
        assert minimize_sphere(3, 0, seed=9) == 3.0

    def test_dim5_converges(self):
        assert minimize_sphere(5, 300, seed=12345, lambda_pop=16, mu=8) < 1e-3

    def test_dim1_converges_tighter(self):
        assert minimize_sphere(1, 300, seed=12345, lambda_pop=16, mu=8) < 1e-6

    def test_deterministic(self):
        a = minimize_sphere(4, 50, seed=7)
        b = minimize_sphere(4, 50, seed=7)
        assert a == b
