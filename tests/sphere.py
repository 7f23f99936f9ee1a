"""The optimizer on its own: the CMA-ES loop (sample, rank, evolve) on the
sphere f(x) = ||x||^2, with no model or losses around it."""

import numpy as np

from hvml.cmaes import CmaState, evolve, sample_population


def minimize_sphere(dim: int, budget: int, seed, lambda_pop: int = 16, mu: int = 8) -> float:
    """Run the loop on the sphere from m = (1,...,1) with sigma 0.3 and the
    default covariance rate, drawing epoch e's population from the seed
    sequence (seed's entropy, e).

    Returns the best function value seen; budget counts epochs (budget 0
    returns f of the initial mean, which is dim).
    """
    state = CmaState.initial(dim, mean=np.ones(dim), lambda_pop=lambda_pop, mu=mu)
    best = float(np.sum(state.mean**2))
    root = np.random.SeedSequence(seed)
    for epoch in range(int(budget)):
        pop = sample_population(state, np.random.SeedSequence((root.entropy, epoch)))
        values = np.sum(pop**2, axis=1)
        best = min(best, float(values.min()))
        order = np.argsort(values, kind="stable")  # ascending; ties keep sample order
        state = evolve(state, pop[order[: state.mu]])
    return best
