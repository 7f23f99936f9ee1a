"""Hypervolume-guided multi-label learning.

A small feedforward scorer is trained against three multi-label losses at
once (hamming, 1 - LRAP, 1 - micro F1) by a rank-one CMA-ES whose fitness is
each candidate's hypervolume contribution in loss space. The package also
ships the evaluation stack: exact and Monte Carlo hypervolume, non-dominated
archives, multi-label metrics, dataset loaders with iterative stratification,
and Friedman / critical-difference reporting.
"""

from importlib import resources

from .losses import LossVector, loss_vector, geometric_mean
from .pareto import Front, exact_contribution, exact_contributions, exact_hypervolume, \
    hv_decomposition, mc_contribution, update_reference_set
from .model import ModelParams, ModelShape, forward
from .cmaes import CmaState, sample_population
from .data import Dataset, SplitIndices, compute_stats, load_arff, load_csv, load_manifest, \
    normalize, stratified_split
from .trainer import TrainConfig, TrainResult, evaluate, train
from .report import ResultsTable, critical_difference, friedman_statistic

__version__ = "0.1.0"


def benchmark_results_path():
    """Path to the bundled benchmark table: loss triples, hypervolume
    contributions, and geometric means of seven multi-label methods on nine
    public datasets."""
    return resources.files("hvml") / "fixtures" / "benchmark_results.csv"
