"""Hierarchical seed derivation.

All randomness in a run flows from one root seed. Independent streams are
derived from (root, stream, *key) tuples via numpy's SeedSequence, so any
component can be re-derived in isolation: results do not depend on the order
in which streams are consumed, which is what makes a resumed run
bit-identical to an uninterrupted one.

Stream ids used by the package:

== ======================================================
id purpose
== ======================================================
0  dataset train/validation/test split
1  population sampling, keyed by epoch
2  ``hvml hv --mc-samples`` estimates, keyed by (0, row)
3  synthetic dataset generation
4  sweep runs, keyed by embedding dimension
== ======================================================
"""

from __future__ import annotations

import numpy as np

STREAM_SPLIT = 0
STREAM_SAMPLE = 1
STREAM_MC = 2
STREAM_SYNTH = 3
STREAM_SWEEP = 4


def seed_sequence(root_seed: int, stream: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(root_seed), int(stream)) + tuple(int(k) for k in key))


def rng_for(root_seed: int, stream: int, *key: int) -> np.random.Generator:
    """Generator for one derived stream; same (root, stream, key) -> same stream."""
    return np.random.default_rng(seed_sequence(root_seed, stream, *key))
