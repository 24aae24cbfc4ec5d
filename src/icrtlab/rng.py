"""Seeded random-number streams.

Every sampler takes an explicit numpy Generator.  Generators are derived from
a (seed, stream) pair through the counter-based Philox algorithm, so the same
(seed, stream) always reproduces the same numbers regardless of platform or
of how replicates are distributed across workers.
"""
from __future__ import annotations

import numpy as np


def make_generator(seed: int, stream: int = 0, *subkeys: int) -> np.random.Generator:
    """Generator for a (seed, stream) pair, optionally refined by subkeys.

    Replicate r of an experiment uses make_generator(seed, stream, r); the
    derivation only depends on the indices, never on worker assignment.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in (stream, *subkeys)))
    return np.random.Generator(np.random.Philox(ss))
