"""Counter-based deterministic random numbers.

A stateless splitmix64 mix of (seed, trial index): every trial's uniform
depends only on the key pair, so samples are reproducible under any execution
order or parallel split. Vectorizes over trial indices.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

GENERATOR_NAME = "splitmix64"


def counter_uniform(seed: int, trials: np.ndarray | int) -> np.ndarray | float:
    """Uniforms in [0, 1) keyed by (seed, trial); trial may be a uint64 array."""
    scalar = np.isscalar(trials)
    t = np.atleast_1d(np.asarray(trials, dtype=np.uint64))
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN * (t + np.uint64(1))
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    return float(u[0]) if scalar else u
