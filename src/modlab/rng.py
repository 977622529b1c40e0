"""Counter-based deterministic random numbers.

A stateless splitmix64 mix of (seed, trial index): every trial's uniform
depends only on the key pair, so samples are reproducible under any execution
order or parallel split. Vectorizes over trial indices.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ArgumentError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

GENERATOR_NAME = "splitmix64"


def check_seed(seed: int) -> None:
    """The seed rule: an integer from 0 to 2**64 - 1, a Python or a numpy one;
    anything else, a bool too, raises ArgumentError."""
    if (not isinstance(seed, numbers.Integral) or isinstance(seed, bool)
            or not 0 <= int(seed) < 2**64):
        raise ArgumentError(f"seed must be an integer from 0 to 2**64 - 1, got {seed!r}")


def counter_uniform(seed: int, trials: np.ndarray | int) -> np.ndarray | float:
    """Uniforms in [0, 1) keyed by (seed, trial); trial may be a uint64 array."""
    check_seed(seed)
    scalar = np.isscalar(trials)
    t = np.atleast_1d(np.asarray(trials, dtype=np.uint64))
    z = np.uint64(seed) + _GOLDEN * (t + np.uint64(1))
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    u = (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    return float(u[0]) if scalar else u
