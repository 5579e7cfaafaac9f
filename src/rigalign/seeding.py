"""Deterministic seed derivation; all randomness flows through explicit seeds."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

# SeedSequence splits a wider integer into 32-bit words, so [2**32] would
# derive the same seed as [0, 1]: every part stays below this.
SEED_LIMIT = 2**32


def check_seed(value: int, name: str, error=InvalidInput) -> int:
    """`value` if it lies in [0, 2**32), the range derive_seed takes; else `error`."""
    if value < 0:
        raise error(f"{name} must be >= 0; got {value}")
    if value >= SEED_LIMIT:
        raise error(f"{name} must be < 2**32; got {value}")
    return value


def derive_seed(*parts: int) -> int:
    """Stable 64-bit child seed from a tuple of integer parts in [0, 2**32)."""
    ss = np.random.SeedSequence([check_seed(int(p), "seed part") for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])
