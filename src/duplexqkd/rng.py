"""Deterministic seed derivation.

Every simulation consumes randomness from a ``random.Random`` built here, so
a run is fully determined by its integer seed path.  Derived streams use a
documented counter scheme: session ``k`` of a run with master seed ``s``
draws from ``seeded_rng(s, k)``; sweep cell ``c`` prepends its cell index,
``seeded_rng(s, c, k)``.  Hashing the path through SHA-256 keeps the scheme
stable across platforms and Python versions.  A session's quantum phase
draws from a numpy generator seeded with 64 bits of its ``random.Random``
(``session_generator``), so it too is fixed by the seed path.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

__all__ = ["derive_seed", "seeded_rng", "session_generator"]


def derive_seed(*path: int) -> int:
    """Map an integer seed path to a single 64-bit seed."""
    if not path:
        raise ValueError("seed path must contain at least one integer")
    label = ":".join(str(int(p)) for p in path)
    digest = hashlib.sha256(label.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def seeded_rng(*path: int) -> random.Random:
    """Return a ``random.Random`` seeded from the given path."""
    return random.Random(derive_seed(*path))


def session_generator(rng: random.Random) -> np.random.Generator:
    """The numpy generator a session's transmission draws from ``rng``."""
    return np.random.default_rng(rng.getrandbits(64))
