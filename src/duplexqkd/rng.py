"""Deterministic seed and key derivation.

A run is fully determined by its integer seed path.  Session ``k`` of a run
with master seed ``s`` has the seed ``derive_seed(s, k)`` and the key
``session_generator(seeded_rng(derive_seed(s, k)))``; sweep cell ``c`` runs
its sessions with the master seed ``derive_seed(s, c)``.  Hashing the path
through SHA-256 keeps the scheme stable across platforms and Python
versions.  The ``random.Random`` built here only derives the session's
64-bit key: every coin of the simulation is a word of the key's
counter-based stream (see ``transmission``).
"""

from __future__ import annotations

import hashlib
import random

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


def session_generator(rng: random.Random) -> int:
    """The 64-bit key of the session whose coins ``rng`` derives."""
    return rng.getrandbits(64)
