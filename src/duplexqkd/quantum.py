"""Qubit states, complementary-basis measurement, and the abstract channel.

Every state handled by the protocol is an eigenstate of one of the two
complementary observables, so a state is represented exactly as a
``(basis, bit)`` pair: ``+`` eigenstates carry bit value 1, ``-`` eigenstates
carry bit value 0.  Measuring in the preparation basis returns the encoded
bit; measuring in the complementary basis returns a fair coin, and the state
collapses onto the eigenstate of the outcome.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Basis",
    "Bit",
    "QubitState",
    "ChannelModel",
    "prepare",
    "measure",
    "transmit",
]


class Basis(Enum):
    """The two complementary coding bases."""

    X = "X"
    Y = "Y"

    def __str__(self) -> str:
        return self.value


# Classical bit value carried by a state: 0 or 1.
Bit = int


def _check_bit(bit: int) -> int:
    if bit not in (0, 1):
        raise ValueError(f"bit value must be 0 or 1, got {bit!r}")
    return bit


@dataclass(frozen=True, slots=True)
class QubitState:
    """An eigenstate of one coding basis, identified by (basis, bit)."""

    basis: Basis
    bit: Bit


@dataclass(frozen=True, slots=True)
class ChannelModel:
    """Abstract lossy/noisy link.

    ``loss_probability`` is the chance a transmitted state never arrives;
    ``flip_probability`` is the chance the arriving state has its bit
    inverted within its own basis.  Both default to an ideal channel.
    """

    loss_probability: float = 0.0
    flip_probability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_probability", "flip_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p!r}")


def prepare(basis: Basis, bit: Bit) -> QubitState:
    """Encode a classical bit as the matching eigenstate of ``basis``."""
    return QubitState(basis, _check_bit(bit))


def measure(state: QubitState, basis: Basis, rng: random.Random) -> Bit:
    """Read a state in ``basis`` and return the observed bit.

    Same-basis measurement is deterministic.  Cross-basis measurement
    returns 0 or 1 with equal probability; the post-measurement state is
    ``prepare(basis, outcome)``, which callers construct when they need the
    collapsed state (re-measuring it in ``basis`` repeats the outcome).
    """
    if basis is state.basis:
        return state.bit
    return 1 if rng.random() < 0.5 else 0


def transmit(
    state: QubitState, channel: ChannelModel, rng: random.Random
) -> QubitState | None:
    """Send a state through the channel; ``None`` means it was lost."""
    if rng.random() < channel.loss_probability:
        return None
    if rng.random() < channel.flip_probability:
        return QubitState(state.basis, state.bit ^ 1)
    return state
