"""Coding bases, bit values, and the abstract channel.

Every state handled by the protocol is an eigenstate of one of the two
complementary observables, so a state is fully described by a basis and a
bit.  The measurement rules (the preparation basis returns the encoded bit,
the complementary basis a fair coin) are applied by the ``transmission``
kernel; this module holds the vocabulary and the channel parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Basis", "Bit", "ChannelModel"]


class Basis(Enum):
    """The two complementary coding bases."""

    X = "X"
    Y = "Y"

    def __str__(self) -> str:
        return self.value


# Classical bit value carried by a state: 0 or 1.
Bit = int


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
