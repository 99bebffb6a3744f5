"""The intercept-resend eavesdropper's configuration and records.

Eve sits between the two endpoints and sees every transmitted state in both
directions.  When she intercepts, she measures in a basis chosen by her
policy, keeps a record of what she saw, and forwards the collapsed
eigenstate; the ``transmission`` kernel applies these rules.  Her resend is
noiseless: channel imperfections are modelled separately so attack strength
and channel quality stay independently tunable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .quantum import Basis, Bit

__all__ = ["BasisPolicy", "EveStrategy", "EveRecord"]


class BasisPolicy(Enum):
    """How Eve picks her measurement basis for an intercepted slot."""

    UNIFORM_RANDOM = "uniform_random"
    ALWAYS_X = "always_X"
    ALWAYS_Y = "always_Y"


@dataclass(frozen=True, slots=True)
class EveStrategy:
    """Adversary configuration.

    ``intercept_fraction`` is the per-slot probability of interception;
    ``basis_policy`` selects the measurement basis for intercepted slots.
    Eve is absent exactly when the fraction is 0.
    """

    intercept_fraction: float = 0.0
    basis_policy: BasisPolicy = BasisPolicy.UNIFORM_RANDOM

    def __post_init__(self) -> None:
        if not 0.0 <= self.intercept_fraction <= 1.0:
            raise ValueError(
                f"intercept_fraction must lie in [0, 1], got {self.intercept_fraction!r}"
            )

    @classmethod
    def absent(cls) -> "EveStrategy":
        return cls()

    @classmethod
    def intercept_resend(
        cls,
        intercept_fraction: float = 1.0,
        basis_policy: BasisPolicy = BasisPolicy.UNIFORM_RANDOM,
    ) -> "EveStrategy":
        return cls(intercept_fraction, basis_policy)


@dataclass(frozen=True, slots=True)
class EveRecord:
    """One intercepted slot: where, in which basis, and what Eve observed."""

    timeslot: int
    measured_basis: Basis
    measured_bit: Bit

