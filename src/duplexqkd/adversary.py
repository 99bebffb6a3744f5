"""Pluggable intercept-resend eavesdropper.

Eve sits between the two endpoints and sees every transmitted state in both
directions.  When she intercepts, she measures in a basis chosen by her
policy, keeps a record of what she saw, and forwards the collapsed
eigenstate.  Her resend is noiseless: channel imperfections are modelled
separately so attack strength and channel quality stay independently
tunable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .quantum import Basis, Bit, QubitState, measure, prepare

__all__ = ["BasisPolicy", "EveStrategy", "EveRecord", "maybe_intercept"]


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


def _policy_basis(policy: BasisPolicy, rng: random.Random) -> Basis:
    if policy is BasisPolicy.ALWAYS_X:
        return Basis.X
    if policy is BasisPolicy.ALWAYS_Y:
        return Basis.Y
    return Basis.X if rng.random() < 0.5 else Basis.Y


def maybe_intercept(
    timeslot: int,
    state: QubitState,
    strategy: EveStrategy,
    rng: random.Random,
) -> tuple[QubitState, EveRecord | None]:
    """Give Eve a chance at one slot; return the forwarded state and her record.

    A same-basis interception is invisible: the forwarded eigenstate equals
    the input.  A cross-basis interception collapses the state onto Eve's
    basis, which is what the protocol later detects.
    """
    if strategy.intercept_fraction == 0.0 or rng.random() >= strategy.intercept_fraction:
        return state, None
    basis = _policy_basis(strategy.basis_policy, rng)
    outcome = measure(state, basis, rng)
    return prepare(basis, outcome), EveRecord(timeslot, basis, outcome)
