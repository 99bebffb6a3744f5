"""Single-direction BB84 baseline with random-sample error estimation.

The reference point the duplex protocol is measured against.  One session:

1. per timeslot, Alice draws a uniform basis and bit and sends the state;
2. Eve may intercept and resend; the channel may lose or flip it;
3. Bob measures in his own uniform basis and both parties keep
   (timeslot, basis, bit) notes;
4. slots that were lost or measured in the wrong basis are discarded;
5. a random sample of the survivors is compared in public to estimate the
   error rate, then thrown away;
6. the remaining slots, renumbered consecutively, are the key candidates.

Unlike the duplex scheme, the compared sample is sacrificed: those bits are
published and cannot become key material.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .adversary import EveRecord, EveStrategy
from .quantum import Bit, ChannelModel
from .rng import seeded_rng, session_generator
from .transmission import SlotColumns, SlotRecord, intercept_records, slot_records, transmit_columns

__all__ = ["Bb84Config", "Bb84Outcome", "run_bb84", "sift"]


def sift(records: list[SlotRecord]) -> list[SlotRecord]:
    """Keep the slots that arrived and were measured in the sending basis.

    Order is preserved, so the output is a subsequence of the input.
    """
    return [r for r in records if r.receiver_bit is not None and r.bases_match]


@dataclass(frozen=True)
class Bb84Config:
    """Parameters of one baseline session.

    ``sample_fraction`` sizes the public comparison as
    ``ceil(sample_fraction * sifted)``; ``sample_count``, when given, fixes
    the exact number of compared slots instead (handy for detection-power
    experiments).  A session is flagged as compromised when the estimated
    error rate exceeds ``detection_threshold``.
    """

    n_timeslots: int
    channel: ChannelModel = ChannelModel()
    eve: EveStrategy = EveStrategy.absent()
    sample_fraction: float = 0.25
    sample_count: int | None = None
    detection_threshold: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_timeslots < 1:
            raise ValueError(f"n_timeslots must be >= 1, got {self.n_timeslots}")
        if not 0.0 < self.sample_fraction < 1.0:
            raise ValueError(
                f"sample_fraction must lie strictly between 0 and 1, got {self.sample_fraction!r}"
            )
        if self.sample_count is not None and self.sample_count < 0:
            raise ValueError("sample_count must be non-negative")
        if not 0.0 <= self.detection_threshold <= 1.0:
            raise ValueError("detection_threshold must lie in [0, 1]")


class Bb84Outcome:
    """Result of one baseline session.

    ``key_timeslots`` maps the renumbered key positions back to original
    timeslots (entry i is the origin of key bit i), so reports can always
    point at the physical slot a bit came from.  The per-slot lists are
    built from the session's columns the first time they are read; the
    count properties never build them.
    """

    def __init__(
        self,
        columns: SlotColumns,
        sifted: np.ndarray,
        sampled: np.ndarray,
        kept: np.ndarray,
        sample_errors: int,
        detection_threshold: float,
    ):
        self.columns = columns
        self._sifted, self._sampled, self._kept = sifted, sampled, kept
        self.sample_errors = sample_errors
        self.estimated_error_rate = sample_errors / len(sampled) if len(sampled) else 0.0
        self.detected = self.estimated_error_rate > detection_threshold

    @property
    def sifted_count(self) -> int:
        return len(self._sifted)

    @property
    def sampled_count(self) -> int:
        return len(self._sampled)

    @property
    def key_length(self) -> int:
        return len(self._kept)

    @property
    def keys_agree(self) -> bool:
        c = self.columns
        return bool(np.array_equal(c.sender_bit[self._kept], c.receiver_bit[self._kept]))

    @cached_property
    def sifted_records(self) -> list[SlotRecord]:
        records = slot_records(self.columns)
        return [records[i] for i in self._sifted.tolist()]

    @cached_property
    def sampled_timeslots(self) -> list[int]:
        return (self._sampled + 1).tolist()

    @cached_property
    def key_bits_alice(self) -> list[Bit]:
        return self.columns.sender_bit[self._kept].tolist()

    @cached_property
    def key_bits_bob(self) -> list[Bit]:
        return self.columns.receiver_bit[self._kept].tolist()

    @cached_property
    def key_timeslots(self) -> list[int]:
        return (self._kept + 1).tolist()

    @cached_property
    def eve_records(self) -> tuple[EveRecord, ...]:
        return intercept_records(self.columns)


def run_bb84(config: Bb84Config) -> Bb84Outcome:
    """Run one complete baseline session.

    The slots come from ``transmit_columns`` with Alice sending in every
    slot, on ``session_generator(seeded_rng(config.seed))``; the same
    generator then draws the compared sample.
    """
    gen = session_generator(seeded_rng(config.seed))
    alice_sends = np.ones(config.n_timeslots, dtype=bool)
    columns = transmit_columns(gen, alice_sends, config.channel, config.eve)
    sifted = np.flatnonzero(
        (columns.receiver_bit >= 0) & (columns.sender_basis == columns.receiver_basis)
    )

    if config.sample_count is not None:
        sample_size = min(config.sample_count, len(sifted))
    else:
        sample_size = min(math.ceil(config.sample_fraction * len(sifted)), len(sifted))
    in_sample = np.zeros(len(sifted), dtype=bool)
    in_sample[gen.permutation(len(sifted))[:sample_size]] = True
    sampled, kept = sifted[in_sample], sifted[~in_sample]
    errors = int(np.count_nonzero(columns.receiver_bit[sampled] != columns.sender_bit[sampled]))
    return Bb84Outcome(columns, sifted, sampled, kept, errors, config.detection_threshold)
