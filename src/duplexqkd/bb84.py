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

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .adversary import EveRecord, EveStrategy
from .quantum import Bit, ChannelModel
from .rng import seeded_rng, session_generator
from .transmission import (
    SAMPLE_ROW, SessionCounts, SlotColumns, SlotRecord, intercept_records, slot_records,
    stream_words, transmit_sessions,
)

__all__ = ["Bb84Config", "Bb84Outcome", "Bb84Sessions", "run_bb84_sessions", "run_bb84", "sift"]


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
    """Result of one baseline session of ``config``, ``batch``, a batch of one.

    ``key_timeslots`` maps the renumbered key positions back to original
    timeslots (entry i is the origin of key bit i), so reports can always
    point at the physical slot a bit came from.  The per-slot lists are
    built from the session's columns the first time they are read; the
    count properties never build them.
    """

    def __init__(self, config: Bb84Config, batch: Bb84Sessions):
        self.config = config
        self.batch = batch
        self.columns = batch.columns
        self.detected = bool(batch.counts.detected[0])

    @property
    def sifted_count(self) -> int:
        return int(self.batch.counts.sifted[0])

    @property
    def sampled_count(self) -> int:
        return int(self.batch.counts.sampled[0])

    @property
    def sample_errors(self) -> int:
        return int(self.batch.counts.failures[0])

    @property
    def estimated_error_rate(self) -> float:
        return self.sample_errors / self.sampled_count if self.sampled_count else 0.0

    @property
    def key_length(self) -> int:
        return int(self.batch.counts.key_length[0])

    @property
    def keys_agree(self) -> bool:
        return not self.batch.counts.key_errors[0]

    @cached_property
    def sifted_records(self) -> list[SlotRecord]:
        records = slot_records(self.columns)
        return [records[i] for i in self.batch.sifted.tolist()]

    @cached_property
    def sampled_timeslots(self) -> list[int]:
        return (self.batch.sampled + 1).tolist()

    @cached_property
    def key_bits_alice(self) -> list[Bit]:
        return self.columns.sender_bit[self.batch.kept].tolist()

    @cached_property
    def key_bits_bob(self) -> list[Bit]:
        return self.columns.receiver_bit[self.batch.kept].tolist()

    @cached_property
    def key_timeslots(self) -> list[int]:
        return (self.batch.kept + 1).tolist()

    @cached_property
    def eve_records(self) -> tuple[EveRecord, ...]:
        return intercept_records(self.columns)


class Bb84Sessions(NamedTuple):
    """A batch of baseline sessions of ``n`` slots each.

    ``columns`` are the sessions' slots back to back (session ``j`` holds
    entries ``j * n`` to ``(j + 1) * n``); ``sifted``, ``sampled`` and
    ``kept`` are slot indices into them, in session order.  ``counts`` is
    the sessions' tally: every sifted slot is checked, the compared sample
    is revealed and sacrificed, ``failures`` are its slots whose two bits
    differ, and a session is detected when their share of the sample
    exceeds the detection threshold.  A session never aborts.
    """

    columns: SlotColumns
    sifted: np.ndarray
    sampled: np.ndarray
    kept: np.ndarray
    counts: SessionCounts


def run_bb84_sessions(config: Bb84Config, seeds: Sequence[int]) -> Bb84Sessions:
    """Run one baseline session of ``config`` per seed, all as one batch.

    Session ``j`` draws its slots from the stream of the key
    ``session_generator(seeded_rng(seeds[j]))`` through
    ``transmit_sessions``.  Its compared sample is the ``k`` of its sifted
    slots whose words of the stream's ``SAMPLE_ROW`` (one per slot) are
    the smallest, so each session is exactly the one ``run_bb84`` runs for
    ``replace(config, seed=seeds[j])``.
    """
    n, count = config.n_timeslots, len(seeds)
    keys = np.array([session_generator(seeded_rng(seed)) for seed in seeds], dtype=np.uint64)
    columns = transmit_sessions(keys, np.ones(n, dtype=bool), config.channel, config.eve)
    sifted = np.flatnonzero(
        (columns.receiver_bit >= 0) & (columns.sender_basis == columns.receiver_basis)
    )
    session = sifted // n
    sifted_count = np.bincount(session, minlength=count)

    if config.sample_count is not None:
        sample_size = np.minimum(config.sample_count, sifted_count)
    else:
        sample_size = np.minimum(np.ceil(config.sample_fraction * sifted_count), sifted_count)
    rank_words = stream_words(keys[session], SAMPLE_ROW, n, (sifted % n).astype(np.uint64))
    order = np.lexsort((rank_words, session))
    # ``order`` keeps the sessions in place, so a slot's rank in its session
    # is its position in ``order`` less the session's first position.
    rank = np.arange(len(sifted)) - (np.cumsum(sifted_count) - sifted_count)[session]
    in_sample = np.zeros(len(sifted), dtype=bool)
    in_sample[order] = rank < sample_size[session]
    wrong = columns.receiver_bit[sifted] != columns.sender_bit[sifted]
    sampled = np.bincount(session[in_sample], minlength=count)
    failures = np.bincount(session[in_sample & wrong], minlength=count)
    rate = np.divide(failures, sampled, out=np.zeros(count), where=sampled > 0)
    counts = SessionCounts(
        sifted=sifted_count,
        checked=sifted_count,
        revealed=sampled,
        failures=failures,
        sampled=sampled,
        unpaired=np.zeros_like(sampled),
        key_length=sifted_count - sampled,
        key_errors=np.bincount(session[~in_sample & wrong], minlength=count),
        detected=rate > config.detection_threshold,
        aborted=np.zeros(count, dtype=bool),
    )
    return Bb84Sessions(columns, sifted, sifted[in_sample], sifted[~in_sample], counts)


def run_bb84(config: Bb84Config) -> Bb84Outcome:
    """Run one complete baseline session, as a batch of one.

    The slots come from the transmission kernel with Alice sending in every
    slot, on the stream of ``session_generator(seeded_rng(config.seed))``;
    the same stream then ranks the sifted slots for the compared sample.
    """
    return Bb84Outcome(config, run_bb84_sessions(config, [config.seed]))
