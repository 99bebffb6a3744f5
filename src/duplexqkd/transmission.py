"""The transmission kernel shared by both protocols.

One call simulates the quantum phase of whole sessions as numpy columns,
one entry per timeslot.  A state is an eigenstate of one basis; measuring it
in that basis returns its bit, measuring it in the other basis returns a
fair coin and collapses it onto the outcome's eigenstate.  Slot-wise:

1. the sender draws a uniform basis and bit;
2. Eve, when she intercepts, measures in her policy's basis and forwards
   the collapsed eigenstate, noiselessly;
3. the channel loses the state, or else may flip its bit within its basis;
4. the receiver measures in a uniform basis.

All randomness of a session comes from its 64-bit key, through a
counter-based stream: word ``c`` of the stream is
``splitmix64(key + (c + 1) * 0x9E3779B97F4A7C15)``, the ``c``-th output of
a SplitMix64 generator (Steele, Lea and Flood, OOPSLA 2014) seeded with the
key.  An ``n``-slot session lays its coin rows out back to back:

- the six fair rows (sender basis and bit, Eve's basis and reading,
  receiver basis and reading) take ``w = ceil(n / 64)`` words each, from
  word ``r * w`` for row ``r``; slot ``i`` is bit ``i % 64`` of the row's
  word ``i // 64``;
- the intercept, loss and flip rows take ``n`` words each, from word
  ``6 * w``, ``6 * w + n`` and ``6 * w + 2 * n``; slot ``i``'s coin is set
  when the top 53 bits of its word, read as a fraction of ``2**53``, are
  below the row's probability ``p``, exactly as ``Generator.random() < p``
  is.  A row whose ``p`` is 0 or 1 reads no word;
- row 9, from word ``6 * w + 3 * n``, ranks bb84's sifted slots for the
  compared sample (see ``bb84``).

A slot's coins are thus a pure function of ``(key, n, row, slot)``: a
session is the same whatever batch or worker runs it.  ``transmit_sessions``
simulates a batch of sessions in one pass over their concatenated slots;
``transmit_columns`` is a batch of one.  ``SlotRecord``, the per-slot object
form, is used by ``Transcript``, bb84's ``sift`` and the reference step
functions.  ``SessionCounts`` is the per-session tally
both protocols' batch runners fill and every session report is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Literal, NamedTuple, Sequence

import numpy as np

from .adversary import BasisPolicy, EveRecord, EveStrategy
from .quantum import Basis, Bit, ChannelModel

__all__ = [
    "Direction", "SlotRecord", "SlotColumns", "SessionCounts", "transmit_columns",
    "transmit_sessions", "stream_words", "slot_records", "intercept_records",
]

Party = Literal["alice", "bob"]

# Column code -> basis; the int8 basis columns hold 0 for X and 1 for Y.
BASES = (Basis.X, Basis.Y)

# Coin rows of a session's stream.  Rows 0-5 are fair coins; rows 6-8 are
# compared with the intercept fraction, the loss and the flip probability;
# row 9 orders bb84's sifted slots.
_SENDER_BASIS, _SENDER_BIT, _EVE_BASIS, _EVE_READING, _RECEIVER_BASIS, _RECEIVER_READING = range(6)
_INTERCEPT, _LOSS, _FLIP, SAMPLE_ROW = 6, 7, 8, 9
_GAMMA = np.uint64(0x9E3779B97F4A7C15)

# Slots one batch of sessions holds at most; a longer session is a batch of
# its own.  A batch's coin buffer is 9 bools per slot, and each threshold row
# is hashed at most this many uint64 words at a time.
BATCH_SLOTS = 1 << 16


class Direction(Enum):
    """Who transmitted the photon in a given timeslot."""

    ALICE_TO_BOB = "A>B"
    BOB_TO_ALICE = "B>A"


@dataclass(frozen=True, slots=True)
class SlotRecord:
    """Everything that happened in one timeslot.

    ``receiver_bit`` is ``None`` when the photon never arrived.  The record
    is the union of both parties' private notes; protocol steps must only
    look at the fields their executing party legitimately knows.
    """

    timeslot: int
    direction: Direction
    sender_basis: Basis
    sender_bit: Bit
    receiver_basis: Basis
    receiver_bit: Bit | None

    @property
    def lost(self) -> bool:
        return self.receiver_bit is None

    @property
    def bases_match(self) -> bool:
        return self.sender_basis is self.receiver_basis


@dataclass(frozen=True, eq=False)
class SlotColumns:
    """One session's quantum phase; entry ``i`` describes timeslot ``i + 1``.

    ``alice_sends`` is the direction mask (True where Alice sent).  Bases
    are int8 codes into ``BASES``, bits are int8 0/1, and ``receiver_bit``
    is -1 where the photon was lost.  ``eve_basis``/``eve_bit`` are what Eve
    read, meaningful only where ``intercepted``.
    """

    alice_sends: np.ndarray
    sender_basis: np.ndarray
    sender_bit: np.ndarray
    receiver_basis: np.ndarray
    receiver_bit: np.ndarray
    intercepted: np.ndarray
    eve_basis: np.ndarray
    eve_bit: np.ndarray

    def __len__(self) -> int:
        return len(self.alice_sends)


class SessionCounts(NamedTuple):
    """Per-session tallies of a batch of either protocol, one entry per session.

    ``checked`` is the protocol's unit of checked data (sifted slots for
    bb84, checked pairs for duplex).  ``revealed`` counts the bits of
    bit-value information made public: bb84's compared sample, one XOR per
    duplex pair.  ``failures`` counts the revealed checks that failed.
    """

    sifted: np.ndarray
    checked: np.ndarray
    revealed: np.ndarray
    failures: np.ndarray
    sampled: np.ndarray
    unpaired: np.ndarray
    key_length: np.ndarray
    key_errors: np.ndarray  # key positions where the two parties' bits differ
    detected: np.ndarray
    aborted: np.ndarray


def stream_words(keys: np.ndarray, row: int, n: int, index: np.ndarray) -> np.ndarray:
    """Word ``index`` of coin row ``row`` of ``n``-slot sessions' streams.

    ``keys`` and ``index`` are ``uint64`` arrays; the result has their
    broadcast shape.  Fair rows count ``index`` in words, the other rows in
    slots (see the module docstring).
    """
    words = (n + 63) // 64
    start = row * words if row < 6 else 6 * words + (row - 6) * n
    z = keys + (index + np.uint64(start + 1)) * _GAMMA
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def transmit_columns(
    key: int,
    alice_sends: np.ndarray,
    channel: ChannelModel,
    eve: EveStrategy,
) -> SlotColumns:
    """Simulate every timeslot of one session, keyed by ``key``, at once."""
    return transmit_sessions([key], alice_sends, channel, eve)


def transmit_sessions(
    keys: Sequence[int] | np.ndarray,
    alice_sends: np.ndarray,
    channel: ChannelModel,
    eve: EveStrategy,
) -> SlotColumns:
    """Simulate a batch of sessions of ``len(alice_sends)`` slots each.

    Session ``j`` draws its coins from the stream of ``keys[j]`` and takes
    entries ``j * n`` to ``(j + 1) * n`` of the returned columns, so each
    session's slots are exactly those ``transmit_columns`` gives for its
    key alone.
    """
    n, count = len(alice_sends), len(keys)
    thresholds = (eve.intercept_fraction, channel.loss_probability, channel.flip_probability)
    coins = _coins(np.asarray(keys, dtype=np.uint64), n, thresholds)
    return _combine(coins, alice_sends if count == 1 else np.tile(alice_sends, count), eve)


def _coins(keys: np.ndarray, n: int, thresholds: Sequence[float]) -> np.ndarray:
    """The ``(9, sessions * n)`` bool coin buffer of a batch, in row order."""
    count, words = len(keys), (n + 63) // 64
    coins = np.empty((9, count, n), dtype=bool)
    column = keys[:, None]
    # The six fair rows are one run of 6 * words words from row 0 on.
    fair = stream_words(column, 0, n, np.arange(6 * words, dtype=np.uint64))
    packed = fair.astype("<u8", copy=False).view(np.uint8).reshape(count, 6, 8 * words)
    bits = np.unpackbits(packed, axis=-1, bitorder="little")
    coins[:6] = bits[..., :n].view(bool).transpose(1, 0, 2)
    # Threshold rows go in slices of at most BATCH_SLOTS slots: whole
    # sessions, or part of one longer session.
    width = max(1, min(n, BATCH_SLOTS))
    height = BATCH_SLOTS // width
    slots = np.arange(n, dtype=np.uint64)
    for row, p in zip((_INTERCEPT, _LOSS, _FLIP), thresholds):
        if p == 0.0 or p == 1.0:
            coins[row] = p == 1.0
            continue
        threshold = np.uint64(math.ceil(p * 2**53))
        for top in range(0, count, height):
            for left in range(0, n, width):
                uniform = stream_words(column[top : top + height], row, n, slots[left : left + width])
                uniform >>= np.uint64(11)
                np.less(uniform, threshold, out=coins[row, top : top + height, left : left + width])
    return coins.reshape(9, count * n)


def _combine(coins: np.ndarray, alice_sends: np.ndarray, eve: EveStrategy) -> SlotColumns:
    """The slot columns of a coin buffer: the physics, elementwise per slot."""
    fair = coins[:6].view(np.int8)
    sender_basis, sender_bit = fair[_SENDER_BASIS], fair[_SENDER_BIT]
    intercepted = coins[_INTERCEPT]
    if eve.basis_policy is BasisPolicy.UNIFORM_RANDOM:
        eve_basis = fair[_EVE_BASIS]
    else:
        code = 0 if eve.basis_policy is BasisPolicy.ALWAYS_X else 1
        eve_basis = np.full(len(alice_sends), code, dtype=np.int8)
    eve_bit = np.where(eve_basis == sender_basis, sender_bit, fair[_EVE_READING])
    state_basis = np.where(intercepted, eve_basis, sender_basis)
    state_bit = np.where(intercepted, eve_bit, sender_bit) ^ coins[_FLIP]

    receiver_basis = fair[_RECEIVER_BASIS]
    receiver_bit = np.where(receiver_basis == state_basis, state_bit, fair[_RECEIVER_READING])
    receiver_bit[coins[_LOSS]] = -1
    return SlotColumns(
        alice_sends, sender_basis, sender_bit, receiver_basis, receiver_bit,
        intercepted, eve_basis, eve_bit,
    )


def slot_records(columns: SlotColumns, timeslots: Iterable[int] | None = None) -> list[SlotRecord]:
    """The columns as per-slot records, entry ``i`` as timeslot ``i + 1``.

    ``timeslots`` numbers the entries instead when given; ``columns`` may be
    anything with the five slot columns, such as a ``Transcript``.
    """
    directions = (Direction.BOB_TO_ALICE, Direction.ALICE_TO_BOB)
    return [
        SlotRecord(t, directions[a], BASES[sb], s, BASES[rb], None if r < 0 else r)
        for t, a, sb, s, rb, r in zip(
            range(1, len(columns) + 1) if timeslots is None else timeslots,
            columns.alice_sends.tolist(),
            columns.sender_basis.tolist(),
            columns.sender_bit.tolist(),
            columns.receiver_basis.tolist(),
            columns.receiver_bit.tolist(),
        )
    ]


def intercept_records(columns: SlotColumns) -> tuple[EveRecord, ...]:
    """Eve's interception records, in timeslot order."""
    slots = np.flatnonzero(columns.intercepted)
    return tuple(
        EveRecord(t, BASES[b], bit)
        for t, b, bit in zip(
            (slots + 1).tolist(),
            columns.eve_basis[slots].tolist(),
            columns.eve_bit[slots].tolist(),
        )
    )
