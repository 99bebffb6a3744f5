"""Duplex interleaved BB84 with parity-checked timeslot pairs.

Alice and Bob each run a BB84 transmission towards the other, interleaved on
a shared timeslot axis (Alice sends in odd slots, Bob in even slots).  After
the quantum phase, Alice announces her basis choices for both roles and Bob
filters the timeslots into three sets:

* the discard set: slots that were lost or where the bases differ,
* set 2: surviving slots in which Alice was the sender,
* set 3: surviving slots in which Bob was the sender.

Bob then publishes pairs of timeslots, one from set 2 and one from set 3,
either by searching set 3 for an element with the same bit value as the
set-2 element, or (the flip-bit variant) positionally, attaching one extra
bit that says whether the set-3 bit must be inverted to match.  Alice checks
each published pair against her own records; any channel error or
eavesdropper interference with odd parity across the two slots makes the
check fail.  Pairs that pass contribute one key bit each: the bit value of
the set-2 slot.  No bit value is ever published, so the whole filtered
transmission can be checked without sacrificing key material.

The wire form of a published pair orders the two timeslots with the later
one first; either party recovers the set-2/set-3 roles from the slot
directions, so the order carries no information.

``run_duplex_sessions`` runs a batch of whole sessions on the array columns
of the shared ``transmission`` kernel: filtering is a mask, flip pairing
zips two index arrays, search pairing is a per-bit FIFO, verification is an
XOR compare and key extraction a gather, each session ranked apart from the
others; ``run_duplex_session`` is a batch of one.  ``classical_phase`` is
that exchange on its own; replay runs it on a parsed transcript's columns.  The dict/tuple
step functions below (``filter_sets``, ``make_triples_flip``,
``verify_triples``, ...) are the reference statement of each step; the
tests and the worked-example demo use them.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import repeat
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .adversary import EveRecord, EveStrategy
from .quantum import Basis, Bit, ChannelModel
from .rng import seeded_rng, session_generator
from .transmission import (
    BASES,
    Direction,
    Party,
    SessionCounts,
    SlotColumns,
    SlotRecord,
    intercept_records,
    slot_records,
    transmit_columns,
    transmit_sessions,
)

__all__ = [
    "Direction",
    "SlotRecord",
    "Transcript",
    "SetPartition",
    "Triple",
    "FlipPairing",
    "SearchPairing",
    "VerificationResult",
    "DuplexConfig",
    "DuplexSessionResult",
    "ClassicalPhase",
    "TranscriptFormatError",
    "run_duplex_transmission",
    "announce_bases",
    "party_bit_map",
    "filter_sets",
    "partition_from_discard",
    "bob_pairing_views",
    "make_triples_flip",
    "make_pairs_search",
    "triple_from_announcement",
    "verify_triples",
    "extract_key",
    "classical_phase",
    "run_duplex_sessions",
    "run_duplex_session",
    "read_transcript",
    "parse_transcript",
    "write_transcript",
    "format_transcript",
    "example_transcript_path",
]

class Transcript:
    """Per-timeslot records of one duplex exchange, held as columns.

    ``interleaving`` names the rule that assigned directions ("odd_alice" for
    generated runs, "file" for replayed ones).  Timeslots must be unique; the
    two directions may otherwise be arbitrary, so two fully independent
    transmissions keyed to a shared slot counter are representable.

    Entry ``i`` of each column describes the ``i``-th slot: ``timeslot`` is
    its number, ``alice_sends`` its direction, and the int8 basis and bit
    columns are coded as in ``SlotColumns`` (``receiver_bit`` -1 for a lost
    photon), so the classical phase runs on a transcript as on a session.
    ``slots``, the ``SlotRecord`` form, is built the first time it is read.
    """

    timeslot: np.ndarray
    alice_sends: np.ndarray
    sender_basis: np.ndarray
    sender_bit: np.ndarray
    receiver_basis: np.ndarray
    receiver_bit: np.ndarray

    def __init__(self, slots: Iterable[SlotRecord], interleaving: str = "odd_alice"):
        records = tuple(slots)
        seen: set[int] = set()
        for record in records:
            if record.timeslot in seen:
                raise ValueError(f"duplicate timeslot {record.timeslot} in transcript")
            seen.add(record.timeslot)
        a2b = Direction.ALICE_TO_BOB
        columns = (
            _timeslot_column([r.timeslot for r in records]),
            np.array([r.direction is a2b for r in records], dtype=bool),
            np.array([_BASIS_CODES[r.sender_basis] for r in records], dtype=np.int8),
            np.array([r.sender_bit for r in records], dtype=np.int8),
            np.array([_BASIS_CODES[r.receiver_basis] for r in records], dtype=np.int8),
            np.array([-1 if r.lost else r.receiver_bit for r in records], dtype=np.int8),
        )
        vars(self).update(zip(_COLUMNS, columns), interleaving=interleaving, slots=records)

    @classmethod
    def _from_columns(cls, interleaving: str, *columns: np.ndarray) -> Transcript:
        """A transcript over already checked columns, in ``_COLUMNS`` order."""
        transcript = cls.__new__(cls)
        vars(transcript).update(zip(_COLUMNS, columns), interleaving=interleaving)
        return transcript

    @cached_property
    def slots(self) -> tuple[SlotRecord, ...]:
        return tuple(slot_records(self, self.timeslot.tolist()))

    def __len__(self) -> int:
        return len(self.timeslot)

    def __iter__(self) -> Iterator[SlotRecord]:
        return iter(self.slots)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transcript):
            return NotImplemented
        return self.interleaving == other.interleaving and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS
        )

    def __repr__(self) -> str:
        return f"Transcript(<{len(self)} slots>, interleaving={self.interleaving!r})"

    def timeslots(self) -> tuple[int, ...]:
        return tuple(self.timeslot.tolist())

    def directions(self) -> dict[int, Direction]:
        directions = map(_DIRECTIONS.__getitem__, self.alice_sends.tolist())
        return dict(zip(self.timeslot.tolist(), directions))


_COLUMNS = ("timeslot", "alice_sends", "sender_basis", "sender_bit", "receiver_basis", "receiver_bit")
# Column codes: alice_sends indexes _DIRECTIONS, a basis code indexes BASES.
_DIRECTIONS = (Direction.BOB_TO_ALICE, Direction.ALICE_TO_BOB)
_BASIS_CODES = {basis: code for code, basis in enumerate(BASES)}


def _timeslot_column(timeslots: list[int]) -> np.ndarray:
    """Timeslot numbers as int64, or as Python ints when one overflows int64."""
    try:
        return np.array(timeslots, dtype=np.int64)
    except OverflowError:
        return np.array(timeslots, dtype=object)


def _session_transcript(columns: SlotColumns, interleaving: str) -> Transcript:
    """A session's columns as a transcript; entry ``i`` is timeslot ``i + 1``."""
    slot_columns = (getattr(columns, name) for name in _COLUMNS[1:])
    return Transcript._from_columns(interleaving, np.arange(1, len(columns) + 1), *slot_columns)


def _direction_mask(n_timeslots: int, interleaving: str) -> np.ndarray:
    """The alice-sends mask of the "odd_alice" rule, the only one there is."""
    if interleaving != "odd_alice":
        raise ValueError(f"unknown interleaving rule {interleaving!r}")
    return np.arange(n_timeslots) % 2 == 0  # timeslots 1, 3, 5, ...


def run_duplex_transmission(
    n_timeslots: int,
    channel: ChannelModel,
    eve: EveStrategy,
    rng: random.Random,
    *,
    interleaving: str = "odd_alice",
    eve_sink: list[EveRecord] | None = None,
) -> Transcript:
    """Simulate the quantum phase of one duplex session as a transcript.

    Alice sends in the odd timeslots and Bob in the even ones (the
    "odd_alice" interleaving, the only rule); the slots are drawn by
    ``transmit_columns`` from the key ``session_generator(rng)``, exactly
    as ``run_duplex_session`` draws them for ``seeded_rng(seed)``.
    Intercept records are appended to ``eve_sink`` when one is supplied.
    """
    if n_timeslots < 2:
        raise ValueError(f"a duplex run needs at least 2 timeslots, got {n_timeslots}")
    alice_sends = _direction_mask(n_timeslots, interleaving)
    columns = transmit_columns(session_generator(rng), alice_sends, channel, eve)
    if eve_sink is not None:
        eve_sink.extend(intercept_records(columns))
    return _session_transcript(columns, interleaving)


def announce_bases(transcript: Transcript, party: Party) -> dict[int, Basis]:
    """One party's coding bases for every timeslot, in announcement form."""
    a2b = Direction.ALICE_TO_BOB
    sends = party == "alice"
    return {
        r.timeslot: (r.sender_basis if (r.direction is a2b) == sends else r.receiver_basis)
        for r in transcript
    }


def party_bit_map(transcript: Transcript, party: Party) -> dict[int, Bit]:
    """One party's bit values by timeslot (sent bits plus received readings).

    Slots where the party received nothing are omitted; they can never be
    referenced by a published pair because filtering discards them first.
    """
    a2b = Direction.ALICE_TO_BOB
    sends = party == "alice"
    bits: dict[int, Bit] = {}
    for r in transcript:
        if (r.direction is a2b) == sends:
            bits[r.timeslot] = r.sender_bit
        elif r.receiver_bit is not None:
            bits[r.timeslot] = r.receiver_bit
    return bits


@dataclass(frozen=True)
class SetPartition:
    """Three-way split of announced timeslots.

    ``discard`` holds lost and basis-mismatched slots; ``set2`` the surviving
    slots Alice sent; ``set3`` the surviving slots Bob sent.  The parts are
    pairwise disjoint and jointly cover the transcript they came from.
    """

    discard: frozenset[int]
    set2: tuple[int, ...]
    set3: tuple[int, ...]

    def __post_init__(self) -> None:
        s2, s3 = set(self.set2), set(self.set3)
        if len(s2) != len(self.set2) or len(s3) != len(self.set3):
            raise ValueError("partition lists must not repeat timeslots")
        if (self.discard & s2) or (self.discard & s3) or (s2 & s3):
            raise ValueError("partition parts must be pairwise disjoint")

    def all_timeslots(self) -> set[int]:
        return set(self.discard) | set(self.set2) | set(self.set3)


def filter_sets(
    transcript: Transcript,
    alice_bases: Mapping[int, Basis],
    bob_bases: Mapping[int, Basis],
) -> SetPartition:
    """Bob's filtering step: split every timeslot into discard/set2/set3.

    ``alice_bases`` is Alice's public announcement; ``bob_bases`` is Bob's own
    record in the same shape.  Both must cover every transcript slot.
    """
    discard: list[int] = []
    set2: list[int] = []
    set3: list[int] = []
    for record in transcript:
        t = record.timeslot
        try:
            a_basis = alice_bases[t]
            b_basis = bob_bases[t]
        except KeyError as missing:
            raise ValueError(f"timeslot {missing.args[0]} has no announced basis") from None
        if record.lost or a_basis is not b_basis:
            discard.append(t)
        elif record.direction is Direction.ALICE_TO_BOB:
            set2.append(t)
        else:
            set3.append(t)
    return SetPartition(frozenset(discard), tuple(set2), tuple(set3))


def partition_from_discard(transcript: Transcript, discard: Iterable[int]) -> SetPartition:
    """Alice's reconstruction of the partition from Bob's discard reply.

    The discard announcement plus the (public) slot directions determine the
    same partition Bob computed, without Alice ever seeing Bob's bases.
    """
    dropped = set(discard)
    unknown = dropped - set(transcript.timeslots())
    if unknown:
        raise ValueError(f"discard reply names unknown timeslots {sorted(unknown)}")
    set2 = tuple(
        r.timeslot
        for r in transcript
        if r.timeslot not in dropped and r.direction is Direction.ALICE_TO_BOB
    )
    set3 = tuple(
        r.timeslot
        for r in transcript
        if r.timeslot not in dropped and r.direction is Direction.BOB_TO_ALICE
    )
    return SetPartition(frozenset(dropped), set2, set3)


def bob_pairing_views(
    transcript: Transcript, partition: SetPartition
) -> tuple[list[tuple[int, Bit]], list[tuple[int, Bit]]]:
    """Bob's (timeslot, bit) lists for set 2 and set 3, in timeslot order.

    For set 2 the bits are what Bob measured; for set 3 what he sent.
    """
    bits = party_bit_map(transcript, "bob")
    set2_view = [(t, bits[t]) for t in partition.set2]
    set3_view = [(t, bits[t]) for t in partition.set3]
    return set2_view, set3_view


@dataclass(frozen=True, slots=True)
class Triple:
    """One checkable unit: a set-2 slot, a set-3 slot, and the flip bit.

    ``flip`` is the XOR of the publisher's two bit values, i.e. the
    instruction "invert the set-3 bit before comparing".
    """

    t_set2: int
    t_set3: int
    flip: Bit

    def announced(self) -> tuple[int, int, int]:
        """Wire form: the two timeslots with the later one first."""
        if self.t_set2 >= self.t_set3:
            return (self.t_set2, self.t_set3, self.flip)
        return (self.t_set3, self.t_set2, self.flip)


def triple_from_announcement(
    announced: Sequence[int], directions: Mapping[int, Direction]
) -> Triple:
    """Recover set-2/set-3 roles of a wire-form triple from slot directions."""
    first, second, flip = announced
    first_dir = directions.get(first)
    second_dir = directions.get(second)
    if first_dir is None or second_dir is None:
        missing = first if first_dir is None else second
        raise ValueError(f"announced pair references unknown timeslot {missing}")
    if first_dir is second_dir:
        raise ValueError(
            f"announced pair ({first}, {second}) does not span both directions"
        )
    if first_dir is Direction.ALICE_TO_BOB:
        return Triple(first, second, flip)
    return Triple(second, first, flip)


@dataclass(frozen=True)
class FlipPairing:
    """Positional pairing result: published triples plus the unpaired tail."""

    triples: tuple[Triple, ...]
    unpaired: tuple[int, ...]


def make_triples_flip(
    set2_view: Sequence[tuple[int, Bit]], set3_view: Sequence[tuple[int, Bit]]
) -> FlipPairing:
    """Pair set 2 and set 3 positionally and attach flip bits.

    The i-th element of each list forms one triple with
    ``flip = bit2 XOR bit3``; whichever list is longer leaves a tail of
    unpaired timeslots, which are reported and excluded from the key.
    """
    triples = tuple(
        Triple(t2, t3, b2 ^ b3) for (t2, b2), (t3, b3) in zip(set2_view, set3_view)
    )
    n = len(triples)
    tail = set2_view[n:] if len(set2_view) > n else set3_view[n:]
    return FlipPairing(triples, tuple(t for t, _ in tail))


@dataclass(frozen=True)
class SearchPairing:
    """Same-bit-value pairing result.

    ``pairs`` lists (set-2 slot, set-3 slot) matches; set-2 elements with no
    available partner are ``unmatched``, and set-3 elements never used are
    ``unused``.
    """

    pairs: tuple[tuple[int, int], ...]
    unmatched_set2: tuple[int, ...]
    unused_set3: tuple[int, ...]

    def as_triples(self) -> tuple[Triple, ...]:
        # Matched pairs have equal bit values by construction, so flip = 0.
        return tuple(Triple(t2, t3, 0) for t2, t3 in self.pairs)


def make_pairs_search(
    set2_view: Sequence[tuple[int, Bit]], set3_view: Sequence[tuple[int, Bit]]
) -> SearchPairing:
    """Greedy same-bit-value pairing.

    Walking set 2 in timeslot order, each element takes the earliest unused
    set-3 element with the same bit value; elements with no available match
    are skipped and reported.  The earliest unused set-3 element with bit b
    is the front of a per-bit queue, so the k-th set-2 element with bit b
    takes the k-th set-3 element with bit b.
    """
    queues: defaultdict[Bit, deque[int]] = defaultdict(deque)
    for t3, b3 in set3_view:
        queues[b3].append(t3)
    pairs: list[tuple[int, int]] = []
    unmatched: list[int] = []
    for t2, b2 in set2_view:
        queue = queues[b2]
        if queue:
            pairs.append((t2, queue.popleft()))
        else:
            unmatched.append(t2)
    used = {t3 for _, t3 in pairs}
    unused = tuple(t3 for t3, _ in set3_view if t3 not in used)
    return SearchPairing(tuple(pairs), tuple(unmatched), unused)


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of Alice's pair comparisons."""

    checked_pairs: int
    failures: tuple[Triple, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_triples(
    alice_bits: Mapping[int, Bit], triples: Iterable[Triple]
) -> VerificationResult:
    """Check every published triple against Alice's own bit values.

    A triple passes iff ``alice_bits[t_set2] == alice_bits[t_set3] XOR flip``.
    A failure means the two slots suffered an odd number of transmission
    errors between them; an even number cancels and goes unseen here.
    """
    failures = []
    checked = 0
    for triple in triples:
        checked += 1
        try:
            b2 = alice_bits[triple.t_set2]
            b3 = alice_bits[triple.t_set3]
        except KeyError as missing:
            raise ValueError(
                f"no bit value recorded for timeslot {missing.args[0]}"
            ) from None
        if b2 != b3 ^ triple.flip:
            failures.append(triple)
    return VerificationResult(checked, tuple(failures))


def extract_key(triples: Iterable[Triple], bits: Mapping[int, Bit]) -> list[Bit]:
    """Read one key bit per triple from a party's own records.

    The published pair-reading rule (0,0/0,1 -> 0 and 1,0/1,1 -> 1, pairs
    ordered set-2 first) reduces to taking the set-2 bit, which both parties
    hold locally; nothing about the key ever crosses the public channel.
    """
    key = []
    for triple in triples:
        try:
            key.append(bits[triple.t_set2])
        except KeyError:
            raise ValueError(
                f"no bit value recorded for timeslot {triple.t_set2}"
            ) from None
    return key


@dataclass(frozen=True)
class DuplexConfig:
    """Parameters of one duplex session.

    ``variant`` selects how Bob publishes pairs: "flip_triples" (positional
    pairing with a flip bit) or "search_pairs" (same-bit-value search).
    ``max_pairs`` truncates the checked pairs, which lets experiments fix the
    number of comparisons per session; the surplus counts as unpaired.
    ``failure_policy`` is "abort" (any failure voids the key) or "threshold"
    (abort only when the failure rate exceeds ``failure_threshold``; failing
    pairs are dropped from the key either way).  ``keep_searched_key``
    controls whether search-variant pairs double as key material.  Sessions
    always interleave "odd_alice": Alice sends in the odd timeslots.
    """

    n_timeslots: int
    channel: ChannelModel = ChannelModel()
    eve: EveStrategy = EveStrategy.absent()
    variant: str = "flip_triples"
    failure_policy: str = "abort"
    failure_threshold: float = 0.0
    max_pairs: int | None = None
    keep_searched_key: bool = True
    seed: int = 0
    interleaving: ClassVar[str] = "odd_alice"

    def __post_init__(self) -> None:
        if self.n_timeslots < 2:
            raise ValueError(f"n_timeslots must be >= 2, got {self.n_timeslots}")
        if self.variant not in ("flip_triples", "search_pairs"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.failure_policy not in ("abort", "threshold"):
            raise ValueError(f"unknown failure_policy {self.failure_policy!r}")
        if not 0.0 <= self.failure_threshold <= 1.0:
            raise ValueError("failure_threshold must lie in [0, 1]")
        if self.max_pairs is not None and self.max_pairs < 0:
            raise ValueError("max_pairs must be non-negative")


class ClassicalPhase(NamedTuple):
    """The classical phase of a batch of exchanges on slot-index arrays.

    Slot arrays hold 0-based indices into the columns the phase ran on (for
    a batch of sessions, ``j * n + timeslot - 1`` in session ``j``), in
    session order; pair arrays have one entry per published pair, in
    publication order within each session.  ``counts`` is the sessions'
    tally: ``sifted`` is set 2 plus set 3, every checked pair is revealed
    and a session is detected exactly when it aborts.
    """

    discard: np.ndarray  # Bob's discard reply, as a mask over slots
    set2: np.ndarray
    set3: np.ndarray
    t2: np.ndarray  # Bob's published pairs: set-2 slot, set-3 slot, flip bit
    t3: np.ndarray
    flip: np.ndarray
    unpaired: np.ndarray  # sorted
    failed: np.ndarray  # Alice's verdict per pair
    key: np.ndarray  # per pair: contributes a key bit
    alice_key: np.ndarray
    bob_key: np.ndarray
    counts: SessionCounts


def _timeslots(slots: np.ndarray) -> list[int]:
    return (slots + 1).tolist()


class DuplexSessionResult:
    """Full trace of one duplex session, public messages included.

    The session itself runs on the array columns of ``columns``, and
    ``phase`` is its classical phase, a batch of one; the object form
    (transcript, partition, triples, announcements, verification, keys) is
    built from them the first time each field is read.  The announcement
    fields hold exactly what crossed the classical channel (and is therefore
    visible to Eve): Alice's bases, Bob's discard reply, and Bob's published
    pair list in wire form.  The count properties answer report questions
    without building any per-slot or per-pair object.
    """

    def __init__(self, config: DuplexConfig, columns: SlotColumns, phase: ClassicalPhase):
        self.config = config
        self.columns = columns
        self.phase = phase
        self.aborted = bool(phase.counts.aborted[0])
        self.detected = bool(phase.counts.detected[0])

    @property
    def n_timeslots(self) -> int:
        return len(self.columns)

    @property
    def sifted(self) -> int:
        return int(self.phase.counts.sifted[0])

    @property
    def checked_pairs(self) -> int:
        return int(self.phase.counts.checked[0])

    @property
    def failure_count(self) -> int:
        return int(self.phase.counts.failures[0])

    @property
    def unpaired_count(self) -> int:
        return int(self.phase.counts.unpaired[0])

    @property
    def key_length(self) -> int:
        return int(self.phase.counts.key_length[0])

    @property
    def keys_agree(self) -> bool:
        return not self.phase.counts.key_errors[0]

    @cached_property
    def transcript(self) -> Transcript:
        return _session_transcript(self.columns, self.config.interleaving)

    @cached_property
    def eve_records(self) -> tuple[EveRecord, ...]:
        return intercept_records(self.columns)

    @cached_property
    def announced_alice_bases(self) -> dict[int, Basis]:
        c = self.columns
        codes = np.where(c.alice_sends, c.sender_basis, c.receiver_basis)
        return {t: BASES[code] for t, code in enumerate(codes.tolist(), start=1)}

    @cached_property
    def partition(self) -> SetPartition:
        p = self.phase
        return SetPartition(
            frozenset(_timeslots(np.flatnonzero(p.discard))),
            tuple(_timeslots(p.set2)),
            tuple(_timeslots(p.set3)),
        )

    @property
    def announced_discard(self) -> frozenset[int]:
        return self.partition.discard

    @cached_property
    def triples(self) -> tuple[Triple, ...]:
        p = self.phase
        return tuple(
            Triple(t2, t3, flip)
            for t2, t3, flip in zip(_timeslots(p.t2), _timeslots(p.t3), p.flip.tolist())
        )

    @cached_property
    def announced_pairs(self) -> tuple[tuple[int, ...], ...]:
        return tuple(t.announced() for t in self.triples)

    @cached_property
    def unpaired(self) -> tuple[int, ...]:
        return tuple(_timeslots(self.phase.unpaired))

    @cached_property
    def verification(self) -> VerificationResult:
        failed = self.phase.failed.tolist()
        return VerificationResult(
            self.checked_pairs, tuple(t for t, bad in zip(self.triples, failed) if bad)
        )

    @cached_property
    def key_triples(self) -> tuple[Triple, ...]:
        key = self.phase.key.tolist()
        return tuple(t for t, keep in zip(self.triples, key) if keep)

    @cached_property
    def alice_key(self) -> list[Bit]:
        return self.phase.alice_key.tolist()

    @cached_property
    def bob_key(self) -> list[Bit]:
        return self.phase.bob_key.tolist()


def _ranks(session: np.ndarray, sessions: int) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's rank within its session, and the per-session counts.

    ``session`` holds the session of each entry, entries grouped by session.
    """
    counts = np.bincount(session, minlength=sessions)
    return np.arange(len(session)) - (np.cumsum(counts) - counts)[session], counts


def _zip_sessions(
    a: np.ndarray, b: np.ndarray, n: int, sessions: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Pair the k-th slot of ``a`` with the k-th slot of ``b`` in each session.

    ``a`` and ``b`` are sorted slot indices of sessions of ``n`` slots; a
    session pairs as many slots as the shorter of its two lists holds.
    Returns the paired slots of each list and the leftovers.
    """
    session_a, session_b = a // n, b // n
    rank_a, count_a = _ranks(session_a, sessions)
    rank_b, count_b = _ranks(session_b, sessions)
    paired = np.minimum(count_a, count_b)
    keep_a, keep_b = rank_a < paired[session_a], rank_b < paired[session_b]
    return a[keep_a], b[keep_b], [a[~keep_a], b[~keep_b]]


def _fifo_pairs(
    set2: np.ndarray, set3: np.ndarray, bits: np.ndarray, n: int, sessions: int
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Search pairing on index arrays: ``make_pairs_search``'s per-bit FIFO.

    In each session the k-th set-2 slot with bit b takes the k-th set-3
    slot with bit b; pairs come out in set-2 order, which is session order,
    plus the unmatched and unused slots.
    """
    t2s, t3s, leftovers = [], [], []
    bits2, bits3 = bits[set2], bits[set3]
    for b in (0, 1):
        t2, t3, rest = _zip_sessions(set2[bits2 == b], set3[bits3 == b], n, sessions)
        t2s.append(t2)
        t3s.append(t3)
        leftovers += rest
    t2, t3 = np.concatenate(t2s), np.concatenate(t3s)
    order = np.argsort(t2)
    return t2[order], t3[order], leftovers


def _bob_publish(
    variant: str,
    max_pairs: int | None,
    columns: SlotColumns,
    bob_bit: np.ndarray,
    n: int,
    sessions: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bob's side: filter into discard/set 2/set 3, pair, truncate.

    Returns the discard mask, sets 2 and 3, the paired set-2 and set-3
    slots, and the sorted unpaired slots.  No pair spans two sessions, and
    ``max_pairs`` caps the pairs of each session.
    """
    discard = (columns.receiver_bit < 0) | (columns.sender_basis != columns.receiver_basis)
    kept = ~discard
    set2 = np.flatnonzero(kept & columns.alice_sends)
    set3 = np.flatnonzero(kept & ~columns.alice_sends)
    if variant == "flip_triples":
        t2, t3, leftovers = _zip_sessions(set2, set3, n, sessions)
    else:
        t2, t3, leftovers = _fifo_pairs(set2, set3, bob_bit, n, sessions)
    if max_pairs is not None:
        surplus = _ranks(t2 // n, sessions)[0] >= max_pairs
        leftovers += [t2[surplus], t3[surplus]]
        t2, t3 = t2[~surplus], t3[~surplus]
    return discard, set2, set3, t2, t3, np.sort(np.concatenate(leftovers))


def _alice_check(
    discard: np.ndarray,
    wire: tuple[np.ndarray, np.ndarray, np.ndarray],
    alice_sends: np.ndarray,
    alice_bit: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Alice's side: recover each wire pair's roles and check it.

    Reads only public messages (Bob's discard reply, the wire-form pairs,
    the slot directions) and her own bit column.  Returns her set-2 slot of
    each pair and the failure mask.
    """
    first, second, flip = wire
    if discard[first].any() or discard[second].any():
        raise ValueError("announced pair references a discarded timeslot")
    first_is_set2 = alice_sends[first]
    if (first_is_set2 == alice_sends[second]).any():
        raise ValueError("announced pair does not span both directions")
    t2 = np.where(first_is_set2, first, second)
    t3 = np.where(first_is_set2, second, first)
    return t2, alice_bit[t2] != (alice_bit[t3] ^ flip)


def classical_phase(
    columns: SlotColumns | Transcript,
    variant: str = "flip_triples",
    *,
    failure_policy: str = "abort",
    failure_threshold: float = 0.0,
    max_pairs: int | None = None,
    keep_searched_key: bool = True,
    sessions: int = 1,
) -> ClassicalPhase:
    """The classical exchange on a session's columns, message by message.

    The options mean what the ``DuplexConfig`` fields of the same names
    mean.  Alice announces her bases; Bob filters with them and his own,
    and replies with the discard set and the pair list in wire form.
    Alice's side reads only those public messages, the slot directions and
    her own bits: she recovers the set-2/set-3 roles of each pair from the
    directions, verifies it, applies the failure policy and reads her key
    bits.  Bob reads his key bits from his own records once she announces
    which pairs failed.

    The columns may hold ``sessions`` equal-length sessions back to back.
    Each is an exchange of its own: pairs never cross a session boundary,
    and ``max_pairs`` and the failure policy apply per session.
    """
    if sessions < 1 or len(columns) % sessions:
        raise ValueError(f"{len(columns)} slots do not split into {sessions} equal sessions")
    n = max(len(columns) // sessions, 1)
    alice_sends = columns.alice_sends
    alice_bit = np.where(alice_sends, columns.sender_bit, columns.receiver_bit)
    bob_bit = np.where(alice_sends, columns.receiver_bit, columns.sender_bit)

    # Bob's side.
    discard, set2, set3, t2, t3, unpaired = _bob_publish(
        variant, max_pairs, columns, bob_bit, n, sessions
    )
    flip = bob_bit[t2] ^ bob_bit[t3]
    wire = (np.maximum(t2, t3), np.minimum(t2, t3), flip)

    # Alice's side.
    alice_t2, failed = _alice_check(discard, wire, alice_sends, alice_bit)
    session = alice_t2 // n
    checked = np.bincount(session, minlength=sessions)
    failures = np.bincount(session[failed], minlength=sessions)
    rate = np.divide(failures, checked, out=np.zeros(sessions), where=checked > 0)
    aborted = rate > (0.0 if failure_policy == "abort" else failure_threshold)

    keyed = variant == "flip_triples" or keep_searched_key
    key = ~failed & ~aborted[session] if keyed else np.zeros(len(failed), dtype=bool)
    alice_key, bob_key = alice_bit[alice_t2[key]], bob_bit[t2[key]]
    key_session = session[key]
    counts = SessionCounts(
        sifted=np.bincount(set2 // n, minlength=sessions) + np.bincount(set3 // n, minlength=sessions),
        checked=checked,
        revealed=checked,
        failures=failures,
        sampled=np.zeros_like(checked),
        unpaired=np.bincount(unpaired // n, minlength=sessions),
        key_length=np.bincount(key_session, minlength=sessions),
        key_errors=np.bincount(key_session[alice_key != bob_key], minlength=sessions),
        detected=aborted,
        aborted=aborted,
    )
    return ClassicalPhase(
        discard, set2, set3, t2, t3, flip, unpaired, failed, key, alice_key, bob_key, counts
    )


def run_duplex_sessions(
    config: DuplexConfig, seeds: Sequence[int]
) -> tuple[SlotColumns, ClassicalPhase]:
    """Run one session of ``config`` per seed, all as one batch.

    Session ``j`` draws from the stream of the key
    ``session_generator(seeded_rng(seeds[j]))`` and takes entries
    ``j * n`` to ``(j + 1) * n`` of the batch's columns;
    ``transmit_sessions`` and ``classical_phase`` keep the sessions apart,
    so each is exactly the session of ``replace(config, seed=seeds[j])``.
    """
    columns = transmit_sessions(
        [session_generator(seeded_rng(seed)) for seed in seeds],
        _direction_mask(config.n_timeslots, config.interleaving),
        config.channel,
        config.eve,
    )
    phase = classical_phase(
        columns,
        config.variant,
        failure_policy=config.failure_policy,
        failure_threshold=config.failure_threshold,
        max_pairs=config.max_pairs,
        keep_searched_key=config.keep_searched_key,
        sessions=len(seeds),
    )
    return columns, phase


def run_duplex_session(config: DuplexConfig) -> DuplexSessionResult:
    """Execute one complete duplex session: quantum phase through key bits.

    The session is a batch of one of ``run_duplex_sessions``: the quantum
    phase is ``transmit_columns`` on the key
    ``session_generator(seeded_rng(config.seed))``, the stream
    ``run_duplex_transmission`` draws for that rng; ``classical_phase``
    then runs the classical exchange on its columns.
    """
    return DuplexSessionResult(config, *run_duplex_sessions(config, [config.seed]))


# --------------------------------------------------------------------------
# Transcript replay format
#
# Plain text, one row per timeslot:
#
#   timeslot  direction  sender_basis  sender_bit  receiver_basis  receiver_bit
#
# direction is A>B or B>A, bases are X or Y, bits are 0 or 1, and a lost
# photon is written LOST in the receiver_bit column.  '#' starts a comment.
# Rows may appear in any order; a file must be ASCII.
# --------------------------------------------------------------------------

_LOST_TOKEN = "LOST"


class TranscriptFormatError(ValueError):
    """A transcript line that cannot be parsed; carries its line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# Token -> column code; a token missing from its table is coded _BAD.
_DIRECTION_TOKENS = {d.value: code for code, d in enumerate(_DIRECTIONS)}
_BASIS_TOKENS = {basis.value: code for basis, code in _BASIS_CODES.items()}
_BIT_TOKENS = {"0": 0, "1": 1}
_RECEIVER_BIT_TOKENS = {**_BIT_TOKENS, _LOST_TOKEN: -1}
_BAD = -2


def _check_row(line_number: int, fields: list[str]) -> int:
    """The timeslot of a valid row; a bad row raises ``TranscriptFormatError``
    for its first bad field.
    """
    if len(fields) != 6:
        raise TranscriptFormatError(line_number, f"expected 6 columns, got {len(fields)}")
    raw_t, raw_dir, raw_sb, raw_sbit, raw_rb, raw_rbit = fields
    try:
        timeslot = int(raw_t)
    except ValueError:
        raise TranscriptFormatError(line_number, f"bad timeslot {raw_t!r}") from None
    if timeslot < 1:
        raise TranscriptFormatError(line_number, f"timeslot must be positive, got {timeslot}")
    if raw_dir not in _DIRECTION_TOKENS:
        raise TranscriptFormatError(line_number, f"bad direction {raw_dir!r}")
    if raw_sb not in _BASIS_TOKENS or raw_rb not in _BASIS_TOKENS:
        raise TranscriptFormatError(line_number, f"bad basis in {raw_sb!r}/{raw_rb!r}")
    if raw_sbit not in _BIT_TOKENS:
        raise TranscriptFormatError(line_number, f"bad sender bit {raw_sbit!r}")
    if raw_rbit not in _RECEIVER_BIT_TOKENS:
        raise TranscriptFormatError(line_number, f"bad receiver bit {raw_rbit!r}")
    return timeslot


def _raise_first_bad_row(lines: Sequence[str]) -> None:
    """Raise ``TranscriptFormatError`` for the first row, in line order, that
    breaks the grammar or repeats an earlier timeslot.
    """
    seen = set()
    for line_number, fields in enumerate(_split_lines(lines), start=1):
        if fields:
            timeslot = _check_row(line_number, fields)
            if timeslot in seen:
                raise TranscriptFormatError(line_number, f"duplicate timeslot {timeslot}")
            seen.add(timeslot)


def _codes(table: dict[str, int], tokens: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(table.get, tokens, repeat(_BAD)), dtype=np.int8, count=len(tokens))


def _split_lines(lines: Sequence[str]) -> list[list[str]]:
    """Each line's fields, its comment dropped; a blank line has none."""
    return [(line.split("#", 1)[0] if "#" in line else line).split() for line in lines]


def _code_rows(rows: Sequence[list[str]]) -> list[np.ndarray] | None:
    """The rows' tokens coded as columns (``_COLUMNS`` order, direction as
    its code), or None if a row breaks the grammar.
    """
    if set(map(len, rows)) - {6}:
        return None
    raw_t, raw_dir, raw_sb, raw_sbit, raw_rb, raw_rbit = list(zip(*rows)) or [()] * 6
    try:
        timeslot = _timeslot_column(list(map(int, raw_t)))
    except ValueError:
        return None
    columns = [
        timeslot,
        _codes(_DIRECTION_TOKENS, raw_dir),
        _codes(_BASIS_TOKENS, raw_sb),
        _codes(_BIT_TOKENS, raw_sbit),
        _codes(_BASIS_TOKENS, raw_rb),
        _codes(_RECEIVER_BIT_TOKENS, raw_rbit),
    ]
    bad = timeslot < 1
    for codes in columns[1:]:
        bad |= codes == _BAD
    return None if bad.any() else columns


# Lines coded at a time: only one block's byte masks (or, on the str
# coder, its token lists) are alive at once, so parsing needs little memory
# beyond the text itself.
_BLOCK_LINES = 4096

# Per column in _COLUMNS order, a valid token's first byte minus its
# column's base is 0 or 1; for the bases and bits that is the column code.
_CODE_BASE = np.array([ord("0"), ord("A"), ord("X"), ord("0"), ord("X"), ord("0")], dtype=np.uint8)
_LOST_BYTES = np.frombuffer(_LOST_TOKEN.encode("ascii"), dtype=np.uint8)
# 10**18 - 1 < 2**63: a timeslot of at most this many digits fits int64.
_MAX_DIGITS = 18


def _text_blocks(lines: Sequence[str]) -> Iterator[list[np.ndarray] | None]:
    """The str coder: ``_code_rows`` of each block of ``_BLOCK_LINES`` lines."""
    for start in range(0, len(lines), _BLOCK_LINES):
        yield _code_rows(list(filter(None, _split_lines(lines[start : start + _BLOCK_LINES]))))


def _code_bytes(chunk: bytes, line_ends: np.ndarray) -> list[np.ndarray] | None:
    """The columns ``_code_rows`` gives for the LF-terminated lines ``chunk``,
    coded from its bytes; None when the byte grammar does not cover it.

    ``line_ends`` holds the offsets of the chunk's LFs.  Fields are split by
    space, tab and the CR of a CRLF; ``#`` blanks the rest of its line.  A
    chunk with any other control byte (a lone CR, VT, FF or FS-US, which
    ``str.splitlines`` or ``str.split`` may read as a break), a row without
    exactly 6 tokens, a token outside the grammar, a timeslot of more than
    ``_MAX_DIGITS`` digits or a timeslot below 1 gives None.
    """
    b = np.frombuffer(chunk, dtype=np.uint8)
    controls = np.count_nonzero(b < 32) - len(line_ends)
    if controls and controls != chunk.count(b"\t") + chunk.count(b"\r\n"):
        return None
    space = b <= 32
    if b"#" in chunk:
        hashes = np.flatnonzero(b == ord("#"))
        ends = line_ends[np.searchsorted(line_ends, hashes)]
        first = np.ones(len(hashes), dtype=bool)
        first[1:] = ends[1:] != ends[:-1]  # the first '#' of each line
        comment = np.zeros(len(b), dtype=np.int8)
        comment[hashes[first]] = 1
        comment[ends[first]] = -1
        space |= np.cumsum(comment, dtype=np.int8).view(bool)
    # The chunk ends in LF, so token edges alternate start, stop, ... in pairs.
    edges = np.flatnonzero(np.diff(space, prepend=True))
    if len(edges) % 12:
        return None
    edges = edges.reshape(-1, 12)
    starts, stops = edges[:, 0::2], edges[:, 1::2]
    # Every group of 6 tokens sits on one line, and each on a line of its own.
    row_line = np.searchsorted(line_ends, starts[:, 0])
    if (row_line != np.searchsorted(line_ends, stops[:, 5])).any() or (
        row_line[1:] == row_line[:-1]
    ).any():
        return None
    width = stops - starts
    code = b[starts] - _CODE_BASE  # wraps around below the base
    ok = (code <= 1) & (width == 1)
    # Direction: A>B (coded 1) or B>A (coded 0).
    alice = code[:, 1] == 0
    ok[:, 1] = (
        (code[:, 1] <= 1)
        & (width[:, 1] == 3)
        & (b.take(starts[:, 1] + 1, mode="clip") == ord(">"))
        & (b.take(starts[:, 1] + 2, mode="clip") == np.where(alice, ord("B"), ord("A")))
    )
    # Receiver bit: 0, 1 or LOST (coded -1).
    lost = width[:, 5] == len(_LOST_BYTES)
    for k, byte in enumerate(_LOST_BYTES):
        lost &= b.take(starts[:, 5] + k, mode="clip") == byte
    ok[:, 5] |= lost
    # Timeslot: ASCII digits, right-aligned and read most significant first.
    digits = int(width[:, 0].max(initial=0))
    if digits > _MAX_DIGITS:
        return None
    timeslot = np.zeros(len(edges), dtype=np.int64)
    t_start, t_stop = starts[:, 0], stops[:, 0]
    ok[:, 0] = True
    for k in range(digits):
        at = t_stop - (digits - k)
        inside = at >= t_start
        digit = b.take(at, mode="clip") - np.uint8(ord("0"))
        ok[:, 0] &= (digit <= 9) | ~inside
        timeslot *= 10
        timeslot += np.where(inside, digit, 0)
    if not ok.all() or (timeslot < 1).any():
        return None
    columns = [timeslot, alice.view(np.int8), *code[:, 2:].astype(np.int8).T]
    columns[5][lost] = -1
    return columns


def _byte_blocks(data: bytes) -> Iterator[list[np.ndarray] | None]:
    """The byte coder over ASCII ``data``, ``_BLOCK_LINES`` LF-terminated
    lines at a time; a block it rejects goes through the str coder, whose
    lines are that block's ``str.splitlines``.
    """
    if not data.endswith(b"\n"):
        data += b"\n"  # a last line without its break; "\r" becomes "\r\n"
    line_ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    start = 0
    for first in range(0, len(line_ends), _BLOCK_LINES):
        ends = line_ends[first : first + _BLOCK_LINES]
        stop = int(ends[-1]) + 1
        chunk = data[start:stop]
        columns = _code_bytes(chunk, ends - start)
        if columns is None:
            yield from _text_blocks(chunk.decode("ascii").splitlines())
        else:
            yield columns
        start = stop


def parse_transcript(text: str) -> Transcript:
    """Parse replay-format text into a Transcript (empty text is valid).

    Rows may come in any order; the transcript is sorted by timeslot.  An
    ASCII text is coded by the byte coder, ``_BLOCK_LINES`` lines at a time:
    numpy finds the tokens from a whitespace mask and codes each from its
    first bytes and length, with no split per line and no lookup per token.
    A block it does not cover (any line break but LF and CRLF, any field
    separator but space and tab, or a row it rejects) goes through the str
    coder, which splits each line and codes each token by a table lookup;
    a non-ASCII text goes through the str coder whole.  A text that breaks
    the grammar raises ``TranscriptFormatError`` for its first bad row in
    line order (a row with a bad field, or one repeating an earlier
    timeslot), with the line number ``str.splitlines`` gives it: when a
    block holds a bad row, or a timeslot repeats, a row-by-row scan finds
    that row.
    """
    if text.isascii():
        coded = _byte_blocks(text.encode("ascii"))
    else:
        coded = _text_blocks(text.splitlines())
    blocks = [_code_rows([])]
    for columns in coded:
        if columns is None:
            _raise_first_bad_row(text.splitlines())
        blocks.append(columns)
    columns = [np.concatenate(parts) for parts in zip(*blocks)]
    timeslot = columns[0]
    order = np.argsort(timeslot, kind="stable")
    ordered = timeslot[order]
    if (ordered[1:] == ordered[:-1]).any():
        _raise_first_bad_row(text.splitlines())
    columns[1] = columns[1].astype(bool)
    if not (timeslot[1:] > timeslot[:-1]).all():
        columns = [column[order] for column in columns]
    return Transcript._from_columns("file", *columns)


def _ascii_text(data: bytes) -> str:
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # Count lines as parse_transcript does, up to the offending byte.
        line_number = len((data[: exc.start].decode("ascii") + "x").splitlines())
        raise TranscriptFormatError(
            line_number, f"non-ASCII byte 0x{data[exc.start]:02x}"
        ) from None


def read_transcript(path: str | Path) -> Transcript:
    """Parse a transcript file with ``parse_transcript``; it must be ASCII.

    A non-ASCII byte raises ``TranscriptFormatError`` naming its line.  An
    ASCII file's text reaches the byte coder whole: decoding it, and
    encoding it back, copies it once each and splits nothing.
    """
    return parse_transcript(_ascii_text(Path(path).read_bytes()))


_HEADER = "# timeslot direction sender_basis sender_bit receiver_basis receiver_bit\n"
# The text after the timeslot of every row, indexed by its codes in the
# order of this table's loops (see format_transcript).
_ROW_TAILS = np.array(
    [
        f" {direction.value} {sender_basis.value} {sender_bit} {receiver_basis.value} {receiver_bit}"
        for direction in _DIRECTIONS
        for sender_basis in BASES
        for sender_bit in (0, 1)
        for receiver_basis in BASES
        for receiver_bit in (_LOST_TOKEN, 0, 1)
    ],
    dtype=object,
)


def format_transcript(transcript: Transcript) -> str:
    """The transcript in replay format, one ``%`` template over its columns."""
    t = transcript
    tail = ((t.alice_sends * 2 + t.sender_basis) * 2 + t.sender_bit) * 2 + t.receiver_basis
    cells = np.empty((len(t), 2), dtype=object)
    cells[:, 0] = t.timeslot
    cells[:, 1] = _ROW_TAILS[tail * 3 + t.receiver_bit + 1]
    return _HEADER + "%d%s\n" * len(t) % tuple(cells.ravel().tolist())


def write_transcript(transcript: Transcript, path: str | Path) -> None:
    Path(path).write_text(format_transcript(transcript), encoding="ascii")


def example_transcript_path() -> Path:
    """Path of the bundled 20-slot worked-example transcript."""
    return Path(resources.files("duplexqkd").joinpath("data/duplex20.transcript"))
