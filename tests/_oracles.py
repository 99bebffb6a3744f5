"""Independent brute-force oracles for expected values used in tests.

The probability oracles are computed by exhaustive weighted enumeration or
by exact probability arithmetic, never by calling the simulator, so they can
vouch for the values the simulator is asserted against.  The reference
protocol oracles (``greedy_pairs_search``, ``reference_duplex_session``,
``reference_run_sessions``, ``reference_parse_transcript``,
``reference_format_transcript``, ``reference_replay_payload``) restate a protocol rule or the transcript
grammar in its plainest form, or compose the dict/tuple step functions or
single sessions, to check the fast implementations against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
from scipy.stats import binom

from duplexqkd import (
    Basis,
    Direction,
    SlotRecord,
    Transcript,
    TranscriptFormatError,
    announce_bases,
    bob_pairing_views,
    extract_key,
    filter_sets,
    make_pairs_search,
    make_triples_flip,
    party_bit_map,
    report_from_bb84,
    report_from_duplex,
    run_bb84,
    run_duplex_session,
    run_duplex_transmission,
    triple_from_announcement,
    verify_triples,
)
from duplexqkd.rng import derive_seed, seeded_rng


def enumerate_slot_error_probability(
    intercept_fraction: float = 1.0,
    policy: str = "uniform",
    flip_probability: float = 0.0,
) -> float:
    """P(receiver bit != sender bit | bases matched), by full enumeration.

    Walks every branch of one slot: sender basis (uniform), interception
    coin, Eve's basis per policy, and the receiver's reading of whatever
    state was forwarded, composing the channel flip at the end.
    """
    policies = {
        "uniform": [("X", 0.5), ("Y", 0.5)],
        "always_x": [("X", 1.0)],
        "always_y": [("Y", 1.0)],
    }
    total = 0.0
    for _sender_basis, w_basis in [("X", 0.5), ("Y", 0.5)]:
        sender_basis = _sender_basis
        for intercepted, w_int in [(True, intercept_fraction), (False, 1.0 - intercept_fraction)]:
            if w_int == 0.0:
                continue
            if not intercepted:
                # Untouched state, matched-basis reading: only the channel can err.
                total += w_basis * w_int * flip_probability
                continue
            for eve_basis, w_eve in policies[policy]:
                if eve_basis == sender_basis:
                    # Invisible interception; as above.
                    total += w_basis * w_int * w_eve * flip_probability
                else:
                    # Cross-basis resend: the matched-basis reading is a fair
                    # coin whether or not the channel flips the forwarded bit.
                    total += w_basis * w_int * w_eve * 0.5
    return total


def xor_compose(p_a: float, p_b: float) -> float:
    """P(exactly one of two independent error events), by enumeration."""
    total = 0.0
    for a, b in itertools.product((0, 1), repeat=2):
        if a ^ b:
            total += (p_a if a else 1 - p_a) * (p_b if b else 1 - p_b)
    return total


def enumerate_pair_failure_probability(p_slot: float) -> float:
    """P(a checked pair fails) = P(odd error parity across its two slots)."""
    return xor_compose(p_slot, p_slot)


def enumerate_detection_probability(n_pairs: int, p_pair: float) -> float:
    """P(at least one of n independently checked pairs fails), enumerated.

    Sums the weight of every nonzero failure pattern, so it is independent
    of the (1-p)^n closed form it is used to confirm.
    """
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=n_pairs):
        if any(pattern):
            weight = 1.0
            for bit in pattern:
                weight *= p_pair if bit else 1.0 - p_pair
            total += weight
    return total


def enumerate_survival_probability(n_bits: int, p_error: float) -> float:
    """P(an n-bit public comparison sees no error), by pattern enumeration."""
    return 1.0 - enumerate_detection_probability(n_bits, p_error)


def pair_rule_table() -> dict[tuple[int, int], int]:
    """The published pair-reading rule, written out case by case."""
    return {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}


def enumerate_flip_key_joint() -> dict[tuple[int, int], Fraction]:
    """Joint distribution of (flip bit, key bit) over uniform pair values."""
    joint: dict[tuple[int, int], Fraction] = {}
    for b2, b3 in itertools.product((0, 1), repeat=2):
        cell = (b2 ^ b3, pair_rule_table()[(b2, b3)])
        joint[cell] = joint.get(cell, Fraction(0)) + Fraction(1, 4)
    return joint


def enumerate_flip_key_mutual_information() -> Fraction:
    """Mutual information of (flip, key) in bits, exact rational arithmetic.

    Returns a Fraction; every log term is of a ratio that this construction
    keeps rational, and for the protocol's rule every ratio is exactly 1.
    """
    joint = enumerate_flip_key_joint()
    flip_m = {f: sum(p for (ff, _), p in joint.items() if ff == f) for f in (0, 1)}
    key_m = {k: sum(p for (_, kk), p in joint.items() if kk == k) for k in (0, 1)}
    mi = Fraction(0)
    for (f, k), p in joint.items():
        if p:
            ratio = p / (flip_m[f] * key_m[k])
            if ratio != 1:
                mi += p * Fraction(math.log2(float(ratio))).limit_denominator(10**12)
    return mi


def expected_min_of_binomials(n: int, p: float) -> float:
    """E[min(X, Y)] for independent X, Y ~ Binomial(n, p), exactly.

    Uses E[min] = sum_k P(X >= k) * P(Y >= k) over k = 1..n.
    """
    ks = np.arange(1, n + 1)
    sf = binom.sf(ks - 1, n, p)
    return float(np.sum(sf * sf))


def expected_bb84_key_length(n_timeslots: int, sample_fraction: float) -> float:
    """E[key length] for a clean baseline run: sifted minus the sampled bits.

    The sifted count is Binomial(n, 1/2); the sample takes
    ceil(sample_fraction * sifted) of it.
    """
    sizes = np.arange(0, n_timeslots + 1)
    pmf = binom.pmf(sizes, n_timeslots, 0.5)
    kept = sizes - np.ceil(sample_fraction * sizes)
    return float(np.sum(pmf * kept))


def binomial_3sigma(p: float, n: int) -> float:
    """Three-sigma half-width of an empirical proportion of n Bernoulli(p)."""
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


MASK64 = (1 << 64) - 1


def splitmix64(key: int, counter: int) -> int:
    """Word ``counter`` of the SplitMix64 stream seeded with ``key``, in plain ints.

    The state after ``counter + 1`` steps of the golden-gamma increment,
    put through the published 64-bit finaliser (Steele, Lea and Flood,
    OOPSLA 2014).
    """
    z = (key + (counter + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_slot_coins(key: int, n: int, slot: int, thresholds) -> list[bool]:
    """The nine coins of one slot of an ``n``-slot session, one word at a time.

    Fair row ``r`` is bit ``slot % 64`` of word ``r * w + slot // 64``, with
    ``w = ceil(n / 64)``; threshold row ``t`` (intercept, loss, flip) is set
    when word ``6 * w + t * n + slot``, as a 53-bit fraction, is below its
    probability, compared exactly.
    """
    words = -(-n // 64)
    fair = [bool(splitmix64(key, row * words + slot // 64) >> (slot % 64) & 1) for row in range(6)]
    drawn = [
        Fraction(splitmix64(key, 6 * words + t * n + slot) >> 11, 2**53) < Fraction(p)
        for t, p in enumerate(thresholds)
    ]
    return fair + drawn


def reference_bb84_sample(key: int, n: int, sifted_slots, sample_size: int) -> list[int]:
    """The ``sample_size`` sifted slots (0-based) whose sample-row words are smallest."""
    start = 6 * -(-n // 64) + 3 * n
    return sorted(sorted(sifted_slots, key=lambda slot: splitmix64(key, start + slot))[:sample_size])


def greedy_pairs_search(set2_view, set3_view):
    """Same-bit-value pairing by rescanning set 3 for every set-2 element.

    The quadratic statement of the rule: walking set 2 in order, each
    element takes the earliest unused set-3 element with the same bit.
    Returns (pairs, unmatched set-2 slots, unused set-3 slots).
    """
    used: set[int] = set()
    pairs, unmatched = [], []
    for t2, b2 in set2_view:
        partner = next((t3 for t3, b3 in set3_view if t3 not in used and b3 == b2), None)
        if partner is None:
            unmatched.append(t2)
        else:
            used.add(partner)
            pairs.append((t2, partner))
    unused = tuple(t3 for t3, _ in set3_view if t3 not in used)
    return tuple(pairs), tuple(unmatched), unused


def reference_duplex_session(config) -> dict:
    """One duplex session composed message by message from the public steps.

    Runs on ``run_duplex_transmission(..., seeded_rng(config.seed))`` and
    uses only the dict/tuple step functions, so it vouches for the array
    session independently of its code.
    """
    sink: list = []
    transcript = run_duplex_transmission(
        config.n_timeslots, config.channel, config.eve, seeded_rng(config.seed),
        interleaving=config.interleaving, eve_sink=sink,
    )
    alice_bases = announce_bases(transcript, "alice")
    partition = filter_sets(transcript, alice_bases, announce_bases(transcript, "bob"))
    set2_view, set3_view = bob_pairing_views(transcript, partition)
    if config.variant == "flip_triples":
        pairing = make_triples_flip(set2_view, set3_view)
        triples, leftovers = pairing.triples, list(pairing.unpaired)
    else:
        pairing = make_pairs_search(set2_view, set3_view)
        triples = pairing.as_triples()
        leftovers = list(pairing.unmatched_set2) + list(pairing.unused_set3)
    if config.max_pairs is not None and len(triples) > config.max_pairs:
        for dropped in triples[config.max_pairs :]:
            leftovers.extend((dropped.t_set2, dropped.t_set3))
        triples = triples[: config.max_pairs]
    announced_pairs = tuple(t.announced() for t in triples)

    directions = transcript.directions()
    alice_triples = tuple(triple_from_announcement(a, directions) for a in announced_pairs)
    alice_bits = party_bit_map(transcript, "alice")
    verification = verify_triples(alice_bits, alice_triples)
    checked = verification.checked_pairs
    if config.failure_policy == "abort":
        aborted = not verification.passed
    else:
        rate = len(verification.failures) / checked if checked else 0.0
        aborted = rate > config.failure_threshold
    keyed = config.variant == "flip_triples" or config.keep_searched_key
    failed = set(verification.failures)
    key_triples = () if aborted or not keyed else tuple(
        t for t in alice_triples if t not in failed
    )
    return {
        "transcript": transcript,
        "eve_records": tuple(sink),
        "announced_alice_bases": alice_bases,
        "announced_discard": partition.discard,
        "partition": partition,
        "triples": triples,
        "announced_pairs": announced_pairs,
        "unpaired": tuple(sorted(leftovers)),
        "verification": verification,
        "aborted": aborted,
        "detected": aborted,
        "key_triples": key_triples,
        "alice_key": extract_key(key_triples, alice_bits),
        "bob_key": extract_key(key_triples, party_bit_map(transcript, "bob")),
    }


def reference_run_sessions(protocol: str, config, sessions: int, master_seed: int) -> list:
    """``run_sessions`` one session at a time: session k alone, seeded by derive_seed(master, k).

    Batched sessions share one transmission and one classical phase; each
    of them must report what its session reports when run on its own.
    """
    reports = []
    for index in range(sessions):
        seed = derive_seed(master_seed, index)
        cfg = replace(config, seed=seed)
        if protocol == "bb84":
            reports.append(report_from_bb84(run_bb84(cfg), cfg, session_index=index, seed=seed))
        else:
            reports.append(report_from_duplex(run_duplex_session(cfg), session_index=index, seed=seed))
    return reports


def _reference_row(line_number: int, fields: list[str]) -> SlotRecord:
    if len(fields) != 6:
        raise TranscriptFormatError(
            line_number, f"expected 6 columns, got {len(fields)}"
        )
    raw_t, raw_dir, raw_sb, raw_sbit, raw_rb, raw_rbit = fields
    try:
        timeslot = int(raw_t)
    except ValueError:
        raise TranscriptFormatError(line_number, f"bad timeslot {raw_t!r}") from None
    if timeslot < 1:
        raise TranscriptFormatError(line_number, f"timeslot must be positive, got {timeslot}")
    try:
        direction = Direction(raw_dir)
    except ValueError:
        raise TranscriptFormatError(line_number, f"bad direction {raw_dir!r}") from None
    try:
        sender_basis = Basis(raw_sb)
        receiver_basis = Basis(raw_rb)
    except ValueError:
        raise TranscriptFormatError(
            line_number, f"bad basis in {raw_sb!r}/{raw_rb!r}"
        ) from None
    if raw_sbit not in ("0", "1"):
        raise TranscriptFormatError(line_number, f"bad sender bit {raw_sbit!r}")
    if raw_rbit == "LOST":
        receiver_bit = None
    elif raw_rbit in ("0", "1"):
        receiver_bit = int(raw_rbit)
    else:
        raise TranscriptFormatError(line_number, f"bad receiver bit {raw_rbit!r}")
    return SlotRecord(
        timeslot, direction, sender_basis, int(raw_sbit), receiver_basis, receiver_bit
    )


def reference_parse_transcript(text: str) -> Transcript:
    """The transcript grammar parsed one row at a time into records.

    Each data line becomes one ``SlotRecord`` in line order; the first row
    that breaks the grammar or repeats an earlier timeslot raises.  The
    records are then sorted by timeslot.
    """
    records: list[SlotRecord] = []
    seen: set[int] = set()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        record = _reference_row(line_number, line.split())
        if record.timeslot in seen:
            raise TranscriptFormatError(
                line_number, f"duplicate timeslot {record.timeslot}"
            )
        seen.add(record.timeslot)
        records.append(record)
    records.sort(key=lambda r: r.timeslot)
    return Transcript(tuple(records), "file")


def reference_format_transcript(transcript: Transcript) -> str:
    """The transcript in replay format, written one record at a time."""
    lines = ["# timeslot direction sender_basis sender_bit receiver_basis receiver_bit"]
    for r in transcript:
        rbit = "LOST" if r.receiver_bit is None else str(r.receiver_bit)
        lines.append(
            f"{r.timeslot} {r.direction.value} {r.sender_basis.value} "
            f"{r.sender_bit} {r.receiver_basis.value} {rbit}"
        )
    return "\n".join(lines) + "\n"


def reference_replay_payload(transcript: Transcript, variant: str) -> dict:
    """The replay report composed from the dict/tuple step functions.

    No abort: every pair that passes its check contributes a key bit.
    """
    alice_bases = announce_bases(transcript, "alice")
    bob_bases = announce_bases(transcript, "bob")
    partition = filter_sets(transcript, alice_bases, bob_bases)
    set2_view, set3_view = bob_pairing_views(transcript, partition)
    if variant == "flip_triples":
        pairing = make_triples_flip(set2_view, set3_view)
        triples, unpaired = pairing.triples, pairing.unpaired
    else:
        pairing = make_pairs_search(set2_view, set3_view)
        triples = pairing.as_triples()
        unpaired = tuple(pairing.unmatched_set2) + tuple(pairing.unused_set3)
    verification = verify_triples(party_bit_map(transcript, "alice"), triples)
    failed = set(verification.failures)
    key_triples = [t for t in triples if t not in failed]
    alice_key = extract_key(key_triples, party_bit_map(transcript, "alice"))
    bob_key = extract_key(key_triples, party_bit_map(transcript, "bob"))
    return {
        "n_timeslots": len(transcript),
        "variant": variant,
        "discard": sorted(partition.discard),
        "set2": list(partition.set2),
        "set3": list(partition.set3),
        "triples": [list(t.announced()) for t in triples],
        "unpaired": sorted(unpaired),
        "checked_pairs": verification.checked_pairs,
        "failures": [list(t.announced()) for t in verification.failures],
        "passed": verification.passed,
        "alice_key": alice_key,
        "bob_key": bob_key,
        "keys_agree": alice_key == bob_key,
    }
