import itertools
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from duplexqkd import (
    Basis,
    ChannelModel,
    Direction,
    DuplexConfig,
    EveStrategy,
    SetPartition,
    SlotRecord,
    Transcript,
    TranscriptFormatError,
    Triple,
    announce_bases,
    bob_pairing_views,
    extract_key,
    filter_sets,
    format_transcript,
    make_pairs_search,
    make_triples_flip,
    parse_transcript,
    partition_from_discard,
    party_bit_map,
    read_transcript,
    run_duplex_session,
    run_duplex_transmission,
    triple_from_announcement,
    verify_triples,
    write_transcript,
)
from duplexqkd.rng import seeded_rng

from _oracles import pair_rule_table
from conftest import (
    EXPECTED_DISCARD,
    EXPECTED_KEY,
    EXPECTED_SEARCH_PAIRS,
    EXPECTED_SEARCH_UNMATCHED,
    EXPECTED_SEARCH_UNUSED,
    EXPECTED_SET2,
    EXPECTED_SET3,
    EXPECTED_TRIPLES,
    EXPECTED_UNPAIRED,
    worked_example_records,
)


# ---------------------------------------------------------------------------
# Worked example
# ---------------------------------------------------------------------------

def test_bundled_transcript_matches_the_worked_example(example_transcript):
    assert list(example_transcript.slots) == worked_example_records()


def _example_partition(transcript):
    return filter_sets(
        transcript,
        announce_bases(transcript, "alice"),
        announce_bases(transcript, "bob"),
    )


def test_filter_sets_on_worked_example(example_transcript):
    partition = _example_partition(example_transcript)
    assert set(partition.discard) == EXPECTED_DISCARD
    assert partition.set2 == EXPECTED_SET2
    assert partition.set3 == EXPECTED_SET3


def test_alice_rebuilds_the_same_partition_from_the_discard_reply(example_transcript):
    partition = _example_partition(example_transcript)
    rebuilt = partition_from_discard(example_transcript, partition.discard)
    assert rebuilt == partition


def test_flip_triples_on_worked_example(example_transcript):
    partition = _example_partition(example_transcript)
    set2_view, set3_view = bob_pairing_views(example_transcript, partition)
    assert set2_view == [(3, 1), (5, 1), (9, 1), (11, 1), (15, 1), (17, 0)]
    assert set3_view == [(2, 0), (6, 1), (8, 1), (10, 1), (14, 0), (16, 1), (18, 0)]
    pairing = make_triples_flip(set2_view, set3_view)
    assert [t.announced() for t in pairing.triples] == EXPECTED_TRIPLES
    assert pairing.unpaired == EXPECTED_UNPAIRED
    # Role fields stay semantic even when the wire form is reordered.
    assert all(t.t_set2 in EXPECTED_SET2 and t.t_set3 in EXPECTED_SET3 for t in pairing.triples)


def test_worked_example_verification_and_key(example_transcript):
    partition = _example_partition(example_transcript)
    pairing = make_triples_flip(*bob_pairing_views(example_transcript, partition))
    alice_bits = party_bit_map(example_transcript, "alice")
    result = verify_triples(alice_bits, pairing.triples)
    assert result.passed
    assert result.checked_pairs == 6
    assert extract_key(pairing.triples, alice_bits) == EXPECTED_KEY
    assert extract_key(pairing.triples, party_bit_map(example_transcript, "bob")) == EXPECTED_KEY
    assert EXPECTED_KEY[0] == 1


def test_corrupting_one_slot_fails_its_triple(example_transcript):
    # Flip what Alice measured in timeslot 2: the (3,2,1) check must fail.
    slots = [
        replace(r, receiver_bit=r.receiver_bit ^ 1) if r.timeslot == 2 else r
        for r in example_transcript.slots
    ]
    corrupted = Transcript(tuple(slots), "file")
    partition = _example_partition(corrupted)
    pairing = make_triples_flip(*bob_pairing_views(corrupted, partition))
    result = verify_triples(party_bit_map(corrupted, "alice"), pairing.triples)
    assert [t.announced() for t in result.failures] == [(3, 2, 1)]


def test_search_pairs_on_worked_example(example_transcript):
    partition = _example_partition(example_transcript)
    set2_view, set3_view = bob_pairing_views(example_transcript, partition)
    pairing = make_pairs_search(set2_view, set3_view)
    assert pairing.pairs[0] == (3, 6)
    assert pairing.pairs == EXPECTED_SEARCH_PAIRS
    assert pairing.unmatched_set2 == EXPECTED_SEARCH_UNMATCHED
    assert pairing.unused_set3 == EXPECTED_SEARCH_UNUSED
    result = verify_triples(
        party_bit_map(example_transcript, "alice"), pairing.as_triples()
    )
    assert result.passed


# ---------------------------------------------------------------------------
# Pairing operations
# ---------------------------------------------------------------------------

def test_make_triples_flip_empty():
    pairing = make_triples_flip([], [])
    assert pairing.triples == ()
    assert pairing.unpaired == ()


def test_equal_bits_give_flip_zero():
    pairing = make_triples_flip([(1, 1)], [(2, 1)])
    assert pairing.triples == (Triple(1, 2, 0),)


def test_search_with_no_possible_match():
    pairing = make_pairs_search([(1, 1), (3, 1)], [(2, 0), (4, 0)])
    assert pairing.pairs == ()
    assert pairing.unmatched_set2 == (1, 3)
    assert pairing.unused_set3 == (2, 4)


def test_search_single_matching_pair():
    pairing = make_pairs_search([(1, 1)], [(2, 1)])
    assert pairing.pairs == ((1, 2),)


def test_triples_never_reuse_a_timeslot():
    set2 = [(1, 0), (3, 1), (5, 1)]
    set3 = [(2, 1), (4, 1), (6, 0), (8, 0)]
    for triples in (
        make_triples_flip(set2, set3).triples,
        make_pairs_search(set2, set3).as_triples(),
    ):
        used = [t for triple in triples for t in (triple.t_set2, triple.t_set3)]
        assert len(used) == len(set(used))


def test_announcement_round_trip():
    directions = {5: Direction.ALICE_TO_BOB, 6: Direction.BOB_TO_ALICE}
    triple = Triple(t_set2=5, t_set3=6, flip=0)
    assert triple.announced() == (6, 5, 0)
    assert triple_from_announcement(triple.announced(), directions) == triple


def test_announcement_rejects_unknown_or_same_direction_slots():
    directions = {1: Direction.ALICE_TO_BOB, 3: Direction.ALICE_TO_BOB}
    with pytest.raises(ValueError):
        triple_from_announcement((3, 1, 0), directions)
    with pytest.raises(ValueError):
        triple_from_announcement((9, 1, 0), directions)


# ---------------------------------------------------------------------------
# Verification and key extraction
# ---------------------------------------------------------------------------

def test_verification_fails_exactly_on_odd_error_parity():
    # All four per-pair error patterns: (set-2 slot error, set-3 slot error).
    for e2, e3 in itertools.product((0, 1), repeat=2):
        for b2, b3 in itertools.product((0, 1), repeat=2):
            bob_bits = {1: b2 ^ e2, 2: b3}        # set-2 error lands on Bob's reading
            alice_bits = {1: b2, 2: b3 ^ e3}      # set-3 error lands on Alice's reading
            triple = Triple(1, 2, bob_bits[1] ^ bob_bits[2])
            result = verify_triples(alice_bits, [triple])
            assert result.passed == ((e2 ^ e3) == 0)


def test_verify_missing_record_is_an_error():
    with pytest.raises(ValueError, match="timeslot 2"):
        verify_triples({1: 0}, [Triple(1, 2, 0)])


def test_pair_reading_rule_reduces_to_the_first_bit():
    table = pair_rule_table()
    for (b2, b3), read in table.items():
        assert read == b2
        assert extract_key([Triple(1, 2, b2 ^ b3)], {1: b2, 2: b3}) == [b2]


def test_extract_key_missing_record_is_an_error():
    with pytest.raises(ValueError, match="timeslot 4"):
        extract_key([Triple(4, 2, 0)], {2: 1})


# ---------------------------------------------------------------------------
# Transmission
# ---------------------------------------------------------------------------

def test_transmission_rejects_fewer_than_two_slots(rng):
    with pytest.raises(ValueError):
        run_duplex_transmission(1, ChannelModel(), EveStrategy.absent(), rng)


def test_total_loss_marks_every_slot_lost(rng):
    transcript = run_duplex_transmission(
        20, ChannelModel(loss_probability=1.0), EveStrategy.absent(), rng
    )
    assert len(transcript) == 20
    assert all(r.receiver_bit is None for r in transcript)


def test_default_interleaving_alternates_directions(rng):
    transcript = run_duplex_transmission(10, ChannelModel(), EveStrategy.absent(), rng)
    for record in transcript:
        expected = Direction.ALICE_TO_BOB if record.timeslot % 2 else Direction.BOB_TO_ALICE
        assert record.direction is expected


def test_noiseless_matched_slots_agree(rng):
    transcript = run_duplex_transmission(400, ChannelModel(), EveStrategy.absent(), rng)
    for record in transcript:
        if record.bases_match:
            assert record.receiver_bit == record.sender_bit


def test_eve_sink_collects_interceptions(rng):
    sink = []
    run_duplex_transmission(
        50, ChannelModel(), EveStrategy.intercept_resend(), rng, eve_sink=sink
    )
    assert len(sink) == 50
    assert [r.timeslot for r in sink] == list(range(1, 51))


# ---------------------------------------------------------------------------
# Filtering properties
# ---------------------------------------------------------------------------

def test_filter_sets_empty_transcript():
    partition = filter_sets(Transcript((), "file"), {}, {})
    assert partition == SetPartition(frozenset(), (), ())


def test_filter_sets_no_mismatch_no_loss_means_empty_discard():
    records = [
        SlotRecord(1, Direction.ALICE_TO_BOB, Basis.X, 1, Basis.X, 1),
        SlotRecord(2, Direction.BOB_TO_ALICE, Basis.Y, 0, Basis.Y, 0),
    ]
    transcript = Transcript(tuple(records), "file")
    partition = _example_partition(transcript)
    assert partition.discard == frozenset()
    assert partition.set2 == (1,)
    assert partition.set3 == (2,)


def test_filter_sets_requires_full_announcements(example_transcript):
    bases = announce_bases(example_transcript, "alice")
    partial = {t: b for t, b in bases.items() if t != 7}
    with pytest.raises(ValueError, match="timeslot 7"):
        filter_sets(example_transcript, partial, announce_bases(example_transcript, "bob"))


@given(
    seed=st.integers(0, 2**32 - 1),
    loss=st.sampled_from([0.0, 0.1, 0.5]),
    intercept=st.sampled_from([0.0, 1.0]),
    n=st.integers(2, 60),
)
def test_partition_covers_all_slots_disjointly(seed, loss, intercept, n):
    eve = EveStrategy.intercept_resend(intercept) if intercept else EveStrategy.absent()
    transcript = run_duplex_transmission(
        n, ChannelModel(loss_probability=loss), eve, seeded_rng(seed)
    )
    partition = _example_partition(transcript)
    assert partition.all_timeslots() == set(transcript.timeslots())
    assert len(partition.discard) + len(partition.set2) + len(partition.set3) == n
    directions = transcript.directions()
    assert all(directions[t] is Direction.ALICE_TO_BOB for t in partition.set2)
    assert all(directions[t] is Direction.BOB_TO_ALICE for t in partition.set3)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60))
def test_flip_bits_are_bobs_pair_xor(seed, n):
    transcript = run_duplex_transmission(
        n, ChannelModel(), EveStrategy.intercept_resend(), seeded_rng(seed)
    )
    partition = _example_partition(transcript)
    pairing = make_triples_flip(*bob_pairing_views(transcript, partition))
    bob_bits = party_bit_map(transcript, "bob")
    for triple in pairing.triples:
        assert triple.flip == bob_bits[triple.t_set2] ^ bob_bits[triple.t_set3]


@given(seed=st.integers(0, 2**32 - 1), loss=st.sampled_from([0.0, 0.1, 0.5]))
def test_every_filtered_bit_is_checked_or_reported_unpaired(seed, loss):
    transcript = run_duplex_transmission(
        40, ChannelModel(loss_probability=loss), EveStrategy.absent(), seeded_rng(seed)
    )
    partition = _example_partition(transcript)
    pairing = make_triples_flip(*bob_pairing_views(transcript, partition))
    assert len(pairing.triples) == min(len(partition.set2), len(partition.set3))
    assert 2 * len(pairing.triples) + len(pairing.unpaired) == len(partition.set2) + len(
        partition.set3
    )


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------

def test_noiseless_session_verifies_and_agrees():
    result = run_duplex_session(DuplexConfig(n_timeslots=400, seed=8))
    assert result.verification.passed
    assert not result.aborted and not result.detected
    assert result.keys_agree
    assert len(result.alice_key) == min(
        len(result.partition.set2), len(result.partition.set3)
    )


def test_abort_policy_voids_the_key():
    config = DuplexConfig(
        n_timeslots=400, eve=EveStrategy.intercept_resend(), failure_policy="abort", seed=3
    )
    result = run_duplex_session(config)
    assert not result.verification.passed
    assert result.aborted and result.detected
    assert result.alice_key == [] and result.bob_key == []


def test_threshold_policy_keeps_passing_pairs():
    config = DuplexConfig(
        n_timeslots=400,
        channel=ChannelModel(flip_probability=0.02),
        failure_policy="threshold",
        failure_threshold=0.2,
        seed=3,
    )
    result = run_duplex_session(config)
    assert not result.aborted
    checked = result.verification.checked_pairs
    failed = len(result.verification.failures)
    assert len(result.alice_key) == checked - failed
    assert result.keys_agree


def test_max_pairs_truncates_and_accounts_for_the_surplus():
    result = run_duplex_session(DuplexConfig(n_timeslots=400, max_pairs=10, seed=6))
    assert result.verification.checked_pairs == 10
    sifted = len(result.partition.set2) + len(result.partition.set3)
    assert 2 * 10 + len(result.unpaired) == sifted


def test_search_variant_key_can_be_disabled():
    keep = run_duplex_session(
        DuplexConfig(n_timeslots=400, variant="search_pairs", seed=4)
    )
    drop = run_duplex_session(
        DuplexConfig(n_timeslots=400, variant="search_pairs", keep_searched_key=False, seed=4)
    )
    assert keep.verification.passed and drop.verification.passed
    assert len(keep.alice_key) == keep.verification.checked_pairs > 0
    assert drop.alice_key == []


def test_same_seed_reproduces_the_session():
    config = DuplexConfig(n_timeslots=200, eve=EveStrategy.intercept_resend(0.4), seed=99)
    first = run_duplex_session(config)
    second = run_duplex_session(config)
    assert first.transcript == second.transcript
    assert first.announced_pairs == second.announced_pairs
    assert first.alice_key == second.alice_key


# ---------------------------------------------------------------------------
# Replay format
# ---------------------------------------------------------------------------

def test_transcript_round_trip(tmp_path, example_transcript):
    path = tmp_path / "copy.transcript"
    write_transcript(example_transcript, path)
    assert read_transcript(path) == Transcript(example_transcript.slots, "file")


def test_format_is_stable(example_path, example_transcript):
    # Rewriting the bundled file reproduces its data rows exactly.
    data_rows = [
        line for line in example_path.read_text().splitlines() if not line.startswith("#")
    ]
    formatted = [
        line for line in format_transcript(example_transcript).splitlines()
        if not line.startswith("#")
    ]
    assert formatted == data_rows


def test_parse_empty_text_is_an_empty_transcript():
    assert parse_transcript("") == Transcript((), "file")


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("x A>B X 1 X 1", "bad timeslot"),
        ("1 A-B X 1 X 1", "bad direction"),
        ("1 A>B Z 1 X 1", "bad basis"),
        ("1 A>B X 2 X 1", "bad sender bit"),
        ("1 A>B X 1 X gone", "bad receiver bit"),
        ("1 A>B X 1 X", "expected 6 columns"),
    ],
)
def test_malformed_rows_name_the_line(row, fragment):
    text = "1 A>B X 1 X 1\n" + row + "\n"
    with pytest.raises(TranscriptFormatError, match="line 2") as exc:
        parse_transcript(text)
    assert fragment in str(exc.value)


def test_duplicate_timeslot_is_rejected():
    with pytest.raises(TranscriptFormatError, match="duplicate"):
        parse_transcript("1 A>B X 1 X 1\n1 B>A X 1 X 1\n")


def test_lost_token_round_trips():
    transcript = parse_transcript("1 A>B X 1 X LOST\n2 B>A Y 0 Y 0\n")
    assert transcript.slots[0].receiver_bit is None
    assert "LOST" in format_transcript(transcript)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("variant", "both", "unknown variant 'both'"),
        ("failure_policy", "ignore", "unknown failure_policy 'ignore'"),
        ("failure_threshold", -0.1, "failure_threshold must lie in"),
        ("failure_threshold", 1.5, "failure_threshold must lie in"),
        ("max_pairs", -1, "max_pairs must be non-negative"),
    ],
)
def test_config_rejects_out_of_range_settings(field, value, message):
    with pytest.raises(ValueError, match=message):
        DuplexConfig(n_timeslots=10, **{field: value})
