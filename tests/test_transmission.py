"""The shared transmission kernel: slot rules, stream identity, object form."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from duplexqkd import (
    BasisPolicy,
    Bb84Config,
    ChannelModel,
    Direction,
    EveStrategy,
    run_bb84,
    run_duplex_transmission,
    sift,
)
from duplexqkd import transmission
from duplexqkd.rng import seeded_rng, session_generator
from duplexqkd.transmission import (
    BASES,
    _coins,
    _combine,
    intercept_records,
    slot_records,
    stream_words,
    transmit_columns,
)

from _oracles import reference_bb84_sample, reference_slot_coins, splitmix64

ALTERNATING = np.arange(400) % 2 == 0


def _columns(seed, channel=ChannelModel(), eve=EveStrategy.absent(), mask=ALTERNATING):
    return transmit_columns(session_generator(seeded_rng(seed)), mask, channel, eve)


def test_columns_are_int8_codes():
    cols = _columns(1, ChannelModel(0.3, 0.1), EveStrategy.intercept_resend(0.5))
    for name in ("sender_basis", "sender_bit", "receiver_basis", "receiver_bit", "eve_basis", "eve_bit"):
        column = getattr(cols, name)
        assert column.dtype == np.int8 and column.shape == (400,), name
    assert set(np.unique(cols.sender_bit)) <= {0, 1}
    assert set(np.unique(cols.receiver_bit)) <= {-1, 0, 1}
    assert cols.intercepted.dtype == bool
    assert cols.alice_sends is ALTERNATING


def test_same_seed_gives_the_same_columns():
    first = _columns(7, ChannelModel(0.1, 0.05), EveStrategy.intercept_resend(0.4))
    second = _columns(7, ChannelModel(0.1, 0.05), EveStrategy.intercept_resend(0.4))
    for name in ("sender_basis", "sender_bit", "receiver_basis", "receiver_bit", "intercepted"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_noiseless_matched_slots_agree():
    cols = _columns(3)
    matched = cols.sender_basis == cols.receiver_basis
    assert np.array_equal(cols.receiver_bit[matched], cols.sender_bit[matched])
    assert not cols.intercepted.any()
    assert (cols.receiver_bit >= 0).all()


def test_certain_flip_inverts_every_matched_reading():
    cols = _columns(4, ChannelModel(flip_probability=1.0))
    matched = cols.sender_basis == cols.receiver_basis
    assert np.array_equal(cols.receiver_bit[matched], 1 - cols.sender_bit[matched])


def test_same_basis_interception_is_invisible():
    cols = _columns(5, eve=EveStrategy.intercept_resend(1.0))
    assert cols.intercepted.all()
    eve_matched = cols.eve_basis == cols.sender_basis
    assert np.array_equal(cols.eve_bit[eve_matched], cols.sender_bit[eve_matched])
    clean = eve_matched & (cols.receiver_basis == cols.sender_basis)
    assert np.array_equal(cols.receiver_bit[clean], cols.sender_bit[clean])


@pytest.mark.parametrize("policy,code", [(BasisPolicy.ALWAYS_X, 0), (BasisPolicy.ALWAYS_Y, 1)])
def test_fixed_basis_policies(policy, code):
    cols = _columns(6, eve=EveStrategy.intercept_resend(1.0, policy))
    assert (cols.eve_basis == code).all()
    assert all(r.measured_basis is BASES[code] for r in intercept_records(cols))


@given(
    seed=st.integers(0, 2**32 - 1),
    loss=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    intercept=st.sampled_from([0.0, 0.3, 1.0]),
    n=st.integers(2, 80),
)
def test_transcript_is_the_object_form_of_the_columns(seed, loss, intercept, n):
    eve = EveStrategy.intercept_resend(intercept) if intercept else EveStrategy.absent()
    channel = ChannelModel(loss_probability=loss)
    sink = []
    transcript = run_duplex_transmission(n, channel, eve, seeded_rng(seed), eve_sink=sink)
    cols = transmit_columns(
        session_generator(seeded_rng(seed)), np.arange(n) % 2 == 0, channel, eve
    )
    assert list(transcript.slots) == slot_records(cols)
    # receiver_bit is None exactly where the kernel lost the photon.
    lost = [r.receiver_bit is None for r in transcript]
    assert lost == (cols.receiver_bit < 0).tolist()
    if loss == 0.0:
        assert not any(lost)
    if loss == 1.0:
        assert all(lost)
    # The Eve sink holds the intercepted slots, in timeslot order.
    assert [r.timeslot for r in sink] == (np.flatnonzero(cols.intercepted) + 1).tolist()
    assert tuple(sink) == intercept_records(cols)
    for record in transcript:
        odd = record.timeslot % 2 == 1
        assert record.direction is (Direction.ALICE_TO_BOB if odd else Direction.BOB_TO_ALICE)


def test_unknown_interleaving_rule_is_rejected():
    with pytest.raises(ValueError, match="interleaving"):
        run_duplex_transmission(10, ChannelModel(), EveStrategy.absent(), seeded_rng(1), interleaving="nope")


@given(
    seed=st.integers(0, 2**32 - 1),
    loss=st.sampled_from([0.0, 0.2]),
    intercept=st.sampled_from([0.0, 0.5, 1.0]),
    sample_count=st.one_of(st.none(), st.integers(0, 30)),
)
def test_bb84_outcome_matches_its_slot_records(seed, loss, intercept, sample_count):
    eve = EveStrategy.intercept_resend(intercept) if intercept else EveStrategy.absent()
    channel = ChannelModel(loss_probability=loss)
    config = Bb84Config(
        n_timeslots=60, channel=channel, eve=eve, sample_count=sample_count, seed=seed
    )
    outcome = run_bb84(config)
    cols = transmit_columns(
        session_generator(seeded_rng(seed)), np.ones(60, dtype=bool), channel, eve
    )
    records = slot_records(cols)
    assert outcome.sifted_records == sift(records)
    assert outcome.eve_records == intercept_records(cols)
    assert outcome.sifted_count == len(outcome.sifted_records)
    assert outcome.sampled_count == len(outcome.sampled_timeslots)
    assert outcome.key_length == len(outcome.key_bits_alice) == len(outcome.key_timeslots)
    assert outcome.keys_agree == (outcome.key_bits_alice == outcome.key_bits_bob)
    by_slot = {r.timeslot: r for r in records}
    errors = sum(by_slot[t].receiver_bit != by_slot[t].sender_bit for t in outcome.sampled_timeslots)
    assert outcome.sample_errors == errors
    assert outcome.key_bits_alice == [by_slot[t].sender_bit for t in outcome.key_timeslots]
    assert outcome.key_bits_bob == [by_slot[t].receiver_bit for t in outcome.key_timeslots]
    if sample_count is not None:
        assert outcome.sampled_count == min(sample_count, outcome.sifted_count)


def _exact_slot_rates(policy, intercept, loss, flip):
    """Matched-basis error and loss probabilities of ``_combine``, as Fractions.

    Every one of the 2^9 coin vectors of one slot goes through the combine
    step at once; fair rows weigh 1/2 a side, and a threshold row with
    probability p weighs p where its coin is set and 1 - p where it is not.
    """
    vectors = np.arange(2**9)
    coins = ((vectors[None, :] >> np.arange(9)[:, None]) & 1).astype(bool)
    cols = _combine(coins, np.ones(2**9, dtype=bool), EveStrategy.intercept_resend(1.0, policy))
    thresholds = (intercept, loss, flip)
    weights = [
        Fraction(1, 64) * math.prod(p if coin else 1 - p for p, coin in zip(thresholds, row))
        for row in coins[6:].T.tolist()
    ]
    received = (cols.receiver_bit >= 0) & (cols.sender_basis == cols.receiver_basis)
    wrong = received & (cols.receiver_bit != cols.sender_bit)
    error = sum(w for w, bad in zip(weights, wrong.tolist()) if bad)
    matched = sum(w for w, ok in zip(weights, received.tolist()) if ok)
    lost = sum(w for w, gone in zip(weights, (cols.receiver_bit < 0).tolist()) if gone)
    return error / matched, lost


@pytest.mark.parametrize("policy", list(BasisPolicy))
@pytest.mark.parametrize(
    "intercept,loss,flip",
    [
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)),
        (Fraction(3, 10), Fraction(1, 3), Fraction(1, 7)),
        (Fraction(1), Fraction(1, 2), Fraction(1)),
    ],
)
def test_combine_gives_the_closed_form_rates_exactly(policy, intercept, loss, flip):
    # Seed-free: the combine step's own rates over the exhaustive coin table.
    error, lost = _exact_slot_rates(policy, intercept, loss, flip)
    eve = intercept / 4
    assert error == eve * (1 - flip) + flip * (1 - eve)
    assert lost == loss


def test_the_reference_stream_is_published_splitmix64():
    # The first outputs of SplitMix64 seeded with 0, as published with it.
    published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert [splitmix64(0, c) for c in range(3)] == published
    words = stream_words(np.zeros(1, dtype=np.uint64), 0, 1, np.arange(3, dtype=np.uint64))
    assert words.tolist() == published


KEYS = [0, 1, 2**64 - 1, session_generator(seeded_rng(9))]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
@pytest.mark.parametrize(
    "thresholds", [(0.5, 0.1, 0.01), (0.0, 1.0, 0.3), (1.0, 0.0, 0.0), (1 / 3, 0.999, 2**-53)]
)
def test_batch_coins_are_the_scalar_stream(n, thresholds):
    coins = _coins(np.array(KEYS, dtype=np.uint64), n, thresholds).reshape(9, len(KEYS), n)
    for j, key in enumerate(KEYS):
        expected = [reference_slot_coins(key, n, slot, thresholds) for slot in range(n)]
        assert coins[:, j].T.tolist() == expected, key


@pytest.mark.parametrize("n", [0, 1, 63, 65, 200])
@pytest.mark.parametrize("budget", [1, 7, 64, 130])
def test_threshold_rows_hashed_in_slices_give_the_same_coins(n, budget):
    keys, thresholds = np.array(KEYS, dtype=np.uint64), (0.5, 0.1, 0.01)
    whole = _coins(keys, n, thresholds)
    with mock.patch.object(transmission, "BATCH_SLOTS", budget):
        assert np.array_equal(_coins(keys, n, thresholds), whole)


@pytest.mark.parametrize("seed", [3, 8, 21])
@pytest.mark.parametrize("sample_count", [None, 0, 5, 1000])
def test_bb84_sample_is_the_smallest_sample_row_words(seed, sample_count):
    n = 90
    config = Bb84Config(
        n_timeslots=n, eve=EveStrategy.intercept_resend(0.5), sample_count=sample_count, seed=seed
    )
    outcome = run_bb84(config)
    sifted = [r.timeslot - 1 for r in outcome.sifted_records]
    if sample_count is None:
        size = math.ceil(config.sample_fraction * len(sifted))
    else:
        size = min(sample_count, len(sifted))
    key = session_generator(seeded_rng(seed))
    expected = reference_bb84_sample(key, n, sifted, size)
    assert sorted(outcome.sampled_timeslots) == [slot + 1 for slot in expected]
