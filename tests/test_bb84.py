from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from duplexqkd import (
    Basis,
    Bb84Config,
    ChannelModel,
    Direction,
    EveStrategy,
    SlotRecord,
    run_bb84,
    sift,
)

from _oracles import (
    binomial_3sigma,
    enumerate_slot_error_probability,
    enumerate_survival_probability,
)
from conftest import worked_example_records


def test_rejects_zero_timeslots():
    with pytest.raises(ValueError):
        Bb84Config(n_timeslots=0)


def test_noiseless_session_has_no_errors_and_equal_keys():
    outcome = run_bb84(Bb84Config(n_timeslots=10_000, seed=5))
    assert outcome.estimated_error_rate == 0.0
    assert outcome.key_bits_alice == outcome.key_bits_bob
    assert not outcome.detected


def test_sifted_fraction_is_one_half():
    n = 100_000
    outcome = run_bb84(Bb84Config(n_timeslots=n, seed=17))
    assert abs(len(outcome.sifted_records) / n - 0.5) <= 0.01


def test_full_interception_error_estimate_is_one_quarter():
    expected = enumerate_slot_error_probability(1.0, "uniform")
    outcome = run_bb84(
        Bb84Config(n_timeslots=100_000, eve=EveStrategy.intercept_resend(), seed=23)
    )
    assert abs(outcome.estimated_error_rate - expected) <= 0.015
    assert outcome.detected


def test_sift_empty():
    assert sift([]) == []


def test_sift_keeps_a_single_matched_slot():
    record = SlotRecord(1, Direction.ALICE_TO_BOB, Basis.X, 1, Basis.X, 1)
    assert sift([record]) == [record]


def test_sift_on_worked_example_forward_slots():
    forward = [r for r in worked_example_records() if r.direction is Direction.ALICE_TO_BOB]
    assert [r.timeslot for r in sift(forward)] == [3, 5, 9, 11, 15, 17]


_records = st.lists(
    st.builds(
        SlotRecord,
        timeslot=st.integers(min_value=1, max_value=10_000),
        direction=st.just(Direction.ALICE_TO_BOB),
        sender_basis=st.sampled_from(Basis),
        sender_bit=st.integers(0, 1),
        receiver_basis=st.sampled_from(Basis),
        receiver_bit=st.one_of(st.none(), st.integers(0, 1)),
    ),
    max_size=60,
)


@given(_records)
def test_sift_is_a_subsequence_of_matched_received_slots(records):
    kept = sift(records)
    # Subsequence: same relative order as the input.
    it = iter(records)
    assert all(any(r is k for r in it) for k in kept)
    assert all(k.receiver_bit is not None and k.bases_match for k in kept)
    dropped = [r for r in records if not any(r is k for k in kept)]
    assert all(r.receiver_bit is None or not r.bases_match for r in dropped)


@pytest.mark.parametrize("seed", range(5))
def test_sampled_and_key_timeslots_are_disjoint(seed):
    outcome = run_bb84(
        Bb84Config(
            n_timeslots=400,
            channel=ChannelModel(loss_probability=0.2),
            eve=EveStrategy.intercept_resend(0.5),
            sample_fraction=0.3,
            seed=seed,
        )
    )
    sampled = set(outcome.sampled_timeslots)
    kept = set(outcome.key_timeslots)
    assert not sampled & kept
    assert sampled | kept == {r.timeslot for r in outcome.sifted_records}


def test_key_timeslot_map_preserves_order_and_length():
    outcome = run_bb84(Bb84Config(n_timeslots=500, seed=9))
    assert outcome.key_timeslots == sorted(outcome.key_timeslots)
    assert len(outcome.key_timeslots) == len(outcome.key_bits_alice)


@pytest.mark.parametrize("n_compared", [1, 5, 10])
def test_detection_power_of_the_public_sample(n_compared):
    # Under full interception each compared bit survives with probability
    # 3/4, so an n-bit sample misses the attack with probability (3/4)^n.
    p_error = enumerate_slot_error_probability(1.0, "uniform")
    expected = enumerate_survival_probability(n_compared, p_error)
    assert expected == pytest.approx(0.75**n_compared)

    sessions = 10_000
    config = Bb84Config(
        n_timeslots=60,
        eve=EveStrategy.intercept_resend(),
        sample_count=n_compared,
        seed=0,
    )
    survived = 0
    for k in range(sessions):
        outcome = run_bb84(replace(config, seed=1_000_000 + 31 * n_compared + k))
        survived += not outcome.detected
    assert abs(survived / sessions - expected) <= binomial_3sigma(expected, sessions)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("sample_fraction", 0.0, "sample_fraction must lie strictly between 0 and 1"),
        ("sample_fraction", 1.0, "sample_fraction must lie strictly between 0 and 1"),
        ("sample_count", -1, "sample_count must be non-negative"),
        ("detection_threshold", -0.1, "detection_threshold must lie in"),
        ("detection_threshold", 1.5, "detection_threshold must lie in"),
    ],
)
def test_config_rejects_out_of_range_settings(field, value, message):
    with pytest.raises(ValueError, match=message):
        Bb84Config(n_timeslots=10, **{field: value})
