"""The intercept-resend eavesdropper, as the transmission kernel applies her."""

import numpy as np
import pytest

from duplexqkd import BasisPolicy, ChannelModel, EveStrategy
from duplexqkd.rng import seeded_rng, session_generator
from duplexqkd.transmission import BASES, intercept_records, transmit_columns

from _oracles import binomial_3sigma, enumerate_slot_error_probability

N = 100_000


def _columns(seed, eve):
    alice_sends = np.arange(N) % 2 == 0
    return transmit_columns(session_generator(seeded_rng(seed)), alice_sends, ChannelModel(), eve)


def test_oracle_full_intercept_uniform_is_one_quarter():
    # Eve guesses wrong half the time; a wrong-basis resend flips the
    # matched-basis reading half the time.
    assert enumerate_slot_error_probability(1.0, "uniform") == pytest.approx(0.25)


@pytest.mark.parametrize("policy", ["always_x", "always_y"])
def test_oracle_fixed_basis_policies_also_give_one_quarter(policy):
    # The sender's basis is uniform, so a fixed-basis Eve is equally exposed.
    assert enumerate_slot_error_probability(1.0, policy) == pytest.approx(0.25)


def test_record_carries_the_forwarded_state():
    # Eve forwards the eigenstate she recorded: a noiseless reading in the
    # recorded basis gives the recorded bit.
    cols = _columns(12, EveStrategy.intercept_resend(1.0, BasisPolicy.ALWAYS_Y))
    records = intercept_records(cols)
    assert [r.timeslot for r in records] == list(range(1, N + 1))
    assert all(r.measured_basis is BASES[1] for r in records)
    recorded_bit = np.array([r.measured_bit for r in records])
    in_eve_basis = cols.receiver_basis == 1
    assert np.array_equal(cols.receiver_bit[in_eve_basis], recorded_bit[in_eve_basis])


def test_intercept_fraction_validated():
    with pytest.raises(ValueError):
        EveStrategy.intercept_resend(1.2)


def _matched_slot_error_rate(eve: EveStrategy, seed: int) -> tuple[float, int]:
    """Fraction of matched-basis slots whose reading is wrong, and their count."""
    cols = _columns(seed, eve)
    matched = cols.receiver_basis == cols.sender_basis
    return (cols.receiver_bit[matched] != cols.sender_bit[matched]).mean(), int(matched.sum())


# (policy, oracle name, seed at fraction 1, seed at fraction 0.5)
POLICIES = [(BasisPolicy.UNIFORM_RANDOM, "uniform", 41, 43), (BasisPolicy.ALWAYS_X, "always_x", 42, 44)]


def test_full_interception_error_rate_is_one_quarter():
    for policy, name, seed, _ in POLICIES:
        expected = enumerate_slot_error_probability(1.0, name)
        rate, n = _matched_slot_error_rate(EveStrategy.intercept_resend(1.0, policy), seed)
        assert abs(rate - expected) <= binomial_3sigma(expected, n), name


def test_partial_interception_error_rate_scales():
    for policy, name, _, seed in POLICIES:
        expected = enumerate_slot_error_probability(0.5, name)
        assert expected == pytest.approx(0.125)
        rate, n = _matched_slot_error_rate(EveStrategy.intercept_resend(0.5, policy), seed)
        assert abs(rate - expected) <= binomial_3sigma(expected, n), name
