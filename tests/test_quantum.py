"""The measurement and channel rules, as the transmission kernel applies them."""

import numpy as np
import pytest

from duplexqkd import ChannelModel, EveStrategy
from duplexqkd.rng import seeded_rng, session_generator
from duplexqkd.transmission import transmit_columns

from _oracles import binomial_3sigma

N = 100_000


def _columns(seed, channel=ChannelModel(), eve=EveStrategy.absent()):
    alice_sends = np.arange(N) % 2 == 0
    return transmit_columns(session_generator(seeded_rng(seed)), alice_sends, channel, eve)


def test_cross_basis_measurement_is_a_fair_coin():
    cols = _columns(2024)
    crossed = cols.receiver_basis != cols.sender_basis
    n = int(crossed.sum())
    reading = cols.receiver_bit[crossed]
    assert abs(reading.mean() - 0.5) <= binomial_3sigma(0.5, n)
    assert abs((reading == cols.sender_bit[crossed]).mean() - 0.5) <= binomial_3sigma(0.5, n)


def test_collapse_repeats_the_outcome():
    # Eve's measurement collapses the state onto the eigenstate of her
    # outcome, so a noiseless reading in her basis repeats that outcome,
    # also where her basis differs from the sender's and she read a coin.
    cols = _columns(11, eve=EveStrategy.intercept_resend(1.0))
    in_eve_basis = cols.intercepted & (cols.receiver_basis == cols.eve_basis)
    assert (in_eve_basis & (cols.eve_basis != cols.sender_basis)).any()
    assert np.array_equal(cols.receiver_bit[in_eve_basis], cols.eve_bit[in_eve_basis])


def test_flip_probability_matches_frequency():
    cols = _columns(99, ChannelModel(flip_probability=0.1))
    matched = cols.receiver_basis == cols.sender_basis
    rate = (cols.receiver_bit[matched] != cols.sender_bit[matched]).mean()
    assert abs(rate - 0.1) <= binomial_3sigma(0.1, int(matched.sum()))


@pytest.mark.parametrize("kwargs", [{"loss_probability": -0.1}, {"flip_probability": 1.5}])
def test_channel_rejects_bad_probabilities(kwargs):
    with pytest.raises(ValueError):
        ChannelModel(**kwargs)
