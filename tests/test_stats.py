import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from duplexqkd import (
    Basis,
    Bb84Config,
    ChannelModel,
    DuplexConfig,
    EveRecord,
    EveStrategy,
    Triple,
    aggregate_reports,
    compare_protocols,
    eve_information,
    flip_key_mutual_information,
    pair_error_probability,
    report_from_bb84,
    report_from_duplex,
    run_bb84,
    run_duplex_session,
    run_sessions,
    run_sweep,
    slot_error_probability,
    undetected_probability,
)
from duplexqkd.stats import SessionReport, normal_halfwidth

from _oracles import (
    binomial_3sigma,
    enumerate_flip_key_joint,
    enumerate_flip_key_mutual_information,
    enumerate_pair_failure_probability,
    enumerate_slot_error_probability,
    expected_bb84_key_length,
    expected_min_of_binomials,
    xor_compose,
)


# ---------------------------------------------------------------------------
# Closed forms against enumeration oracles
# ---------------------------------------------------------------------------

def test_pair_error_probability_trivia():
    assert pair_error_probability(EveStrategy.absent(), ChannelModel()) == 0.0
    full = pair_error_probability(EveStrategy.intercept_resend(), ChannelModel())
    assert full == pytest.approx(0.375)
    maximal = pair_error_probability(EveStrategy.absent(), ChannelModel(flip_probability=0.5))
    assert maximal == pytest.approx(0.5)


@pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("flip", [0.0, 0.01, 0.05])
def test_closed_forms_match_enumeration(fraction, flip):
    eve = EveStrategy.intercept_resend(fraction) if fraction else EveStrategy.absent()
    channel = ChannelModel(flip_probability=flip)
    p_slot = enumerate_slot_error_probability(fraction, "uniform", flip)
    assert slot_error_probability(eve, channel) == pytest.approx(p_slot)
    assert pair_error_probability(eve, channel) == pytest.approx(
        enumerate_pair_failure_probability(p_slot)
    )


def test_slot_error_composition_is_an_xor_of_sources():
    eve = EveStrategy.intercept_resend(0.8)
    channel = ChannelModel(flip_probability=0.07)
    assert slot_error_probability(eve, channel) == pytest.approx(xor_compose(0.2, 0.07))


def test_undetected_probability_values():
    assert undetected_probability(0, 0.375) == 1.0
    assert undetected_probability(10, 0.0) == 1.0
    assert undetected_probability(10, 0.375) == pytest.approx(0.009094947017729282)


def test_undetected_probability_validates_inputs():
    with pytest.raises(ValueError):
        undetected_probability(-1, 0.5)
    with pytest.raises(ValueError):
        undetected_probability(3, 1.5)


@given(
    p=st.floats(min_value=1e-6, max_value=1.0),
    n=st.integers(0, 500),
    m=st.integers(1, 500),
)
def test_undetected_probability_is_monotone_decreasing(p, n, m):
    assert undetected_probability(n + m, p) <= undetected_probability(n, p)


def test_undetected_probability_against_synthetic_monte_carlo():
    # Independent structural model: per-pair Bernoulli(3/8) failures.
    rng = np.random.default_rng(2718)
    sessions, n_pairs, p_pair = 100_000, 10, 0.375
    fails = rng.random((sessions, n_pairs)) < p_pair
    survived = float(np.mean(~fails.any(axis=1)))
    expected = undetected_probability(n_pairs, p_pair)
    assert abs(survived - expected) <= binomial_3sigma(expected, sessions)


# ---------------------------------------------------------------------------
# Monte Carlo vs closed form across the parameter grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 1.0])
@pytest.mark.parametrize("flip", [0.0, 0.01, 0.05])
def test_pair_failure_rate_matches_closed_form(fraction, flip):
    eve = EveStrategy.intercept_resend(fraction) if fraction else EveStrategy.absent()
    channel = ChannelModel(flip_probability=flip)
    expected = pair_error_probability(eve, channel)

    n_pairs = 100_000
    config = DuplexConfig(
        n_timeslots=int(n_pairs * 4.3),
        channel=channel,
        eve=eve,
        max_pairs=n_pairs,
        failure_policy="threshold",
        failure_threshold=1.0,
        seed=int(1000 * fraction) * 7919 + int(1000 * flip),
    )
    result = run_duplex_session(config)
    assert result.verification.checked_pairs == n_pairs
    rate = len(result.verification.failures) / n_pairs
    if expected == 0.0:
        assert rate == 0.0
    else:
        assert abs(rate - expected) <= binomial_3sigma(expected, n_pairs)


# ---------------------------------------------------------------------------
# Leakage accounting
# ---------------------------------------------------------------------------

def test_flip_one_candidates():
    info = eve_information([Triple(3, 2, 1)], [], {2: Basis.X, 3: Basis.X})
    (pair,) = info.pairs
    assert set(pair.candidates) == {(0, 1), (1, 0)}
    assert not pair.compromised
    assert info.pair_bits_revealed == 1


def test_flip_zero_candidates():
    info = eve_information([Triple(3, 2, 0)], [], {2: Basis.X, 3: Basis.X})
    (pair,) = info.pairs
    assert set(pair.candidates) == {(0, 0), (1, 1)}


def test_matched_interception_exposes_the_key_bit():
    records = [EveRecord(3, Basis.Y, 1)]
    info = eve_information([Triple(3, 2, 1)], records, {2: Basis.X, 3: Basis.Y})
    (pair,) = info.pairs
    assert pair.candidates == ((1, 0),)
    assert pair.compromised and pair.known_key_bit == 1
    assert pair.matched_interceptions == (3,)
    assert info.compromised_pairs == 1


def test_matched_interception_of_the_set3_slot_also_exposes():
    records = [EveRecord(2, Basis.X, 0)]
    info = eve_information([Triple(3, 2, 1)], records, {2: Basis.X, 3: Basis.Y})
    (pair,) = info.pairs
    assert pair.candidates == ((1, 0),)
    assert pair.known_key_bit == 1


def test_cross_basis_interception_reveals_nothing():
    records = [EveRecord(3, Basis.X, 0)]
    info = eve_information([Triple(3, 2, 1)], records, {2: Basis.X, 3: Basis.Y})
    (pair,) = info.pairs
    assert len(pair.candidates) == 2
    assert not pair.compromised


def test_every_pair_has_exactly_two_candidates_without_interception():
    triples = [Triple(2 * i + 1, 2 * i + 2, i % 2) for i in range(8)]
    bases = {t: Basis.X for t in range(1, 17)}
    info = eve_information(triples, [], bases)
    assert all(len(p.candidates) == 2 for p in info.pairs)
    assert info.pair_bits_revealed == 8
    assert info.compromised_pairs == 0


def test_flip_and_key_bits_are_independent():
    # Exact: over the four uniform pair values the (flip, key) joint is the
    # product of its marginals, so the mutual information is exactly zero.
    joint = enumerate_flip_key_joint()
    assert all(p == 0.25 for p in joint.values())
    assert enumerate_flip_key_mutual_information() == 0
    assert flip_key_mutual_information() == 0.0


# ---------------------------------------------------------------------------
# Reports and aggregation
# ---------------------------------------------------------------------------

def test_duplex_report_conservation():
    config = DuplexConfig(
        n_timeslots=300, channel=ChannelModel(loss_probability=0.2), seed=11
    )
    result = run_duplex_session(config)
    report = report_from_duplex(result)
    assert report.sifted == 2 * report.sifted_or_paired + report.unpaired


def test_bb84_report_conservation():
    config = Bb84Config(n_timeslots=300, sample_fraction=0.3, seed=11)
    outcome = run_bb84(config)
    report = report_from_bb84(outcome, config)
    assert report.sifted == report.key_length + report.sampled


def test_report_rejects_more_failures_than_checked():
    with pytest.raises(ValueError):
        SessionReport(
            protocol="duplex",
            n_timeslots=10,
            sifted=4,
            sifted_or_paired=2,
            failures=3,
            estimated_error_rate=1.0,
            key_length=0,
            keys_agree=True,
            eve_pair_bits_revealed=2,
            detected=True,
        )


def test_run_sessions_is_reproducible_and_order_stable():
    config = DuplexConfig(n_timeslots=60, eve=EveStrategy.intercept_resend(0.3))
    first = run_sessions("duplex", config, 20, master_seed=5)
    second = run_sessions("duplex", config, 20, master_seed=5)
    assert first == second
    assert [r.session_index for r in first] == list(range(20))


def test_run_sessions_worker_pool_matches_serial():
    config = Bb84Config(n_timeslots=50)
    serial = run_sessions("bb84", config, 12, master_seed=9, workers=1)
    pooled = run_sessions("bb84", config, 12, master_seed=9, workers=2)
    assert serial == pooled


def test_aggregate_requires_reports():
    with pytest.raises(ValueError):
        aggregate_reports([])


def test_aggregate_full_interception_detects_everything():
    config = DuplexConfig(n_timeslots=200, eve=EveStrategy.intercept_resend())
    stats = aggregate_reports(run_sessions("duplex", config, 50, master_seed=2))
    assert stats.detection_rate == 1.0
    assert stats.abort_rate == 1.0
    assert stats.mean_key_length == 0.0


def test_normal_halfwidth_formula():
    assert normal_halfwidth(0.5, 100, z=2.0) == pytest.approx(2.0 * math.sqrt(0.25 / 100))


# ---------------------------------------------------------------------------
# Protocol comparison
# ---------------------------------------------------------------------------

def test_compare_protocols_rejects_empty_batches():
    config = Bb84Config(n_timeslots=50)
    reports = [report_from_bb84(run_bb84(config), config)]
    with pytest.raises(ValueError):
        compare_protocols([], reports)
    with pytest.raises(ValueError):
        compare_protocols(reports, [])


def test_compare_protocols_reports_zero_key_rate_for_aborted_sessions():
    duplex_config = DuplexConfig(n_timeslots=200, eve=EveStrategy.intercept_resend())
    duplex_reports = run_sessions("duplex", duplex_config, 30, master_seed=4)
    bb84_config = Bb84Config(n_timeslots=200)
    bb84_reports = run_sessions("bb84", bb84_config, 30, master_seed=4)
    table = compare_protocols(duplex_reports, bb84_reports)
    duplex_row = next(r for r in table.rows if r["protocol"] == "duplex")
    assert duplex_row["key_bits_per_timeslot"] == 0.0
    assert duplex_row["detection_rate"] == 1.0


def test_compare_protocols_key_expectations_match_exact_oracles():
    n, sessions, fraction = 40, 3000, 0.25
    duplex_reports = run_sessions("duplex", DuplexConfig(n_timeslots=n), sessions, master_seed=21)
    bb84_reports = run_sessions(
        "bb84", Bb84Config(n_timeslots=n, sample_fraction=fraction), sessions, master_seed=22
    )
    table = compare_protocols(duplex_reports, bb84_reports)
    duplex_row, bb84_row = table.rows

    # Duplex key length is min(|set2|, |set3|) with both ~ Binomial(n/2, 1/2).
    expected_duplex = expected_min_of_binomials(n // 2, 0.5)
    duplex_keys = np.array([r.key_length for r in duplex_reports])
    sem = duplex_keys.std(ddof=1) / math.sqrt(sessions)
    assert abs(duplex_row["mean_key_length"] - expected_duplex) <= 3 * sem

    expected_bb84 = expected_bb84_key_length(n, fraction)
    bb84_keys = np.array([r.key_length for r in bb84_reports])
    sem = bb84_keys.std(ddof=1) / math.sqrt(sessions)
    assert abs(bb84_row["mean_key_length"] - expected_bb84) <= 3 * sem

    # Both key-rate conventions are reported for the baseline.
    assert bb84_row["key_bits_per_timeslot_before_sacrifice"] > bb84_row["key_bits_per_timeslot"]
    assert bb84_row["bits_sacrificed_per_session"] > 0.0
    assert duplex_row["bits_sacrificed_per_session"] == 0.0


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_rejects_empty_grids():
    config = DuplexConfig(n_timeslots=40)
    with pytest.raises(ValueError):
        run_sweep("duplex", config, {}, sessions=2, master_seed=1)
    with pytest.raises(ValueError):
        run_sweep("duplex", config, {"intercept_fraction": []}, sessions=2, master_seed=1)
    with pytest.raises(ValueError):
        run_sweep("duplex", config, {"bogus": [1]}, sessions=2, master_seed=1)


def test_sweep_covers_the_cross_product_and_counts_samples():
    config = DuplexConfig(n_timeslots=60, max_pairs=5)
    result = run_sweep(
        "duplex",
        config,
        {"intercept_fraction": [0.0, 1.0], "flip_probability": [0.0]},
        sessions=40,
        master_seed=77,
    )
    assert len(result.rows) == 2
    assert all(row["sessions"] == 40 for row in result.rows)
    by_fraction = {row["intercept_fraction"]: row for row in result.rows}
    assert by_fraction[0.0]["detection_rate"] == 0.0
    assert by_fraction[1.0]["detection_rate"] >= 0.9


def test_sweep_detection_rate_is_monotone_in_interception():
    config = DuplexConfig(n_timeslots=60, max_pairs=5)
    result = run_sweep(
        "duplex",
        config,
        {"intercept_fraction": [0.0, 0.5, 1.0]},
        sessions=800,
        master_seed=31,
    )
    rates = [row["detection_rate"] for row in result.rows]
    assert rates == sorted(rates)
