"""Batched Monte Carlo sessions against the same sessions run one at a time."""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from duplexqkd import (
    BasisPolicy,
    Bb84Config,
    ChannelModel,
    DuplexConfig,
    EveStrategy,
    run_bb84,
    run_duplex_session,
    run_sessions,
    stats,
)
from duplexqkd.bb84 import run_bb84_sessions
from duplexqkd.duplex import classical_phase, run_duplex_sessions
from duplexqkd.rng import derive_seed

from _oracles import reference_run_sessions


@st.composite
def eves(draw):
    if draw(st.booleans()):
        return EveStrategy.absent()
    return EveStrategy.intercept_resend(
        draw(st.sampled_from([0.0, 0.5, 1.0])), draw(st.sampled_from(list(BasisPolicy)))
    )


@st.composite
def duplex_configs(draw):
    policy = draw(st.sampled_from(["abort", "threshold"]))
    return DuplexConfig(
        n_timeslots=draw(st.sampled_from([2, 3, 8, 13, 40])),
        channel=ChannelModel(
            loss_probability=draw(st.sampled_from([0.0, 0.2, 1.0])),
            flip_probability=draw(st.sampled_from([0.0, 0.1, 0.3])),
        ),
        eve=draw(eves()),
        variant=draw(st.sampled_from(["flip_triples", "search_pairs"])),
        failure_policy=policy,
        failure_threshold=draw(st.sampled_from([0.0, 0.2, 1.0])) if policy == "threshold" else 0.0,
        max_pairs=draw(st.one_of(st.none(), st.integers(0, 4))),
        keep_searched_key=draw(st.booleans()),
    )


@st.composite
def bb84_configs(draw):
    return Bb84Config(
        n_timeslots=draw(st.sampled_from([1, 2, 3, 8, 13, 40])),
        channel=ChannelModel(
            loss_probability=draw(st.sampled_from([0.0, 0.2, 1.0])),
            flip_probability=draw(st.sampled_from([0.0, 0.1])),
        ),
        eve=draw(eves()),
        sample_fraction=draw(st.sampled_from([0.1, 0.25, 0.9])),
        sample_count=draw(st.one_of(st.none(), st.integers(0, 5))),
        detection_threshold=draw(st.sampled_from([0.0, 0.2])),
    )


@st.composite
def batch_runs(draw):
    protocol = draw(st.sampled_from(["duplex", "bb84"]))
    config = draw(duplex_configs() if protocol == "duplex" else bb84_configs())
    sessions = draw(st.integers(1, 12))
    # Small budgets split the run into batches, some of them mid-run.
    budget = draw(st.sampled_from([1, 7, 16, 45, stats.BATCH_SLOTS]))
    return protocol, config, sessions, draw(st.integers(0, 2**31)), budget


@given(batch_runs())
def test_batched_sessions_report_what_they_report_alone(run):
    protocol, config, sessions, master_seed, budget = run
    with mock.patch.object(stats, "BATCH_SLOTS", budget):
        reports = run_sessions(protocol, config, sessions, master_seed)
    assert reports == reference_run_sessions(protocol, config, sessions, master_seed)


@given(duplex_configs(), st.integers(1, 6), st.integers(0, 2**31))
def test_batched_duplex_phase_is_each_session_phase(config, sessions, master_seed):
    seeds = [derive_seed(master_seed, k) for k in range(sessions)]
    _, phase = run_duplex_sessions(config, seeds)
    n = config.n_timeslots
    pair_session = phase.t2 // n
    key_session = pair_session[phase.key]
    for j, seed in enumerate(seeds):
        alone = run_duplex_session(replace(config, seed=seed))
        in_j = pair_session == j
        t2, t3 = (phase.t2[in_j] - j * n + 1).tolist(), (phase.t3[in_j] - j * n + 1).tolist()
        assert list(zip(t2, t3, phase.flip[in_j].tolist())) == [
            (t.t_set2, t.t_set3, t.flip) for t in alone.triples
        ]
        unpaired = phase.unpaired[phase.unpaired // n == j]
        assert tuple((unpaired - j * n + 1).tolist()) == alone.unpaired
        assert [t for t, bad in zip(alone.triples, phase.failed[in_j]) if bad] == list(
            alone.verification.failures
        )
        assert phase.alice_key[key_session == j].tolist() == alone.alice_key
        assert phase.bob_key[key_session == j].tolist() == alone.bob_key
        assert bool(phase.counts.aborted[j]) == alone.aborted


@given(bb84_configs(), st.integers(1, 6), st.integers(0, 2**31))
def test_batched_bb84_samples_are_each_session_sample(config, sessions, master_seed):
    seeds = [derive_seed(master_seed, k) for k in range(sessions)]
    batch = run_bb84_sessions(config, seeds)
    n = config.n_timeslots
    for j, seed in enumerate(seeds):
        alone = run_bb84(replace(config, seed=seed))
        sampled = batch.sampled[batch.sampled // n == j]
        kept = batch.kept[batch.kept // n == j]
        assert (sampled - j * n + 1).tolist() == alone.sampled_timeslots
        assert (kept - j * n + 1).tolist() == alone.key_timeslots
        assert int(batch.counts.failures[j]) == alone.sample_errors


@given(batch_runs())
def test_session_counts_tally_each_protocol(run):
    protocol, config, sessions, master_seed, _ = run
    seeds = [derive_seed(master_seed, k) for k in range(sessions)]
    if protocol == "duplex":
        counts = run_duplex_sessions(config, seeds)[1].counts
        assert (counts.sifted == 2 * counts.checked + counts.unpaired).all()
        assert (counts.revealed == counts.checked).all()
        assert not counts.sampled.any()
        assert (counts.detected == counts.aborted).all()
    else:
        counts = run_bb84_sessions(config, seeds).counts
        assert (counts.sifted == counts.key_length + counts.sampled).all()
        assert (counts.checked == counts.sifted).all()
        assert (counts.revealed == counts.sampled).all()
        assert not counts.unpaired.any()
        assert not counts.aborted.any()
    assert (counts.failures <= counts.revealed).all()
    assert (counts.key_errors <= counts.key_length).all()
    assert all(len(column) == sessions for column in counts)


def test_duplex_worker_pool_matches_serial_on_uneven_chunks():
    # 19 sessions on two workers run as chunks of two plus a last chunk of one.
    config = DuplexConfig(
        n_timeslots=30, eve=EveStrategy.intercept_resend(0.5), variant="search_pairs", max_pairs=3
    )
    serial = run_sessions("duplex", config, 19, master_seed=8, workers=1)
    pooled = run_sessions("duplex", config, 19, master_seed=8, workers=2)
    assert pooled == serial == reference_run_sessions("duplex", config, 19, 8)


def test_a_session_longer_than_the_budget_is_a_batch_of_its_own():
    config = DuplexConfig(n_timeslots=50, channel=ChannelModel(flip_probability=0.1))
    with mock.patch.object(stats, "BATCH_SLOTS", 20):
        reports = run_sessions("duplex", config, 3, master_seed=4)
    assert reports == reference_run_sessions("duplex", config, 3, 4)


def test_classical_phase_rejects_sessions_of_unequal_length():
    columns, _ = run_duplex_sessions(DuplexConfig(n_timeslots=5), [1, 2])
    with pytest.raises(ValueError, match="10 slots do not split into 3 equal sessions"):
        classical_phase(columns, sessions=3)
    assert classical_phase(columns, sessions=2).counts.checked.shape == (2,)
