"""Worker-count validation, the shared sweep pool, and import weight."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import duplexqkd
from duplexqkd import (
    Bb84Config, DuplexConfig, EveStrategy, report_from_bb84, run_bb84, run_sessions, run_sweep,
)
from duplexqkd.cli import main
from duplexqkd.stats import effective_workers


@pytest.mark.parametrize(
    "requested,sessions,cpus,expected",
    [
        (1, 100, 8, 1),
        (4, 100, 8, 4),
        (4, 100, 2, 2),  # clamped to the machine
        (4, 3, 8, 3),  # never more workers than sessions
        (64, 10**9, 2, 2),  # a huge request starts no more than the cpus
        (3, 100, None, 1),  # unknown cpu count means one
    ],
)
def test_effective_workers_clamps(requested, sessions, cpus, expected):
    assert effective_workers(requested, sessions, cpus) == expected


@pytest.mark.parametrize("requested", [0, -1, -100])
def test_effective_workers_rejects_fewer_than_one(requested):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        effective_workers(requested, 10, 4)


def test_run_sessions_and_sweep_reject_nonsense_workers():
    config = DuplexConfig(n_timeslots=20)
    with pytest.raises(ValueError, match="workers"):
        run_sessions("duplex", config, 4, master_seed=1, workers=0)
    with pytest.raises(ValueError, match="workers"):
        run_sweep("duplex", config, {"intercept_fraction": [0.0]}, 4, master_seed=1, workers=-2)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_rejects_nonsense_workers_in_one_line(command, capsys):
    assert main([command, "--timeslots", "20", "--sessions", "2", "--workers", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "workers must be >= 1" in err


def test_run_sweep_worker_pool_matches_serial():
    config = Bb84Config(n_timeslots=50)
    grid = {"intercept_fraction": [0.0, 1.0], "flip_probability": [0.0, 0.05]}
    serial = run_sweep("bb84", config, grid, sessions=8, master_seed=9, workers=1)
    pooled = run_sweep("bb84", config, grid, sessions=8, master_seed=9, workers=2)
    assert serial == pooled


def test_duplex_sweep_worker_pool_matches_serial():
    config = DuplexConfig(n_timeslots=60, eve=EveStrategy.intercept_resend(0.5))
    grid = {"flip_probability": [0.0, 0.02]}
    serial = run_sweep("duplex", config, grid, sessions=6, master_seed=3, workers=1)
    pooled = run_sweep("duplex", config, grid, sessions=6, master_seed=3, workers=2)
    assert serial == pooled


def test_import_and_run_leave_scipy_stats_unloaded(tmp_path):
    code = (
        "import sys\n"
        "import duplexqkd\n"
        "assert 'scipy.stats' not in sys.modules, 'import duplexqkd loaded scipy.stats'\n"
        "from duplexqkd import cli\n"
        f"assert cli.main(['run', '--timeslots', '40', '--sessions', '3', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert 'scipy.stats' not in sys.modules, 'cli run loaded scipy.stats'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(duplexqkd.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr


# The package root's public names.  Result types and seed helpers are
# imported from their modules; a change to this list is an API change.
PUBLIC_API = [
    "Basis",
    "BasisPolicy",
    "Bb84Config",
    "ChannelModel",
    "Direction",
    "DuplexConfig",
    "EveRecord",
    "EveStrategy",
    "SetPartition",
    "SlotRecord",
    "Transcript",
    "TranscriptFormatError",
    "Triple",
    "aggregate_reports",
    "announce_bases",
    "bob_pairing_views",
    "compare_protocols",
    "eve_information",
    "extract_key",
    "filter_sets",
    "flip_key_mutual_information",
    "format_transcript",
    "make_pairs_search",
    "make_triples_flip",
    "pair_error_probability",
    "parse_transcript",
    "partition_from_discard",
    "party_bit_map",
    "read_transcript",
    "report_from_bb84",
    "report_from_duplex",
    "run_bb84",
    "run_duplex_session",
    "run_duplex_transmission",
    "run_sessions",
    "run_sweep",
    "sift",
    "slot_error_probability",
    "triple_from_announcement",
    "undetected_probability",
    "verify_triples",
    "write_transcript",
]


def test_package_root_exports_exactly_the_public_api():
    assert sorted(duplexqkd.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        assert getattr(duplexqkd, name) is not None, name


def test_run_sweep_checks_every_cell_before_running_any(monkeypatch):
    from duplexqkd import stats

    calls = []
    run_chunk = stats._run_chunk
    monkeypatch.setattr(stats, "_run_chunk", lambda *args: calls.append(args) or run_chunk(*args))
    config = DuplexConfig(n_timeslots=20)
    with pytest.raises(ValueError, match=r"intercept_fraction must lie in \[0, 1\], got 2.0"):
        run_sweep("duplex", config, {"intercept_fraction": [0.0, 2.0]}, sessions=2, master_seed=1)
    assert calls == []
    run_sweep("duplex", config, {"intercept_fraction": [0.0, 1.0]}, sessions=2, master_seed=1)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "protocol,config,message",
    [
        ("bb84", DuplexConfig(n_timeslots=10), "protocol 'bb84' does not match a DuplexConfig"),
        ("duplex", Bb84Config(n_timeslots=10), "protocol 'duplex' does not match a Bb84Config"),
        ("b92", DuplexConfig(n_timeslots=10), "unknown protocol 'b92'"),
    ],
)
def test_a_protocol_that_does_not_name_the_config_runs_nothing(monkeypatch, protocol, config, message):
    from duplexqkd import stats

    calls = []
    monkeypatch.setattr(stats, "_run_chunk", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        run_sessions(protocol, config, 2, master_seed=1)
    with pytest.raises(ValueError, match=message):
        run_sweep(protocol, config, {"intercept_fraction": [0.0, 1.0]}, sessions=2, master_seed=1)
    assert calls == []


def test_a_bb84_report_rejects_a_duplex_config():
    outcome = run_bb84(Bb84Config(n_timeslots=10))
    with pytest.raises(ValueError, match="protocol 'bb84' does not match a DuplexConfig"):
        report_from_bb84(outcome, DuplexConfig(n_timeslots=10))


def test_a_bb84_report_rejects_a_config_the_session_did_not_run():
    ran = Bb84Config(n_timeslots=20, seed=3)
    outcome = run_bb84(ran)
    assert outcome.config == ran
    with pytest.raises(ValueError, match="config is not the Bb84Config the session ran"):
        report_from_bb84(outcome, Bb84Config(n_timeslots=50))
    assert report_from_bb84(outcome, Bb84Config(n_timeslots=20, seed=3)).n_timeslots == 20
