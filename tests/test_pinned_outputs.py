"""Report files of fixed commands, pinned by their sha256 digests.

The digests were recorded before sessions ran in batches; batching sessions
through one transmission kernel and one classical phase must change no byte
of ``run`` or ``sweep`` output.  The duplex flip command's 75 000 slots also
span more than one batch at the default slot budget.

The ``bb84_sweep`` row and the replay rows were recorded while reports were
still written with ``json.dumps(payload, sort_keys=True, indent=2)``; any
JSON writer must reproduce those bytes.
"""

import hashlib

import pytest

from duplexqkd.cli import SEED_ENV_VAR, main
from duplexqkd.duplex import example_transcript_path

PINNED = {
    "duplex_flip": (
        [
            "run", "--protocol", "duplex", "--variant", "flip_triples", "--timeslots", "150",
            "--sessions", "500", "--intercept", "0.3", "--flip", "0.02", "--loss", "0.1",
            "--seed", "17",
        ],
        {
            "report.json": "651d1d71cf924c580f6b35964d65e64af46633a5194e8623539b2ad16f0ca6d6",
            "sessions.csv": "9d6989131ac6d8c1046235640ec90194b6633fe1aff55e8b1e397479b2190c26",
        },
    ),
    "duplex_search": (
        [
            "run", "--protocol", "duplex", "--variant", "search_pairs", "--timeslots", "101",
            "--sessions", "200", "--intercept", "0.5", "--max-pairs", "9",
            "--failure-policy", "threshold", "--failure-threshold", "0.2", "--seed", "23",
        ],
        {
            "report.json": "c2f5b9a7796d5ebf0c6f13e3db39c3e0aec7068907df6f8d4320fe9ddc2b676c",
            "sessions.csv": "c2afe3ac917e510ee38a4fbf04f9e224ea8899403f13af4f36fdc9eaffbf1e49",
        },
    ),
    "bb84": (
        [
            "run", "--protocol", "bb84", "--timeslots", "120", "--sessions", "200",
            "--intercept", "0.5", "--sample-count", "7", "--seed", "29",
        ],
        {
            "report.json": "5ca508b8ab2019e201028d8f15651f94d3783f0c80eee0d306a7d2f6741681d9",
            "sessions.csv": "2bbd47f99a8564788d045d034656c93deead21461781089fe165b7c52c7d076a",
        },
    ),
    "duplex_sweep": (
        [
            "sweep", "--protocol", "duplex", "--sweep-timeslots", "2,57", "--intercept", "0,0.5",
            "--sessions", "30", "--workers", "2", "--seed", "31",
        ],
        {"sweep.csv": "151ef628a5beb3e8c8905b7cb814ba2eb100f43f7eff725806156c24202f2605"},
    ),
    "bb84_sweep": (
        [
            "sweep", "--protocol", "bb84", "--timeslots", "100", "--sessions", "40",
            "--intercept", "0,0.5,1", "--flip", "0,0.02", "--seed", "5",
        ],
        {
            "sweep.json": "6fa12322a4c50c2ceb4e723c3e790533d75c0f3c45aae21abf7886c98a436be0",
            "sweep.csv": "44ed50f7f8d4bfeff404ec3abf63af25debe866f4eec5f135a2073eaa63e4f4e",
        },
    ),
}

# Replay of the packaged 20-slot transcript: the JSON report and the stdout.
PINNED_REPLAY = {
    "flip_triples": {
        "replay.json": "fef7b37632878bed8f224cac33cbea2e17d725b5cf61cc6e92929323a388e3b6",
        "stdout": "db34671fce02e1c9f243529f91971bb440d336d56945daa1cfac6d8374e6d6c6",
    },
    "search_pairs": {
        "replay.json": "2ddbe03ea46dbb8794fa31bf4f3f6cf8607a69cb9b9b5b831307812077587719",
        "stdout": "d73598adf04040ec069f5df7891c42f213f60fbc9c95ecf0dd70ad10bb381907",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_files_match_their_pinned_digests(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    argv, digests = PINNED[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for file_name, digest in digests.items():
        data = (tmp_path / file_name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, file_name


@pytest.mark.parametrize("variant", sorted(PINNED_REPLAY))
def test_replay_outputs_match_their_pinned_digests(variant, tmp_path, capsys):
    report = tmp_path / "replay.json"
    argv = ["replay", str(example_transcript_path()), "--variant", variant, "--json", str(report)]
    assert main(argv) == 0
    digests = PINNED_REPLAY[variant]
    stdout = capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digests["replay.json"]
    assert hashlib.sha256(stdout).hexdigest() == digests["stdout"]
