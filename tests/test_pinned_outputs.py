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
            "report.json": "1b3491bdc3b32502e3f455f3556f85b7d4637de7b8bb8d22aea4930dbea5a1a1",
            "sessions.csv": "0a03e662909e9807828e30981f1392307481defef9a3a8bb4d157f828e209a33",
        },
    ),
    "duplex_search": (
        [
            "run", "--protocol", "duplex", "--variant", "search_pairs", "--timeslots", "101",
            "--sessions", "200", "--intercept", "0.5", "--max-pairs", "9",
            "--failure-policy", "threshold", "--failure-threshold", "0.2", "--seed", "23",
        ],
        {
            "report.json": "690977f5f86314675895b396c7727f877b67419003fd4c219cd37b145f22106b",
            "sessions.csv": "51a86c457e370fc5323d742b7ee0d0c8041e1e497de22ebd766b957f921c9950",
        },
    ),
    "bb84": (
        [
            "run", "--protocol", "bb84", "--timeslots", "120", "--sessions", "200",
            "--intercept", "0.5", "--sample-count", "7", "--seed", "29",
        ],
        {
            "report.json": "5863190a9165f7360719b80e1dae3e893dbf41ec5dd46336dc19aebdd00b1b5a",
            "sessions.csv": "9f7e2342a842c1f1c43f59a6280175446e24acb312c9ce98da01578121daa461",
        },
    ),
    "duplex_sweep": (
        [
            "sweep", "--protocol", "duplex", "--sweep-timeslots", "2,57", "--intercept", "0,0.5",
            "--sessions", "30", "--workers", "2", "--seed", "31",
        ],
        {"sweep.csv": "061629d8af967c9da18b90ad973eecfe2727cf80627b3b29c957f8ff779265dd"},
    ),
    "bb84_sweep": (
        [
            "sweep", "--protocol", "bb84", "--timeslots", "100", "--sessions", "40",
            "--intercept", "0,0.5,1", "--flip", "0,0.02", "--seed", "5",
        ],
        {
            "sweep.json": "422d1856bea51648565e7faa5aed2287cae00c596e2dbc7ce22c1ba00a525647",
            "sweep.csv": "201a4e4987247a0a3252db42c61debe53fe3c0f8421c27a8b46aa89c6f073b00",
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
