import json
import subprocess
import sys

import pytest

from duplexqkd import (
    BasisPolicy, ChannelModel, DuplexConfig, EveStrategy, aggregate_reports, run_sessions,
)
from duplexqkd.cli import SEED_ENV_VAR, main
from duplexqkd.duplex import example_transcript_path
from duplexqkd.rng import derive_seed

from conftest import (
    EXPECTED_DISCARD,
    EXPECTED_KEY,
    EXPECTED_SET2,
    EXPECTED_SET3,
    EXPECTED_TRIPLES,
)


def run_cli(*argv) -> int:
    return main(list(argv))


def test_run_noiseless_duplex_session(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--protocol", "duplex", "--timeslots", "200",
        "--sessions", "1", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    (session,) = payload["sessions"]
    assert session["failures"] == 0
    assert session["keys_agree"] is True
    assert payload["aggregate"]["detection_rate"] == 0.0
    assert "detection_rate=0.0" in capsys.readouterr().out


def test_run_writes_csv_table(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--timeslots", "100", "--sessions", "3", "--out", str(out)) == 0
    lines = (out / "sessions.csv").read_text().splitlines()
    assert lines[0].startswith("session_index,protocol")
    assert len(lines) == 4


@pytest.mark.parametrize(
    "command,files",
    [("run", ("report.json", "sessions.csv")), ("sweep", ("sweep.json", "sweep.csv"))],
)
@pytest.mark.parametrize("out_format", ["json", "csv", "both"])
def test_format_writes_only_the_chosen_report_files(tmp_path, command, files, out_format):
    out = tmp_path / "out"
    argv = [command, "--timeslots", "20", "--sessions", "2", "--format", out_format, "--out", str(out)]
    assert run_cli(*argv) == 0
    json_name, csv_name = files
    expected = {"json": {json_name}, "csv": {csv_name}, "both": {json_name, csv_name}}[out_format]
    assert {path.name for path in out.iterdir()} == expected


def test_run_rejects_invalid_config():
    assert run_cli("run", "--timeslots", "0") == 2


def test_bb84_full_interception_aggregate_error_rate(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--protocol", "bb84", "--timeslots", "60", "--intercept", "1",
        "--sessions", "10000", "--seed", "11", "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert abs(payload["aggregate"]["mean_error_rate"] - 0.25) <= 0.015


def test_duplex_detection_rate_with_ten_pairs(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--protocol", "duplex", "--timeslots", "120", "--intercept", "1",
        "--max-pairs", "10", "--sessions", "2000", "--seed", "13", "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    expected = 1 - 0.625**10
    assert abs(payload["aggregate"]["detection_rate"] - expected) <= 0.01


def test_replay_worked_example(tmp_path, capsys):
    json_path = tmp_path / "replay.json"
    code = run_cli("replay", str(example_transcript_path()), "--json", str(json_path))
    assert code == 0
    text = capsys.readouterr().out
    assert "discard: 1 4 7 12 13 19 20" in text
    assert "(3,2,1) (6,5,0) (9,8,0) (11,10,0) (15,14,1) (17,16,1)" in text
    assert "verification: 6 checked, 0 failed -> PASS" in text

    payload = json.loads(json_path.read_text())
    assert payload["discard"] == sorted(EXPECTED_DISCARD)
    assert payload["set2"] == list(EXPECTED_SET2)
    assert payload["set3"] == list(EXPECTED_SET3)
    assert payload["triples"] == [list(t) for t in EXPECTED_TRIPLES]
    assert payload["alice_key"] == EXPECTED_KEY
    assert payload["alice_key"][0] == 1
    assert payload["keys_agree"] is True


def test_replay_flags_an_injected_error(tmp_path, capsys):
    # Corrupt what Alice measured in timeslot 2.
    lines = example_transcript_path().read_text().splitlines()
    patched = [
        "2 B>A X 0 X 1" if line.startswith("2 ") else line for line in lines
    ]
    path = tmp_path / "corrupted.transcript"
    path.write_text("\n".join(patched) + "\n")
    json_path = tmp_path / "replay.json"
    assert run_cli("replay", str(path), "--json", str(json_path)) == 0
    payload = json.loads(json_path.read_text())
    assert payload["failures"] == [[3, 2, 1]]
    assert payload["passed"] is False
    assert "FAIL" in capsys.readouterr().out


def test_replay_malformed_row_names_the_line(tmp_path, capsys):
    path = tmp_path / "bad.transcript"
    path.write_text("1 A>B X 1 X 1\n2 B>A X nope X 1\n")
    assert run_cli("replay", str(path)) == 1
    assert "line 2" in capsys.readouterr().err


def test_replay_empty_file_succeeds(tmp_path, capsys):
    path = tmp_path / "empty.transcript"
    path.write_text("")
    assert run_cli("replay", str(path)) == 0
    assert "timeslots: 0" in capsys.readouterr().out


def test_replay_missing_file_fails(capsys):
    assert run_cli("replay", "/nonexistent/never.transcript") == 1
    assert "cannot read" in capsys.readouterr().err


def test_sweep_emits_one_row_per_cell(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "sweep", "--protocol", "duplex", "--timeslots", "60", "--max-pairs", "5",
        "--intercept", "0,1", "--sessions", "200", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "sweep.json").read_text())
    rows = payload["sweep"]["rows"]
    assert len(rows) == 2
    assert all(row["sessions"] == 200 for row in rows)
    detection = {row["intercept_fraction"]: row["detection_rate"] for row in rows}
    assert detection[0.0] == 0.0
    assert detection[1.0] >= detection[0.0]
    csv_lines = (out / "sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 3
    assert "sessions" in csv_lines[0]


def test_sweep_rejects_an_empty_grid(capsys):
    assert run_cli("sweep", "--intercept", "", "--flip", "", "--loss", "") == 2
    assert "grid is empty" in capsys.readouterr().err


def test_identical_runs_are_byte_identical(tmp_path):
    args = [
        "run", "--protocol", "duplex", "--timeslots", "80", "--intercept", "0.5",
        "--sessions", "20", "--seed", "42",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out_a)) == 0
    assert run_cli(*args, "--out", str(out_b)) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "sessions.csv").read_bytes() == (out_b / "sessions.csv").read_bytes()


def test_environment_variable_overrides_the_seed(tmp_path, monkeypatch):
    out_env = tmp_path / "env"
    out_flag = tmp_path / "flag"
    monkeypatch.setenv("DUPLEXQKD_SEED", "77")
    assert run_cli("run", "--timeslots", "60", "--seed", "1", "--out", str(out_env)) == 0
    monkeypatch.delenv("DUPLEXQKD_SEED")
    assert run_cli("run", "--timeslots", "60", "--seed", "77", "--out", str(out_flag)) == 0
    env_payload = json.loads((out_env / "report.json").read_text())
    flag_payload = json.loads((out_flag / "report.json").read_text())
    assert env_payload["sessions"] == flag_payload["sessions"]
    assert env_payload["config"]["seed"] == 77


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        "# batch defaults\n"
        "protocol = duplex\n"
        "timeslots = 90\n"
        "sessions = 4\n"
        "seed = 6\n"
    )
    out_file = tmp_path / "from-file"
    assert run_cli("--config", str(config), "run", "--out", str(out_file)) == 0
    payload = json.loads((out_file / "report.json").read_text())
    assert payload["config"]["timeslots"] == 90
    assert payload["config"]["sessions"] == 4

    out_override = tmp_path / "override"
    assert (
        run_cli("--config", str(config), "run", "--sessions", "2", "--out", str(out_override))
        == 0
    )
    payload = json.loads((out_override / "report.json").read_text())
    assert payload["config"]["sessions"] == 2
    assert payload["config"]["timeslots"] == 90


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "duplexqkd.cli", "replay", str(example_transcript_path())],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "keys_agree: yes" in result.stdout


def test_replay_non_ascii_byte_names_the_line(tmp_path, capsys):
    path = tmp_path / "accent.transcript"
    path.write_bytes(b"# header\r\n1 A>B X 1 X 1\n2 B>A X 0 X 0 # caf\xc3\xa9\n")
    assert run_cli("replay", str(path)) == 1
    assert capsys.readouterr().err == f"duplexqkd: {path}: line 3: non-ASCII byte 0xc3\n"


def test_replay_sorts_rows_by_timeslot(tmp_path, capsys):
    lines = example_transcript_path().read_text().splitlines()
    shuffled = tmp_path / "shuffled.transcript"
    shuffled.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
    assert run_cli("replay", str(example_transcript_path())) == 0
    in_order = capsys.readouterr().out
    assert run_cli("replay", str(shuffled)) == 0
    assert capsys.readouterr().out == in_order


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--timeslots", "20", "--out", "{blocked}/out"],
        ["sweep", "--timeslots", "20", "--intercept", "0,1", "--out", "{blocked}/out"],
        ["replay", str(example_transcript_path()), "--json", "{blocked}/replay.json"],
    ],
    ids=["run", "sweep", "replay"],
)
def test_unwritable_output_is_one_line_and_exit_1(tmp_path, argv):
    blocked = tmp_path / "a-file"
    blocked.write_text("not a directory\n")
    argv = [a.replace("{blocked}", str(blocked)) for a in argv]
    result = subprocess.run(
        [sys.executable, "-m", "duplexqkd.cli", *argv], capture_output=True, text=True
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert line.startswith(f"duplexqkd: cannot write {blocked}/")
    assert line.rsplit(": ", 1)[1] in ("Not a directory", "File exists")


@pytest.mark.parametrize(
    "text,message",
    [
        ("protocol = duplex\ntimeslots = abc\n", "2: argument --timeslots: invalid int value: 'abc'"),
        ("# defaults\n\nbogus = 3\n", "3: unknown key 'bogus'"),
        ("discard_searched_key = yes\n", "1: discard_searched_key: unexpected value 'yes'"),
        ("variant = search_pairs\nvariant = both\n", "2: argument --variant: invalid choice: 'both'"),
        ("time = 30\nsess = 2\n", "1: unknown key 'time'"),
        ("sessions = 2\nintercept = 2\n", "2: intercept_fraction must lie in [0, 1], got 2.0"),
        ("timeslots = 1\n", "1: n_timeslots must be >= 2, got 1"),
        (
            "protocol = bb84\nsample_fraction = 2\n",
            "2: sample_fraction must lie strictly between 0 and 1, got 2.0",
        ),
        ("sessions = 0\n", "1: sessions must be >= 1, got 0"),
        ("timeslots = 50\nworkers = 0\n", "2: workers must be >= 1, got 0"),
        ("variant = true\n", "1: argument --variant: invalid choice: 'true'"),
    ],
    ids=[
        "bad-value", "unknown-key", "bad-switch", "bad-choice", "abbreviated-key",
        "invalid-intercept", "invalid-timeslots", "invalid-for-earlier-protocol",
        "invalid-sessions", "invalid-workers", "true-for-a-choice",
    ],
)
def test_config_file_errors_name_the_file_and_line(tmp_path, capsys, text, message):
    config = tmp_path / "bad.conf"
    config.write_text(text)
    assert run_cli("--config", str(config), "run", "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"duplexqkd: {config}:{message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_config_true_is_a_value_for_an_option_that_takes_one(tmp_path, monkeypatch):
    # Only a switch reads true/false as on/off; --out takes "true" as a path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.conf").write_text("out = true\n")
    assert run_cli("--config", "out.conf", "run", "--timeslots", "20") == 0
    assert (tmp_path / "true" / "report.json").is_file()


def test_config_file_keys_are_checked_against_the_subcommand(tmp_path, capsys):
    config = tmp_path / "replay.conf"
    config.write_text("variant = search_pairs\nsessions = 3\n")
    assert run_cli("--config", str(config), "replay", str(example_transcript_path())) == 2
    assert capsys.readouterr().err == f"duplexqkd: {config}:2: unknown key 'sessions'\n"


def test_out_of_memory_is_one_line_and_exit_1(monkeypatch, capsys):
    from duplexqkd import stats

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(stats, "run_sessions", exhausted)
    assert run_cli("run", "--timeslots", "20") == 1
    assert capsys.readouterr().err == (
        "duplexqkd: not enough memory: Unable to allocate 745. GiB for an array\n"
    )


def test_sweep_honours_the_eve_basis_policy(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "sweep", "--protocol", "duplex", "--intercept", "0.5", "--eve-basis", "always_y",
        "--timeslots", "60", "--sessions", "20", "--seed", "4", "--out", str(out),
    )
    assert code == 0
    header, row = (out / "sweep.csv").read_text().splitlines()
    cell = dict(zip(header.split(","), row.split(",")))
    assert cell["intercept_fraction"] == "0.5"
    config = DuplexConfig(
        n_timeslots=60, eve=EveStrategy.intercept_resend(0.5, BasisPolicy.ALWAYS_Y)
    )
    expected = aggregate_reports(run_sessions("duplex", config, 20, derive_seed(4, 0)))
    for name in (
        "detection_rate", "detection_halfwidth", "mean_error_rate", "error_rate_halfwidth",
        "key_rate_per_timeslot", "key_rate_halfwidth", "pair_failure_rate",
    ):
        assert float(cell[name]) == getattr(expected, name), name


def test_sweep_cell_runs_with_a_master_seed_derived_from_its_index(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "sweep", "--protocol", "duplex", "--intercept", "0,0.5,1", "--flip", "0.02",
        "--timeslots", "60", "--sessions", "20", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    cell = dict(zip(header.split(","), rows[2].split(",")))
    assert (cell["intercept_fraction"], cell["flip_probability"]) == ("1.0", "0.02")
    config = DuplexConfig(
        n_timeslots=60,
        channel=ChannelModel(flip_probability=0.02),
        eve=EveStrategy.intercept_resend(1.0),
    )
    expected = aggregate_reports(run_sessions("duplex", config, 20, derive_seed(7, 2)))
    for name in (
        "sessions", "detection_rate", "detection_halfwidth", "mean_error_rate",
        "error_rate_halfwidth", "key_rate_per_timeslot", "key_rate_halfwidth", "pair_failure_rate",
    ):
        assert float(cell[name]) == getattr(expected, name), name


def _one_error_line(err: str) -> str:
    assert "Traceback" not in err
    (line,) = err.splitlines()
    return line


def test_config_line_without_equals_names_the_line(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("sessions = 2\ntimeslots 30\n")
    assert run_cli("--config", str(config), "run", "--out", str(tmp_path / "out")) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line == f"duplexqkd: {config}:2: expected 'key = value', got 'timeslots 30'"
    assert not (tmp_path / "out").exists()


def test_unreadable_config_file_is_one_line_and_exit_1(tmp_path):
    missing = tmp_path / "missing.conf"
    result = subprocess.run(
        [sys.executable, "-m", "duplexqkd.cli", "--config", str(missing), "run"],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    line = _one_error_line(result.stderr)
    assert line.startswith("duplexqkd: cannot read config file: ")
    assert str(missing) in line


def test_config_file_that_is_not_utf8_is_one_line_and_exit_1(tmp_path, capsys):
    config = tmp_path / "not-utf8.conf"
    config.write_bytes(b"timeslots = 5\xff0\n")
    assert run_cli("--config", str(config), "run", "--out", str(tmp_path / "out")) == 1
    line = _one_error_line(capsys.readouterr().err)
    assert line == (
        f"duplexqkd: cannot read config file: {config}: "
        "'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"
    )
    assert not (tmp_path / "out").exists()


def test_config_without_a_subcommand_exits_2(tmp_path, capsys):
    assert run_cli("--config", str(tmp_path / "any.conf")) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line == "duplexqkd: --config given without a subcommand"


def test_non_integer_seed_variable_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV_VAR, "seven")
    assert run_cli("run", "--timeslots", "20", "--out", str(tmp_path / "out")) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line == f"duplexqkd: {SEED_ENV_VAR} must be an integer, got 'seven'"
    assert not (tmp_path / "out").exists()


def test_run_with_zero_sessions_exits_2(tmp_path, capsys):
    assert run_cli("run", "--sessions", "0", "--out", str(tmp_path / "out")) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line == "duplexqkd: sessions must be >= 1"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text,message",
    [
        ("intercept = 0,2\n", "1: intercept_fraction must lie in [0, 1], got 2.0"),
        ("sweep_timeslots = 57,1\n", "1: n_timeslots must be >= 2, got 1"),
    ],
    ids=["invalid-intercept-value", "invalid-timeslots-value"],
)
def test_sweep_config_grid_values_name_the_file_and_line(tmp_path, capsys, text, message):
    config = tmp_path / "grid.conf"
    config.write_text(text)
    argv = ["--config", str(config), "sweep", "--sessions", "2", "--timeslots", "10"]
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line == f"duplexqkd: {config}:{message}"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, status", [("timeslots = 30\n", 0), ("timeslots = 30\nsessions = 0\n", 2)]
)
def test_a_config_file_leaves_no_defaults_behind(tmp_path, capsys, text, status):
    config = tmp_path / "run.conf"
    config.write_text(text)
    first = tmp_path / "first"
    assert run_cli("--config", str(config), "run", "--out", str(first)) == status
    if status == 0:
        assert json.loads((first / "report.json").read_text())["config"]["timeslots"] == 30
    plain = tmp_path / "plain"
    assert run_cli("run", "--out", str(plain)) == 0
    assert json.loads((plain / "report.json").read_text())["config"]["timeslots"] == 200


@pytest.mark.parametrize("flag", ["--conf {}", "--con={}"], ids=["conf", "con-equals"])
def test_abbreviated_config_flag_applies_the_file(tmp_path, capsys, flag):
    config = tmp_path / "run.conf"
    config.write_text("timeslots = 30\nsessions = 3\n")
    out = tmp_path / "out"
    assert run_cli(*flag.format(config).split(" "), "run", "--out", str(out)) == 0
    assert json.loads((out / "report.json").read_text())["config"]["sessions"] == 3

    config.write_text("sessions = 0\n")
    capsys.readouterr()
    assert run_cli(*flag.format(config).split(" "), "run", "--out", str(tmp_path / "bad")) == 2
    line = _one_error_line(capsys.readouterr().err)
    assert line == f"duplexqkd: {config}:1: sessions must be >= 1, got 0"
    assert not (tmp_path / "bad").exists()


def test_later_switch_line_overrides_an_earlier_one(tmp_path):
    config = tmp_path / "switch.conf"
    config.write_text(
        "variant = search_pairs\ndiscard_searched_key = true\ndiscard_searched_key = false\n"
    )
    out = tmp_path / "out"
    assert run_cli("--config", str(config), "run", "--timeslots", "40", "--out", str(out)) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["config"]["discard_searched_key"] is False
    assert payload["sessions"][0]["keyed_search_pairs"] is True
