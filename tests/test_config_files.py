"""Config files for each subcommand: every file either runs or names one bad line.

Files are drawn from a line grammar of known, unknown and abbreviated keys,
good and bad values, true/false/yes switches, comments, blank lines and
lines without ``=``.  A ``sweep`` file also draws grid lists, some holding a
bad entry; a ``replay`` file draws its own keys and the ``run`` keys, which
it does not know.  Draws stay small: at most 3 sessions of at most 40
timeslots, and a worker count of -1, 0 or 1, so no process pool starts.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from duplexqkd.cli import main
from duplexqkd.duplex import example_transcript_path

GOOD_VALUES = {
    "protocol": ["duplex", "bb84"],
    "variant": ["flip_triples", "search_pairs"],
    "timeslots": ["2", "17", "40"],
    "intercept": ["0", "0.5", "1"],
    "flip": ["0", "0.02"],
    "loss": ["0", "0.1"],
    "eve_basis": ["uniform", "always_x", "always_y"],
    "sample_fraction": ["0.25", "0.75"],
    "sample_count": ["0", "3"],
    "detection_threshold": ["0", "0.1"],
    "failure_policy": ["abort", "threshold"],
    "failure_threshold": ["0", "0.5"],
    "max_pairs": ["0", "5"],
    "discard_searched_key": ["true", "false", "True", "FALSE"],
    "sessions": ["1", "3"],
    "seed": ["0", "7"],
    "workers": ["1"],
    "format": ["json", "csv", "both"],
}
# Wrong for some keys, right for others; none is an int above 3.
BAD_VALUES = ["abc", "", "-1", "0", "3", "1.5", "nan", "2e0", "yes", "true", "false", "both"]
UNKNOWN_KEYS = ["bogus", "time", "sess", "inter", "discard_searched", "config", "out_dir"]
SWEEP_GOOD_VALUES = {
    **GOOD_VALUES,
    "intercept": ["0", "0.5", "1", "0,1"],
    "flip": ["0", "0.02", "0,0.02"],
    "loss": ["0", "0.1", "0,0.1"],
    "sweep_timeslots": ["17", "2,40"],
}
# "{tmp}" is the test's directory: a replay report is never written elsewhere.
REPLAY_GOOD_VALUES = {"variant": ["flip_triples", "search_pairs"], "json": ["{tmp}/replay.json"]}
RUN_ONLY_KEYS = sorted(set(GOOD_VALUES) - set(REPLAY_GOOD_VALUES))
# Each subcommand's (good values by key, bad values, unknown keys).
GRAMMARS = {
    "run": (GOOD_VALUES, BAD_VALUES, UNKNOWN_KEYS),
    "sweep": (SWEEP_GOOD_VALUES, BAD_VALUES + ["0,2", "57,1"], UNKNOWN_KEYS),
    "replay": (REPLAY_GOOD_VALUES, BAD_VALUES, UNKNOWN_KEYS + RUN_ONLY_KEYS),
}


@st.composite
def config_lines(draw, command: str) -> str:
    good_values, bad_values, unknown_keys = GRAMMARS[command]
    kind = draw(st.sampled_from(["entry"] * 9 + ["comment", "blank", "no-equals"]))
    if kind == "comment":
        return "# " + draw(st.sampled_from(["defaults", "timeslots = 1", "x"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    # Mostly known keys with good values, so that many files run.
    known = draw(st.integers(0, 9)) > 0
    key = draw(st.sampled_from(sorted(good_values) if known else unknown_keys))
    if key == "workers":
        bad = ["-1", "0", "abc", "1.5", "true"]
    elif key == "json":
        bad = good_values[key]  # any path parses; one that cannot be written exits 1
    else:
        bad = bad_values
    good = draw(st.integers(0, 4)) > 0
    value = draw(st.sampled_from(good_values.get(key, ["1"]) if good else bad))
    if draw(st.booleans()):
        key = key.replace("_", "-")
    if kind == "no-equals":
        return f"{key} {value}"
    line = key + draw(st.sampled_from([" = ", "=", "  =\t"])) + value
    return line + draw(st.sampled_from(["", "  # note", "#"]))


@pytest.mark.parametrize("command", ["run", "sweep", "replay"])
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_run_config_file_runs_or_names_one_bad_line(tmp_path, command, data):
    lines = data.draw(st.lists(config_lines(command), max_size=8), label="lines")
    config = tmp_path / "drawn.conf"
    config.write_text("\n".join(lines).replace("{tmp}", str(tmp_path)) + "\n")
    if command == "replay":
        argv = ["--config", str(config), "replay", str(example_transcript_path())]
    else:
        argv = ["--config", str(config), command, "--out", str(tmp_path / "out")]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    keys = [line.split("#", 1)[0].split("=", 1)[0].strip() for line in lines]
    run_only = [key.replace("-", "_") in RUN_ONLY_KEYS for key in keys]
    if code == 0:
        assert err.getvalue() == ""
        assert command != "replay" or not any(run_only), lines
        return
    assert code == 2
    (message,) = err.getvalue().splitlines()
    prefix = f"duplexqkd: {config}:"
    assert message.startswith(prefix), message
    line_number = int(message[len(prefix):].split(":", 1)[0])
    assert 1 <= line_number <= len(lines)
    assert lines[line_number - 1].split("#", 1)[0].strip(), message
    if command == "replay" and run_only[line_number - 1] and "=" in lines[line_number - 1]:
        assert message.endswith(f": unknown key {keys[line_number - 1]!r}"), message
