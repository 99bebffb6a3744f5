"""Config files for ``run``: every file either runs or names one bad line.

Files are drawn from a line grammar of known, unknown and abbreviated keys,
good and bad values, true/false/yes switches, comments, blank lines and
lines without ``=``.  Draws stay small: at most 3 sessions of at most 40
timeslots, and a worker count of -1, 0 or 1, so no process pool starts.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from duplexqkd.cli import main

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


@st.composite
def config_lines(draw) -> str:
    kind = draw(st.sampled_from(["entry"] * 9 + ["comment", "blank", "no-equals"]))
    if kind == "comment":
        return "# " + draw(st.sampled_from(["defaults", "timeslots = 1", "x"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    # Mostly known keys with good values, so that many files run.
    known = draw(st.integers(0, 9)) > 0
    key = draw(st.sampled_from(sorted(GOOD_VALUES) if known else UNKNOWN_KEYS))
    if key == "workers":
        bad = ["-1", "0", "abc", "1.5", "true"]
    else:
        bad = BAD_VALUES
    good = draw(st.integers(0, 4)) > 0
    value = draw(st.sampled_from(GOOD_VALUES.get(key, ["1"]) if good else bad))
    if draw(st.booleans()):
        key = key.replace("_", "-")
    if kind == "no-equals":
        return f"{key} {value}"
    line = key + draw(st.sampled_from([" = ", "=", "  =\t"])) + value
    return line + draw(st.sampled_from(["", "  # note", "#"]))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(config_lines(), max_size=8))
def test_run_config_file_runs_or_names_one_bad_line(tmp_path, lines):
    config = tmp_path / "drawn.conf"
    config.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["--config", str(config), "run", "--out", str(tmp_path / "out")])
    if code == 0:
        assert err.getvalue() == ""
        return
    assert code == 2
    (message,) = err.getvalue().splitlines()
    prefix = f"duplexqkd: {config}:"
    assert message.startswith(prefix), message
    line_number = int(message[len(prefix):].split(":", 1)[0])
    assert 1 <= line_number <= len(lines)
    assert lines[line_number - 1].split("#", 1)[0].strip(), message
