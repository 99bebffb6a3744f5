"""``main`` lets no exception escape for any argv drawn from the option grammar.

An argv is a subcommand (or none, or the unknown ``b92``), known flags with
good and bad values, unknown flags, a flag missing its value, ``-h``, a
``--config`` file (a good one, a missing path, a directory or a file with a
``0xff`` byte) and, for ``replay``, a transcript (the bundled one, a missing
path, a directory, a malformed row, a non-ASCII byte, or none at all);
``DUPLEXQKD_SEED`` is unset, an integer or a word.  Draws stay small: at
most 3 sessions of at most 40 timeslots, and a worker count of -1, 0 or 1,
so no process pool starts.

Every draw either returns 0 with nothing on stderr, returns 1 or 2 with
nothing on stdout and one stderr line that starts with ``duplexqkd: ``, or,
when ``-h`` is in argv, prints help and ends in ``SystemExit(0)``.  A usage
error is one of the failures that return 2: no ``SystemExit`` carries it.
Two fixed cases pin the wording of a bad sweep list and of an unknown flag.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from duplexqkd.cli import SEED_ENV_VAR, main
from duplexqkd.duplex import example_transcript_path

# Paths under "{tmp}" are made fresh for every draw (see ``_make_files``).
CONFIGS = ["{tmp}/good.conf", "{tmp}/missing.conf", "{tmp}/adir", "{tmp}/ff.conf"]
TRANSCRIPTS = [
    str(example_transcript_path()),
    "{tmp}/missing.transcript",
    "{tmp}/adir",
    "{tmp}/malformed.transcript",
    "{tmp}/non-ascii.transcript",
]
OUT = (["{tmp}/out"], ["{tmp}/afile/out", "{tmp}/afile"])
# flag -> (good values, bad values); a value of None is a switch.
RUN_FLAGS = {
    "--protocol": (["duplex", "bb84"], ["b92", ""]),
    "--variant": (["flip_triples", "search_pairs"], ["both"]),
    "--timeslots": (["2", "17", "40"], ["1", "0", "-5", "abc"]),
    "--intercept": (["0", "0.5", "1"], ["2", "-0.1", "nan", "x"]),
    "--flip": (["0", "0.02"], ["1.5", "x"]),
    "--loss": (["0", "0.1"], ["-1", "inf"]),
    "--eve-basis": (["uniform", "always_x", "always_y"], ["sometimes"]),
    "--sample-fraction": (["0.25", "0.75"], ["0", "1", "2"]),
    "--sample-count": (["0", "3"], ["-1", "x"]),
    "--detection-threshold": (["0", "0.1"], ["2"]),
    "--failure-policy": (["abort", "threshold"], ["never"]),
    "--failure-threshold": (["0", "0.5"], ["2", "x"]),
    "--max-pairs": (["0", "5"], ["-1", "x"]),
    "--discard-searched-key": ([None], ["yes"]),
    "--sessions": (["1", "3"], ["0", "-1", "x"]),
    "--seed": (["0", "7", "-3"], ["abc", "1.5"]),
    "--workers": (["1"], ["-1", "0", "x"]),
    "--out": OUT,
    "--format": (["json", "csv", "both"], ["xml"]),
}
SWEEP_FLAGS = {
    **RUN_FLAGS,
    "--intercept": (["0", "0,1", "0.5,1"], ["0,2", ",", "x", "-1"]),
    "--flip": (["0", "0,0.02"], ["1.5", ","]),
    "--loss": (["0", "0,0.1"], ["-1", ","]),
    "--sweep-timeslots": (["17", "2,40"], ["40,1", "0", "x"]),
}
REPLAY_FLAGS = {
    "--variant": (["flip_triples", "search_pairs"], ["both"]),
    "--json": (["{tmp}/replay.json"], ["{tmp}/afile/replay.json"]),
}
FLAGS = {"run": RUN_FLAGS, "sweep": SWEEP_FLAGS, "replay": REPLAY_FLAGS}
UNKNOWN_FLAGS = ["--bogus", "-x", "--sessions", "--config-file", "--json"]


@st.composite
def argvs(draw) -> list[str]:
    argv = []
    if draw(st.booleans()):
        argv += ["--config", draw(st.sampled_from(CONFIGS))]
    command = draw(st.sampled_from(["run", "sweep", "replay", "b92", None]))
    if command is None:
        return argv + draw(st.sampled_from([[], ["-h"]]))
    argv.append(command)
    if command == "b92":
        return argv + draw(st.sampled_from([[], ["--sessions", "1"], ["-h"]]))
    if command == "replay" and draw(st.integers(0, 5)) > 0:
        argv.append(draw(st.sampled_from(TRANSCRIPTS)))
    flags = FLAGS[command]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["good"] * 12 + ["bad"] * 4 + ["unknown", "missing", "help"]))
        if kind == "help":
            argv.append("-h")
        elif kind == "unknown":
            argv += [draw(st.sampled_from(UNKNOWN_FLAGS)), "1"]
        elif kind == "missing":
            # A flag that takes a value, at the end of argv with nothing after it.
            takes_value = [flag for flag in sorted(flags) if flags[flag][0] != [None]]
            return argv + [draw(st.sampled_from(takes_value))]
        else:
            flag = draw(st.sampled_from(sorted(flags)))
            good, bad = flags[flag]
            value = draw(st.sampled_from(good if kind == "good" else bad))
            argv += [flag] if value is None else [flag, value]
    return argv


def _make_files(tmp: Path) -> None:
    (tmp / "good.conf").write_text("# every subcommand has this key\nvariant = search_pairs\n")
    (tmp / "ff.conf").write_bytes(b"timeslots = 5\xff0\n")
    (tmp / "adir").mkdir()
    (tmp / "afile").write_text("not a directory\n")
    (tmp / "malformed.transcript").write_text("1 A>B X 1 X 1\n2 B>A X nope X 1\n")
    (tmp / "non-ascii.transcript").write_bytes(b"1 A>B X 1 X 1\n2 B>A X 0 X \xc3\xa9\n")


@settings(max_examples=100, deadline=None)
@given(argv=argvs(), env_seed=st.sampled_from([None, "5", "seven"]))
@example(argv=["--config", "{tmp}/ff.conf", "run"], env_seed=None)
@example(argv=["run", "--failure-threshold", "x"], env_seed=None)
def test_main_lets_no_exception_escape(argv, env_seed):
    with tempfile.TemporaryDirectory() as tmp:
        _make_files(Path(tmp))
        argv = [token.replace("{tmp}", tmp) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
            os.environ.pop(SEED_ENV_VAR, None)
            if env_seed is not None:
                os.environ[SEED_ENV_VAR] = env_seed
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 0 and "-h" in argv, (argv, exc.code)
                return
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err.getvalue() == "", argv
        return
    assert out.getvalue() == "", argv
    (line,) = err.getvalue().splitlines()
    assert line.startswith("duplexqkd: "), (argv, line)


def _error_line(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv) == 2, argv
    assert out.getvalue() == ""
    (line,) = err.getvalue().splitlines()
    return line


def test_sweep_list_errors_name_the_list_type():
    line = _error_line(["sweep", "--intercept", "x"])
    assert line == "duplexqkd: argument --intercept: invalid float_list value: 'x' (see 'duplexqkd sweep -h')"
    line = _error_line(["sweep", "--sweep-timeslots", "2,y"])
    assert "invalid int_list value: '2,y'" in line
    assert "<lambda>" not in line


def test_unknown_subcommand_flag_points_at_the_subcommand_help():
    line = _error_line(["run", "--bogus", "1"])
    assert line == "duplexqkd: unrecognized arguments: --bogus 1 (see 'duplexqkd run -h')"
    line = _error_line(["--bogus"])
    assert line == "duplexqkd: unrecognized arguments: --bogus (see 'duplexqkd -h')"
