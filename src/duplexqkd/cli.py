"""Command-line driver: seeded Monte Carlo runs, transcript replay, sweeps.

Subcommands::

    duplexqkd run    --protocol {bb84,duplex} [options]   Monte Carlo batch
    duplexqkd replay TRANSCRIPT [options]                 rerun a fixed transcript
    duplexqkd sweep  --protocol {bb84,duplex} [options]   parameter grid

Options may also come from a config file of ``key = value`` lines (``#``
comments allowed) passed with ``--config``; keys are the long option names
with ``-`` or ``_``.  Command-line flags override the file.  The environment
variable ``DUPLEXQKD_SEED`` overrides the master seed from both.

Reports are written as a structured JSON document plus a comma-separated
table.  Output is a pure function of configuration and seed: rerunning with
the same inputs reproduces the report files byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import stats
from .adversary import BasisPolicy, EveStrategy
from .bb84 import Bb84Config
from .duplex import (
    DuplexConfig,
    Transcript,
    TranscriptFormatError,
    classical_phase,
    read_transcript,
)
from .quantum import ChannelModel

SEED_ENV_VAR = "DUPLEXQKD_SEED"

_EVE_BASIS_CHOICES = {
    "uniform": BasisPolicy.UNIFORM_RANDOM,
    "always_x": BasisPolicy.ALWAYS_X,
    "always_y": BasisPolicy.ALWAYS_Y,
}


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_bytes(payload) -> bytes:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` as ASCII bytes.

    ``json.dumps`` cannot use its C encoder when it indents, and walks every
    list item in Python; this writer formats a flat int list, or a list of
    equal-length int lists (replay triples), with one ``%`` template.
    Payloads are trees: a cycle is not detected.
    """
    return (_json_text(payload, "\n") + "\n").encode("ascii")


def _json_scalar(value) -> str | None:
    """JSON text of a str, None, bool, int or float; None for any other value."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    # Subclasses (numpy float64, IntEnum) are written as plain numbers.
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    return None


def _json_key(key) -> str:
    """A dict key as JSON text: numbers, bools and None are written quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return encode_basestring_ascii(_json_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(value, newline: str) -> str:
    """``value`` as JSON, nested where a line break plus indent is ``newline``."""
    text = _json_scalar(value)
    if text is not None:
        return text
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        # A flat int list, or equal-length int rows, is one %d template per
        # item.  Exact ints only: %d would write a bool as 1 and cut a float.
        template = None
        kinds = set(map(type, value))
        if kinds == {int}:
            template, cells = "%d", tuple(value)
        elif kinds == {list} and len(set(map(len, value))) == 1:
            cells = tuple(chain.from_iterable(value))
            if set(map(type, cells)) == {int}:
                row = (sep + "  ").join(["%d"] * len(value[0]))
                template = "[" + inner + "  " + row + inner + "]"
        if template is None:
            body = sep.join([_json_scalar(v) or _json_text(v, inner) for v in value])
        else:
            body = sep.join([template] * len(value)) % cells
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([
            _json_key(k) + ": " + (_json_scalar(v) or _json_text(v, inner))
            for k, v in sorted(value.items())
        ])
        return "{" + inner + body + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Failure(Exception):
    """A failure that ends the command: a one-line message and an exit status.

    The status is 1 for a file that cannot be read or written, 2 for a bad
    setting.  ``main`` prints the message once, after ``duplexqkd: ``.
    """

    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


def _write_file(path: Path, data: bytes) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    except OSError as exc:
        raise _Failure(f"cannot write {path}: {exc.strerror or exc}", 1) from None


def float_list(text: str) -> list[float]:
    """A comma-separated grid of floats; empty items are skipped."""
    return [float(x) for x in text.split(",") if x != ""]


def int_list(text: str) -> list[int]:
    """A comma-separated grid of ints; empty items are skipped."""
    return [int(x) for x in text.split(",") if x != ""]


def _add_run_options(parser: argparse.ArgumentParser, *, sweep: bool) -> None:
    parser.add_argument("--protocol", choices=["bb84", "duplex"], default="duplex")
    parser.add_argument(
        "--variant",
        choices=["flip_triples", "search_pairs"],
        default="flip_triples",
        help="duplex pair-publication variant",
    )
    parser.add_argument("--timeslots", type=int, default=200, help="timeslots per session")
    if sweep:
        parser.add_argument("--intercept", type=float_list, default=[0.0], metavar="LIST")
        parser.add_argument("--flip", type=float_list, default=[0.0], metavar="LIST")
        parser.add_argument("--loss", type=float_list, default=[0.0], metavar="LIST")
        parser.add_argument(
            "--sweep-timeslots", type=int_list,
            default=None, metavar="LIST", help="grid over timeslots per session",
        )
    else:
        parser.add_argument("--intercept", type=float, default=0.0, help="interception fraction")
        parser.add_argument("--flip", type=float, default=0.0, help="channel flip probability")
        parser.add_argument("--loss", type=float, default=0.0, help="channel loss probability")
    parser.add_argument(
        "--eve-basis", choices=sorted(_EVE_BASIS_CHOICES), default="uniform",
        help="eavesdropper basis policy",
    )
    parser.add_argument("--sample-fraction", type=float, default=0.25, help="bb84 compared fraction")
    parser.add_argument("--sample-count", type=int, default=None, help="bb84 fixed compared count")
    parser.add_argument(
        "--detection-threshold", type=float, default=0.0,
        help="bb84 flags a session when the error estimate exceeds this",
    )
    parser.add_argument(
        "--failure-policy", choices=["abort", "threshold"], default="abort",
        help="duplex reaction to verification failures",
    )
    parser.add_argument("--failure-threshold", type=float, default=0.0)
    parser.add_argument("--max-pairs", type=int, default=None, help="cap on checked duplex pairs")
    parser.add_argument(
        "--discard-searched-key", action="store_true",
        help="search_pairs: drop checked pairs from the key instead of keeping them",
    )
    parser.add_argument("--sessions", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--workers", type=int, default=1, help="process pool size")
    parser.add_argument("--out", type=Path, default=None, help="directory for report files")
    parser.add_argument(
        "--format", choices=["json", "csv", "both"], default="both",
        dest="out_format", help="which report files to write",
    )


def _add_replay_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--variant", choices=["flip_triples", "search_pairs"], default="flip_triples"
    )
    parser.add_argument("--json", type=Path, default=None, help="also write the report as JSON")


# Each subcommand's options, which a config file may set.
_OPTIONS = {
    "run": lambda parser: _add_run_options(parser, sweep=False),
    "replay": _add_replay_options,
    "sweep": lambda parser: _add_run_options(parser, sweep=True),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (its subcommands' too) raise ``_Failure``."""

    def error(self, message: str):
        raise _Failure(f"{message} (see '{self.prog} -h')" if self.add_help else message, 2)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subcommand parsers, by name.

    Built once per process; ``main`` puts back any defaults it changes.
    """
    parser = _Parser(
        prog="duplexqkd",
        description="Duplex BB84 simulator: eavesdropper detection without public bit comparison.",
    )
    parser.add_argument("--config", type=Path, default=None, help="key = value defaults file")
    sub = parser.add_subparsers(dest="command")
    commands = {
        "run": sub.add_parser("run", help="run seeded Monte Carlo sessions"),
        "replay": sub.add_parser("replay", help="rerun the classical phase on a fixed transcript"),
        "sweep": sub.add_parser("sweep", help="cross a parameter grid, one aggregate per cell"),
    }
    commands["replay"].add_argument("transcript", type=Path, help="transcript file to replay")
    for name, add_options in _OPTIONS.items():
        add_options(commands[name])
    return parser, commands


def _parse(
    parser: argparse.ArgumentParser,
    commands: dict[str, argparse.ArgumentParser],
    argv: list[str] | None,
) -> argparse.Namespace:
    """``parser.parse_args``, with unknown flags reported by the subcommand that got them."""
    args, extras = parser.parse_known_args(argv)
    if extras:
        owner = commands[args.command] if args.command is not None else parser
        owner.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _config_file_defaults(path: Path, command: str) -> dict:
    """Read a key = value file into ``command``'s option values.

    Each line is parsed into one namespace that holds the lines before it,
    so a later line overrides an earlier one.  For ``run`` and ``sweep`` the
    values are also built into a session config (for a sweep, every grid
    cell's) and checked for a session and worker count of at least 1, so a
    bad key or value is reported with the file and line it came from.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise _Failure(f"cannot read config file: {exc}", 1) from None
    except UnicodeDecodeError as exc:
        raise _Failure(f"cannot read config file: {path}: {exc}", 1) from None
    # Keys name an option in full: "time = 30" is unknown, not --timeslots.
    entry_parser = _Parser(add_help=False, allow_abbrev=False)
    _OPTIONS[command](entry_parser)
    values = entry_parser.parse_args([])
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _Failure(f"{path}:{line_number}: expected 'key = value', got {raw!r}", 2)
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        dest = key.replace("-", "_")
        # true/false sets a switch (an option holding a bool); others take them as values.
        switch = isinstance(getattr(values, dest, None), bool) and value.lower() in ("true", "false")
        try:
            _, extras = entry_parser.parse_known_args([flag] if switch else [flag, value], values)
            if extras:
                unknown = extras[0] == flag
                problem = f"unknown key {key!r}" if unknown else f"{key}: unexpected value {value!r}"
                raise _Failure(problem, 2)
            if switch:
                setattr(values, dest, value.lower() == "true")
            if command == "run":
                _session_config(values)
            elif command == "sweep":
                stats.sweep_cells(_session_config(values, sweep=True), _sweep_grid(values))
            for name in ("sessions", "workers"):
                if getattr(values, name, 1) < 1:  # replay has neither
                    raise ValueError(f"{name} must be >= 1, got {getattr(values, name)}")
        except (_Failure, ValueError) as exc:
            raise _Failure(f"{path}:{line_number}: {exc}", 2) from None
    return vars(values)


def _session_config(args: argparse.Namespace, *, sweep: bool = False):
    # A sweep applies its grid per cell; its base config holds neutral values.
    loss, flip, intercept = (0.0, 0.0, 0.0) if sweep else (args.loss, args.flip, args.intercept)
    channel = ChannelModel(loss_probability=loss, flip_probability=flip)
    eve = EveStrategy(intercept, _EVE_BASIS_CHOICES[args.eve_basis])
    if args.protocol == "bb84":
        return Bb84Config(
            n_timeslots=args.timeslots,
            channel=channel,
            eve=eve,
            sample_fraction=args.sample_fraction,
            sample_count=args.sample_count,
            detection_threshold=args.detection_threshold,
        )
    return DuplexConfig(
        n_timeslots=args.timeslots,
        channel=channel,
        eve=eve,
        variant=args.variant,
        failure_policy=args.failure_policy,
        failure_threshold=args.failure_threshold,
        max_pairs=args.max_pairs,
        keep_searched_key=not args.discard_searched_key,
    )


def _echo_config(args: argparse.Namespace) -> dict:
    skip = {"command", "config", "out", "out_format"}
    echo = {}
    for key, value in sorted(vars(args).items()):
        if key in skip:
            continue
        echo[key] = str(value) if isinstance(value, Path) else value
    return echo


def _write_reports(
    out: Path | None,
    out_format: str,
    payload: dict,
    csv_text: str,
    json_name: str,
    csv_name: str,
) -> None:
    if out is None:
        return
    if out_format in ("json", "both"):
        _write_file(out / json_name, _json_bytes(payload))
    if out_format in ("csv", "both"):
        _write_file(out / csv_name, csv_text.encode("ascii"))


def _sessions_csv(sessions: list[dict]) -> str:
    return stats.csv_table(stats.CSV_FIELDS, sessions)


def _cmd_run(args: argparse.Namespace) -> None:
    config = _session_config(args)
    reports = stats.run_sessions(args.protocol, config, args.sessions, args.seed, args.workers)
    aggregate = stats.aggregate_reports(reports)
    sessions = [r.to_dict() for r in reports]
    payload = {"config": _echo_config(args), "aggregate": aggregate.to_dict(), "sessions": sessions}
    _write_reports(args.out, args.out_format, payload, _sessions_csv(sessions), "report.json", "sessions.csv")
    print(f"protocol={args.protocol} sessions={args.sessions} seed={args.seed}")
    print(f"detection_rate={aggregate.detection_rate!r}")
    print(f"mean_error_rate={aggregate.mean_error_rate!r}")
    print(f"mean_key_length={aggregate.mean_key_length!r}")
    print(f"keys_agree_rate={aggregate.keys_agree_rate!r}")
    if args.out is not None:
        print(f"reports written to {args.out}")


def _replay_payload(transcript: Transcript, variant: str) -> dict:
    """The replay report: the classical phase without abort, every passing pair keyed."""
    phase = classical_phase(transcript, variant, failure_policy="threshold", failure_threshold=1.0)
    timeslot = transcript.timeslot
    t2, t3 = timeslot[phase.t2], timeslot[phase.t3]
    triples = [
        list(wire)
        for wire in zip(np.maximum(t2, t3).tolist(), np.minimum(t2, t3).tolist(), phase.flip.tolist())
    ]
    failures = [t for t, failed in zip(triples, phase.failed.tolist()) if failed]
    alice_key, bob_key = phase.alice_key.tolist(), phase.bob_key.tolist()
    return {
        "n_timeslots": len(transcript),
        "variant": variant,
        "discard": sorted(timeslot[phase.discard].tolist()),
        "set2": timeslot[phase.set2].tolist(),
        "set3": timeslot[phase.set3].tolist(),
        "triples": triples,
        "unpaired": sorted(timeslot[phase.unpaired].tolist()),
        "checked_pairs": len(triples),
        "failures": failures,
        "passed": not failures,
        "alice_key": alice_key,
        "bob_key": bob_key,
        "keys_agree": alice_key == bob_key,
    }


def _int_text(values: list[int], sep: str) -> str:
    """``sep.join(map(str, values))`` for ints, formatted in one step."""
    return sep.join(["%d"] * len(values)) % tuple(values)


def _cmd_replay(args: argparse.Namespace) -> None:
    try:
        transcript = read_transcript(args.transcript)
    except TranscriptFormatError as exc:
        raise _Failure(f"{args.transcript}: {exc}", 1) from None
    except OSError as exc:
        raise _Failure(f"cannot read transcript: {exc}", 1) from None
    payload = _replay_payload(transcript, args.variant)
    if args.json is not None:
        _write_file(args.json, _json_bytes(payload))
    triples = payload["triples"]
    print(f"timeslots: {payload['n_timeslots']}")
    print("discard:", _int_text(payload["discard"], " "))
    print("set2:", _int_text(payload["set2"], " "))
    print("set3:", _int_text(payload["set3"], " "))
    print("triples:", " ".join(["(%d,%d,%d)"] * len(triples)) % tuple(chain.from_iterable(triples)))
    print("unpaired:", _int_text(payload["unpaired"], " "))
    verdict = "PASS" if payload["passed"] else "FAIL"
    print(
        f"verification: {payload['checked_pairs']} checked, "
        f"{len(payload['failures'])} failed -> {verdict}"
    )
    print("alice_key:", _int_text(payload["alice_key"], ""))
    print("bob_key:  ", _int_text(payload["bob_key"], ""))
    print("keys_agree:", "yes" if payload["keys_agree"] else "no")


def _sweep_grid(args: argparse.Namespace) -> dict[str, list]:
    """The grid named by the sweep's list options; an empty list is not swept."""
    lists = {
        "intercept_fraction": args.intercept,
        "flip_probability": args.flip,
        "loss_probability": args.loss,
        "n_timeslots": args.sweep_timeslots,
    }
    return {name: values for name, values in lists.items() if values}


def _cmd_sweep(args: argparse.Namespace) -> None:
    grid = _sweep_grid(args)
    if not grid:
        raise _Failure("sweep grid is empty", 2)
    config = _session_config(args, sweep=True)
    result = stats.run_sweep(args.protocol, config, grid, args.sessions, args.seed, args.workers)
    payload = {"config": _echo_config(args), "sweep": result.to_dict()}
    _write_reports(args.out, args.out_format, payload, result.to_csv(), "sweep.json", "sweep.csv")
    print(result.to_csv(), end="")
    if args.out is not None:
        print(f"reports written to {args.out}")


def main(argv: list[str] | None = None) -> int:
    try:
        parser, commands = _build_parser()
        args = _parse(parser, commands, argv)
        if args.command is None:
            if args.config is None:
                parser.error("the following arguments are required: command")
            raise _Failure("--config given without a subcommand", 2)
        if args.config is not None:
            # The file's values become the subcommand's defaults, so flags still win.
            command = commands[args.command]
            defaults = _config_file_defaults(args.config, args.command)
            saved = {dest: command.get_default(dest) for dest in defaults}
            command.set_defaults(**defaults)
            try:
                args = _parse(parser, commands, argv)
            finally:
                command.set_defaults(**saved)  # the parsers outlive this call
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None and hasattr(args, "seed"):
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise _Failure(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}", 2) from None
        {"run": _cmd_run, "replay": _cmd_replay, "sweep": _cmd_sweep}[args.command](args)
        return 0
    except _Failure as exc:
        message, status = str(exc), exc.status
    except MemoryError as exc:
        message, status = f"not enough memory: {exc or 'allocation failed'}", 1
    except ValueError as exc:
        message, status = str(exc), 2
    print(f"duplexqkd: {message}", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
