"""Correctness oracle for the benchmark's operations.

Every check reads only the files an operation wrote and the benchmark's own
knowledge of its inputs (the argv it built, the ground truth of the
transcripts it generated).  The closed forms are restated here from the
paper rather than imported from the program, so a broken closed form in the
program cannot vouch for itself.

Each ``check_*`` function returns a list of problems; an empty list means
the operation passed.  Statistical checks pool many operations (see
``PooledPairTest`` and ``PooledMeanTest``) and run once per benchmark run.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from transcripts import GeneratedTranscript, derived_int

Z_LIMIT = 4.0
# Half-width multiplier the program uses for its reported intervals.
PROGRAM_Z = 1.96


def slot_error_probability(intercept: float, flip: float) -> float:
    """Matched-basis error from intercept-resend (f/4) XOR channel flips."""
    p_eve = intercept / 4.0
    return p_eve + flip - 2.0 * p_eve * flip


def pair_error_probability(intercept: float, flip: float) -> float:
    """A checked pair fails iff its two slots carry an odd number of errors."""
    p = slot_error_probability(intercept, flip)
    return 2.0 * p * (1.0 - p)


def cell_text(value) -> str:
    """A JSON value as the program's comma-separated tables spell it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _read_table(path: Path) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="ascii"))))


def _table_matches_json(rows: list[dict[str, str]], records: list[dict], what: str) -> list[str]:
    if len(rows) != len(records):
        return [f"{what}: {len(rows)} table rows but {len(records)} JSON records"]
    for i, (row, record) in enumerate(zip(rows, records)):
        for key, text in row.items():
            if key not in record or cell_text(record[key]) != text:
                return [f"{what} row {i}: column {key!r} is {text!r} in the table "
                        f"but {record.get(key)!r} in the JSON"]
    return []


def check_run(out: Path, *, sessions: int, timeslots: int, master_seed: int) -> tuple[list[str], dict]:
    """Check a ``run --protocol duplex --variant flip_triples`` output directory.

    Returns the problems and the aggregate (for the pooled statistical test).
    """
    try:
        report = json.loads((out / "report.json").read_text(encoding="ascii"))
        rows = _read_table(out / "sessions.csv")
        aggregate = report["aggregate"]
        records = report["sessions"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable run output: {exc!r}"], {}
    problems = _table_matches_json(rows, records, "sessions.csv")
    if len(rows) != sessions:
        problems.append(f"{len(rows)} session rows, expected {sessions}")
    total_checked = total_failures = 0
    for k, row in enumerate(rows):
        try:
            sifted, paired, unpaired, failures, key_length = (
                int(row[f]) for f in ("sifted", "sifted_or_paired", "unpaired", "failures", "key_length")
            )
            n_slots, index, seed = int(row["n_timeslots"]), int(row["session_index"]), int(row["seed"])
            flagged = cell_text(failures > 0)
            decided = (row["detected"], row["aborted"])
            revealed = int(row["eve_pair_bits_revealed"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"session row {k}: malformed ({exc!r})")
            continue
        total_checked += paired
        total_failures += failures
        if 2 * paired + unpaired != sifted:
            problems.append(f"session {k}: 2*{paired} paired + {unpaired} unpaired != {sifted} sifted")
        if not 0 <= failures <= paired:
            problems.append(f"session {k}: {failures} failures of {paired} checked pairs")
        if key_length != (0 if failures else paired):
            problems.append(f"session {k}: key length {key_length} with {failures} failures of {paired}")
        if decided != (flagged, flagged):
            problems.append(f"session {k}: detected/aborted do not follow {failures} failures")
        if revealed != paired:
            problems.append(f"session {k}: revealed bits differ from the {paired} announced pairs")
        if (index, n_slots, seed) != (k, timeslots, derived_int(master_seed, k)):
            problems.append(f"session {k}: index/timeslots/seed {index}/{n_slots}/{seed} are wrong")
    try:
        if (aggregate["sessions"], aggregate["total_checked"], aggregate["total_failures"]) != (
            sessions, total_checked, total_failures
        ):
            problems.append("aggregate totals disagree with the session rows")
        rate = total_failures / total_checked if total_checked else 0.0
        if aggregate["pair_failure_rate"] != rate:
            problems.append(f"aggregate pair_failure_rate {aggregate['pair_failure_rate']!r} != {rate!r}")
    except (KeyError, TypeError) as exc:
        problems.append(f"aggregate incomplete: {exc!r}")
    return problems, {"checked": total_checked, "failures": total_failures}


def sweep_cells(intercepts, flips) -> list[tuple[float, float]]:
    """Grid cells in the order the program enumerates them."""
    return [(i, f) for i in intercepts for f in flips]


def check_sweep(out: Path, *, sessions: int, cells: list[tuple[float, float]]) -> tuple[list[str], list[dict]]:
    """Check a ``sweep --protocol bb84`` over intercept x flip.

    Returns the problems and the per-cell rows (for the pooled test).
    """
    try:
        payload = json.loads((out / "sweep.json").read_text(encoding="ascii"))
        rows = _read_table(out / "sweep.csv")
        records = payload["sweep"]["rows"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable sweep output: {exc!r}"], []
    problems = _table_matches_json(rows, records, "sweep.csv")
    if len(records) != len(cells):
        return problems + [f"{len(records)} sweep rows, expected {len(cells)}"], []
    for (intercept, flip), record in zip(cells, records):
        try:
            where = f"cell intercept={intercept} flip={flip}"
            if (record["intercept_fraction"], record["flip_probability"], record["sessions"]) != (
                intercept, flip, sessions
            ):
                problems.append(f"{where}: row labelled {record['intercept_fraction']}/"
                                f"{record['flip_probability']} with {record['sessions']} sessions")
            if slot_error_probability(intercept, flip) == 0.0 and (
                record["mean_error_rate"] != 0.0 or record["detection_rate"] != 0.0
            ):
                problems.append(f"{where}: errors or detections on a noiseless, unattacked channel")
        except (KeyError, TypeError) as exc:
            problems.append(f"sweep row incomplete: {exc!r}")
    return problems, records


def check_replay(path: Path, truth: GeneratedTranscript) -> list[str]:
    """Check a ``replay --variant search_pairs --json`` payload against ground truth."""
    try:
        payload = json.loads(path.read_text(encoding="ascii"))
        triples = [tuple(t) for t in payload["triples"]]
        failures = [tuple(t) for t in payload["failures"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable replay output: {exc!r}"]
    problems = []
    discard, set2, set3 = truth.expected_partition()
    for name, expected in (("discard", discard), ("set2", set2), ("set3", set3)):
        if payload.get(name) != expected:
            problems.append(f"{name} differs from the generator's ground truth")
    if payload.get("n_timeslots") != len(truth) or payload.get("variant") != "search_pairs":
        problems.append("n_timeslots or variant echo is wrong")
    alice = {t: truth.alice_bits[t - 1] for t in set2 + set3}
    bob = {t: truth.bob_bits[t - 1] for t in set2 + set3}
    in_set2 = set(set2)
    used: set[int] = set()
    expected_failures, key_slots = [], []
    for triple in triples:
        if len(triple) != 3 or triple[0] not in alice or triple[1] not in alice:
            problems.append(f"triple {triple} names slots outside sets 2 and 3")
            continue
        first, second, flip = triple
        t2, t3 = (first, second) if first in in_set2 else (second, first)
        if t2 not in in_set2 or t3 in in_set2:
            problems.append(f"triple {triple} is not one set-2 and one set-3 slot")
            continue
        if t2 in used or t3 in used:
            problems.append(f"triple {triple} reuses a slot")
        used.update((t2, t3))
        if flip != 0 or bob[t2] != bob[t3]:
            problems.append(f"search pair {triple} does not hold equal Bob bits")
        if alice[t2] != alice[t3] ^ flip:
            expected_failures.append(triple)
        else:
            key_slots.append(t2)
    expected_pairs = sum(
        min(sum(bob[t] == b for t in set2), sum(bob[t] == b for t in set3)) for b in (0, 1)
    )
    if len(triples) != expected_pairs:
        problems.append(f"{len(triples)} search pairs, expected {expected_pairs}")
    if failures != expected_failures:
        problems.append(f"{len(failures)} failed pairs reported, ground truth gives {len(expected_failures)}")
    alice_key = [alice[t] for t in key_slots]
    bob_key = [bob[t] for t in key_slots]
    expected = {
        "unpaired": sorted(set(alice) - used),
        "checked_pairs": len(triples),
        "passed": not expected_failures,
        "alice_key": alice_key,
        "bob_key": bob_key,
        "keys_agree": alice_key == bob_key,
    }
    for name, value in expected.items():
        if payload.get(name) != value:
            problems.append(f"{name} differs from the generator's ground truth")
    return problems


def same_files(a: Path, b: Path) -> list[str]:
    """Byte-identity of two output directories."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"rerun wrote {names_b}, first run wrote {names_a}"]
    return [
        f"{name} is not byte-identical across runs of the same seed"
        for name in names_a
        if (a / name).read_bytes() != (b / name).read_bytes()
    ]


class PooledPairTest:
    """Pooled duplex pair-failure rate against the closed form, within 4 sigma."""

    def __init__(self, intercept: float, flip: float):
        self.p = pair_error_probability(intercept, flip)
        self.checked = self.failures = 0

    def add(self, tally: dict) -> None:
        self.checked += tally.get("checked", 0)
        self.failures += tally.get("failures", 0)

    def problems(self) -> list[str]:
        if not self.checked:
            return []
        sigma = math.sqrt(self.p * (1.0 - self.p) / self.checked)
        z = (self.failures / self.checked - self.p) / sigma
        if abs(z) > Z_LIMIT:
            return [f"pair failure rate {self.failures}/{self.checked} is {z:+.2f} sigma "
                    f"from the closed form {self.p:.6f}"]
        return []


class PooledMeanTest:
    """Pooled bb84 per-cell mean error rate against the closed form, within 4 sigma.

    Each sweep row reports its cell's mean over sessions and a half-width of
    ``PROGRAM_Z`` standard errors; rows of one cell are averaged over runs.
    """

    def __init__(self, cells: list[tuple[float, float]]):
        self.cells = cells
        self.means: list[list[float]] = [[] for _ in cells]
        self.variances: list[list[float]] = [[] for _ in cells]

    def add(self, records: list[dict]) -> None:
        for i, record in enumerate(records[: len(self.cells)]):
            self.means[i].append(record["mean_error_rate"])
            self.variances[i].append((record["error_rate_halfwidth"] / PROGRAM_Z) ** 2)

    def problems(self) -> list[str]:
        problems = []
        for (intercept, flip), means, variances in zip(self.cells, self.means, self.variances):
            if not means:
                continue
            p = slot_error_probability(intercept, flip)
            mean = sum(means) / len(means)
            sigma = math.sqrt(sum(variances)) / len(means)
            if abs(mean - p) > Z_LIMIT * sigma:
                problems.append(f"cell intercept={intercept} flip={flip}: mean error rate "
                                f"{mean:.6f} is more than 4 sigma ({sigma:.2e}) from {p:.6f}")
        return problems
