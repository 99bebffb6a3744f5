"""Monte Carlo aggregation, closed-form error rates, and leakage accounting.

Closed forms used throughout (uniform sender bases assumed):

* per-slot error probability under intercept-resend with interception
  fraction f: ``p_eve = f / 4`` (Eve guesses the wrong basis half the time,
  and a wrong-basis resend flips the matched-basis reading half the time);
* two independent error sources compose as an XOR:
  ``p = p_eve + p_chan - 2 * p_eve * p_chan``;
* a checked pair fails iff its two slots carry an odd number of errors:
  ``p_pair = 2 * p_slot * (1 - p_slot)``;
* n checked pairs all pass with probability ``(1 - p_pair) ** n``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .adversary import EveRecord, EveStrategy
from .bb84 import Bb84Config, Bb84Outcome, run_bb84_sessions
from .duplex import DuplexConfig, DuplexSessionResult, Triple, run_duplex_sessions
from .quantum import Basis, ChannelModel
from .rng import derive_seed
from .transmission import BATCH_SLOTS, SessionCounts

__all__ = [
    "SessionReport",
    "AggregateStats",
    "SweepResult",
    "PairKnowledge",
    "EveInformation",
    "ProtocolComparison",
    "slot_error_probability",
    "pair_error_probability",
    "undetected_probability",
    "eve_information",
    "flip_key_mutual_information",
    "pair_reading_table",
    "normal_halfwidth",
    "report_from_duplex",
    "report_from_bb84",
    "effective_workers",
    "run_sessions",
    "aggregate_reports",
    "compare_protocols",
    "run_sweep",
    "sweep_cells",
    "csv_table",
]


# --------------------------------------------------------------------------
# Session reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionReport:
    """Uniform per-session summary for either protocol.

    ``sifted_or_paired`` is the protocol's native unit of checked data:
    sifted slots for the baseline, checked pairs for duplex.
    ``eve_pair_bits_revealed`` counts bits of bit-value information made
    public: one per compared sample slot (baseline, value published) or one
    per announced pair (duplex, only the XOR is published).
    """

    protocol: str
    n_timeslots: int
    sifted: int
    sifted_or_paired: int
    failures: int
    estimated_error_rate: float
    key_length: int
    keys_agree: bool
    eve_pair_bits_revealed: int
    detected: bool
    aborted: bool = False
    sampled: int = 0
    unpaired: int = 0
    variant: str | None = None
    keyed_search_pairs: bool | None = None
    session_index: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.failures > self.sifted_or_paired:
            raise ValueError("failures cannot exceed the checked count")
        if self.key_length < 0:
            raise ValueError("key_length must be non-negative")

    def to_dict(self) -> dict:
        # The fields in declaration order; copy() is faster than dict(vars(self)).
        return vars(self).copy()


CSV_FIELDS = [
    "session_index",
    "protocol",
    "variant",
    "seed",
    "n_timeslots",
    "sifted",
    "sifted_or_paired",
    "sampled",
    "unpaired",
    "failures",
    "estimated_error_rate",
    "key_length",
    "keys_agree",
    "detected",
    "aborted",
    "eve_pair_bits_revealed",
]


def report_from_duplex(
    result: DuplexSessionResult,
    session_index: int | None = None,
    seed: int | None = None,
) -> SessionReport:
    return _reports(result.config, result.phase.counts, [session_index], [seed])[0]


def report_from_bb84(
    outcome: Bb84Outcome,
    config: Bb84Config,
    session_index: int | None = None,
    seed: int | None = None,
) -> SessionReport:
    _check_protocol("bb84", config)
    if config != outcome.config:
        raise ValueError("config is not the Bb84Config the session ran")
    return _reports(config, outcome.batch.counts, [session_index], [seed])[0]


def _reports(
    config: Bb84Config | DuplexConfig, counts: SessionCounts, indices: Sequence, seeds: Sequence
) -> list[SessionReport]:
    """One report per session of a batch's tally; the config's type names the protocol."""
    if isinstance(config, DuplexConfig):
        protocol, variant = "duplex", config.variant
        keyed_search_pairs = config.keep_searched_key if variant == "search_pairs" else None
    else:
        protocol, variant, keyed_search_pairs = "bb84", None, None
    return [
        SessionReport(
            protocol=protocol,
            n_timeslots=config.n_timeslots,
            sifted=sifted,
            sifted_or_paired=checked,
            failures=failures,
            estimated_error_rate=failures / revealed if revealed else 0.0,
            key_length=key_length,
            keys_agree=key_errors == 0,
            eve_pair_bits_revealed=revealed,
            detected=detected,
            aborted=aborted,
            sampled=sampled,
            unpaired=unpaired,
            variant=variant,
            keyed_search_pairs=keyed_search_pairs,
            session_index=index,
            seed=seed,
        )
        for (
            index, seed, sifted, checked, revealed, failures, sampled, unpaired, key_length,
            key_errors, detected, aborted,
        ) in zip(indices, seeds, *(column.tolist() for column in counts))
    ]


# --------------------------------------------------------------------------
# Closed forms
# --------------------------------------------------------------------------

def slot_error_probability(eve: EveStrategy, channel: ChannelModel) -> float:
    """Probability a matched-basis slot reads wrong, from attack plus noise.

    Holds for every basis policy because the sender's basis is uniform:
    a fixed-basis Eve is wrong on half the slots, a coin-flipping Eve is
    wrong with probability one half per slot.
    """
    p_eve = 0.25 * eve.intercept_fraction
    p_chan = channel.flip_probability
    return p_eve + p_chan - 2.0 * p_eve * p_chan


def pair_error_probability(eve: EveStrategy, channel: ChannelModel) -> float:
    """Probability one checked pair fails: odd error parity across its slots."""
    p = slot_error_probability(eve, channel)
    return 2.0 * p * (1.0 - p)


def undetected_probability(n_pairs: int, p_pair: float) -> float:
    """Chance that n checked pairs all pass despite per-pair failure p_pair."""
    if n_pairs < 0:
        raise ValueError("n_pairs must be non-negative")
    if not 0.0 <= p_pair <= 1.0:
        raise ValueError("p_pair must lie in [0, 1]")
    return (1.0 - p_pair) ** n_pairs


def pair_reading_table() -> dict[tuple[int, int], int]:
    """The published pair-reading rule as an explicit table.

    Pairs are ordered (set-2 bit, set-3 bit): 0,0 and 0,1 read as 0;
    1,0 and 1,1 read as 1.
    """
    return {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1}


def flip_key_mutual_information() -> float:
    """Mutual information between the public flip bit and the key bit.

    Computed exactly over the four equally likely pair values.  The flip bit
    is the pair XOR and the key bit is the first pair element, so the joint
    distribution factorises and the result is exactly zero.
    """
    joint: dict[tuple[int, int], Fraction] = {}
    for b2 in (0, 1):
        for b3 in (0, 1):
            cell = (b2 ^ b3, pair_reading_table()[(b2, b3)])
            joint[cell] = joint.get(cell, Fraction(0)) + Fraction(1, 4)
    flip_marginal = {f: sum(p for (ff, _), p in joint.items() if ff == f) for f in (0, 1)}
    key_marginal = {k: sum(p for (_, kk), p in joint.items() if kk == k) for k in (0, 1)}
    mi = 0.0
    for (f, k), p in joint.items():
        if p:
            ratio = p / (flip_marginal[f] * key_marginal[k])
            mi += float(p) * math.log2(float(ratio))
    return mi


# --------------------------------------------------------------------------
# Eavesdropper information accounting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PairKnowledge:
    """What the public record plus Eve's notes say about one checked pair.

    ``candidates`` lists the (set-2 bit, set-3 bit) values still possible
    given the announcement: the flip bit always narrows four options to two.
    Matched-basis interceptions of either slot narrow further; the inference
    treats Eve's reading as the slot's true value, which is exact for the
    set-3 slot (she reads the sender's state before any noise) and exact for
    the set-2 slot on a noiseless channel.
    """

    triple: Triple
    candidates: tuple[tuple[int, int], ...]
    matched_interceptions: tuple[int, ...]
    known_key_bit: int | None

    @property
    def compromised(self) -> bool:
        return self.known_key_bit is not None


@dataclass(frozen=True)
class EveInformation:
    """Per-pair knowledge plus whole-session tallies."""

    pairs: tuple[PairKnowledge, ...]
    pair_bits_revealed: int
    compromised_pairs: int


def eve_information(
    triples: Iterable[Triple],
    eve_records: Iterable[EveRecord],
    sender_bases: Mapping[int, Basis],
) -> EveInformation:
    """Account for everything Eve can infer about the published pairs.

    Each announced pair hands her exactly one of the pair's two bits of
    bit-value information (the XOR); her own interception records, judged
    against the now-public sender bases, may expose the rest.
    """
    by_slot: dict[int, EveRecord] = {}
    for record in eve_records:
        if record.timeslot in by_slot:
            raise ValueError(f"duplicate interception record for timeslot {record.timeslot}")
        by_slot[record.timeslot] = record

    def matched_bit(timeslot: int) -> int | None:
        record = by_slot.get(timeslot)
        if record is None:
            return None
        basis = sender_bases.get(timeslot)
        if basis is None:
            raise ValueError(f"no sender basis known for timeslot {timeslot}")
        return record.measured_bit if record.measured_basis is basis else None

    pairs: list[PairKnowledge] = []
    for triple in triples:
        candidates = [(b2, b2 ^ triple.flip) for b2 in (0, 1)]
        matched: list[int] = []
        b2_known = matched_bit(triple.t_set2)
        if b2_known is not None:
            matched.append(triple.t_set2)
            candidates = [c for c in candidates if c[0] == b2_known]
        b3_known = matched_bit(triple.t_set3)
        if b3_known is not None:
            matched.append(triple.t_set3)
            candidates = [c for c in candidates if c[1] == b3_known]
        known_key = candidates[0][0] if len(candidates) == 1 else None
        pairs.append(
            PairKnowledge(triple, tuple(candidates), tuple(matched), known_key)
        )
    return EveInformation(
        pairs=tuple(pairs),
        pair_bits_revealed=len(pairs),
        compromised_pairs=sum(1 for p in pairs if p.compromised),
    )


# --------------------------------------------------------------------------
# Confidence intervals
# --------------------------------------------------------------------------

# Normal quantile of a two-sided 95% interval.
_Z95 = 1.96


def normal_halfwidth(p_hat: float, n: int, z: float = _Z95) -> float:
    """Normal-approximation half-width for a binomial proportion."""
    if n <= 0:
        return float("nan")
    return z * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


# --------------------------------------------------------------------------
# Monte Carlo batches
# --------------------------------------------------------------------------

def _run_chunk(
    config: Bb84Config | DuplexConfig, master_seed: int, start: int, stop: int
) -> list[SessionReport]:
    """Reports of sessions ``start`` to ``stop - 1``, run as one batch."""
    indices = range(start, stop)
    seeds = [derive_seed(master_seed, k) for k in indices]
    if isinstance(config, DuplexConfig):
        counts = run_duplex_sessions(config, seeds)[1].counts
    else:
        counts = run_bb84_sessions(config, seeds).counts
    return _reports(config, counts, indices, seeds)


def _check_protocol(protocol: str, config: Bb84Config | DuplexConfig) -> None:
    """Raise ``ValueError`` unless ``protocol`` names the protocol of ``config``."""
    if protocol not in ("bb84", "duplex"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if not isinstance(config, DuplexConfig if protocol == "duplex" else Bb84Config):
        raise ValueError(f"protocol {protocol!r} does not match a {type(config).__name__}")


def effective_workers(requested: int, sessions: int, cpus: int | None) -> int:
    """Worker processes to use: ``min(requested, sessions, cpus or 1)``.

    ``requested`` below 1 is an error, never a silent serial run.
    """
    if requested < 1:
        raise ValueError(f"workers must be >= 1, got {requested}")
    return min(requested, sessions, cpus or 1)


def _run_cells(
    cells: Sequence[tuple[Bb84Config | DuplexConfig, int]],
    sessions: int,
    workers: int,
) -> Iterator[list[SessionReport]]:
    """Yield the reports of each ``(config, master_seed)`` cell, in cell order.

    Each task is one batch of a cell's sessions: at most ``BATCH_SLOTS``
    slots and, with more than one effective worker, about
    ``sessions / (4 * workers)`` sessions.  All tasks run serially or
    through one process pool; a cell is yielded once its tasks are back.
    """
    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    n_workers = effective_workers(workers, sessions, os.cpu_count())
    size = sessions if n_workers == 1 else max(1, sessions // (n_workers * 4))
    tasks, counts = [], []
    for config, master_seed in cells:
        step = min(size, max(1, BATCH_SLOTS // config.n_timeslots))
        starts = range(0, sessions, step)
        tasks += [(config, master_seed, s, min(s + step, sessions)) for s in starts]
        counts.append(len(starts))
    pool = ProcessPoolExecutor(n_workers) if n_workers > 1 else None
    try:
        chunks = (map if pool is None else pool.map)(_run_chunk, *zip(*tasks))
        for count in counts:
            yield [report for chunk in islice(chunks, count) for report in chunk]
    finally:
        if pool is not None:
            # On an early exit, tasks of later cells that have not started never run.
            pool.shutdown(cancel_futures=True)


def run_sessions(
    protocol: str,
    config: Bb84Config | DuplexConfig,
    sessions: int,
    master_seed: int,
    workers: int = 1,
) -> list[SessionReport]:
    """Run independent sessions; session k is seeded by derive_seed(master, k).

    ``protocol`` ("bb84" or "duplex") must name the protocol of ``config``,
    or ``ValueError`` is raised before any session runs.  Sessions run in
    batches (see ``_run_cells``), each through one transmission kernel call
    and one classical phase.  Every session draws from the stream of its
    own key, so neither batching nor the worker count (see
    ``effective_workers``) changes a report or its order.
    """
    _check_protocol(protocol, config)
    (reports,) = _run_cells([(config, master_seed)], sessions, workers)
    return reports


@dataclass(frozen=True)
class AggregateStats:
    """Pooled statistics over a batch of session reports."""

    sessions: int
    detection_rate: float
    detection_halfwidth: float
    mean_error_rate: float
    error_rate_halfwidth: float
    mean_key_length: float
    key_rate_per_timeslot: float
    key_rate_halfwidth: float
    keys_agree_rate: float
    abort_rate: float
    pair_failure_rate: float
    total_checked: int
    total_failures: int

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def aggregate_reports(reports: Sequence[SessionReport]) -> AggregateStats:
    """Fold a batch of reports into rates with 95% normal-approximation CIs."""
    if not reports:
        raise ValueError("cannot aggregate zero session reports")
    n = len(reports)
    detection = sum(r.detected for r in reports) / n
    errors = np.array([r.estimated_error_rate for r in reports])
    key_rates = np.array([r.key_length / r.n_timeslots for r in reports])
    total_checked = sum(r.sifted_or_paired for r in reports)
    total_failures = sum(r.failures for r in reports)
    return AggregateStats(
        sessions=n,
        detection_rate=detection,
        detection_halfwidth=normal_halfwidth(detection, n),
        mean_error_rate=float(errors.mean()),
        error_rate_halfwidth=float(_Z95 * errors.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        mean_key_length=float(np.mean([r.key_length for r in reports])),
        key_rate_per_timeslot=float(key_rates.mean()),
        key_rate_halfwidth=float(_Z95 * key_rates.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        keys_agree_rate=sum(r.keys_agree for r in reports) / n,
        abort_rate=sum(r.aborted for r in reports) / n,
        pair_failure_rate=total_failures / total_checked if total_checked else 0.0,
        total_checked=total_checked,
        total_failures=total_failures,
    )


# --------------------------------------------------------------------------
# Protocol comparison
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProtocolComparison:
    """Side-by-side key-rate and detection table.

    The baseline's key rate appears twice: after the sampled bits are
    sacrificed (what it actually keeps) and before (its sifted potential),
    since the duplex scheme sacrifices nothing beyond its built-in
    two-slots-per-bit reduction.
    """

    rows: tuple[dict, ...]


def csv_table(fields: Sequence[str], rows: Iterable[Mapping]) -> str:
    """Comma-separated table of the ``fields`` of each row, header first.

    Booleans are written ``true``/``false``, floats by ``repr`` and ``None``
    as an empty cell.
    """
    lines = [",".join(fields)]
    lines += [",".join(_csv_cell(row[f]) for f in fields) for row in rows]
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _comparison_row(protocol: str, reports: Sequence[SessionReport]) -> dict:
    n = len(reports)
    mean_slots = sum(r.n_timeslots for r in reports) / n
    mean_key = sum(r.key_length for r in reports) / n
    sacrificed = sum(r.sampled for r in reports) / n
    return {
        "protocol": protocol,
        "sessions": n,
        "mean_timeslots": mean_slots,
        "mean_sifted": sum(r.sifted for r in reports) / n,
        "mean_checked": sum(r.sifted_or_paired for r in reports) / n,
        "mean_key_length": mean_key,
        "key_bits_per_timeslot": mean_key / mean_slots if mean_slots else 0.0,
        "key_bits_per_timeslot_before_sacrifice": (
            (mean_key + sacrificed) / mean_slots if mean_slots else 0.0
        ),
        "bits_sacrificed_per_session": sacrificed,
        "detection_rate": sum(r.detected for r in reports) / n,
        "mean_error_rate": sum(r.estimated_error_rate for r in reports) / n,
        "keys_agree_rate": sum(r.keys_agree for r in reports) / n,
    }


def compare_protocols(
    duplex_reports: Sequence[SessionReport],
    bb84_reports: Sequence[SessionReport],
) -> ProtocolComparison:
    """Tabulate duplex against the baseline; both batches must be non-empty."""
    if not duplex_reports or not bb84_reports:
        raise ValueError("both report batches must be non-empty")
    return ProtocolComparison(
        rows=(
            _comparison_row("duplex", duplex_reports),
            _comparison_row("bb84", bb84_reports),
        )
    )


# --------------------------------------------------------------------------
# Parameter sweeps
# --------------------------------------------------------------------------

# Grid keys understood by run_sweep and how they map onto config fields.
SWEEPABLE = ("intercept_fraction", "flip_probability", "loss_probability", "n_timeslots")


@dataclass(frozen=True)
class SweepResult:
    """One aggregate row per grid cell; every row carries its sample count."""

    protocol: str
    rows: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {"protocol": self.protocol, "rows": list(self.rows)}

    def to_csv(self) -> str:
        return csv_table(list(self.rows[0]), self.rows)


def _apply_cell(
    config: Bb84Config | DuplexConfig, params: Mapping[str, float]
) -> Bb84Config | DuplexConfig:
    channel = config.channel
    if "flip_probability" in params:
        channel = replace(channel, flip_probability=params["flip_probability"])
    if "loss_probability" in params:
        channel = replace(channel, loss_probability=params["loss_probability"])
    eve = config.eve
    if "intercept_fraction" in params:
        eve = replace(eve, intercept_fraction=params["intercept_fraction"])
    updates: dict = {"channel": channel, "eve": eve}
    if "n_timeslots" in params:
        updates["n_timeslots"] = int(params["n_timeslots"])
    return replace(config, **updates)


def sweep_cells(
    config: Bb84Config | DuplexConfig, grid: Mapping[str, Sequence[float]]
) -> list[tuple[dict, Bb84Config | DuplexConfig]]:
    """Each cell of ``grid`` as its ``{name: value}`` and its config, in cell order.

    Names vary in ``SWEEPABLE`` order, the last fastest.  A bad grid, or a
    value its config rejects, raises ``ValueError``.
    """
    if not grid:
        raise ValueError("sweep grid must name at least one parameter")
    for key, values in grid.items():
        if key not in SWEEPABLE:
            raise ValueError(f"cannot sweep {key!r}; choose from {SWEEPABLE}")
        if len(values) == 0:
            raise ValueError(f"sweep grid for {key!r} is empty")
    mesh: list[dict] = [{}]
    for name in (k for k in SWEEPABLE if k in grid):
        mesh = [{**params, name: value} for params in mesh for value in grid[name]]
    return [(params, _apply_cell(config, params)) for params in mesh]


# The aggregate fields of a sweep row, after the cell's grid values.
_SWEEP_FIELDS = (
    "sessions", "detection_rate", "detection_halfwidth", "mean_error_rate",
    "error_rate_halfwidth", "key_rate_per_timeslot", "key_rate_halfwidth", "pair_failure_rate",
)


def run_sweep(
    protocol: str,
    config: Bb84Config | DuplexConfig,
    grid: Mapping[str, Sequence[float]],
    sessions: int,
    master_seed: int,
    workers: int = 1,
) -> SweepResult:
    """Cross a parameter grid and aggregate ``sessions`` runs per cell.

    ``protocol`` must name the protocol of ``config``, as for
    ``run_sessions``.  Every cell's config is built (``sweep_cells``) before
    any session runs.  Cell c runs its sessions with the master seed
    ``derive_seed(master_seed, c)``, so ``run_sessions`` with that master
    seed reproduces any single cell.
    All cells run as one task list, through at most one process pool, and
    each cell is aggregated as soon as its sessions are back.
    """
    _check_protocol(protocol, config)
    cells = sweep_cells(config, grid)
    seeded = [(cell_config, derive_seed(master_seed, c)) for c, (_, cell_config) in enumerate(cells)]
    rows = []
    # The runs lead the zip, so they are drained and the pool is shut down.
    for reports, (params, _) in zip(_run_cells(seeded, sessions, workers), cells):
        stats = aggregate_reports(reports)
        rows.append({**params, **{name: getattr(stats, name) for name in _SWEEP_FIELDS}})
    return SweepResult(protocol, tuple(rows))
