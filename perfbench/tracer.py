"""Per-layer spans recorded from the benchmark's side of the program's API.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``duplexqkd`` module namespace that binds it.  Module globals are
looked up at call time, so calls the program makes between its own modules
go through the wrappers too; ``uninstall`` puts the originals back.  The
program's files are never edited.

A span records its name, its parent span, its start and end, and its self
time (duration minus the time of the spans it caused).  Counts are taken at
the same boundaries from the arguments and results, outside any span, and
the time they take is charged to no layer.  ``quantum`` and ``adversary``
run once per slot inside the transmission loop, where a wrapper would cost
more than the work, so they are counted (lost photons, interceptions) and
their time is part of ``duplex.run_duplex_transmission``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function) -> layer group.  Private ``cli`` helpers are traced
# because ``main`` is the only public name of that module.
TRACED = {
    ("rng", "derive_seed"): "rng",
    ("rng", "seeded_rng"): "rng",
    ("duplex", "run_duplex_session"): "duplex.session_self",
    ("duplex", "run_duplex_transmission"): "duplex.transmit",
    ("duplex", "announce_bases"): "duplex.views",
    ("duplex", "party_bit_map"): "duplex.views",
    ("duplex", "bob_pairing_views"): "duplex.views",
    ("duplex", "filter_sets"): "duplex.filter",
    ("duplex", "make_triples_flip"): "duplex.pair_flip",
    ("duplex", "make_pairs_search"): "duplex.pair_search",
    ("duplex", "triple_from_announcement"): "duplex.verify",
    ("duplex", "verify_triples"): "duplex.verify",
    ("duplex", "extract_key"): "duplex.extract",
    ("duplex", "read_transcript"): "duplex.parse",
    ("duplex", "parse_transcript"): "duplex.parse",
    ("bb84", "run_bb84"): "bb84.session",
    ("bb84", "sift"): "bb84.session",
    ("stats", "run_sweep"): "stats.dispatch",
    ("stats", "run_sessions"): "stats.dispatch",
    ("stats", "aggregate_reports"): "stats.aggregate",
    ("stats", "report_from_duplex"): "stats.report",
    ("stats", "report_from_bb84"): "stats.report",
    ("cli", "main"): "cli.overhead",
    ("cli", "_write_reports"): "cli.write",
    ("cli", "_sessions_csv"): "cli.write",
    ("cli", "_json_bytes"): "cli.write",
}


def _count_transmission(counts, args, kwargs, transcript):
    counts["slots_transmitted"] += len(transcript)
    counts["lost"] += sum(1 for r in transcript if r.receiver_bit is None)
    counts["intercepts"] += len(kwargs.get("eve_sink") or ())


def _count_partition(counts, args, kwargs, partition):
    counts["discard"] += len(partition.discard)
    counts["set2"] += len(partition.set2)
    counts["set3"] += len(partition.set3)


def _count_flip(counts, args, kwargs, pairing):
    counts["unpaired"] += len(pairing.unpaired)


def _count_search(counts, args, kwargs, pairing):
    counts["search_pairs"] += len(pairing.pairs)
    counts["unpaired"] += len(pairing.unmatched_set2) + len(pairing.unused_set3)


def _count_verify(counts, args, kwargs, verification):
    counts["pairs_checked"] += verification.checked_pairs
    counts["pairs_failed"] += len(verification.failures)


def _count_key(counts, args, kwargs, key):
    counts["key_bits_both_parties"] += len(key)


def _count_parse(counts, args, kwargs, transcript):
    counts["slots_parsed"] += len(transcript)


def _count_bb84(counts, args, kwargs, outcome):
    counts["bb84_sessions"] += 1
    counts["bb84_slots"] += args[0].n_timeslots
    counts["bb84_sifted"] += len(outcome.sifted_records)
    counts["bb84_sampled"] += len(outcome.sampled_timeslots)
    counts["bb84_key_bits"] += len(outcome.key_bits_alice)


def _count_session(counts, args, kwargs, result):
    counts["duplex_sessions"] += 1


COUNTERS = {
    "run_duplex_transmission": _count_transmission,
    "filter_sets": _count_partition,
    "make_triples_flip": _count_flip,
    "make_pairs_search": _count_search,
    "verify_triples": _count_verify,
    "extract_key": _count_key,
    "parse_transcript": _count_parse,
    "run_bb84": _count_bb84,
    "run_duplex_session": _count_session,
}


class Tracer:
    """Spans and counts for one traced phase of a benchmark run."""

    def __init__(self):
        # (name, parent index or -1, start, end, self seconds)
        self.spans: list[tuple[str, int, float, float, float] | None] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end, end - start - frame[1])
            if counter is not None:
                counter(counts, args, kwargs, result)
            if stack:
                # The parent's self time excludes this span and its counting.
                stack[-1][1] += clock() - start
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "duplexqkd" or n.startswith("duplexqkd.")]
        for (module_name, name) in TRACED:
            # A function the program no longer has is skipped; its layer reads 0.
            original = getattr(sys.modules.get(f"duplexqkd.{module_name}"), name, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_time(self) -> dict[str, float]:
        """Self seconds summed per layer group."""
        groups = {name: group for (_, name), group in TRACED.items()}
        totals: defaultdict[str, float] = defaultdict(float)
        for span in self.spans:
            if span is not None:
                totals[groups[span[0]]] += span[4]
        return totals

    def durations(self, name: str, parent: str) -> list[float]:
        """Durations of the spans called ``name`` that ``parent`` caused."""
        return [
            end - start
            for (n, p, start, end, _) in filter(None, self.spans)
            if n == name and p >= 0 and self.spans[p][0] == parent
        ]


def stepwise_session(config):
    """One duplex session composed step by step from the public functions.

    It looks every function up on its module at call time, so with a tracer
    installed each step is a traced call.  The traced run compares its
    result with ``run_duplex_session`` for a sample of seeds.
    """
    from duplexqkd import duplex, rng

    sink: list = []
    transcript = duplex.run_duplex_transmission(
        config.n_timeslots, config.channel, config.eve, rng.seeded_rng(config.seed),
        interleaving=config.interleaving, eve_sink=sink,
    )
    partition = duplex.filter_sets(
        transcript, duplex.announce_bases(transcript, "alice"), duplex.announce_bases(transcript, "bob")
    )
    set2_view, set3_view = duplex.bob_pairing_views(transcript, partition)
    if config.variant == "flip_triples":
        triples = duplex.make_triples_flip(set2_view, set3_view).triples
    else:
        triples = duplex.make_pairs_search(set2_view, set3_view).as_triples()
    if config.max_pairs is not None:
        triples = triples[: config.max_pairs]
    directions = transcript.directions()
    alice_triples = [duplex.triple_from_announcement(t.announced(), directions) for t in triples]
    alice_bits = duplex.party_bit_map(transcript, "alice")
    verification = duplex.verify_triples(alice_bits, alice_triples)
    if config.failure_policy == "abort":
        aborted = not verification.passed
    else:
        checked = verification.checked_pairs
        aborted = (len(verification.failures) / checked if checked else 0.0) > config.failure_threshold
    keyed = config.variant == "flip_triples" or config.keep_searched_key
    failed = set(verification.failures)
    key_triples = [] if aborted or not keyed else [t for t in alice_triples if t not in failed]
    return (
        verification,
        partition,
        duplex.extract_key(key_triples, alice_bits),
        duplex.extract_key(key_triples, duplex.party_bit_map(transcript, "bob")),
    )
