"""Duplex BB84 simulator: eavesdropper detection without public bit comparison.

The package models the classic single-direction BB84 protocol (module
``bb84``) and a duplex variant in which Alice and Bob interleave
transmissions towards each other and check every surviving timeslot by
publishing parity-linked slot pairs instead of sacrificing a random bit
sample (module ``duplex``).  Supporting modules supply the bases and the
channel parameters (``quantum``), the intercept-resend adversary's
configuration (``adversary``), the numpy transmission kernel that applies
the measurement rules for both protocols (``transmission``), Monte Carlo
aggregation and leakage accounting (``stats``), and a command-line driver
(``cli``).
"""

from .quantum import Basis, ChannelModel
from .adversary import BasisPolicy, EveRecord, EveStrategy
from .bb84 import Bb84Config, run_bb84, sift
from .duplex import (
    Direction,
    DuplexConfig,
    SetPartition,
    SlotRecord,
    Transcript,
    TranscriptFormatError,
    Triple,
    announce_bases,
    bob_pairing_views,
    extract_key,
    filter_sets,
    format_transcript,
    make_pairs_search,
    make_triples_flip,
    parse_transcript,
    partition_from_discard,
    party_bit_map,
    read_transcript,
    run_duplex_session,
    run_duplex_transmission,
    triple_from_announcement,
    verify_triples,
    write_transcript,
)
from .stats import (
    aggregate_reports,
    compare_protocols,
    eve_information,
    flip_key_mutual_information,
    pair_error_probability,
    report_from_bb84,
    report_from_duplex,
    run_sessions,
    run_sweep,
    slot_error_probability,
    undetected_probability,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "ChannelModel",
    "BasisPolicy",
    "EveRecord",
    "EveStrategy",
    "Bb84Config",
    "run_bb84",
    "sift",
    "Direction",
    "DuplexConfig",
    "SetPartition",
    "SlotRecord",
    "Transcript",
    "TranscriptFormatError",
    "Triple",
    "announce_bases",
    "bob_pairing_views",
    "extract_key",
    "filter_sets",
    "format_transcript",
    "make_pairs_search",
    "make_triples_flip",
    "parse_transcript",
    "partition_from_discard",
    "party_bit_map",
    "read_transcript",
    "run_duplex_session",
    "run_duplex_transmission",
    "triple_from_announcement",
    "verify_triples",
    "write_transcript",
    "aggregate_reports",
    "compare_protocols",
    "eve_information",
    "flip_key_mutual_information",
    "pair_error_probability",
    "report_from_bb84",
    "report_from_duplex",
    "run_sessions",
    "run_sweep",
    "slot_error_probability",
    "undetected_probability",
]
