"""The columnar transcript parser and the array replay against their references.

``reference_parse_transcript`` parses the grammar one row at a time into
records and ``reference_replay_payload`` composes the replay report from the
dict/tuple step functions; the shipped parser and replay must agree with
them byte for byte, errors included.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from duplexqkd import (
    Basis,
    ChannelModel,
    Direction,
    DuplexConfig,
    EveStrategy,
    SlotRecord,
    Transcript,
    TranscriptFormatError,
    format_transcript,
    parse_transcript,
    run_duplex_session,
    run_duplex_transmission,
)
from duplexqkd import duplex
from duplexqkd.cli import _json_bytes, _replay_payload
from duplexqkd.duplex import classical_phase
from duplexqkd.rng import seeded_rng

from _oracles import (
    reference_format_transcript,
    reference_parse_transcript,
    reference_replay_payload,
)

VARIANTS = ("flip_triples", "search_pairs")
# Every line break str.splitlines knows in ASCII.  The byte coder reads the
# PLAIN_BREAKS (LF and CRLF) and hands a block with any other to the str
# coder, as it does a block with an FS-US separator (the last SEPARATORS).
LINE_BREAKS = ("\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")
PLAIN_BREAKS = LINE_BREAKS[:4]
UNICODE_BREAK = "\u2028"
FILLER_LINES = ("", "   ", "\t", "# comment", "  # indented comment", "#", "#1#x")
SEPARATORS = (" ", " ", " ", "\t", "  ", "\x1f")
PLAIN_SEPARATORS = SEPARATORS[:5]
HUGE = 2**64  # beyond int64: the timeslot column falls back to Python ints
INT64_EDGE = 2**63  # 19 digits: the largest int64 is one below it

# (valid tokens, bad tokens) per column after the timeslot.
TOKENS = (
    (("A>B", "B>A"), ("a>b", "A<B", "AB", "X", "0")),
    (("X", "Y"), ("x", "Z", "0", "XY")),
    (("0", "1"), ("2", "01", "LOST", "X")),
    (("X", "Y"), ("y", "1", "LOST")),
    (("0", "1", "LOST"), ("lost", "2", "None", "-1")),
)
BAD_TIMESLOTS = ("0", "-3", "1.5", "x", "1__0", "_1", "0x1", "")


def _timeslot_token(draw, t: int, spellings: tuple[str, ...]) -> str:
    spelling = draw(st.sampled_from(spellings))
    if spelling == "plus":
        return f"+{t}"
    if spelling == "zeros":
        return f"00{t}"
    if spelling == "many_zeros":  # more than 18 digits, any value
        return "0" * draw(st.integers(19, 21)) + str(t)
    if spelling == "fullwidth":  # non-ASCII digits, which int reads
        return "".join(chr(ord(c) - ord("0") + ord("\uff10")) for c in str(t))
    if spelling == "underscore" and t >= 10:
        digits = str(t)
        return f"{digits[0]}_{digits[1:]}"
    return str(t)


@st.composite
def transcript_texts(draw):
    """Texts from the row grammar, then mutated.

    Every rare choice is the largest value of its draw, so shrinking (which
    lowers values) removes mutations instead of adding them.

    Mutations: comment and blank lines, trailing comments, unsorted/gapped/
    duplicate timeslots, timeslots past int64 or of 19 digits around 2**63,
    leading-zero spellings, and, in a third of the texts, rows with 5 or 7
    columns, a bad token or a comment right after a token (``1#x``).  Half
    the texts also draw what only the str coder reads: every line break
    ``str.splitlines`` knows in ASCII, FS-US separators, a CR inside a row,
    and ``+``, underscore and more-than-18-digit timeslot spellings.  A
    quarter of those are non-ASCII, with U+2028 breaks and fullwidth digits.
    """
    n = draw(st.integers(0, 14))
    pool = st.integers(1, 40)
    if draw(st.booleans()):  # timeslots of 19 digits or more in half the texts
        pool |= st.integers(HUGE, HUGE + 3) | st.integers(INT64_EDGE - 3, INT64_EDGE + 2)
    unique = draw(st.sampled_from((True, True, True, False)))
    spellings, breaks, separators = ("plain",) * 5 + ("zeros",), PLAIN_BREAKS, PLAIN_SEPARATORS
    odd = draw(st.booleans())
    if odd:
        spellings += ("plus", "underscore", "many_zeros")
        breaks, separators = LINE_BREAKS, SEPARATORS
        if draw(st.sampled_from((False, False, False, True))):
            spellings += ("fullwidth",)
            breaks += (UNICODE_BREAK,)
    timeslots = draw(st.lists(pool, min_size=n, max_size=n, unique=unique))
    if draw(st.booleans()):
        timeslots.sort()
    corrupt = draw(st.sampled_from((False, False, True)))

    def flaw() -> bool:
        return corrupt and draw(st.integers(0, 11)) == 11

    lines = []
    for t in timeslots:
        while draw(st.integers(0, 5)) == 5:
            lines.append(draw(st.sampled_from(FILLER_LINES)))
        fields = [draw(st.sampled_from(BAD_TIMESLOTS)) if flaw() else _timeslot_token(draw, t, spellings)]
        for valid, bad in TOKENS:
            fields.append(draw(st.sampled_from(bad if flaw() else valid)))
        if flaw():
            fields = fields[:5] if draw(st.booleans()) else fields + ["1"]
        sep = draw(st.sampled_from(separators))
        line = sep.join(fields)
        if flaw():  # a comment right after a token hides the rest of the row
            cut = draw(st.integers(1, 6))
            line = sep.join(fields[:cut]) + "#x" + sep + sep.join(fields[cut:])
        if odd and draw(st.integers(0, 11)) == 11:  # a CR inside the row
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + "\r" + line[cut:]
        if draw(st.integers(0, 5)) == 5:
            line = " " + line + draw(st.sampled_from(("", " ", " # note", "#x")))
        lines.append(line)
    text = "".join(line + draw(st.sampled_from(breaks)) for line in lines)
    if text and draw(st.booleans()):
        text = text[:-1]  # drop the last line break (or split a \r\n)
    return text


def _outcome(parse, text):
    try:
        return parse(text), None
    except TranscriptFormatError as exc:
        return None, (exc.line_number, str(exc))


# No shrink phase: a failing text has at most ~14 rows and reads as it is,
# while shrinking this many dependent draws takes minutes.
@settings(max_examples=300, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(transcript_texts())
def test_parser_and_replay_match_the_references(text):
    expected, expected_error = _outcome(reference_parse_transcript, text)
    # Three-line blocks put block edges among the rows of every text.
    with mock.patch.object(duplex, "_BLOCK_LINES", 3):
        assert _outcome(parse_transcript, text) == (expected, expected_error)
    got, error = _outcome(parse_transcript, text)
    assert error == expected_error
    if expected is None:
        return
    assert got == expected
    assert got.slots == expected.slots
    for variant in VARIANTS:
        assert _json_bytes(_replay_payload(got, variant)) == _json_bytes(
            reference_replay_payload(expected, variant)
        )


def test_long_shuffled_transcript_spans_several_blocks():
    transcript = run_duplex_transmission(
        9000, ChannelModel(loss_probability=0.1), EveStrategy.absent(), seeded_rng(3)
    )
    header, *rows = format_transcript(transcript).splitlines()
    random.Random(5).shuffle(rows)
    text = "\n".join([header, *rows]) + "\n"
    parsed = parse_transcript(text)
    assert parsed == reference_parse_transcript(text) == Transcript(transcript.slots, "file")
    for variant in VARIANTS:
        assert _replay_payload(parsed, variant) == reference_replay_payload(parsed, variant)
    # A repeat far from its original, then a bad row after it: the repeat wins.
    text += "# tail\n" + rows[0] + "\n1 A>B X 1 X nope\n"
    with pytest.raises(TranscriptFormatError) as exc:
        parse_transcript(text)
    assert exc.value.line_number == len(rows) + 3
    assert str(exc.value) == str(_outcome(reference_parse_transcript, text)[1][1])


def test_plain_transcripts_are_coded_without_splitting_lines():
    transcript = run_duplex_transmission(
        9000, ChannelModel(loss_probability=0.1), EveStrategy.absent(), seeded_rng(4)
    )
    header, *rows = format_transcript(transcript).splitlines()
    texts = (
        "\n".join([header, *rows]) + "\n",
        "\r\n".join([header, *(row.replace(" ", "\t") + " # c" for row in rows)]),
    )
    with mock.patch.object(duplex, "_split_lines", side_effect=AssertionError("split")):
        for text in texts:
            assert parse_transcript(text) == Transcript(transcript.slots, "file")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("1 A>B X 1 X 1\n\n# c\n2 B>A X 1 X\n", 4, "expected 6 columns, got 5"),
        ("1 A>B X 1 X 1\r\n2 B>A X 1 X 1 1\n", 2, "expected 6 columns, got 7"),
        ("1 A>B X 1 X 1\x0b1_0 B>A x 2 X 1\n", 2, "bad basis in 'x'/'X'"),
        ("3 A>B X 1 X 1\r0 B>A X 1 X 1\r", 2, "timeslot must be positive, got 0"),
        ("3 A>B X 1 X 1\x0c+3 B>A X 1 X 1\n", 2, "duplicate timeslot 3"),
        ("1 A>B X 1 X 1\n1 B>A X 1 X nope\n", 2, "bad receiver bit 'nope'"),
        ("1 A>B X 1 X nope\n1 B>A X 1 X 1\n", 1, "bad receiver bit 'nope'"),
        ("2 A>B X 1 X 1\n1 B>A X 2 X 1 1\n", 2, "expected 6 columns, got 7"),
        ("1 A>B X LOST X 1\n", 1, "bad sender bit 'LOST'"),
        ("1 A>B X 1 X x\n", 1, "bad receiver bit 'x'"),
        ("1 A>B X 1 X 1\n2 B>A X 1 X 1\n-0 B>A X 1 X 1\n", 3, "timeslot must be positive, got 0"),
    ],
)
def test_the_first_bad_row_wins(text, line, message):
    with pytest.raises(TranscriptFormatError) as exc:
        parse_transcript(text)
    assert (exc.value.line_number, str(exc.value)) == (line, f"line {line}: {message}")
    with pytest.raises(TranscriptFormatError) as ref:
        reference_parse_transcript(text)
    assert str(ref.value) == str(exc.value)


# Near misses of each token the byte coder reads, by column.
NEAR_MISSES = (
    ("0", "00", "0" * 18, "-1", "1a", "a1", "1/", ":1", "+1", "1_0", "9" * 18, "0" * 18 + "7",
     str(2**63 - 1), str(2**63), "9" * 19, "9" * 20, str(2**64 + 5)),
    ("A>A", "B>B", "A-B", "AAB", "A>", "A>BB", ">AB", "C>A", "@>B", "A=B", "B?A"),
    ("W", "Z", "XX", "x", "X0"),
    ("2", "/", "00", ":", "1X"),
    ("W", "[", "YY", "y"),
    ("LOSS", "LOS", "LOSTT", "lOST", "KOST", "LOST0", "/", ":", "10"),
)
ROW = ["2", "B>A", "Y", "0", "X", "1"]


def _byte_edge_texts():
    for column, misses in enumerate(NEAR_MISSES):
        for miss in misses:
            yield "1 A>B X 1 X 1\n" + " ".join(ROW[:column] + [miss] + ROW[column + 1 :]) + "\n"
    yield from (
        "1 A>B X 1 X\n1 2 B>A X 1 X 1\n",  # 5 then 7 tokens: 6 and 6 across lines
        "1 A>B X 1 X 1 2 B>A X 1 X 1\n",  # 12 tokens on one line
        "1 A>B X 1 X 1#c#d\n2 B>A X 1 X 1\n",  # two '#' on a line
        "# a # b\n1 A>B X 1 X 1\n#\n\n2 B>A X 1 X 1 #\n",
        "1 A>B X 1 X 1\x00\n",
        "1 A>B X 1 X 1\x7f\n",
        "1 A>B X 1 X 1\r\r\n2 B>A X 1 X 1\n",
        "# a\r2 A>B X 1 X 1\n",
        "# a\x0b2 A>B X 1 X 1\n",
        "# a\x1e2 A>B X 1 X 1\n",
        "# a\x1f2 A>B X 1 X 1\n",
        "1\x1fA>B X 1 X 1\n",
        "1 A>B X 1 X 1",
        "1 A>B X 1 X 1\r",
        "1 A>B X 1 X 1\r\n\r\n",
    )


@pytest.mark.parametrize("block_lines", [1, 4096])
def test_byte_coder_edges_match_the_reference(block_lines):
    with mock.patch.object(duplex, "_BLOCK_LINES", block_lines):
        for text in _byte_edge_texts():
            assert _outcome(parse_transcript, text) == _outcome(reference_parse_transcript, text), text


@given(st.data())
def test_records_round_trip_through_the_format(data):
    timeslots = sorted(data.draw(st.sets(st.integers(1, 10**6), max_size=20)))
    records = tuple(
        SlotRecord(
            t,
            data.draw(st.sampled_from(Direction)),
            data.draw(st.sampled_from(Basis)),
            data.draw(st.integers(0, 1)),
            data.draw(st.sampled_from(Basis)),
            data.draw(st.sampled_from((0, 1, None))),
        )
        for t in timeslots
    )
    transcript = Transcript(records, "file")
    parsed = parse_transcript(format_transcript(transcript))
    assert parsed == transcript
    assert parsed.slots == records
    assert parsed.timeslots() == tuple(timeslots)
    assert parsed.directions() == {r.timeslot: r.direction for r in records}
    assert list(parsed) == list(records) and len(parsed) == len(records)


@given(st.data())
def test_format_matches_the_record_loop(data):
    # Timeslots in any order, some past int64 (an object column).
    pool = st.integers(1, 10**6) | st.integers(2**63 - 2, 2**70)
    timeslots = data.draw(st.lists(pool, unique=True, max_size=20))
    records = tuple(
        SlotRecord(
            t,
            data.draw(st.sampled_from(Direction)),
            data.draw(st.sampled_from(Basis)),
            data.draw(st.integers(0, 1)),
            data.draw(st.sampled_from(Basis)),
            data.draw(st.sampled_from((0, 1, None))),
        )
        for t in timeslots
    )
    transcript = Transcript(records, "file")
    text = format_transcript(transcript)
    assert text.encode("ascii") == reference_format_transcript(transcript).encode("ascii")
    parsed = parse_transcript(text)
    assert format_transcript(parsed) == reference_format_transcript(parsed)


def test_transcript_equality_compares_records_and_interleaving(example_transcript):
    same = Transcript(example_transcript.slots, "file")
    assert same == example_transcript
    assert Transcript(example_transcript.slots, "odd_alice") != example_transcript
    assert Transcript(example_transcript.slots[:-1], "file") != example_transcript
    assert Transcript(tuple(reversed(example_transcript.slots)), "file") != example_transcript


def test_records_with_a_repeated_timeslot_are_rejected(example_transcript):
    with pytest.raises(ValueError, match="duplicate timeslot 1"):
        Transcript(example_transcript.slots + example_transcript.slots[:1])


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sessions_and_replay_share_one_classical_phase(variant, seed):
    config = DuplexConfig(
        n_timeslots=300, variant=variant, seed=seed,
        channel=ChannelModel(loss_probability=0.1, flip_probability=0.02),
        eve=EveStrategy.intercept_resend(0.3),
        failure_policy="threshold", failure_threshold=0.2,
    )
    session = run_duplex_session(config)
    phase = classical_phase(
        parse_transcript(format_transcript(session.transcript)), variant,
        failure_policy="threshold", failure_threshold=0.2,
    )
    assert phase.counts.aborted == session.aborted
    assert (np.flatnonzero(phase.discard) + 1).tolist() == sorted(session.partition.discard)
    assert (phase.t2 + 1).tolist() == [t.t_set2 for t in session.triples]
    assert (phase.t3 + 1).tolist() == [t.t_set3 for t in session.triples]
    assert phase.alice_key.tolist() == session.alice_key
    assert phase.bob_key.tolist() == session.bob_key
