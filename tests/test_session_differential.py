"""The array session and the O(n) search pairing against their references."""

from hypothesis import given, strategies as st

from duplexqkd import (
    ChannelModel,
    DuplexConfig,
    EveStrategy,
    make_pairs_search,
    report_from_duplex,
    run_duplex_session,
)

from _oracles import greedy_pairs_search, reference_duplex_session

_FIELDS = (
    "transcript",
    "eve_records",
    "announced_alice_bases",
    "announced_discard",
    "partition",
    "triples",
    "announced_pairs",
    "unpaired",
    "verification",
    "aborted",
    "detected",
    "key_triples",
    "alice_key",
    "bob_key",
)


@st.composite
def duplex_configs(draw):
    intercept = draw(st.sampled_from([0.0, 0.25, 1.0]))
    policy = draw(st.sampled_from(["abort", "threshold"]))
    return DuplexConfig(
        n_timeslots=draw(st.integers(2, 120)),
        channel=ChannelModel(
            loss_probability=draw(st.sampled_from([0.0, 0.1, 0.5])),
            flip_probability=draw(st.sampled_from([0.0, 0.05, 0.5])),
        ),
        eve=EveStrategy.intercept_resend(intercept) if intercept else EveStrategy.absent(),
        variant=draw(st.sampled_from(["flip_triples", "search_pairs"])),
        failure_policy=policy,
        failure_threshold=draw(st.sampled_from([0.0, 0.1, 0.5])) if policy == "threshold" else 0.0,
        max_pairs=draw(st.one_of(st.none(), st.integers(0, 40))),
        keep_searched_key=draw(st.booleans()),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@given(duplex_configs())
def test_array_session_equals_the_stepwise_reference(config):
    result = run_duplex_session(config)
    expected = reference_duplex_session(config)
    for name in _FIELDS:
        assert getattr(result, name) == expected[name], name


@given(duplex_configs())
def test_session_counts_equal_the_object_form(config):
    result = run_duplex_session(config)
    partition = result.partition
    assert result.n_timeslots == len(result.transcript) == config.n_timeslots
    assert result.sifted == len(partition.set2) + len(partition.set3)
    assert result.checked_pairs == result.verification.checked_pairs == len(result.triples)
    assert result.failure_count == len(result.verification.failures)
    assert result.unpaired_count == len(result.unpaired)
    assert result.key_length == len(result.alice_key) == len(result.key_triples)
    assert result.keys_agree == (result.alice_key == result.bob_key)
    report = report_from_duplex(result)
    assert report.sifted == result.sifted and report.key_length == result.key_length


_view = st.lists(st.integers(0, 1), max_size=40)


def _views(bits2, bits3):
    # Set-2 slots are odd and set-3 slots even, each list in timeslot order.
    return (
        [(2 * i + 1, b) for i, b in enumerate(bits2)],
        [(2 * i + 2, b) for i, b in enumerate(bits3)],
    )


@given(_view, _view)
def test_search_pairing_equals_the_greedy_rescan(bits2, bits3):
    set2_view, set3_view = _views(bits2, bits3)
    pairing = make_pairs_search(set2_view, set3_view)
    expected = greedy_pairs_search(set2_view, set3_view)
    assert (pairing.pairs, pairing.unmatched_set2, pairing.unused_set3) == expected


def test_search_pairing_edge_cases():
    cases = [
        ([], []),
        ([1, 0, 1], []),
        ([], [0, 0, 1]),
        ([1] * 6, [1] * 6),  # all bits equal, equal lengths
        ([0] * 9, [0] * 4),  # all bits equal, set 2 longer
        ([1] * 3, [1] * 8),  # all bits equal, set 3 longer
        ([0] * 5, [1] * 5),  # nothing matches
        ([0, 1, 0, 1, 1, 1, 0], [1, 1, 0]),
    ]
    for bits2, bits3 in cases:
        set2_view, set3_view = _views(bits2, bits3)
        pairing = make_pairs_search(set2_view, set3_view)
        expected = greedy_pairs_search(set2_view, set3_view)
        assert (pairing.pairs, pairing.unmatched_set2, pairing.unused_set3) == expected, (bits2, bits3)
