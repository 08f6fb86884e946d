import copy
import re

import pytest
from hypothesis import given, strategies as st

from guessability import cli, oracle
from guessability.oracle import (
    FinitePrefix,
    QueryBeyondLimit,
    SequenceOracle,
    SequenceSpecError,
    from_spec,
    prefix_spec,
    zero_pad,
)

entry_lists = st.lists(st.integers(0, 40), max_size=12)


def test_query_identity_rule():
    assert from_spec("id").query(2) == 2


def test_query_constant_rule():
    assert from_spec("const:7").query(10) == 7


def test_query_zero_padded_prefix():
    assert zero_pad(FinitePrefix((3, 0, 2))).query(5) == 0


def test_zero_pad_agrees_then_zero():
    o = zero_pad(FinitePrefix((3, 0, 2)))
    assert [o.query(i) for i in range(6)] == [3, 0, 2, 0, 0, 0]


def test_zero_pad_empty_prefix_is_all_zeros():
    o = zero_pad(FinitePrefix(()))
    assert [o.query(i) for i in range(4)] == [0, 0, 0, 0]


def test_zero_pad_single_entry():
    o = zero_pad(FinitePrefix((5,)))
    assert o.query(0) == 5
    assert o.query(1) == 0


def test_prefix_of_identity():
    source = from_spec("id")
    assert FinitePrefix(source.query(i) for i in range(4)) == FinitePrefix((0, 1, 2, 3))


def test_prefix_of_constant():
    source = from_spec("const:7")
    assert FinitePrefix(source.query(i) for i in range(1)) == FinitePrefix((7,))


def test_prefix_of_zero_padded():
    source = zero_pad(FinitePrefix((3, 0, 2)))
    assert FinitePrefix(source.query(i) for i in range(5)) == FinitePrefix((3, 0, 2, 0, 0))


@given(entry_lists)
def test_zero_pad_round_trips_through_prefix_of(entries):
    prefix = FinitePrefix(tuple(entries))
    if len(prefix) == 0:
        return
    source = zero_pad(prefix)
    assert FinitePrefix(source.query(i) for i in range(len(prefix))) == prefix


@given(entry_lists, st.integers(0, 50))
def test_repeated_queries_agree(entries, index):
    o = zero_pad(FinitePrefix(tuple(entries)))
    assert o.query(index) == o.query(index)


def test_a_trace_reads_each_index_once_into_its_prefix():
    """The oracle keeps no values, so the prefix is what keeps a trace consistent: even a
    rule that answers differently on each call is called once per index, and the guesser
    sees exactly those answers in call order."""
    calls = []

    def shifty(i):
        calls.append(i)
        return len(calls)

    seen = []

    def guesser(prefix):
        seen.append(prefix.entries)
        return 0

    source = SequenceOracle(shifty)
    cli.trace_guesser(guesser, source, 4)
    assert calls == [0, 1, 2, 3]
    assert seen == [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)]
    assert source.query(3) == 5


def test_negative_values_rejected():
    with pytest.raises(ValueError):
        FinitePrefix((1, -2))
    with pytest.raises(ValueError):
        FinitePrefix((1,)).extended(-1)
    o = SequenceOracle(lambda i: -1)
    with pytest.raises(ValueError):
        o.query(0)
    with pytest.raises(ValueError):
        from_spec("id").query(-1)


def test_prefix_indexing():
    p = FinitePrefix((4, 5, 6))
    assert len(p) == 3
    assert p[1] == 5
    assert list(p) == [4, 5, 6]
    assert p.last_index == 2
    assert p.extended(9) == FinitePrefix((4, 5, 6, 9))
    assert hash(p.extended(9)) == hash(FinitePrefix((4, 5, 6, 9)))
    assert p == FinitePrefix((4, 5, 6))


def test_a_prefix_equals_no_tuple():
    assert (FinitePrefix((1,)) == (1,)) is False
    assert FinitePrefix((1,)) != (1,) and (1,) != FinitePrefix((1,))


def test_an_oracle_repr_names_its_description():
    assert repr(from_spec("const:7")) == "SequenceOracle(const:7)"
    assert repr(SequenceOracle(abs)) == "SequenceOracle(oracle)"


def test_from_spec_plantzero():
    o = from_spec("plantzero:5")
    assert [o.query(i) for i in range(7)] == [1, 1, 1, 1, 1, 0, 1]


def test_from_spec_cycle():
    o = from_spec("cycle:[3,1]")
    assert [o.query(i) for i in range(5)] == [3, 1, 3, 1, 3]


def test_from_spec_prefix_empty():
    assert from_spec("prefix:[]:pad0").query(0) == 0


def test_prefix_spec_round_trip():
    p = FinitePrefix((3, 0, 2))
    assert prefix_spec(p) == "prefix:[3,0,2]:pad0"
    source = from_spec(prefix_spec(p))
    assert FinitePrefix(source.query(i) for i in range(3)) == p
    assert from_spec(prefix_spec(p)).describe == "prefix:[3,0,2]:pad0"


@pytest.mark.parametrize("bad", ["", "idd", "const:", "cycle:[]", "prefix:[1,]:pad0",
                                 "prefix:[1 ,2]:pad0", "plantzero:x"])
def test_from_spec_rejects_malformed(bad):
    with pytest.raises(SequenceSpecError):
        from_spec(bad)


SLICES = [slice(None), slice(1, None), slice(None, -1), slice(-3, None), slice(None, None, 2),
          slice(None, None, -1), slice(-2, 0, -1), slice(5, 1, -2), slice(2, 100), slice(7, 3)]


def assert_matches(view, entries):
    plain = FinitePrefix(entries)
    assert view == plain and plain == view
    assert hash(view) == hash(plain)
    assert len(view) == len(entries)
    assert view.last_index == len(entries) - 1
    for i in range(-len(entries), len(entries)):
        assert view[i] == entries[i]
    for i in (len(entries), -len(entries) - 1):
        with pytest.raises(IndexError):
            view[i]
    for s in SLICES:
        assert view[s] == entries[s]
    assert list(view) == list(entries)
    assert view.entries == entries
    assert prefix_spec(view) == prefix_spec(plain)
    assert all((v in view) == (v in entries) for v in range(4))


@given(st.lists(st.integers(0, 3), max_size=4),
       st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 3)), max_size=25))
def test_views_match_tuple_built_prefixes(start, steps):
    """Extending old and new views in any order, forks included, equals building from tuples."""
    views, expected = [FinitePrefix(tuple(start))], [tuple(start)]
    for pick, value in steps:
        k = pick % len(views)
        views.append(views[k].extended(value))
        expected.append(expected[k] + (value,))
        with pytest.raises(ValueError, match=re.escape(f"naturals: {expected[k] + (-1,)}")):
            views[k].extended(-1)
        # every earlier view is unchanged by the growth after it
        for view, entries in zip(views, expected):
            assert_matches(view, entries)
    # past is the tail after any prefix that this one is or extends, the empty one included,
    # whether that prefix views this list, a fork of it, or a list of its own
    for longer, entries in zip(views, expected):
        for shorter, shorter_entries in zip(views, expected):
            tail = list(entries[len(shorter_entries):])
            if entries[:len(shorter_entries)] != shorter_entries:
                tail = None
            assert longer.past(shorter) == longer.past(FinitePrefix(shorter_entries)) == tail
        assert longer.past(FinitePrefix()) == list(entries)


@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 3)), max_size=25))
def test_past_is_the_tail_after_a_view_it_extends(steps):
    views, expected = [FinitePrefix()], [()]
    for pick, value in steps:
        k = pick % len(views)
        views.append(views[k].extended(value))
        expected.append(expected[k] + (value,))
    for longer, entries in zip(views, expected):
        for shorter, shorter_entries in zip(views, expected):
            tail = longer.past(shorter)
            if tail is not None:
                assert entries[:len(shorter_entries)] == shorter_entries
                assert tail == list(entries[len(shorter_entries):])


def test_past_is_none_for_a_longer_or_different_prefix():
    chain = [FinitePrefix((0,))]
    for value in range(1, 5):
        chain.append(chain[-1].extended(value))
    assert all(chain[j].past(chain[i]) == list(range(i + 1, j + 1))
               for j in range(5) for i in range(j + 1))
    assert chain[1].past(chain[3]) is None
    assert chain[3].past(FinitePrefix((0, 1))) == [2, 3]
    assert chain[3].past(FinitePrefix((0, 2))) is None
    assert chain[3].past(FinitePrefix((0, 1, 2, 3, 4))) is None


def test_past_compares_entries_only_of_another_list(monkeypatch):
    chain = [FinitePrefix((0,))]
    for value in range(1, 5):
        chain.append(chain[-1].extended(value))

    def walked(_):
        raise AssertionError("compared entry by entry")

    monkeypatch.setattr(oracle, "all", walked, raising=False)
    assert chain[4].past(chain[1]) == [2, 3, 4]
    with pytest.raises(AssertionError, match="entry by entry"):
        chain[4].past(FinitePrefix((0, 1)))


def test_equal_views_of_one_list_are_equal_without_a_walk(monkeypatch):
    chain = [FinitePrefix((0,))]
    for value in range(1, 5):
        chain.append(chain[-1].extended(value))
    other = FinitePrefix(chain[3])  # the same entries in another list

    def walked(_):
        raise AssertionError("compared entry by entry")

    monkeypatch.setattr(oracle, "all", walked, raising=False)
    for view in chain:
        assert view == view and view == copy.copy(view) and not view != copy.copy(view)
        assert view != chain[0] or view is chain[0]  # another length decides without a walk
    with pytest.raises(AssertionError, match="entry by entry"):
        assert chain[3] == other
    monkeypatch.undo()
    assert chain[3] == other and chain[3] != FinitePrefix((0, 1, 2, 4))


def test_query_beyond_limit_names_the_index_and_the_limit():
    with pytest.raises(QueryBeyondLimit, match=r"^query at index 7 exceeds limit 3$"):
        FinitePrefix((0, 1, 2, 3)).read(7)


def test_read_checks_bounds_of_its_view():
    short = FinitePrefix((4, 5))
    short.extended(6)
    read = short.read
    assert (read(0), read(1)) == (4, 5)
    with pytest.raises(QueryBeyondLimit) as err:
        read(2)
    assert (err.value.index, err.value.limit) == (2, 1)
    with pytest.raises(ValueError, match="oracle index must be a natural"):
        read(-1)
