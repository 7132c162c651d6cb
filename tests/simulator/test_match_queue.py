"""Direct tests of the engine's message-matching queue.

``_MatchQueue`` stores pending sends, posted receives, parked eager
arrivals and unclaimed transfers under their ``(src, dst, tag)`` channel,
every bucket a FIFO in insertion order.  The engine relies on
``pop_best`` returning exactly what the historical linear scan over one
posted-order list returned: the oldest stored item that matches, with
``ANY_SOURCE`` allowed on either side.  ``ScanQueue`` below is that scan.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.simulator.engine import _MatchQueue
from repro.simulator.events import ANY_SOURCE


class ScanQueue:
    """The historical matching: one list in posted order, scanned per query."""

    def __init__(self) -> None:
        self.items = []  # (token, src, dst, tag, item)
        self.next_token = 0

    def add(self, src, dst, tag, item):
        token = self.next_token
        self.next_token += 1
        self.items.append((token, src, dst, tag, item))
        return token

    def pop_best(self, src, dst, tag):
        for index, (_, stored_src, stored_dst, stored_tag, item) in enumerate(self.items):
            if stored_dst != dst or stored_tag != tag:
                continue
            if src == ANY_SOURCE or stored_src == ANY_SOURCE or stored_src == src:
                del self.items[index]
                return item
        return None

    def discard(self, token):
        for index, entry in enumerate(self.items):
            if entry[0] == token:
                del self.items[index]
                return entry[4]
        return None


class TestMatchQueue:
    def test_fifo_within_a_channel(self):
        queue = _MatchQueue()
        for item in ("a", "b", "c"):
            queue.add(0, 1, 7, item)
        assert [queue.pop_best(0, 1, 7) for _ in range(3)] == ["a", "b", "c"]
        assert queue.pop_best(0, 1, 7) is None
        assert len(queue) == 0

    def test_other_channels_do_not_match(self):
        queue = _MatchQueue()
        queue.add(0, 1, 7, "x")
        assert queue.pop_best(0, 1, 8) is None  # another tag
        assert queue.pop_best(2, 1, 7) is None  # another source
        assert queue.pop_best(0, 2, 7) is None  # another destination
        assert queue.pop_best(ANY_SOURCE, 2, 7) is None
        assert len(queue) == 1

    def test_stored_wildcard_and_specific_compete_in_posting_order(self):
        # receives posted by rank 1: a wildcard one, a specific one, and a
        # second wildcard; sends from rank 0 take them oldest first
        queue = _MatchQueue()
        queue.add(ANY_SOURCE, 1, 0, "any-1")
        queue.add(0, 1, 0, "from-0")
        queue.add(ANY_SOURCE, 1, 0, "any-2")
        assert queue.pop_best(0, 1, 0) == "any-1"
        assert queue.pop_best(0, 1, 0) == "from-0"
        assert queue.pop_best(0, 1, 0) == "any-2"
        # the specific receive posted first wins over a later wildcard
        queue.add(0, 1, 0, "from-0")
        queue.add(ANY_SOURCE, 1, 0, "any-3")
        assert queue.pop_best(0, 1, 0) == "from-0"
        # a sender of another channel still takes the wildcard
        assert queue.pop_best(2, 1, 0) == "any-3"
        assert len(queue) == 0

    def test_any_source_query_takes_the_oldest_sender_across_channels(self):
        queue = _MatchQueue()
        queue.add(2, 1, 0, "from-2")
        queue.add(0, 1, 0, "from-0")
        queue.add(3, 1, 0, "from-3")
        queue.add(0, 1, 5, "from-0-tag-5")
        assert queue.pop_best(ANY_SOURCE, 1, 0) == "from-2"
        # a specific match leaves the wildcard view too
        assert queue.pop_best(0, 1, 0) == "from-0"
        assert queue.pop_best(ANY_SOURCE, 1, 0) == "from-3"
        assert queue.pop_best(ANY_SOURCE, 1, 0) is None
        assert queue.pop_best(ANY_SOURCE, 1, 5) == "from-0-tag-5"
        assert len(queue) == 0

    def test_discard_after_match_is_a_noop(self):
        queue = _MatchQueue()
        first = queue.add(0, 1, 0, "a")
        second = queue.add(0, 1, 0, "b")
        assert queue.pop_best(0, 1, 0) == "a"
        assert queue.discard(first) is None
        assert queue.discard(None) is None
        assert len(queue) == 1
        assert queue.discard(second) == "b"
        assert queue.discard(second) is None
        assert len(queue) == 0
        assert queue.pop_best(ANY_SOURCE, 1, 0) is None

    def test_a_discarded_head_uncovers_the_next_item(self):
        queue = _MatchQueue()
        head = queue.add(0, 1, 0, "head")
        queue.add(ANY_SOURCE, 1, 0, "any")
        queue.add(0, 1, 0, "next")
        assert queue.discard(head) == "head"
        assert queue.pop_best(ANY_SOURCE, 1, 0) == "any"
        assert queue.pop_best(ANY_SOURCE, 1, 0) == "next"


ranks = st.sampled_from([ANY_SOURCE, 0, 1, 2])
operation = st.one_of(
    st.tuples(st.just("add"), ranks, st.integers(0, 1), st.integers(0, 1)),
    st.tuples(st.just("pop"), ranks, st.integers(0, 1), st.integers(0, 1)),
    st.tuples(st.just("discard"), st.integers(0, 40)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(operation, max_size=40))
def test_pop_best_equals_the_posted_order_scan(operations):
    queue, scan = _MatchQueue(), ScanQueue()
    tokens = []
    for number, (kind, *args) in enumerate(operations):
        if kind == "add":
            token = queue.add(*args, number)
            assert token == scan.add(*args, number)
            tokens.append(token)
        elif kind == "pop":
            assert queue.pop_best(*args) == scan.pop_best(*args)
        elif tokens:
            token = tokens[args[0] % len(tokens)]
            assert queue.discard(token) == scan.discard(token)
        assert len(queue) == len(scan.items)
