"""Tests for the device-local storage substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage import (
    Action,
    ActionKind,
    ActionLog,
    MessageStore,
    StoredMessage,
    SyncQueue,
)


def msg(author="u000000001", number=1, created=0.0, hops=0, body=b"x", received=None):
    return StoredMessage(
        author_id=author,
        number=number,
        created_at=created,
        body=body,
        signature=b"s",
        author_cert=b"c",
        hops=hops,
        received_at=received,
    )


class TestActionLog:
    def test_sequence_numbers_monotonic(self):
        log = ActionLog()
        a1 = log.append(ActionKind.POST, "u1", 0.0, text="hi")
        a2 = log.append(ActionKind.FOLLOW, "u1", 1.0, target="u2")
        assert (a1.seq, a2.seq) == (1, 2)

    def test_since(self):
        log = ActionLog()
        for i in range(5):
            log.append(ActionKind.POST, "u1", float(i))
        assert [a.seq for a in log.since(2)] == [3, 4, 5]
        assert log.since(5) == []

    def test_since_negative_rejected(self):
        with pytest.raises(ValueError):
            ActionLog().since(-1)

    def test_of_kind(self):
        log = ActionLog()
        log.append(ActionKind.POST, "u1", 0.0)
        log.append(ActionKind.FOLLOW, "u1", 1.0)
        log.append(ActionKind.POST, "u1", 2.0)
        assert len(log.of_kind(ActionKind.POST)) == 2

    def test_get(self):
        log = ActionLog()
        action = log.append(ActionKind.POST, "u1", 0.0)
        assert log.get(1) == action
        assert log.get(2) is None
        assert log.get(0) is None


class TestMessageStore:
    def test_add_and_get(self):
        store = MessageStore()
        assert store.add(msg(number=1))
        assert store.get("u000000001", 1) is not None
        assert store.has("u000000001", 1)

    def test_duplicate_rejected(self):
        store = MessageStore()
        store.add(msg(number=1))
        assert not store.add(msg(number=1))
        assert len(store) == 1

    def test_highest_number_and_marks(self):
        store = MessageStore()
        store.add(msg(number=3))
        store.add(msg(number=1))
        assert store.highest_number("u000000001") == 3
        assert store.advertisement_marks() == {"u000000001": 3}
        assert store.highest_number("unknown") == 0

    def test_missing_below_reports_gaps(self):
        store = MessageStore()
        store.add(msg(number=1))
        store.add(msg(number=4))
        assert store.missing_below("u000000001", 5) == [2, 3, 5]
        assert store.missing_below("u000000001", 1) == []

    def test_messages_for_skips_absent(self):
        store = MessageStore()
        store.add(msg(number=2))
        got = store.messages_for("u000000001", [1, 2, 3])
        assert [m.number for m in got] == [2]

    def test_forwarded_copy_increments_hops(self):
        original = msg(hops=1)
        copy = original.forwarded_copy(received_at=50.0)
        assert copy.hops == 2
        assert copy.received_at == 50.0
        assert copy.body == original.body

    def test_capacity_evicts_oldest_forwarded_first(self):
        size = msg(body=b"x" * 100).size_bytes
        store = MessageStore(capacity_bytes=3 * size)
        store.add(msg(author="u000000001", number=1, body=b"x" * 100, hops=0))
        store.add(msg(author="u000000002", number=1, body=b"x" * 100, hops=1, received=1.0))
        store.add(msg(author="u000000003", number=1, body=b"x" * 100, hops=1, received=2.0))
        store.add(msg(author="u000000004", number=1, body=b"x" * 100, hops=1, received=3.0))
        # Oldest forwarded (author 2) evicted; own message (hops=0) kept.
        assert not store.has("u000000002", 1)
        assert store.has("u000000001", 1)
        assert store.has("u000000004", 1)
        assert store.evicted == 1

    def test_own_messages_never_evicted(self):
        size = msg(body=b"x" * 100).size_bytes
        store = MessageStore(capacity_bytes=size)
        store.add(msg(number=1, body=b"x" * 100, hops=0))
        store.add(msg(number=2, body=b"x" * 100, hops=0))
        assert len(store) == 2  # over capacity but all own

    def test_authors_listing(self):
        store = MessageStore()
        store.add(msg(author="u000000002", number=1))
        store.add(msg(author="u000000001", number=1))
        assert store.authors() == ["u000000001", "u000000002"]

    @given(st.sets(st.integers(1, 50), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_missing_below_invariant(self, numbers):
        store = MessageStore()
        for n in numbers:
            store.add(msg(number=n))
        top = max(numbers)
        missing = store.missing_below("u000000001", top)
        assert set(missing) | numbers >= set(range(1, top + 1))
        assert not set(missing) & numbers


class TestSyncQueue:
    def test_sync_acknowledges_prefix(self):
        log = ActionLog()
        for i in range(3):
            log.append(ActionKind.POST, "u1", float(i))
        queue = SyncQueue(log)
        assert queue.pending_count == 3
        accepted = queue.sync(lambda batch: batch[-1].seq)
        assert accepted == 3
        assert queue.pending_count == 0

    def test_partial_acceptance(self):
        log = ActionLog()
        for i in range(4):
            log.append(ActionKind.POST, "u1", float(i))
        queue = SyncQueue(log)
        queue.sync(lambda batch: 2)  # cloud accepted only 2
        assert queue.pending_count == 2
        assert [a.seq for a in queue.pending] == [3, 4]

    def test_empty_sync_is_noop(self):
        queue = SyncQueue(ActionLog())
        assert queue.sync(lambda batch: 0) == 0
        assert queue.sync_count == 0

    def test_invalid_ack_rejected(self):
        log = ActionLog()
        log.append(ActionKind.POST, "u1", 0.0)
        queue = SyncQueue(log)
        with pytest.raises(ValueError):
            queue.sync(lambda batch: 99)

    def test_new_actions_after_sync_are_pending(self):
        log = ActionLog()
        log.append(ActionKind.POST, "u1", 0.0)
        queue = SyncQueue(log)
        queue.sync(lambda batch: 1)
        log.append(ActionKind.FOLLOW, "u1", 1.0, target="u2")
        assert queue.pending_count == 1


class TestSyncQueueBulkFlush:
    """Prefix acceptance during a bulk flush (the bootstrap path pushes a
    user's whole day-0 follow suffix in one round; if the uplink stops
    mid-batch, the suffix must survive for the next opportunity)."""

    def _queue(self, count):
        log = ActionLog()
        for i in range(count):
            log.append(ActionKind.FOLLOW, "u1", 0.0, target=f"u{i + 2}")
        return log, SyncQueue(log)

    def test_bulk_flush_is_one_round(self):
        _, queue = self._queue(100)
        seen_batches = []

        def uplink(batch):
            seen_batches.append(len(batch))
            return batch[-1].seq

        assert queue.sync(uplink) == 100
        assert seen_batches == [100]  # one round, not one per action
        assert queue.sync_count == 1
        assert queue.max_batch == 100

    def test_prefix_acceptance_resumes_at_suffix(self):
        _, queue = self._queue(10)
        queue.sync(lambda batch: 4)  # cloud stopped mid-batch
        assert queue.acked_seq == 4
        assert [a.seq for a in queue.pending] == list(range(5, 11))
        # The retry round replays exactly the unacknowledged suffix.
        replayed = []
        queue.sync(lambda batch: replayed.extend(a.seq for a in batch) or batch[-1].seq)
        assert replayed == list(range(5, 11))
        assert queue.pending_count == 0

    def test_zero_progress_round_keeps_everything_pending(self):
        _, queue = self._queue(5)
        assert queue.sync(lambda batch: queue.acked_seq) == 0
        assert queue.pending_count == 5

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=8))
    def test_any_prefix_schedule_eventually_drains(self, accepts):
        """Property: whatever prefix sizes the cloud accepts per round,
        repeated sync rounds never lose, reorder or duplicate actions."""
        log, queue = self._queue(30)
        delivered = []

        for accept in accepts + [30]:
            def uplink(batch, accept=accept):
                take = min(accept, len(batch))
                if take == 0:
                    return queue.acked_seq
                delivered.extend(a.seq for a in batch[:take])
                return batch[take - 1].seq

            queue.sync(uplink)
        assert delivered == list(range(1, 31))
        assert queue.pending_count == 0
