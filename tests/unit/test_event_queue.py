"""Tests for the discrete-event queue."""

from __future__ import annotations

import pytest

from repro.engine.event_queue import EventQueue


class TestScheduling:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(30, lambda: order.append("c"))
        queue.schedule(10, lambda: order.append("a"))
        queue.schedule(20, lambda: order.append("b"))
        queue.run()
        assert order == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        queue = EventQueue()
        order = []
        for label in "abcde":
            queue.schedule(5, lambda label=label: order.append(label))
        queue.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        queue = EventQueue()
        seen = []
        queue.schedule(42, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [42]
        assert queue.now == 42

    def test_schedule_at_absolute_time(self):
        queue = EventQueue()
        seen = []
        queue.schedule_at(100, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [100]

    def test_negative_delay_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        queue = EventQueue()
        queue.schedule(10, lambda: None)
        queue.run()
        with pytest.raises(ValueError):
            queue.schedule_at(5, lambda: None)

    def test_fractional_delay_rounds_to_cycles(self):
        # nearest cycle, ties to even: 0.5 -> 0 and 2.5 -> 2
        for delay, cycle in ((1.4, 1), (0.5, 0), (2.5, 2)):
            queue = EventQueue()
            seen = []
            queue.schedule(delay, lambda: seen.append(queue.now))
            queue.run()
            assert seen == [cycle], delay


class TestExecution:
    def test_events_scheduled_during_execution_run(self):
        queue = EventQueue()
        order = []

        def first():
            order.append("first")
            queue.schedule(5, lambda: order.append("second"))

        queue.schedule(1, first)
        queue.run()
        assert order == ["first", "second"]
        assert queue.now == 6

    def test_run_until_leaves_later_events_pending(self):
        queue = EventQueue()
        fired = []
        queue.schedule(5, lambda: fired.append(5))
        queue.schedule(50, lambda: fired.append(50))
        queue.run(until=10)
        assert fired == [5]
        assert queue.pending == 1
        queue.run()
        assert fired == [5, 50]

    def test_max_events_bounds_execution(self):
        queue = EventQueue()

        def reschedule():
            queue.schedule(1, reschedule)

        queue.schedule(1, reschedule)
        queue.run(max_events=25)
        assert queue.executed == 25

    def test_run_on_an_empty_queue_executes_nothing(self):
        queue = EventQueue()
        assert queue.run() == 0
        assert queue.executed == 0 and queue.now == 0

    def test_run_until_with_events_left_stops_at_until(self):
        queue = EventQueue()
        queue.schedule(50, lambda: None)
        assert queue.run(until=10) == 10
        assert queue.now == 10 and queue.executed == 0
        assert queue.pending == 1

    def test_max_events_zero_executes_nothing(self):
        queue = EventQueue()
        fired = []
        queue.schedule(1, lambda: fired.append(1))
        queue.run(max_events=0)
        assert fired == [] and queue.executed == 0
        assert queue.pending == 1

    def test_max_events_counts_from_the_events_already_run(self):
        queue = EventQueue()
        fired = []
        for tick in range(1, 8):
            queue.schedule(tick, lambda tick=tick: fired.append(tick))
        queue.run(max_events=3)
        queue.run(max_events=3)
        assert fired == [1, 2, 3, 4, 5, 6]
        assert queue.executed == 6 and queue.pending == 1


class TestCycleBuckets:
    """Events of one cycle share a bucket; the firing order must still be
    exactly (time, scheduling order), whatever interrupts a drain."""

    def test_zero_delay_event_fires_after_queued_same_cycle_events(self):
        queue = EventQueue()
        order = []

        def a():
            order.append(("a", queue.now))
            queue.schedule(0, lambda: order.append(("c", queue.now)))

        queue.schedule(5, a)
        queue.schedule(5, lambda: order.append(("b", queue.now)))
        queue.schedule(6, lambda: order.append(("d", queue.now)))
        queue.run()
        assert order == [("a", 5), ("b", 5), ("c", 5), ("d", 6)]

    def test_max_events_stop_mid_cycle_resumes_in_order(self):
        queue = EventQueue()
        order = []
        for label in "abcde":
            queue.schedule(3, lambda label=label: order.append(label))
        queue.run(max_events=2)
        assert order == ["a", "b"]
        assert queue.pending == 3 and queue.now == 3
        queue.schedule(0, lambda: order.append("f"))
        assert queue.pending == 4
        queue.run()
        assert order == list("abcdef")
        assert queue.pending == 0

    def test_raising_callback_consumes_its_event(self):
        queue = EventQueue()
        fired = []

        def boom():
            raise RuntimeError("boom")

        queue.schedule(1, boom)
        queue.schedule(1, lambda: fired.append("next"))
        with pytest.raises(RuntimeError):
            queue.run()
        queue.run()
        assert fired == ["next"]
        assert queue.executed == 2


class TestFastPath:
    def test_schedule_is_fire_and_forget(self):
        queue = EventQueue()
        assert queue.schedule(1, lambda: None) is None
        assert queue.schedule_at(5, lambda: None) is None

    def test_integer_delays_skip_rounding(self):
        queue = EventQueue()
        seen = []
        queue.schedule(3, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [3]

    def test_float_schedule_at_coerces_to_int_cycles(self):
        # absolute times truncate: 11.7 -> 11
        for time, cycle in ((7.0, 7), (11.7, 11)):
            queue = EventQueue()
            seen = []
            queue.schedule_at(time, lambda: seen.append(queue.now))
            queue.run()
            assert seen == [cycle] and seen[0].__class__ is int, time

    def test_bool_delay_is_not_mistaken_for_int_fast_path(self):
        # bool subclasses int; it must still schedule correctly
        queue = EventQueue()
        seen = []
        queue.schedule(True, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [1]


class TestCreditedEvents:
    """A callback that stands for several events credits the others: they
    count as executed and against ``max_events``."""

    @staticmethod
    def _schedule(queue, order):
        def group():  # stands for 4 events
            order.append("group")
            queue.credit(3)

        queue.schedule(1, group)
        queue.schedule(1, lambda: order.append("next"))

    def test_budget_counts_credited_events_and_never_splits_a_callback(self):
        queue = EventQueue()
        order = []
        self._schedule(queue, order)
        # the budget of 1 is reached inside the group, which still fires
        # whole: the run overshoots by the 3 events it credited, then stops
        queue.run(max_events=1)
        assert order == ["group"] and queue.executed == 4
        queue.run(max_events=1)
        assert order == ["group", "next"] and queue.executed == 5


class TestBucketMap:
    """``EventQueue.at`` is the ``cycle -> callbacks`` map components append
    to directly; its ``__missing__`` validates and opens new cycles."""

    def test_past_time_raises_before_a_run(self):
        queue = EventQueue()
        with pytest.raises(ValueError, match="current time is 0"):
            queue.at[-1]
        queue.schedule_at(5, lambda: None)
        queue.run(max_events=1)
        with pytest.raises(ValueError, match="current time is 5"):
            queue.at[4]

    def test_past_time_raises_after_run(self):
        queue = EventQueue()
        queue.schedule(10, lambda: None)
        queue.run()
        with pytest.raises(ValueError, match="current time is 10"):
            queue.at[9]
        with pytest.raises(ValueError):
            queue.at[9.9]  # truncates to 9
        assert queue.pending == 0 and 9 not in queue.at

    def test_current_cycle_is_not_past(self):
        queue = EventQueue()
        queue.schedule(10, lambda: None)
        queue.run()
        seen = []
        queue.at[10].append(lambda: seen.append(queue.now))
        queue.run()
        assert seen == [10]

    def test_fractional_time_joins_the_existing_bucket_in_order(self):
        queue = EventQueue()
        order = []
        queue.at[11].append(lambda: order.append("a"))
        bucket = queue.at[11.7]
        bucket.append(lambda: order.append("b"))
        assert bucket is queue.at[11]
        assert list(queue.at) == [11]  # no 11.7 key
        queue.run()
        assert order == ["a", "b"] and queue.now == 11

    def test_fractional_time_opens_an_int_bucket(self):
        queue = EventQueue()
        queue.at[11.7].append(lambda: None)
        assert [(key, key.__class__) for key in queue.at] == [(11, int)]

    def test_get_never_creates_a_bucket(self):
        queue = EventQueue()
        assert queue.at.get(7) is None
        assert 7 not in queue.at and queue.pending == 0
        queue.run()
        assert queue.now == 0 and queue.executed == 0

    def test_all_entry_points_share_one_fifo_bucket(self):
        queue = EventQueue()
        order = []
        queue.at[5].append(lambda: order.append("at"))
        queue.schedule(5, lambda: order.append("schedule"))
        queue.schedule_at(5, lambda: order.append("schedule_at"))
        queue.at[5].append(lambda: order.append("at again"))
        assert queue.pending == 4
        queue.run()
        assert order == ["at", "schedule", "schedule_at", "at again"]
        assert queue.executed == 4 and queue.pending == 0

    def test_appends_from_a_callback_land_in_later_cycles_in_order(self):
        queue = EventQueue()
        order = []

        def first():
            queue.at[queue.now].append(lambda: order.append("same cycle"))
            queue.at[queue.now + 3].append(lambda: order.append("later"))

        queue.at[2].append(first)
        queue.at[5].append(lambda: order.append("queued first at 5"))
        assert queue.pending == 2
        queue.run()
        assert order == ["same cycle", "queued first at 5", "later"]
