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
        queue = EventQueue()
        seen = []
        queue.schedule(1.4, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [1]


class TestExecution:
    def test_step_returns_false_when_empty(self):
        assert EventQueue().step() is False

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

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule_cancellable(10, lambda: fired.append("cancelled"))
        queue.schedule(20, lambda: fired.append("kept"))
        event.cancel()
        queue.run()
        assert fired == ["kept"]

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

    def test_executed_counts_only_real_events(self):
        queue = EventQueue()
        event = queue.schedule_cancellable(1, lambda: None)
        event.cancel()
        queue.schedule(2, lambda: None)
        queue.run()
        assert queue.executed == 1

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule_cancellable(1, lambda: fired.append("a"))
        event.cancel()
        event.cancel()
        queue.schedule(2, lambda: fired.append("b"))
        queue.run()
        assert fired == ["b"]
        assert queue.executed == 1

    def test_cancel_after_fire_does_not_skip_later_events(self):
        # cancelling an already-fired event must not poison the seq set
        queue = EventQueue()
        fired = []
        event = queue.schedule_cancellable(1, lambda: fired.append("a"))
        queue.run()
        event.cancel()
        queue.schedule(1, lambda: fired.append("b"))
        queue.run()
        assert fired == ["a", "b"]
        # the side set must not leak stale sequence numbers either
        assert queue._cancelled == set()

    def test_drained_queue_clears_cancelled_side_set(self):
        queue = EventQueue()
        fired = []
        # same-cycle cancel-after-fire: the guard in cancel() cannot tell,
        # so the drain path must clean the stale entry up
        event = queue.schedule_cancellable(0, lambda: fired.append("a"))
        queue.run()
        event.cancel()
        assert fired == ["a"]
        queue.schedule(1, lambda: fired.append("b"))
        queue.run()
        assert fired == ["a", "b"]
        assert queue._cancelled == set()

    def test_cancellable_events_keep_tie_order(self):
        queue = EventQueue()
        order = []
        queue.schedule(5, lambda: order.append("plain"))
        queue.schedule_cancellable(5, lambda: order.append("cancellable"))
        queue.run()
        assert order == ["plain", "cancellable"]

    def test_step_skips_cancelled_events(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule_cancellable(1, lambda: fired.append("a"))
        queue.schedule(2, lambda: fired.append("b"))
        event.cancel()
        assert queue.step() is True
        assert fired == ["b"]
        assert queue.step() is False


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

    def test_step_and_run_interleave(self):
        queue = EventQueue()
        order = []
        for label, time in (("a", 1), ("b", 1), ("c", 2)):
            queue.schedule(time, lambda label=label: order.append(label))
        assert queue.step() is True
        assert order == ["a"] and queue.pending == 2
        queue.run()
        assert order == ["a", "b", "c"]

    def test_cancel_within_the_same_cycle(self):
        queue = EventQueue()
        fired = []
        later = queue.schedule_cancellable(4, lambda: fired.append("later"))
        queue.schedule_at(2, later.cancel)
        queue.schedule(4, lambda: fired.append("kept"))
        queue.run()
        assert fired == ["kept"]
        assert queue.executed == 2
        assert queue._cancelled == set()

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
        queue = EventQueue()
        seen = []
        queue.schedule_at(7.0, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [7] and seen[0].__class__ is int

    def test_bool_delay_is_not_mistaken_for_int_fast_path(self):
        # bool subclasses int; it must still schedule correctly
        queue = EventQueue()
        seen = []
        queue.schedule(True, lambda: seen.append(queue.now))
        queue.run()
        assert seen == [1]
