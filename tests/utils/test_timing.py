"""Tests for repro.utils.timing."""

from repro.utils.timing import Timer, timed


class TestTimer:
    def test_measure_accumulates(self):
        timer = Timer()
        with timer.measure("work"):
            sum(range(100))
        with timer.measure("work"):
            sum(range(100))
        assert timer.count("work") == 2
        assert timer.total("work") >= 0.0

    def test_unknown_label_is_zero(self):
        timer = Timer()
        assert timer.total("nope") == 0.0
        assert timer.count("nope") == 0

    def test_labels_are_separate(self):
        timer = Timer()
        with timer.measure("a"):
            pass
        with timer.measure("b"):
            pass
        assert set(timer.as_dict()) == {"a", "b"}

    def test_merge(self):
        a, b = Timer(), Timer()
        with a.measure("x"):
            pass
        with b.measure("x"):
            pass
        with b.measure("y"):
            pass
        a.merge(b)
        assert a.count("x") == 2
        assert a.count("y") == 1

    def test_exception_still_recorded(self):
        timer = Timer()
        try:
            with timer.measure("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        assert timer.count("boom") == 1


class TestTimed:
    def test_records_seconds(self):
        with timed() as clock:
            sum(range(10_000))
        assert clock["seconds"] > 0.0
