"""The two-thread helper: which thread runs which item, joins and exceptions."""

import threading

import numpy as np
import pytest

from radgas.twothreads import on_two_threads


def _record(calls):
    def task(item):
        calls.append((threading.current_thread() is threading.main_thread(), item))

    return task


@pytest.mark.parametrize("count", [2, 3, 8])
def test_even_items_on_the_caller_odd_items_on_one_worker(count):
    calls = []
    on_two_threads(_record(calls), list(range(count)))
    assert [item for here, item in calls if here] == list(range(0, count, 2))
    assert [item for here, item in calls if not here] == list(range(1, count, 2))


@pytest.mark.parametrize("count", [0, 1])
def test_fewer_than_two_items_start_no_worker(count, monkeypatch):
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    calls = []
    on_two_threads(_record(calls), list(range(count)))
    assert calls == [(True, item) for item in range(count)]
    assert started == []


@pytest.mark.parametrize("failing", [0, 1], ids=["caller", "worker"])
def test_exception_reaches_the_caller_after_the_join(failing):
    error = RuntimeError(f"item {failing}")

    def task(item):
        if item == failing:
            raise error

    before = threading.active_count()
    with pytest.raises(RuntimeError) as exc:
        on_two_threads(task, [0, 1])
    assert exc.value is error
    assert threading.active_count() == before


def test_the_worker_keeps_the_callers_errstate(recwarn):
    def overflow_on_the_worker(item):
        np.full(1, 1e308) * (10.0 * item)

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        on_two_threads(overflow_on_the_worker, [0, 1])
    with np.errstate(over="ignore"):
        on_two_threads(overflow_on_the_worker, [0, 1])
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
