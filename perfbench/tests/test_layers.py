"""The tracer: self-time arithmetic and clean restoration."""

from __future__ import annotations

import importlib

import pytest

import layers


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_excludes_nested_wrapped_calls():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        wrapped_leaf()
        clock.now += 0.5
        wrapped_leaf()

    def outer():
        clock.now += 3.0
        wrapped_middle()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    assert tracer.calls("leaf") == 2
    assert tracer.self_s("leaf") == pytest.approx(4.0)
    assert tracer.self_s("middle") == pytest.approx(1.5)
    assert tracer.self_s("outer") == pytest.approx(3.0)
    assert tracer.stats["outer"].total_s == pytest.approx(8.5)
    # Self times partition the outermost call's wall time.
    assert tracer.attributed_s() == pytest.approx(8.5)


def test_unwrapped_calls_stay_in_their_callers_self_time():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def helper():
        clock.now += 4.0

    def outer():
        helper()
        clock.now += 1.0

    tracer.wrap("outer", outer)()
    assert tracer.self_s("outer") == pytest.approx(5.0)


def test_exceptions_propagate_and_unwind_the_stack():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    wrapped_boom = tracer.wrap("boom", boom)

    def outer():
        with pytest.raises(KeyError):
            wrapped_boom()
        clock.now += 2.0

    tracer.wrap("outer", outer)()
    assert tracer.calls("boom") == 1
    assert tracer.self_s("outer") == pytest.approx(2.0)
    assert tracer._stack == []


def test_kept_results_record_instance_kwargs_and_value():
    tracer = layers.Tracer(keep_results=("f",))
    f = tracer.wrap("f", lambda a, b=0: a + b)
    assert f(1, b=2) == 3
    assert tracer.results("f") == [(1, {"b": 2}, 3)]


def _targets():
    for _, module_name, path in layers.LAYER_CALLS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        yield owner, attr


def test_install_wraps_every_entry_point_and_restore_puts_originals_back():
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr in _targets()]
    assert all(original is not None for _, _, original in before)
    with layers.Tracer() as tracer:
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original
            assert vars(owner)[attr].__wrapped__ is original
        assert tracer.stats
    for owner, attr, original in before:
        assert vars(owner)[attr] is original
