"""Guards for every test."""

from __future__ import annotations

import time

import pytest

from kgaudit import transport


class RealClock:
    """Stands in for ``time`` in kgaudit.transport; remembers each sleep
    and sleeps it on the real clock."""

    def __init__(self):
        self.sleeps: list[float] = []

    def __getattr__(self, name):
        return getattr(time, name)

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        time.sleep(seconds)


@pytest.fixture(autouse=True)
def no_real_sleep(monkeypatch):
    """Fail a test in which the request layer sleeps on the real clock: a
    test that waits out a delay patches ``kgaudit.transport.time`` with a
    fake clock, which this one then stands behind."""
    clock = RealClock()
    monkeypatch.setattr(transport, "time", clock)
    yield
    if clock.sleeps:
        pytest.fail(
            f"kgaudit.transport slept {len(clock.sleeps)} times on the real clock, "
            f"{sum(clock.sleeps):.3f} s in all; patch kgaudit.transport.time with a fake clock"
        )
