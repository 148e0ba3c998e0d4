"""Utility substrate: id generation, clocks, online statistics, executors.

These helpers are shared by every other subsystem and deliberately have no
dependencies outside the standard library.
"""

from repro.util.ids import IdGenerator, new_uuid
from repro.util.clock import Clock, MonotonicClock, ManualClock
from repro.util.stats import OnlineStats, Histogram, Counter
from repro.util.concurrency import BoundedExecutor, ClosableQueue
from repro.util.textdb import TextFileMap

__all__ = [
    "IdGenerator",
    "new_uuid",
    "Clock",
    "MonotonicClock",
    "ManualClock",
    "OnlineStats",
    "Histogram",
    "Counter",
    "BoundedExecutor",
    "ClosableQueue",
    "TextFileMap",
]
