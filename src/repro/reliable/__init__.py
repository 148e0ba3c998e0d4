"""Reliable delivery (paper future work §4.4).

"We would like also to improve forwarding service by adding hold/retry on
delivery to simple one way messaging (HTTP) with messages stored in DB
with expiration time.  This work would be related with use of
WS-ReliableMessaging."

:mod:`repro.reliable.policy` defines retry schedules;
:mod:`repro.reliable.holdretry` implements the store — held messages with
expiration, at-least-once redelivery, and MessageID-based duplicate
suppression on the receiving side.
"""

from repro.reliable.policy import RetryPolicy, ExponentialBackoff, FixedDelay
from repro.reliable.holdretry import HeldMessage, HoldRetryStore, DuplicateFilter

__all__ = [
    "RetryPolicy",
    "ExponentialBackoff",
    "FixedDelay",
    "HeldMessage",
    "HoldRetryStore",
    "DuplicateFilter",
]
