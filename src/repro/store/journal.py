"""Append-only write-ahead message journal (paper future work §4.4).

The paper is explicit that the dispatcher's reliability story ends in a
database: "messages stored in DB with expiration time".  This module is
that database — an append-only journal of every message a durable
component has taken responsibility for, built on the standard library's
SQLite (no external dependencies).

Each record moves through a tiny state machine::

    enqueued ──► delivered   (destination confirmed receipt)
             ──► absorbed    (consumed internally: duplicate suppressed,
                              handed to a durable hold store, rejected
                              before the 202 ack, ...)
             ──► dead        (poison: retries exhausted, expired,
                              unroutable, ... — the dead-letter queue)

Transitions are monotonic: a record leaves ``enqueued`` exactly once and
terminal states never change, so replaying a mark is a no-op.

Durability vs. throughput is the ``sync`` knob:

- ``"group"`` (default) — an :meth:`append` blocks until its record is
  committed, but concurrent appenders share one transaction (one fsync):
  the classic group commit.  A small gathering window
  (``group_window``) lets a burst of writers pile onto the same commit.
- ``"always"`` — every append commits immediately
  (``PRAGMA synchronous=FULL``); the slow, maximally-paranoid mode.
- ``"lazy"`` — appends never block; the buffer is committed when it
  reaches ``flush_threshold`` ops or on :meth:`flush`.  Used by the
  deterministic simulation (no real threads, no real disks) and by
  benchmarks measuring the journaling ceiling.

State *marks* (delivered/absorbed/dead) are always buffered and never
block, in every mode: losing a mark in a crash only means the message is
replayed on recovery, and the receiving side's
:class:`~repro.reliable.holdretry.DuplicateFilter` absorbs the replay.
That asymmetry — fsync the intake, batch the bookkeeping — is what keeps
the fast path fast (see ``benchmarks/bench_journal.py``).

Every record carries a CRC over its identifying fields and body.  The
recovery scan (:meth:`undelivered`) validates it and *skips* records
that fail — a torn final write after a hard crash surfaces as one
``dead(corrupt)`` entry, never as a recovery crash.

Expiry deadlines are stored as wall-clock times (``now_fn``, default
:func:`time.time`) so they survive restarts — unlike the monotonic
clocks the in-memory stores use, which restart from an arbitrary zero.
"""

from __future__ import annotations

import sqlite3
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable

from repro.errors import JournalError

#: record states
ENQUEUED = "enqueued"
DELIVERED = "delivered"
ABSORBED = "absorbed"
DEAD = "dead"

_TERMINAL = (DELIVERED, ABSORBED, DEAD)
_SYNC_MODES = ("group", "always", "lazy")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS journal (
    seq        INTEGER PRIMARY KEY,
    message_id TEXT NOT NULL,
    kind       TEXT NOT NULL,
    target     TEXT NOT NULL,
    body       BLOB NOT NULL,
    crc        INTEGER NOT NULL,
    state      TEXT NOT NULL DEFAULT 'enqueued',
    attempts   INTEGER NOT NULL DEFAULT 0,
    expires_at REAL,
    reason     TEXT,
    created_at REAL NOT NULL,
    updated_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS journal_state_idx ON journal(state);
CREATE INDEX IF NOT EXISTS journal_mid_idx ON journal(message_id);
"""

_COLUMNS = (
    "seq, message_id, kind, target, body, crc, state, attempts, "
    "expires_at, reason, created_at, updated_at"
)


def _crc(message_id: str, kind: str, target: str, body: bytes) -> int:
    check = zlib.crc32(message_id.encode("utf-8"))
    check = zlib.crc32(kind.encode("utf-8"), check)
    check = zlib.crc32(target.encode("utf-8"), check)
    return zlib.crc32(body, check)


@dataclass
class JournalRecord:
    """One journaled message (decoded row)."""

    seq: int
    message_id: str
    kind: str
    target: str
    body: bytes
    state: str
    attempts: int
    expires_at: float | None
    reason: str | None
    created_at: float
    updated_at: float


class MessageJournal:
    """The durable store-and-forward journal.

    ``path=":memory:"`` gives a private in-memory database — still the
    real SQL machinery, used by tests and by the simulation (where the
    journal *object* plays the disk that survives a simulated host
    crash).  A filesystem path survives process death, which is what the
    SIGKILL crash-recovery test exercises.

    ``now_fn`` supplies wall-clock time for record stamps and expiry
    deadlines; the simulation injects its own clock for determinism.
    """

    def __init__(
        self,
        path: str = ":memory:",
        sync: str = "group",
        group_window: float = 0.002,
        flush_threshold: int = 128,
        now_fn: Callable[[], float] | None = None,
        flight: "object | None" = None,
    ) -> None:
        if sync not in _SYNC_MODES:
            raise JournalError(f"unknown sync mode {sync!r}; use one of {_SYNC_MODES}")
        self.path = path
        self.sync = sync
        self.group_window = group_window
        self.flush_threshold = flush_threshold
        self.now_fn = now_fn or time.time
        if flight is None:
            from repro.obs.flight import default_flight_recorder

            flight = default_flight_recorder()
        #: flight recorder for state transitions worth a postmortem
        #: (dead-letter marks, buffered writes lost to a crash)
        self.flight = flight
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._db_lock = threading.Lock()
        with self._db_lock:
            # WAL keeps readers off the writers' backs on real files (a
            # silent no-op for :memory:); FULL sync only in paranoid mode.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(
                "PRAGMA synchronous=" + ("FULL" if sync == "always" else "NORMAL")
            )
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute("SELECT MAX(seq) FROM journal").fetchone()
        self._seq = int(row[0] or 0)
        #: group-commit state: buffered ops, tickets, and the leader flag
        self._cond = threading.Condition()
        self._pending: list[tuple[str, tuple]] = []
        self._op = 0
        self._committed = 0
        self._committing = False
        self._closed = False
        #: observability counters (monotonic, in-memory)
        self._n_appended = 0
        self._n_commits = 0
        self._n_committed_ops = 0
        self._n_corrupt_skipped = 0

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        self.flush()
        with self._cond:
            self._closed = True
        with self._db_lock:
            self._conn.close()

    def __enter__(self) -> "MessageJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def wall_now(self) -> float:
        """The journal's wall-clock time (expiry deadlines live on it)."""
        return self.now_fn()

    # -- write path --------------------------------------------------------
    def append(
        self,
        message_id: str | None,
        target: str,
        body: bytes,
        kind: str = "inbound",
        expires_at: float | None = None,
    ) -> int:
        """Journal one message; returns its sequence number.

        In ``group``/``always`` modes the call blocks until the record is
        committed — the caller may then ack the message ("journal before
        ack").  ``message_id=None`` synthesizes a per-record id (such
        messages cannot be deduplicated on redelivery, matching the
        hold store's rule).
        """
        with self._cond:
            if self._closed:
                raise JournalError("append on a closed journal")
            self._seq += 1
            seq = self._seq
            mid = message_id or f"jrnl:{seq}"
            now = self.now_fn()
            self._pending.append((
                "INSERT INTO journal(" + _COLUMNS + ") "
                "VALUES(?,?,?,?,?,?,?,0,?,NULL,?,?)",
                (
                    seq, mid, kind, target, body,
                    _crc(mid, kind, target, body),
                    ENQUEUED, expires_at, now, now,
                ),
            ))
            self._op += 1
            ticket = self._op
            self._n_appended += 1
        if self.sync == "lazy":
            self._maybe_flush()
        else:
            self._ensure_committed(ticket, gather=(self.sync == "group"))
        return seq

    def mark(self, seq: int, state: str, reason: str | None = None) -> None:
        """Record a transition out of ``enqueued`` (buffered, never blocks).

        Terminal states are sticky — the SQL guard only matches records
        still ``enqueued``, so repeated or conflicting marks are no-ops.
        """
        if state not in _TERMINAL:
            raise JournalError(f"cannot mark state {state!r}")
        with self._cond:
            if self._closed:
                return
            self._pending.append((
                "UPDATE journal SET state=?, reason=?, updated_at=? "
                "WHERE seq=? AND state=?",
                (state, reason, self.now_fn(), seq, ENQUEUED),
            ))
            self._op += 1
        if state == DEAD:
            self.flight.record(
                "journal-dead", "journal", t=self.now_fn(),
                seq=seq, reason=reason,
            )
        self._maybe_flush()

    def note_attempt(self, seq: int) -> None:
        """Count one delivery attempt against a record (buffered)."""
        with self._cond:
            if self._closed:
                return
            self._pending.append((
                "UPDATE journal SET attempts=attempts+1, updated_at=? WHERE seq=?",
                (self.now_fn(), seq),
            ))
            self._op += 1
        self._maybe_flush()

    def flush(self) -> None:
        """Commit everything buffered so far (blocks until durable)."""
        with self._cond:
            if self._closed:
                return
            ticket = self._op
            if self._committed >= ticket:
                return
        self._ensure_committed(ticket, gather=False)

    def drop_unflushed(self) -> int:
        """Crash-simulation hook: discard buffered, uncommitted operations.

        This is exactly what process death does to the lazy buffer; the
        deterministic simulation and tests call it instead of killing a
        real process.  Returns the number of operations lost.
        """
        with self._cond:
            dropped = len(self._pending)
            self._pending.clear()
            self._committed = self._op
        if dropped:
            self.flight.record(
                "journal-lost-writes", "journal", t=self.now_fn(),
                dropped=dropped,
            )
        return dropped

    # -- group commit ------------------------------------------------------
    def _maybe_flush(self) -> None:
        with self._cond:
            if len(self._pending) < self.flush_threshold or self._committing:
                return
            ticket = self._op
        self._ensure_committed(ticket, gather=False)

    def _ensure_committed(self, ticket: int, gather: bool) -> None:
        """Block until op ``ticket`` is committed; the first arrival
        becomes the commit leader and flushes the whole buffer in one
        transaction (one fsync shared by every waiter)."""
        while True:
            with self._cond:
                if self._committed >= ticket:
                    return
                if self._committing:
                    self._cond.wait(0.05)
                    continue
                self._committing = True
            if gather and self.group_window > 0:
                time.sleep(self.group_window)
            self._commit_buffer()

    def _commit_buffer(self) -> None:
        with self._cond:
            ops, self._pending = self._pending, []
            top = self._op
        try:
            if ops:
                with self._db_lock, self._conn:
                    for sql, params in ops:
                        self._conn.execute(sql, params)
                self._n_commits += 1
                self._n_committed_ops += len(ops)
        finally:
            with self._cond:
                self._committed = max(self._committed, top)
                self._committing = False
                self._cond.notify_all()

    # -- read path ---------------------------------------------------------
    def _rows(self, where: str, params: tuple = ()) -> list[tuple]:
        self.flush()
        with self._db_lock:
            return self._conn.execute(
                f"SELECT {_COLUMNS} FROM journal WHERE {where} ORDER BY seq",
                params,
            ).fetchall()

    @staticmethod
    def _decode(row: tuple) -> JournalRecord:
        return JournalRecord(
            seq=row[0], message_id=row[1], kind=row[2], target=row[3],
            body=bytes(row[4] or b""), state=row[6], attempts=row[7],
            expires_at=row[8], reason=row[9], created_at=row[10],
            updated_at=row[11],
        )

    def undelivered(self, kind: str | None = None) -> list[JournalRecord]:
        """Every checksum-valid record still ``enqueued``, in order.

        Records whose CRC does not match their fields — a torn write from
        a crash mid-commit — are skipped, counted, and dead-lettered as
        ``corrupt`` rather than crashing recovery.
        """
        if kind is None:
            rows = self._rows("state=?", (ENQUEUED,))
        else:
            rows = self._rows("state=? AND kind=?", (ENQUEUED, kind))
        out: list[JournalRecord] = []
        for row in rows:
            rec = self._decode(row)
            if _crc(rec.message_id, rec.kind, rec.target, rec.body) != row[5]:
                self._n_corrupt_skipped += 1
                self.mark(rec.seq, DEAD, reason="corrupt")
                continue
            out.append(rec)
        return out

    def get(self, seq: int) -> JournalRecord | None:
        rows = self._rows("seq=?", (seq,))
        return self._decode(rows[0]) if rows else None

    def pending_count(self) -> int:
        self.flush()
        with self._db_lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM journal WHERE state=?", (ENQUEUED,)
            ).fetchone()[0]

    def counts(self) -> dict[str, int]:
        """Record counts by state."""
        self.flush()
        with self._db_lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM journal GROUP BY state"
            ).fetchall()
        return {state: n for state, n in rows}

    # -- dead-letter queue -------------------------------------------------
    def dead_letters(self, limit: int = 100) -> list[JournalRecord]:
        """Most recent dead records (newest first)."""
        self.flush()
        with self._db_lock:
            rows = self._conn.execute(
                f"SELECT {_COLUMNS} FROM journal WHERE state=? "
                "ORDER BY seq DESC LIMIT ?",
                (DEAD, limit),
            ).fetchall()
        return [self._decode(row) for row in rows]

    def dead_counts(self) -> dict[str, int]:
        """Dead-letter counts keyed by reason."""
        self.flush()
        with self._db_lock:
            rows = self._conn.execute(
                "SELECT COALESCE(reason, 'unknown'), COUNT(*) FROM journal "
                "WHERE state=? GROUP BY reason",
                (DEAD,),
            ).fetchall()
        return {reason: n for reason, n in rows}

    def deadletter_snapshot(self, limit: int = 20) -> dict:
        """The ``GET /deadletters`` payload: counts plus recent entries."""
        recent = [
            {
                "seq": rec.seq,
                "message_id": rec.message_id,
                "kind": rec.kind,
                "target": rec.target,
                "reason": rec.reason,
                "attempts": rec.attempts,
                "bytes": len(rec.body),
                "created_at": rec.created_at,
                "updated_at": rec.updated_at,
            }
            for rec in self.dead_letters(limit)
        ]
        by_reason = self.dead_counts()
        return {
            "total": sum(by_reason.values()),
            "by_reason": by_reason,
            "recent": recent,
        }

    # -- maintenance -------------------------------------------------------
    def checkpoint(self, keep_dead: bool = True) -> dict[str, int]:
        """Flush, then drop terminal records the journal no longer needs.

        Delivered/absorbed records exist only so a crash between delivery
        and mark can be resolved; once committed they are garbage.  Dead
        records are kept by default (they *are* the dead-letter queue);
        ``keep_dead=False`` purges them too.
        """
        self.flush()
        states = (DELIVERED, ABSORBED) if keep_dead else _TERMINAL
        marks = ",".join("?" for _ in states)
        with self._db_lock, self._conn:
            cursor = self._conn.execute(
                f"DELETE FROM journal WHERE state IN ({marks})", states
            )
            removed = cursor.rowcount
        return {
            "removed": removed,
            "pending": self.pending_count(),
            "dead": 0 if not keep_dead else self.counts().get(DEAD, 0),
        }

    # -- introspection -----------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        with self._cond:
            buffered = len(self._pending)
        return {
            "appended": self._n_appended,
            "commits": self._n_commits,
            "committed_ops": self._n_committed_ops,
            "buffered_ops": buffered,
            "corrupt_skipped": self._n_corrupt_skipped,
        }


# -- sharded journals ------------------------------------------------------
#
# The shard supervisor gives every dispatcher worker its own journal file
# in one directory: journal-shard0.db, journal-shard1.db, ...  Each worker
# recovers only its own file at boot, so a single-shard crash replays only
# that shard's backlog; the supervisor uses discovery to report the merged
# pending picture across a full restart.

SHARD_JOURNAL_PREFIX = "journal-shard"


def shard_journal_path(directory: str, shard_id: int) -> str:
    """The canonical journal path for ``shard_id`` under ``directory``."""
    import os

    return os.path.join(directory, f"{SHARD_JOURNAL_PREFIX}{shard_id}.db")


def discover_shard_journals(directory: str) -> dict[int, str]:
    """Map shard id -> journal path for every shard journal on disk.

    Used for merged recovery on supervisor restart: the set of files is
    the authoritative record of which shards had taken responsibility
    for messages, independent of the shard count the supervisor restarts
    with.
    """
    import os
    import re

    pattern = re.compile(
        rf"^{re.escape(SHARD_JOURNAL_PREFIX)}(\d+)\.db$"
    )
    found: dict[int, str] = {}
    try:
        names = os.listdir(directory)
    except OSError:
        return found
    for name in names:
        match = pattern.match(name)
        if match:
            found[int(match.group(1))] = os.path.join(directory, name)
    return found


def merged_recovery_report(directory: str) -> dict[int, int]:
    """Pending (enqueued) record count per shard journal in ``directory``.

    Read-only: opens each journal just long enough to count, so it is
    safe to call from the supervisor while workers own the files.
    """
    report: dict[int, int] = {}
    for shard_id, path in sorted(discover_shard_journals(directory).items()):
        try:
            conn = sqlite3.connect(path)
            try:
                row = conn.execute(
                    "SELECT COUNT(*) FROM journal WHERE state = ?",
                    (ENQUEUED,),
                ).fetchone()
                report[shard_id] = int(row[0]) if row else 0
            finally:
                conn.close()
        except sqlite3.Error:
            report[shard_id] = -1  # unreadable: surfaced, not hidden
    return report
