"""Resilience primitives for the quantile service plane.

Three cooperating pieces, shared by the clients and the server:

* :class:`RetryPolicy` / :class:`RetryState` — the client side.  A policy
  describes *how* to retry (per-operation timeout, capped exponential
  backoff with deterministic jitter, a total retry budget); a state is
  one client's live counter against that policy.  Jitter is seeded so a
  chaos test replays the exact same backoff schedule every run.
* :class:`SessionTable` — the server side of exactly-once ingest.  Each
  client session (a random id sent in ``HELLO``) owns per-**key**
  high-water marks over its frame sequence numbers: a sequenced frame
  applies only when its ``seq`` exceeds the mark for that ``(session,
  key)`` pair, otherwise it is acknowledged *without* being applied.
  The marks ride the WAL (``WAL_SEQ_INGEST`` records carry the session
  header) and checkpoint to a sidecar file, so deduplication survives a
  server restart — a replayed frame is never double-counted even when
  the crash happened between apply and ack.

  The marks are per ``(session, key)`` rather than per session on
  purpose: the WAL coalesces each key's frames into its own record, so a
  torn tail can lose key B's record while keeping key A's later one.  A
  session-global mark would then wrongly deduplicate B's retry — an
  acked-but-never-counted value.  Per-key marks make the dedup decision
  exactly as granular as the durability unit.

  Dedup-by-high-water assumes each key's applied sequence numbers are
  gap-free, so overload shedding records a per-session **shed floor**:
  once the server sheds sequence ``s`` it keeps shedding every later
  sequence from that session until ``s`` itself is retried, which keeps
  a shed frame from being wrongly deduplicated after its successors
  were applied (see :meth:`SessionTable.admit`).
* :class:`OverloadPolicy` — when to shed.  Ingest-class frames are
  refused with ``STATUS_RETRY_LATER`` when the group-commit WAL queue or
  a connection's parse buffer crosses its watermark; reads keep flowing
  (they are cheap and never grow durable state), so a saturated service
  degrades to read-only instead of falling over.
"""

from __future__ import annotations

import os
import random
import struct
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional

from repro.errors import InvalidParameterError, RetryBudgetExceededError, ServiceError

__all__ = [
    "RetryPolicy",
    "RetryState",
    "SessionTable",
    "OverloadPolicy",
    "ADMIT_APPLY",
    "ADMIT_DUPLICATE",
    "ADMIT_SHED",
]

#: :meth:`SessionTable.admit` verdicts.
ADMIT_APPLY = "apply"
ADMIT_DUPLICATE = "duplicate"
ADMIT_SHED = "shed"


class RetryPolicy:
    """How a client retries: timeout, capped backoff + jitter, budget.

    Immutable and shareable; per-client counters live in the
    :class:`RetryState` minted by :meth:`start`.

    Args:
        timeout: Per-operation socket timeout in seconds (``None`` blocks
            forever — reconnects are then driven only by hard transport
            errors, never by a stall).
        retries: Reconnect/resend attempts per failed operation before
            giving up on it.
        backoff: First retry delay in seconds; doubles per attempt.
        backoff_max: Hard cap on a single delay.
        jitter: Fraction of each delay randomized away (``0.5`` means the
            actual sleep is uniform in ``[delay/2, delay]``), so a fleet
            of clients retrying the same outage does not reconnect in
            lockstep.
        budget: Total retry events one client may spend across its whole
            lifetime (reconnects and overload backoffs both count).
            Exhausting it raises
            :class:`~repro.errors.RetryBudgetExceededError` — a persistent
            outage becomes one loud failure instead of an infinite loop.
        seed: Seed for the jitter stream (``None`` = nondeterministic).
            Chaos tests pin it so every run replays the same schedule.
    """

    __slots__ = ("timeout", "retries", "backoff", "backoff_max", "jitter", "budget", "seed")

    def __init__(
        self,
        *,
        timeout: Optional[float] = 5.0,
        retries: int = 5,
        backoff: float = 0.05,
        backoff_max: float = 2.0,
        jitter: float = 0.5,
        budget: int = 64,
        seed: Optional[int] = None,
    ) -> None:
        if retries < 0:
            raise InvalidParameterError(f"retries must be >= 0, got {retries}")
        if backoff < 0 or backoff_max < 0:
            raise InvalidParameterError("backoff delays must be >= 0")
        if not 0.0 <= jitter <= 1.0:
            raise InvalidParameterError(f"jitter must be in [0, 1], got {jitter}")
        if budget < 1:
            raise InvalidParameterError(f"budget must be >= 1, got {budget}")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_max = backoff_max
        self.jitter = jitter
        self.budget = budget
        self.seed = seed

    def start(self) -> "RetryState":
        """A fresh per-client retry state (its own budget + jitter stream)."""
        return RetryState(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"RetryPolicy(timeout={self.timeout}, retries={self.retries}, "
            f"backoff={self.backoff}, backoff_max={self.backoff_max}, "
            f"jitter={self.jitter}, budget={self.budget}, seed={self.seed})"
        )


class RetryState:
    """One client's live counters against a :class:`RetryPolicy`."""

    __slots__ = ("policy", "spent", "_rng")

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self.spent = 0
        self._rng = random.Random(policy.seed)

    def spend(self, cause: Optional[BaseException] = None) -> None:
        """Charge one retry event against the budget; raise when exhausted."""
        self.spent += 1
        if self.spent > self.policy.budget:
            raise RetryBudgetExceededError(
                f"retry budget of {self.policy.budget} exhausted"
            ) from cause

    def delay(self, attempt: int) -> float:
        """The jittered backoff delay for (0-indexed) ``attempt``."""
        policy = self.policy
        base = min(policy.backoff * (2.0**attempt), policy.backoff_max)
        if policy.jitter and base > 0:
            base -= self._rng.random() * policy.jitter * base
        return base


class _SessionEntry:
    __slots__ = ("marks", "shed_floor")

    def __init__(self) -> None:
        #: key -> highest applied frame sequence number.
        self.marks: Dict[str, int] = {}
        #: Lowest shed (refused-for-overload) sequence not yet retried.
        self.shed_floor: Optional[int] = None


#: Sidecar file framing: magic, then ``u32 session_count`` + per-session
#: ``u16 sid_len, sid, u32 key_count`` + per-key ``u16 key_len, key,
#: u64 mark``, then ``u32 crc32`` over everything after the magic.
_SESS_MAGIC = b"RQS1"
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class SessionTable:
    """Per-``(session, key)`` high-water marks for exactly-once ingest.

    LRU-bounded: ``max_sessions`` live sessions are tracked; the least
    recently active is dropped past that.  A dropped session that comes
    back is treated as new — its old marks are gone, so its *very old*
    retries could double-apply; the cap should therefore sit well above
    the realistic live-client count (the default tracks 4096 sessions,
    and every ``HELLO``/frame touches its session, so only sessions idle
    past thousands of newer ones age out).
    """

    def __init__(self, max_sessions: int = 4096) -> None:
        if max_sessions < 1:
            raise InvalidParameterError(f"max_sessions must be >= 1, got {max_sessions}")
        self.max_sessions = max_sessions
        self._sessions: "OrderedDict[str, _SessionEntry]" = OrderedDict()
        #: Sessions evicted over this table's lifetime (observability).
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def _entry(self, sid: str) -> _SessionEntry:
        entry = self._sessions.get(sid)
        if entry is None:
            entry = self._sessions[sid] = _SessionEntry()
            while len(self._sessions) > self.max_sessions:
                self._sessions.popitem(last=False)
                self.evicted += 1
        else:
            self._sessions.move_to_end(sid)
        return entry

    def hello(self, sid: str) -> int:
        """Register/touch ``sid``; returns its highest mark across keys."""
        entry = self._entry(sid)
        return max(entry.marks.values(), default=0)

    def high_water(self, sid: str, key: str) -> int:
        entry = self._sessions.get(sid)
        return 0 if entry is None else entry.marks.get(key, 0)

    def admit(self, sid: str, key: str, seq: int, *, shedding: bool = False) -> str:
        """Decide one sequenced frame's fate; returns an ``ADMIT_*`` verdict.

        ``ADMIT_APPLY`` advances the mark — the caller MUST apply the
        values (and persist the mark with them).  ``ADMIT_DUPLICATE``
        means the frame was already applied: acknowledge without
        applying.  ``ADMIT_SHED`` refuses the frame for overload.

        The shed floor keeps applied sequences gap-free: after shedding
        ``s``, every ``seq > s`` from the session is shed too (even once
        load drops) until ``s`` itself comes back — otherwise a later
        frame could advance the mark past the shed one and its retry
        would be wrongly deduplicated.
        """
        entry = self._entry(sid)
        mark = entry.marks.get(key, 0)
        if seq <= mark:
            # Already applied.  A replay at-or-under the shed floor means
            # the client rewound; fresh frames may flow again.
            if entry.shed_floor is not None and seq <= entry.shed_floor:
                entry.shed_floor = None
            return ADMIT_DUPLICATE
        if entry.shed_floor is not None and seq > entry.shed_floor:
            return ADMIT_SHED
        if shedding:
            floor = entry.shed_floor
            entry.shed_floor = seq if floor is None else min(floor, seq)
            return ADMIT_SHED
        entry.shed_floor = None
        entry.marks[key] = seq
        return ADMIT_APPLY

    def release_redirected(self, sid: str, seq: int) -> None:
        """Lift the shed floor when the frame it waits for was redirected.

        A frame shed while its key was frozen for a cutover pins the
        floor at its ``seq``; its retry is then answered
        ``WRONG_TOPOLOGY`` before :meth:`admit` runs, so the floor would
        otherwise never clear and shed every later frame of the session.
        Releasing it keeps applies gap-free: a redirected frame never
        applies on this node, and each mark is per ``(session, key)`` —
        the redirected key's later frames are redirected too, and no
        other key's mark can pass over a frame of the redirected key.
        The client resends in sequence order, so the session is left
        exactly as if the frame had been redirected without being shed.
        """
        entry = self._sessions.get(sid)
        if entry is not None and entry.shed_floor == seq:
            entry.shed_floor = None

    def revert(self, sid: str, key: str, mark: int, failed_seq: int) -> None:
        """Roll the mark back after an admitted frame FAILED to apply.

        :meth:`admit` advances the mark *before* the caller applies the
        values (apply can itself spill/snapshot, which persists the
        mark).  When the apply then fails — a full disk refusing the WAL
        append — the advanced mark would make the client's retry of that
        very frame look like a duplicate: an acknowledgement for values
        that never landed, the one lie exactly-once must never tell.
        The server therefore reverts: ``mark`` is the pre-admit high
        water to restore, ``failed_seq`` the highest sequence whose
        apply failed.  The shed floor is pinned at ``failed_seq`` so any
        *later* already-pipelined frame is shed (gap-free applies, same
        invariant as an overload shed) until the failed frame is
        retried.
        """
        entry = self._sessions.get(sid)
        if entry is None:
            return
        if entry.marks.get(key, 0) > mark:
            if mark > 0:
                entry.marks[key] = mark
            else:
                entry.marks.pop(key, None)
        floor = entry.shed_floor
        entry.shed_floor = failed_seq if floor is None else min(floor, failed_seq)

    def observe(self, sid: str, key: str, seq: int) -> None:
        """Recovery path: fold a durable ``(sid, key, seq)`` into the marks."""
        entry = self._entry(sid)
        if seq > entry.marks.get(key, 0):
            entry.marks[key] = seq

    def marks_for_key(self, key: str) -> Dict[str, int]:
        """Every session's high-water mark for ``key``: ``{sid: mark}``.

        The migration export: shipping these with a key's sketch keeps
        exactly-once dedup intact at the new owner — a client retry that
        lands post-move is recognized as a duplicate there.  Does not
        touch LRU order (an export must not keep dying sessions alive).
        """
        out: Dict[str, int] = {}
        for sid, entry in self._sessions.items():
            mark = entry.marks.get(key)
            if mark:
                out[sid] = mark
        return out

    # -- checkpoint persistence ----------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize every mark (shed floors are transient; not included)."""
        parts = [_U32.pack(len(self._sessions))]
        for sid, entry in self._sessions.items():
            raw_sid = sid.encode("utf-8")
            parts.append(_U16.pack(len(raw_sid)))
            parts.append(raw_sid)
            parts.append(_U32.pack(len(entry.marks)))
            for key, mark in entry.marks.items():
                raw_key = key.encode("utf-8")
                parts.append(_U16.pack(len(raw_key)))
                parts.append(raw_key)
                parts.append(_U64.pack(mark))
        body = b"".join(parts)
        return _SESS_MAGIC + body + _U32.pack(zlib.crc32(body))

    def load_bytes(self, data: bytes) -> None:
        """Fold a serialized table into this one (checkpoint recovery)."""
        if len(data) < len(_SESS_MAGIC) + _U32.size or data[:4] != _SESS_MAGIC:
            raise ServiceError("corrupt session table: bad magic")
        body = data[4 : -_U32.size]
        (crc,) = _U32.unpack_from(data, len(data) - _U32.size)
        if zlib.crc32(body) != crc:
            raise ServiceError("corrupt session table: CRC mismatch")
        try:
            offset = 0
            (count,) = _U32.unpack_from(body, offset)
            offset += _U32.size
            for _ in range(count):
                (sid_len,) = _U16.unpack_from(body, offset)
                offset += _U16.size
                sid = body[offset : offset + sid_len].decode("utf-8")
                offset += sid_len
                (nkeys,) = _U32.unpack_from(body, offset)
                offset += _U32.size
                for _ in range(nkeys):
                    (key_len,) = _U16.unpack_from(body, offset)
                    offset += _U16.size
                    key = body[offset : offset + key_len].decode("utf-8")
                    offset += key_len
                    (mark,) = _U64.unpack_from(body, offset)
                    offset += _U64.size
                    self.observe(sid, key, mark)
        except (struct.error, UnicodeDecodeError) as exc:
            raise ServiceError(f"corrupt session table: {exc}") from exc

    def save(self, path, *, fsync: bool = False) -> None:
        """Atomically write the table to ``path`` (temp file + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            handle.write(self.to_bytes())
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        tmp.replace(path)

    def load(self, path) -> bool:
        """Fold ``path`` into the table; ``False`` when the file is absent."""
        path = Path(path)
        if not path.exists():
            return False
        self.load_bytes(path.read_bytes())
        return True


class OverloadPolicy:
    """When the server sheds ingest: WAL queue + parse-buffer watermarks.

    Writes are shed before reads — ingest is what grows the WAL queue and
    the durable state, while reads are answered from in-memory summaries
    in microseconds — so an overloaded service degrades to read-only.

    Args:
        max_wal_queue: Shed ingest once this many records sit in the
            group-commit queue (well under the WAL's own blocking
            backpressure limit, so shedding engages before the event
            loop ever stalls on the disk).
        max_buffer_bytes: Shed ingest arriving on a connection whose
            parse buffer has grown past this watermark (one client
            pipelining far ahead of the server's drain rate).
    """

    __slots__ = ("max_wal_queue", "max_buffer_bytes")

    def __init__(
        self,
        *,
        max_wal_queue: int = 8192,
        max_buffer_bytes: int = 32 * 1024 * 1024,
    ) -> None:
        if max_wal_queue < 1:
            raise InvalidParameterError(f"max_wal_queue must be >= 1, got {max_wal_queue}")
        if max_buffer_bytes < 1:
            raise InvalidParameterError(
                f"max_buffer_bytes must be >= 1, got {max_buffer_bytes}"
            )
        self.max_wal_queue = max_wal_queue
        self.max_buffer_bytes = max_buffer_bytes

    def should_shed(self, *, wal_queue_depth: int, buffer_bytes: int = 0) -> bool:
        return wal_queue_depth >= self.max_wal_queue or buffer_bytes >= self.max_buffer_bytes
