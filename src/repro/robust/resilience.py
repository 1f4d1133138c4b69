"""Resilience primitives: deadlines, retry policies, circuit breakers.

The serving stack (PR 6) made the library long-running; this module
makes it *time-bounded*.  Three small, dependency-light primitives that
every layer above can share:

:class:`Deadline`
    A point on the monotonic clock by which work must finish.  Created
    once at the edge (e.g. from a request's ``deadline_ms``) and passed
    down through queues and registries, so each layer asks the same
    clock the same question — "is there still time for this?" — instead
    of re-deriving its own timeout.  :meth:`Deadline.require` turns an
    expired deadline into a typed
    :class:`~repro.robust.errors.DeadlineExceededError`.

:class:`RetryPolicy`
    Exponential backoff with full jitter (the AWS-architecture-blog
    variant: ``sleep = uniform(0, min(cap, base * 2**attempt))``).
    Fixed-interval retries synchronise clients into thundering herds;
    full jitter spreads them out, which is why ``tools/serve_client.py``
    dials with this policy instead of a fixed 100 ms loop.

:class:`CircuitBreaker`
    A thread-safe closed → open → half-open state machine guarding an
    operation that can fail or blow its time budget repeatedly (the
    motivating case: an autotune search, which builds and times an
    operator per candidate on a cold structure).  After
    ``failure_threshold`` consecutive failures the breaker *opens* and
    :meth:`CircuitBreaker.allow` answers False — callers shed to their
    degraded path immediately instead of queueing up behind a doomed
    operation.  After ``reset_timeout_s`` the breaker goes *half-open*
    and admits up to ``half_open_probes`` trial calls; one success
    closes it again, one failure re-opens it.

All telemetry goes through :mod:`repro.obs` and is therefore free when
no session is active.  A breaker named ``tune`` emits
``tune.breaker.open`` / ``tune.breaker.short_circuit`` counters and a
``tune.breaker.state`` gauge (0 closed, 1 half-open, 2 open).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional

from .. import obs
from .errors import DeadlineExceededError

__all__ = [
    "Deadline",
    "DeadlineExceededError",
    "RetryPolicy",
    "CircuitBreaker",
    "BREAKER_STATES",
]


class Deadline:
    """A monotonic-clock point by which work must complete.

    Immutable and cheap; pass one object through every layer handling
    the same request.  ``Deadline(None)`` (or :meth:`never`) never
    expires, so call sites need no ``if deadline is not None`` guards.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: Optional[float]) -> None:
        #: Absolute ``time.monotonic()`` value, or None for "never".
        self.expires_at = None if expires_at is None else float(expires_at)

    # -- constructors ---------------------------------------------------
    @classmethod
    def after(cls, seconds: Optional[float]) -> "Deadline":
        """Deadline ``seconds`` from now (None → never expires)."""
        if seconds is None:
            return cls(None)
        return cls(time.monotonic() + float(seconds))

    @classmethod
    def after_ms(cls, ms: Optional[float]) -> "Deadline":
        """Deadline ``ms`` milliseconds from now (None → never)."""
        return cls.after(None if ms is None else float(ms) / 1000.0)

    @classmethod
    def never(cls) -> "Deadline":
        """A deadline that never expires."""
        return cls(None)

    # -- queries --------------------------------------------------------
    @property
    def bounded(self) -> bool:
        """Whether this deadline can ever expire."""
        return self.expires_at is not None

    def remaining(self) -> Optional[float]:
        """Seconds left (may be negative once expired); None if
        unbounded."""
        if self.expires_at is None:
            return None
        return self.expires_at - time.monotonic()

    def remaining_or(self, default: float) -> float:
        """Seconds left, or ``default`` when unbounded — the form wait
        primitives want (``q.get(timeout=d.remaining_or(0.2))``)."""
        rem = self.remaining()
        return default if rem is None else rem

    def expired(self) -> bool:
        """True once the monotonic clock has passed the deadline."""
        return self.expires_at is not None \
            and time.monotonic() >= self.expires_at

    def require(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceededError` if expired (else no-op)."""
        if self.expired():
            raise DeadlineExceededError(what,
                                        overrun_s=-self.remaining())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.expires_at is None:
            return "Deadline(never)"
        return f"Deadline(in {self.remaining():+.3f}s)"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter.

    ``delay(attempt)`` for attempt 0, 1, 2, ... draws uniformly from
    ``[0, min(max_delay_s, base_delay_s * 2**attempt)]`` — full jitter.
    ``jitter="none"`` gives the deterministic envelope instead (used by
    tests asserting the cap).  :meth:`delays` yields delays while a
    :class:`Deadline` still has time, capping the sleep to what
    remains, so a retry loop can never overshoot its total budget.
    """

    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: str = "full"  # "full" | "none"

    def __post_init__(self) -> None:
        if self.base_delay_s <= 0:
            raise ValueError("base_delay_s must be positive")
        if self.max_delay_s < self.base_delay_s:
            raise ValueError("max_delay_s must be >= base_delay_s")
        if self.jitter not in ("full", "none"):
            raise ValueError(f"unknown jitter mode {self.jitter!r}")

    def delay(self, attempt: int,
              rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        # min() before the power could overflow is unnecessary: cap the
        # exponent so 2**attempt stays a small float.
        exp = min(int(attempt), 63)
        cap = min(self.max_delay_s, self.base_delay_s * (2.0 ** exp))
        if self.jitter == "none":
            return cap
        return (rng or random).uniform(0.0, cap)

    def delays(self, deadline: Deadline,
               rng: Optional[random.Random] = None) -> Iterator[float]:
        """Yield successive backoff delays until ``deadline`` expires,
        each clipped to the time remaining."""
        attempt = 0
        while not deadline.expired():
            d = self.delay(attempt, rng)
            rem = deadline.remaining()
            if rem is not None:
                if rem <= 0:
                    return
                d = min(d, rem)
            yield d
            attempt += 1


#: Breaker states, in escalation order; the ``<name>.breaker.state``
#: gauge publishes the index.
BREAKER_STATES = ("closed", "half_open", "open")


class CircuitBreaker:
    """Thread-safe closed → open → half-open circuit breaker.

    Protocol::

        if breaker.allow():
            try:
                result = risky()
            except Exception:
                breaker.record_failure()
                raise
            breaker.record_success()
        else:
            result = degraded()   # shed immediately

    ``allow()`` is where the state machine lives: it re-arms an open
    breaker into half-open once ``reset_timeout_s`` has passed, admits
    at most ``half_open_probes`` concurrent trial calls in half-open,
    and counts every refusal as ``<name>.breaker.short_circuit``.
    A probe's ``record_success`` closes the breaker; ``record_failure``
    re-opens it (and restarts the reset clock).
    """

    def __init__(self, name: str = "breaker",
                 failure_threshold: int = 3,
                 reset_timeout_s: float = 30.0,
                 half_open_probes: int = 1,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be positive")
        if half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self.half_open_probes = int(half_open_probes)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0          # consecutive failures while closed
        self._opened_at: Optional[float] = None
        self._probes = 0            # in-flight half-open trial calls

    # -- state ----------------------------------------------------------
    def _resolve_state_locked(self) -> str:
        if self._state == "open" and self._opened_at is not None \
                and self._clock() - self._opened_at >= self.reset_timeout_s:
            self._state = "half_open"
            self._probes = 0
            obs.add_counter(f"{self.name}.breaker.half_open")
        return self._state

    @property
    def state(self) -> str:
        """Current state (``closed``/``half_open``/``open``), resolving
        an elapsed reset timeout."""
        with self._lock:
            return self._resolve_state_locked()

    def snapshot(self) -> Dict[str, Any]:
        """Introspection dict for health endpoints and logs."""
        with self._lock:
            state = self._resolve_state_locked()
            return {
                "name": self.name,
                "state": state,
                "consecutive_failures": self._failures,
                "failure_threshold": self.failure_threshold,
                "reset_timeout_s": self.reset_timeout_s,
            }

    def _publish_state_locked(self) -> None:
        obs.set_gauge(f"{self.name}.breaker.state",
                      BREAKER_STATES.index(self._state))

    # -- the protocol ---------------------------------------------------
    def allow(self) -> bool:
        """Whether a call may proceed now (False → shed immediately)."""
        with self._lock:
            state = self._resolve_state_locked()
            if state == "closed":
                return True
            if state == "half_open" and self._probes < self.half_open_probes:
                self._probes += 1
                obs.add_counter(f"{self.name}.breaker.probes")
                return True
            obs.add_counter(f"{self.name}.breaker.short_circuit")
            return False

    def record_success(self) -> None:
        """A guarded call succeeded: reset (and close after a probe)."""
        with self._lock:
            state = self._resolve_state_locked()
            if state == "half_open":
                self._state = "closed"
                obs.add_counter(f"{self.name}.breaker.close")
            self._failures = 0
            self._opened_at = None
            self._probes = 0
            self._publish_state_locked()

    def record_failure(self) -> None:
        """A guarded call failed (raised or blew its budget)."""
        with self._lock:
            state = self._resolve_state_locked()
            self._failures += 1
            if state == "half_open" \
                    or self._failures >= self.failure_threshold:
                if self._state != "open":
                    obs.add_counter(f"{self.name}.breaker.open")
                self._state = "open"
                self._opened_at = self._clock()
                self._probes = 0
            self._publish_state_locked()

    def reset(self) -> None:
        """Force-close (tests and operator intervention)."""
        with self._lock:
            self._state = "closed"
            self._failures = 0
            self._opened_at = None
            self._probes = 0
            self._publish_state_locked()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CircuitBreaker({self.name!r}, state={self.state!r}, "
                f"failures={self._failures})")
