"""Fault-tolerance policies: call deadlines, retries, circuit breaking.

The paper's pitch (§5) is that an actor-oriented database gives IoT
platforms Orleans-style resilience: virtual actors re-place after a silo
failure and callers see a transient error, not lost state.  This module
holds the *policy* half of that story — the mechanism (failure detection,
directory repair, re-activation) lives in :mod:`repro.runtime.runtime`:

- :class:`RetryPolicy` — declarative retry behaviour applied transparently
  by :class:`~repro.runtime.reference.ActorRef` to ask-style calls.
  One-way tells are never retried: a tell acknowledges *enqueue*, so the
  caller observes no failure to react to, and blind re-sends would break
  at-most-once expectations for non-idempotent handlers.
- :class:`CircuitBreaker` — failure-rate gate used by the ingest gateway to
  degrade to bounded queueing (load shedding) while storage is throttling.

Both are deterministic: backoff jitter is drawn from a seeded RNG stream
and all clocks are the virtual scheduler clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import DeadlineExceededError, SiloUnavailableError, ThrottledError
from ..kernel.scheduler import Scheduler

#: Error classes a retry policy treats as transient unless told otherwise.
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    SiloUnavailableError,
    ThrottledError,
    DeadlineExceededError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry behaviour for ask-style actor calls.

    ``max_attempts`` counts the first try: ``max_attempts=1`` disables
    retries.  Backoff for attempt *n* (1-based) is
    ``min(max_delay, base_delay * multiplier ** (n - 1))``, spread by
    ``jitter`` (a fraction: 0.5 means ±50%) drawn from a seeded stream, and
    never below the ``retry_after`` hint carried by a
    :class:`~repro.errors.ThrottledError`.

    ``attempt_timeout`` bounds each individual attempt in virtual seconds so
    a *silently lost* message (chaos harness, dead silo) turns into a
    retryable :class:`~repro.errors.DeadlineExceededError` instead of
    consuming the whole call deadline.  Retrying after an attempt timeout
    gives at-least-once delivery — the timed-out invocation may still
    execute later — which is the standard trade the caller opts into.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    attempt_timeout: float | None = None
    retryable: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE

    def validate(self) -> None:
        """Raise ValueError on nonsensical settings."""
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.attempt_timeout is not None and self.attempt_timeout <= 0:
            raise ValueError("attempt_timeout must be positive")

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) may be retried."""
        if attempt >= self.max_attempts:
            return False
        return isinstance(error, self.retryable)

    def delay_for(
        self, attempt: int, rng: random.Random, error: BaseException | None = None
    ) -> float:
        """Backoff before the attempt *after* ``attempt`` (1-based)."""
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        retry_after = getattr(error, "retry_after", 0.0) or 0.0
        return max(delay, retry_after)


#: A conservative default for interactive callers: a few quick retries.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Explicit "never retry" policy, clearer at call sites than None.
NO_RETRY = RetryPolicy(max_attempts=1)


class CircuitBreaker:
    """A failure-rate gate with closed → open → half-open transitions.

    ``record_failure`` trips the breaker open after ``failure_threshold``
    consecutive failures; while open, :meth:`allow` answers False so callers
    shed or queue work instead of piling onto a struggling dependency.
    After ``reset_timeout`` virtual seconds the breaker half-opens: probes
    are allowed through, one success closes it, one failure re-opens it.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        scheduler: Scheduler,
        failure_threshold: int = 5,
        reset_timeout: float = 5.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        self._scheduler = scheduler
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self.opens = 0

    @property
    def state(self) -> str:
        """Current state: ``closed``, ``open`` or ``half_open``."""
        if self._opened_at is None:
            return self.CLOSED
        if self._scheduler.now - self._opened_at >= self.reset_timeout:
            return self.HALF_OPEN
        return self.OPEN

    def allow(self) -> bool:
        """Whether a request may proceed right now."""
        return self.state != self.OPEN

    def seconds_until_probe(self) -> float:
        """Virtual seconds until an open breaker half-opens (0 otherwise)."""
        if self._opened_at is None:
            return 0.0
        return max(0.0, self._opened_at + self.reset_timeout - self._scheduler.now)

    def record_success(self) -> None:
        """Note a success; closes a half-open breaker."""
        self._consecutive_failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        """Note a failure; may trip (or re-trip) the breaker open."""
        if self._opened_at is not None:
            # A failed half-open probe re-opens the full timeout window.
            self._opened_at = self._scheduler.now
            self.opens += 1
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.failure_threshold:
            self._opened_at = self._scheduler.now
            self.opens += 1

