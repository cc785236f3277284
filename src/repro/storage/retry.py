"""Bounded exponential-backoff retry for transient storage reads.

Only :class:`~repro.errors.TransientIOError` is retried — it marks
faults that may not recur (flaky device, injected fault).  Permanent
corruption (:class:`~repro.errors.ChecksumError`,
:class:`~repro.errors.PageFormatError`) is never retried: rereading the
same bad bytes cannot help.

The policy is deterministic given its seed: jitter comes from a private
``random.Random``, and the sleep function is injectable so tests (and
the in-memory page files, whose "transient" faults are injected) never
actually block.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.errors import TransientIOError
from repro.obs import recorder as flight

T = TypeVar("T")


@dataclass
class RetryPolicy:
    """Capped exponential backoff with seeded jitter."""

    #: Total tries, including the first one.
    max_attempts: int = 4
    #: Sleep before the first retry, in seconds.
    base_delay: float = 0.001
    #: Backoff multiplier per retry.
    multiplier: float = 2.0
    #: Ceiling on any single sleep, in seconds.
    max_delay: float = 0.050
    #: Fraction of the delay randomized away (0 → fully deterministic).
    jitter: float = 0.5
    #: Jitter seed, so backoff schedules are reproducible.
    seed: int = 0
    #: Injectable sleeper (tests pass a no-op to keep retries instant).
    sleep: Callable[[float], None] = time.sleep
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        self._rng = random.Random(self.seed)

    def delay_for(self, retry_index: int) -> float:
        """Sleep before retry number ``retry_index`` (0-based), jittered."""
        delay = min(self.base_delay * self.multiplier**retry_index, self.max_delay)
        if self.jitter:
            delay *= 1.0 - self.jitter * self._rng.random()
        return delay


#: Shared default: 4 attempts, 1 ms → 50 ms backoff.  Module-level so
#: every :class:`~repro.storage.pagefile.PagedFile` does not carry its
#: own RNG state.
DEFAULT_RETRY_POLICY = RetryPolicy()


def retry_io(operation: Callable[..., T], policy: RetryPolicy | None = None, *args) -> T:
    """Run ``operation(*args)``, retrying ``TransientIOError`` per ``policy``.

    Raises the last ``TransientIOError`` once attempts are exhausted;
    every other exception propagates immediately.
    """
    policy = policy or DEFAULT_RETRY_POLICY
    for retry_index in range(policy.max_attempts):
        try:
            return operation(*args)
        except TransientIOError:
            if retry_index == policy.max_attempts - 1:
                flight.record(
                    "storage.retry_exhausted", attempts=policy.max_attempts
                )
                raise
            delay = policy.delay_for(retry_index)
            flight.record(
                "storage.retry",
                attempt=retry_index + 1,
                delay_s=round(delay, 6),
            )
            policy.sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
