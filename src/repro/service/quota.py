"""Per-tenant token-bucket quotas for the why-not service.

A service facing traffic from many tenants must not let one of them
starve the rest: admission control (the bounded pending queue of
:mod:`repro.service.state`) protects the *process*, quotas protect the
*other tenants*.  The classic mechanism is a token bucket per tenant:
``burst`` tokens of capacity, refilled at ``rate_per_s``; a request
costs one token, and a tenant who spent the bucket is refused with the
exact number of seconds until a token is available again -- which the
HTTP layer surfaces as ``429`` + ``Retry-After``.

All time flows through the injectable clock of :mod:`repro.obs.clock`,
so quota tests drive refills with a
:class:`~repro.obs.clock.ManualClock` instead of sleeping, and a server
run under ``REPRO_MANUAL_CLOCK`` has fully deterministic quota
decisions (no refill ever happens: the burst is the whole budget).
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass

from ..errors import ConfigurationError, QuotaExceededError
from ..obs.clock import current_clock

__all__ = ["QUOTA_BUCKETS", "QuotaSpec", "TokenBucket", "QuotaRegistry"]

#: ``--quota`` grammar: ``RATE/UNIT`` with an optional ``:BURST``
#: (e.g. ``10/s``, ``120/min``, ``5/s:20``).
_QUOTA_RE = re.compile(
    r"^\s*(?P<rate>\d+(?:\.\d+)?)\s*/\s*(?P<unit>s|sec|second|m|min|minute)"
    r"\s*(?::\s*(?P<burst>\d+))?\s*$"
)

_UNIT_SECONDS = {
    "s": 1.0, "sec": 1.0, "second": 1.0,
    "m": 60.0, "min": 60.0, "minute": 60.0,
}

#: Bucket count past which :class:`QuotaRegistry` drops the buckets
#: that have refilled to full before adding a new tenant.
QUOTA_BUCKETS = 1024


@dataclass(frozen=True)
class QuotaSpec:
    """One tenant quota: sustained rate plus burst capacity."""

    rate_per_s: float
    burst: int

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ConfigurationError(
                f"quota rate must be positive, got {self.rate_per_s!r}"
            )
        if self.burst < 1:
            raise ConfigurationError(
                f"quota burst must be >= 1, got {self.burst!r}"
            )

    @classmethod
    def parse(cls, text: str) -> "QuotaSpec":
        """Parse ``RATE/UNIT[:BURST]`` (``10/s``, ``120/min:40``).

        Burst defaults to ``ceil(rate per second)`` with a floor of 1,
        so ``10/s`` admits a 10-request burst and ``30/min`` one
        request at a time.
        """
        match = _QUOTA_RE.match(text)
        if match is None:
            raise ConfigurationError(
                f"cannot parse quota {text!r}; expected RATE/UNIT"
                "[:BURST], e.g. 10/s, 120/min, or 5/s:20"
            )
        rate = float(match.group("rate")) / _UNIT_SECONDS[
            match.group("unit")
        ]
        if rate <= 0:
            raise ConfigurationError(
                f"quota rate must be positive, got {text!r}"
            )
        burst_text = match.group("burst")
        burst = (
            int(burst_text)
            if burst_text is not None
            else max(1, math.ceil(rate))
        )
        return cls(rate_per_s=rate, burst=burst)

    def __str__(self) -> str:
        return f"{self.rate_per_s:g}/s:{self.burst}"


class TokenBucket:
    """One tenant's bucket: thread-safe, clock-injected, lazily refilled.

    The bucket holds at most ``spec.burst`` tokens and gains
    ``spec.rate_per_s`` tokens per second of ambient-clock time,
    computed lazily at each acquire (no timers, no threads).
    :meth:`try_acquire` returns ``0.0`` when a token was taken, or the
    seconds until one token will be available -- the ``Retry-After``
    the HTTP layer reports.
    """

    def __init__(self, spec: QuotaSpec):
        self.spec = spec
        self._tokens = float(spec.burst)
        self._last = current_clock().monotonic()
        self._lock = threading.Lock()

    def try_acquire(self) -> float:
        """Take one token if available; else seconds until one exists."""
        with self._lock:
            # read the clock under the lock: a reading taken before
            # another thread's acquire would move ``_last`` backwards
            # and refill the same interval twice
            now = current_clock().monotonic()
            elapsed = max(0.0, now - self._last)
            self._last = now
            self._tokens = min(
                float(self.spec.burst),
                self._tokens + elapsed * self.spec.rate_per_s,
            )
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.spec.rate_per_s

    def is_full(self, now: float) -> bool:
        """Whether the bucket has refilled to ``burst`` by *now*; a full
        bucket admits exactly like a freshly created one."""
        with self._lock:
            elapsed = max(0.0, now - self._last)
            refilled = self._tokens + elapsed * self.spec.rate_per_s
            return refilled >= self.spec.burst

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def __repr__(self) -> str:
        return f"TokenBucket({self.spec}, tokens={self.tokens:.2f})"


class QuotaRegistry:
    """Lazily-created buckets, one per tenant, sharing one spec.

    ``spec=None`` disables quotas entirely (every check passes), so the
    service can thread one registry object through unconditionally.

    The registry stays bounded under a stream of fresh tenant names:
    once it holds :data:`QUOTA_BUCKETS` buckets, adding a tenant first
    drops every bucket that has refilled to full, which changes no
    quota decision.  A bucket that spent tokens is kept until it has
    refilled, so the scan runs at most once per full refill time
    (``burst / rate`` seconds): by then every bucket left idle since
    the last scan is full.
    """

    def __init__(self, spec: QuotaSpec | None):
        self.spec = spec
        self._buckets: dict[str, TokenBucket] = {}
        self._next_prune = -math.inf
        self._lock = threading.Lock()

    def bucket(self, tenant: str) -> TokenBucket:
        if self.spec is None:
            raise ConfigurationError(
                "this registry has no quota configured"
            )
        with self._lock:
            return self._bucket_locked(tenant)

    def _bucket_locked(self, tenant: str) -> TokenBucket:
        existing = self._buckets.get(tenant)
        if existing is None:
            if len(self._buckets) >= QUOTA_BUCKETS:
                self._prune()
            existing = TokenBucket(self.spec)
            self._buckets[tenant] = existing
        return existing

    def _prune(self) -> None:
        now = current_clock().monotonic()
        if now < self._next_prune:
            return
        self._buckets = {
            name: kept
            for name, kept in self._buckets.items()
            if not kept.is_full(now)
        }
        self._next_prune = now + self.spec.burst / self.spec.rate_per_s

    def reconfigure(self, spec: QuotaSpec | None) -> None:
        """Swap in *spec* for every tenant, atomically.

        Hot reload (SIGHUP / ``POST /v1/admin/reload``) replaces the
        spec and drops the existing buckets, so every tenant starts a
        fresh burst under the new policy.  ``spec=None`` turns
        quotas off.
        """
        with self._lock:
            self.spec = spec
            self._buckets = {}
            self._next_prune = -math.inf

    def check(self, tenant: str) -> None:
        """Admit one request for *tenant* or raise
        :class:`~repro.errors.QuotaExceededError` carrying the retry
        delay (seconds, rounded up to a positive value)."""
        # acquire under the registry lock: a prune must never drop a
        # bucket between its lookup and the token it hands out
        with self._lock:
            spec = self.spec
            if spec is None:
                return
            retry_after = self._bucket_locked(tenant).try_acquire()
        if retry_after > 0.0:
            raise QuotaExceededError(
                f"tenant {tenant!r} exceeded its quota of "
                f"{spec}; retry in {retry_after:.3f}s",
                tenant=tenant,
                retry_after_s=retry_after,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._buckets)

    def __repr__(self) -> str:
        return f"QuotaRegistry({self.spec}, tenants={len(self)})"
