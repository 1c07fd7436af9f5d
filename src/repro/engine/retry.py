"""Per-task retry policies for the evaluation engine.

A transiently failing task — a worker hiccup, an injected chaos fault,
a flaky external resource — should not kill a whole sweep.  Attaching a
:class:`TaskRetryPolicy` to an :class:`~repro.engine.EvaluationEngine`
makes the engine re-run a failed task up to ``max_attempts`` times when
the failure is *retryable* (an instance of one of the policy's
``retryable`` exception types), sleeping the shared capped-exponential
backoff (:func:`repro.resilience.retry.backoff_delay`) between
attempts.  Exhausted retries re-raise the last failure, so the original
diagnostic always surfaces; non-retryable exceptions propagate on the
first attempt, untouched.

Retries never change outputs: a task that eventually succeeds returns
the same value it would have returned on a clean first attempt, and
results are still assembled by index/name.  Attempt counts are recorded
in the ``engine_task_retries`` metric and in journal ``task_result``
records (``attempts`` field), so an instrumented or resumed run shows
exactly how hard the engine had to work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple, Type

from .._validation import check_positive_int
from ..errors import TransientTaskError, ValidationError

__all__ = ["TaskRetryPolicy"]


@dataclass(frozen=True)
class TaskRetryPolicy:
    """Bounded retry of transiently failing engine tasks.

    Parameters
    ----------
    max_attempts:
        Total attempts per task, including the first (``1`` disables
        retrying while keeping the policy object valid).
    backoff_base / backoff_factor / backoff_cap:
        The shared backoff law (:func:`repro.resilience.retry.backoff_delay`):
        the wait before retry ``i`` (0-based) is
        ``min(cap, base * factor**i)``.  The default base of ``0`` makes
        retries immediate — engine tasks are usually pure computations
        where waiting buys nothing; raise it when tasks touch shared
        external resources.
    retryable:
        Exception types that trigger a retry; anything else propagates
        immediately.  Defaults to
        :class:`~repro.errors.TransientTaskError` only — retrying
        arbitrary exceptions would mask real bugs.

    Examples
    --------
    >>> policy = TaskRetryPolicy(max_attempts=4, backoff_base=0.5)
    >>> [policy.backoff_delay(i) for i in range(3)]
    [0.5, 1.0, 2.0]
    >>> policy.is_retryable(TransientTaskError("worker hiccup"))
    True
    >>> policy.is_retryable(ValueError("bad spec"))
    False
    """

    max_attempts: int = 3
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_cap: float = 30.0
    retryable: Tuple[Type[BaseException], ...] = field(
        default=(TransientTaskError,)
    )

    def __post_init__(self):
        check_positive_int(self.max_attempts, "max_attempts")
        if self.backoff_base < 0.0 or math.isnan(self.backoff_base):
            raise ValidationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise ValidationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if math.isnan(self.backoff_cap) or self.backoff_cap < 0.0:
            raise ValidationError(
                f"backoff_cap must be >= 0 (inf allowed), got "
                f"{self.backoff_cap}"
            )
        retryable = tuple(self.retryable)
        for item in retryable:
            if not (isinstance(item, type)
                    and issubclass(item, BaseException)):
                raise ValidationError(
                    f"retryable must contain exception types, got {item!r}"
                )
        object.__setattr__(self, "retryable", retryable)

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether *exc* should trigger another attempt."""
        return isinstance(exc, self.retryable)

    def backoff_delay(self, retry_index: int) -> float:
        """Seconds to wait before retry number *retry_index* (0-based)."""
        from ..resilience.retry import backoff_delay

        return backoff_delay(
            retry_index,
            base=self.backoff_base,
            factor=self.backoff_factor,
            cap=self.backoff_cap,
        )
