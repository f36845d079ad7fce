"""Shared exception types."""


class UsageError(ValueError):
    """Invalid input or misuse of an API contract (bad characteristic,
    mismatched rings, out-of-range catalog parameters, ...)."""


class EngineLimitError(RuntimeError):
    """The engine's work budget ran out: the step cap (--step-cap) on
    reduction steps and S-pairs, weighted by polynomial size.

    This is always a resource report, never a wrong answer.
    """


class ConsistencyError(RuntimeError):
    """Contradictory evidence: a sufficient descent certificate together
    with a failing necessary criterion.  Indicates corrupt input data or
    an engine bug and is deliberately loud."""
