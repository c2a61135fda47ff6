"""Exception types shared across the package."""

__all__ = [
    "ApridError",
    "ConfigError",
    "DivergenceError",
    "ReferenceError",
    "ScheduleExhaustedError",
]


class ApridError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(ApridError):
    """Invalid experiment configuration.

    Collects every problem found during validation so a bad config file is
    reported in one shot instead of one key at a time.
    """

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))

    def itemized(self) -> str:
        return "\n".join(f"  - {p}" for p in self.problems)


class DivergenceError(ApridError):
    """A solver run produced non-finite or unboundedly growing state.

    The run driver fills in the step that failed (``iteration``) and the
    checkpoint records completed before it, so the harness can persist
    partial trajectories: ``partial_results`` holds one RunResult per lane
    of the run, named after the lane, and ``partial_records`` the last
    lane's records (for a one-lane method, its whole partial trajectory).
    """

    def __init__(self, message):
        super().__init__(message)
        self.iteration = None
        self.partial_records = []
        self.partial_results = []


class ReferenceError(ApridError):
    """The reference solver failed to reach the requested tolerance.

    Attributes carry the best iterate's residuals for diagnosis.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class ScheduleExhaustedError(ApridError):
    """A step schedule was asked for more steps than its horizon."""
