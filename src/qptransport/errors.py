"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map them onto exit codes (usage problems exit 2, numerical
problems exit 1) and tests can assert on the precise failure.
"""

import os
from decimal import Decimal


class QptError(Exception):
    """Base class for all package errors."""


class InputError(QptError, ValueError):
    """Bad argument: out-of-range parameter, malformed spec, wrong shape."""


class InsufficientDataError(QptError):
    """Not enough computed data to answer (e.g. too few convergents)."""


class DepthLimitError(QptError):
    """A construction hit its depth / magnitude budget.

    Carries ``achieved_depth`` so callers can see how far it got.
    """

    def __init__(self, message, achieved_depth=None):
        super().__init__(message)
        self.achieved_depth = achieved_depth


class NumericalError(QptError):
    """A numerical routine failed to meet its tolerance or diverged."""


class DegeneratePointError(NumericalError):
    """An identity or derivative was requested at a degenerate point
    (band edge collision, |discriminant derivative| below resolution)."""


class NearDegenerateError(NumericalError):
    """Spacing too small for a stable perturbation formula."""


class ThresholdError(QptError):
    """A time/threshold precondition failed.

    Carries ``minimal_admissible`` with the smallest admissible value.
    """

    def __init__(self, message, minimal_admissible=None):
        super().__init__(message)
        self.minimal_admissible = minimal_admissible


class TruncationError(NumericalError):
    """Requested accuracy cannot be met by the configured truncation."""


class MemoryLimitError(QptError):
    """A computation would need more memory than the machine has."""


def check_memory(need: int, what: str) -> None:
    """MemoryLimitError unless need bytes fit in physical memory."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > limit:
        # a Decimal quotient, since need may pass the float range
        raise MemoryLimitError(
            f"{what} needs about {Decimal(need) / 2 ** 30:.3g} GiB, more "
            f"than the {limit / 2 ** 30:.3g} GiB of physical memory")
