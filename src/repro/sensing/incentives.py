"""Incentive schemes (Section VI extension).

The paper proposes, as an alternative to increasing the request budget, to
"offer more incentive to the mobile sensors to respond".  An incentive
scheme maps an offered payment to a multiplier on the base response
probability (an elasticity curve) and tracks how much was spent — the
quantity the incentives benchmark trades off against acquisition-request
cost.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import CraqrError


def incentive_boost(payment: float, *, elasticity: float = 1.0, saturation: float = 3.0) -> float:
    """Response-probability multiplier for a given payment.

    A concave saturating curve: no payment gives multiplier 1, large payments
    approach ``saturation``.  ``elasticity`` controls how quickly the curve
    rises.
    """
    if payment < 0:
        raise CraqrError("payment must be non-negative")
    if elasticity <= 0 or saturation < 1:
        raise CraqrError("elasticity must be > 0 and saturation >= 1")
    return 1.0 + (saturation - 1.0) * (1.0 - math.exp(-elasticity * payment))


class IncentiveScheme(ABC):
    """Maps a desired response boost to a payment and tracks spending."""

    def __init__(self) -> None:
        self._total_spent = 0.0
        self._payments = 0

    @property
    def total_spent(self) -> float:
        """Total incentive paid out so far."""
        return self._total_spent

    @property
    def payments(self) -> int:
        """Number of individual payments made."""
        return self._payments

    def refund(self, amount: float, count: int) -> None:
        """Undo payments attached to requests that were never accepted.

        With a retry policy configured the handler pays incentives only for
        accepted responses: a wave's payments are recorded per request as
        usual, then the unaccepted requests' share is refunded so
        :attr:`total_spent` / :attr:`payments` count paid responses only.
        """
        if amount < 0 or count < 0:
            raise CraqrError("refund amount and count must be non-negative")
        if count > self._payments or amount > self._total_spent + 1e-9:
            raise CraqrError("cannot refund more than was recorded")
        self._total_spent = max(self._total_spent - amount, 0.0)
        self._payments -= count

    @abstractmethod
    def payments_for_requests(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Payments and probability multipliers for a wave of ``count`` requests.

        The handler prices every wave with one call.  The scheme records
        what it pays (:attr:`total_spent` / :attr:`payments`) before it
        returns the two aligned columns.
        """


class FlatIncentive(IncentiveScheme):
    """A fixed payment per request (possibly zero)."""

    def __init__(self, payment: float = 0.0, *, elasticity: float = 1.0, saturation: float = 3.0) -> None:
        super().__init__()
        if payment < 0:
            raise CraqrError("payment must be non-negative")
        self._payment = payment
        self._elasticity = elasticity
        self._saturation = saturation

    @property
    def payment(self) -> float:
        """The per-request payment."""
        return self._payment

    def set_payment(self, payment: float) -> None:
        """Change the per-request payment (used by adaptive controllers)."""
        if payment < 0:
            raise CraqrError("payment must be non-negative")
        self._payment = payment

    def multiplier(self) -> float:
        """Response-probability multiplier the current payment buys."""
        return incentive_boost(
            self._payment, elasticity=self._elasticity, saturation=self._saturation
        )

    def payments_for_requests(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        self._total_spent += self._payment * count
        self._payments += count
        return (
            np.full(count, self._payment, dtype=float),
            np.full(count, self.multiplier(), dtype=float),
        )


@dataclass
class LinearIncentiveResponse:
    """A simple adaptive incentive controller.

    When the rate-violation feedback exceeds the threshold the controller
    raises the payment by ``step`` (up to ``max_payment``); otherwise it
    lowers it by the same step (down to zero).  This mirrors the paper's
    budget-tuning loop but acts on incentives instead of request counts.
    """

    scheme: FlatIncentive
    step: float = 0.1
    max_payment: float = 2.0

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise CraqrError("step must be positive")
        if self.max_payment <= 0:
            raise CraqrError("max_payment must be positive")

    def adjust(self, violation_percent: float, threshold: float) -> float:
        """Adjust the payment based on violation feedback; returns the new payment."""
        current = self.scheme.payment
        if violation_percent > threshold:
            new_payment = min(current + self.step, self.max_payment)
        else:
            new_payment = max(current - self.step, 0.0)
        self.scheme.set_payment(new_payment)
        return new_payment

    @property
    def saturated(self) -> bool:
        """Whether the payment has reached its maximum."""
        return self.scheme.payment >= self.max_payment
