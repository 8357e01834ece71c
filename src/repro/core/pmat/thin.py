"""The Thin (``T``) operator.

Converts a homogeneous MDPP ``P(lambda1, R*)`` into another MDPP
``P(lambda2, R*)`` with ``lambda2 < lambda1`` by retaining each tuple with
probability ``p = lambda2 / lambda1`` (paper Section IV-B.1).  Because
independent thinning of a Poisson process yields a Poisson process with the
scaled rate, the output is again homogeneous at exactly the desired rate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...errors import StreamError
from ...streams import SensorTuple, TupleBatch
from .base import PMATOperator


class ThinOperator(PMATOperator):
    """Thin a homogeneous point process from ``rate_in`` down to ``rate_out``.

    Parameters
    ----------
    rate_in:
        The rate of the incoming process ``lambda1``.
    rate_out:
        The desired output rate ``lambda2``; must satisfy
        ``0 < rate_out < rate_in``.
    emit_discarded:
        When true the operator gets a second output carrying dropped tuples.
    """

    symbol = "T"

    def __init__(
        self,
        rate_in: float,
        rate_out: float,
        *,
        attribute: Optional[str] = None,
        region=None,
        emit_discarded: bool = False,
        name: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._validate_rates(rate_in, rate_out)
        outputs = 2 if emit_discarded else 1
        super().__init__(
            name, attribute=attribute, region=region, outputs=outputs, rng=rng
        )
        self._rate_in = float(rate_in)
        self._rate_out = float(rate_out)
        self._emit_discarded = bool(emit_discarded)
        self._dropped = 0

    @staticmethod
    def _validate_rates(rate_in: float, rate_out: float) -> None:
        if rate_in <= 0:
            raise StreamError("the input rate must be strictly positive")
        if not 0 < rate_out < rate_in:
            raise StreamError(
                "the Thin output rate must be strictly positive and strictly "
                f"smaller than the input rate ({rate_in}); got {rate_out}"
            )

    # ------------------------------------------------------------------
    @property
    def rate_in(self) -> float:
        """Rate of the incoming process ``lambda1``."""
        return self._rate_in

    @property
    def rate_out(self) -> float:
        """Rate of the outgoing process ``lambda2``."""
        return self._rate_out

    @property
    def retention_probability(self) -> float:
        """The Bernoulli retention probability ``lambda2 / lambda1``."""
        return self._rate_out / self._rate_in

    @property
    def dropped(self) -> int:
        """Number of tuples dropped so far."""
        return self._dropped

    def set_rates(self, rate_in: float, rate_out: float) -> None:
        """Change both rates (used when the planner merges consecutive T's)."""
        self._validate_rates(rate_in, rate_out)
        self._rate_in = float(rate_in)
        self._rate_out = float(rate_out)

    @property
    def discarded_output(self):
        """The secondary output stream carrying dropped tuples, if enabled."""
        if not self._emit_discarded:
            raise StreamError("this Thin operator does not emit discarded tuples")
        return self.outputs[1]

    # ------------------------------------------------------------------
    def process(self, item: SensorTuple) -> None:
        if self.rng.random() < self.retention_probability:
            self.emit(item, output_index=0)
        else:
            self._dropped += 1
            if self._emit_discarded:
                self.emit(item, output_index=1)

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        """Vectorised thinning: :meth:`thin_indices` over every row.

        The single-operator form of the kernel the engine's compiled chains
        run; with ``emit_discarded`` the dropped rows go to the discard
        output.
        """
        rows = np.arange(len(batch))
        kept = self.thin_indices(rows)
        if self._emit_discarded:
            self._push_discarded(batch.select(np.delete(rows, kept)))
        return batch.select(kept)

    def thin_indices(self, indices: np.ndarray) -> np.ndarray:
        """Columnar thin kernel: Bernoulli retention over surviving row indices.

        ``indices`` are the rows of the original batch still alive after the
        upstream masks.  ``rng.random(m)`` consumes the generator exactly as
        the object path's ``m`` scalar draws would, so a seeded run keeps
        the same tuples; the decision composes as a fancy-index instead of
        copying columns.  An empty index set draws nothing and touches no
        counter, like an operator that receives no tuple.
        """
        m = int(indices.shape[0])
        if m == 0:
            return indices
        self._tuples_in += m
        keep = self.rng.random(m) < self.retention_probability
        kept = indices[keep]
        self._dropped += m - int(kept.shape[0])
        self._tuples_out += int(kept.shape[0])
        return kept

    def describe(self) -> str:
        attribute = self.attribute or "*"
        return (
            f"T<{attribute}>[{self.name}] "
            f"{self._rate_in:g}->{self._rate_out:g}"
        )
