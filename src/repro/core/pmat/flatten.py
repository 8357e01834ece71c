"""The Flatten (``F``) operator.

Converts a single-attribute inhomogeneous MDPP into an approximately
homogeneous process at a target rate (paper Section IV-B.1, Eq. 3).  The
operator works over batches: tuples arriving between two ``flush()`` calls
form one batch; on flush the operator

1. estimates (or is given) the conditional intensity of the batch,
2. computes each tuple's retaining probability via Eq. (3),
3. clips probabilities above 1 and records the percent rate violation
   ``N_v`` for the batch,
4. Bernoulli-retains tuples and pushes the survivors downstream (and,
   optionally, the discarded tuples to a secondary output).

When ``online`` estimation is enabled the operator additionally feeds every
tuple to an :class:`~repro.pointprocess.estimation.OnlineIntensityEstimator`
so the intensity tracks drift across batches, as the paper's sliding-window
variant suggests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ...errors import PointProcessError, StreamError
from ...pointprocess import (
    ConstantIntensity,
    EventBatch,
    IntensityModel,
    OnlineIntensityEstimator,
    fit_linear_intensity_mle,
    flatten_events,
    flatten_keep_mask,
)
from ...pointprocess.estimation import EstimationError
from ...streams import SensorTuple, TupleBatch
from .base import PMATOperator


@dataclass(frozen=True)
class FlattenBatchReport:
    """Per-batch report produced by a Flatten operator.

    ``violation_percent`` is the paper's ``N_v`` (share of tuples whose
    Eq. 3 probability was clipped to 1); ``shortfall_percent`` is the share
    of the target retention mass the batch could not supply.  The budget
    feedback signal (:attr:`FlattenOperator.last_violation_percent`) is the
    maximum of the two, because either one indicates the batch cannot
    fabricate the requested rate.

    ``estimator`` names the intensity the batch was flattened with:
    ``"given"`` (the operator's fixed model), ``"online"`` (the warmed-up
    SGD estimate), ``"mle"`` (a converged maximum-likelihood fit) or
    ``"constant"`` (the empirical mean rate: the batch was too small to
    fit, or the fit did not converge).  ``None`` for an empty batch.
    """

    batch_size: int
    retained: int
    violation_percent: float
    shortfall_percent: float
    target_rate: float
    estimator: Optional[str] = None

    @property
    def feedback_percent(self) -> float:
        """The budget-tuning signal: the worse of ``N_v`` and the shortfall."""
        return max(self.violation_percent, self.shortfall_percent)


class FlattenOperator(PMATOperator):
    """Flatten an inhomogeneous point process to a homogeneous target rate.

    Parameters
    ----------
    target_rate:
        The desired output rate ``lambda-bar`` (per unit area per unit time).
    region:
        The spatial extent the operator serves (one grid cell in CrAQR).
    batch_duration:
        Nominal duration of one batch window; used when estimating the
        intensity from the batch itself.
    intensity:
        Optional known intensity model.  When omitted the operator estimates
        a linear intensity (Eq. 1) from each batch by maximum likelihood
        (``fit_linear_intensity_mle``, a damped Newton iteration) and uses
        the fit only when it reports ``converged``; a batch smaller than
        ``min_batch_for_fit`` or a fit that did not converge is flattened
        with the batch's constant empirical rate instead.  Which one
        flattened a batch is recorded in
        :attr:`FlattenBatchReport.estimator`.
    online:
        When true, maintain an online SGD estimate across batches instead of
        refitting from scratch each batch.
    emit_discarded:
        When true the operator gets a second output stream carrying the
        tuples it dropped ("the discarded tuples can be stored separately").
    min_batch_for_fit:
        Minimum batch size for attempting the MLE fit; smaller batches use
        the constant-rate fallback.
    """

    symbol = "F"

    def __init__(
        self,
        target_rate: float,
        *,
        region,
        attribute: Optional[str] = None,
        batch_duration: float = 1.0,
        intensity: Optional[IntensityModel] = None,
        online: bool = False,
        emit_discarded: bool = False,
        min_batch_for_fit: int = 20,
        name: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if target_rate <= 0:
            raise StreamError("the Flatten target rate must be strictly positive")
        if batch_duration <= 0:
            raise StreamError("batch_duration must be positive")
        if min_batch_for_fit < 4:
            raise StreamError("min_batch_for_fit must be at least 4")
        outputs = 2 if emit_discarded else 1
        super().__init__(
            name, attribute=attribute, region=region, outputs=outputs, rng=rng
        )
        self._target_rate = float(target_rate)
        self._batch_duration = float(batch_duration)
        self._intensity = intensity
        self._online = bool(online)
        self._emit_discarded = bool(emit_discarded)
        self._min_batch_for_fit = int(min_batch_for_fit)
        self._buffer: List[SensorTuple] = []
        self._reports: List[FlattenBatchReport] = []
        self._online_estimator: Optional[OnlineIntensityEstimator] = None
        if self._online:
            self._online_estimator = OnlineIntensityEstimator(
                self.region, batch_duration
            )

    # ------------------------------------------------------------------
    @property
    def target_rate(self) -> float:
        """The output rate ``lambda-bar`` the operator aims for."""
        return self._target_rate

    def set_target_rate(self, target_rate: float) -> None:
        """Change the output rate (the planner may bump it above the first T)."""
        if target_rate <= 0:
            raise StreamError("the Flatten target rate must be strictly positive")
        self._target_rate = float(target_rate)

    @property
    def last_violation_percent(self) -> float:
        """Rate-violation feedback of the most recent batch (0 before any batch).

        The maximum of the paper's ``N_v`` and the retention shortfall; see
        :class:`FlattenBatchReport`.
        """
        if not self._reports:
            return 0.0
        return self._reports[-1].feedback_percent

    @property
    def reports(self) -> List[FlattenBatchReport]:
        """Reports of every processed batch."""
        return list(self._reports)

    @property
    def pending(self) -> int:
        """Number of tuples buffered in the current batch."""
        return len(self._buffer)

    @property
    def discarded_output(self):
        """The secondary output stream carrying discarded tuples, if enabled."""
        if not self._emit_discarded:
            raise StreamError("this Flatten operator does not emit discarded tuples")
        return self.outputs[1]

    # ------------------------------------------------------------------
    def process(self, item: SensorTuple) -> None:
        self._buffer.append(item)

    def _estimate_intensity(self, batch: EventBatch) -> Tuple[IntensityModel, str]:
        """The intensity model that flattens the current batch, and its name.

        The name is what :attr:`FlattenBatchReport.estimator` records.
        """
        if self._intensity is not None:
            return self._intensity, "given"
        t_min, t_max = batch.time_span()
        if self._online and self._online_estimator is not None:
            # Anchor the SGD compensator at the batch's own window: without
            # it the per-event gradient integrated the basis over
            # [0, window_duration] forever while event times grew, biasing
            # theta_t more and more as simulation time advanced.
            self._online_estimator.observe_batch_fused(batch, window_start=t_min)
            # Until the online estimate has warmed up — or when it diverged
            # to a non-finite theta — fall back to MLE below.
            if self._online_estimator.updates >= 2 * self._min_batch_for_fit:
                online = self._online_estimator.intensity
                if all(math.isfinite(value) for value in online.theta):
                    return online, "online"
        duration = max(t_max - t_min, self._batch_duration)
        if len(batch) >= self._min_batch_for_fit:
            try:
                fit = fit_linear_intensity_mle(
                    batch, self.region, t_min, t_min + duration
                )
                # A fit that did not converge is not a maximum-likelihood
                # estimate (the likelihood is unbounded when the events
                # leave enough of the cell empty): never flatten with it.
                if fit.converged:
                    return fit.intensity, "mle"
            except (EstimationError, PointProcessError):
                pass
        # Constant fallback: the empirical mean rate of the batch.
        mean_rate = max(len(batch) / (self.region.area * duration), 1e-9)
        return ConstantIntensity(mean_rate), "constant"

    def flush(self) -> None:
        """Process the buffered batch: flatten, report ``N_v``, emit survivors."""
        if not self._buffer:
            # An empty batch cannot supply any of the target mass.
            self.record_batch(0)
            return
        items = self._buffer
        self._buffer = []
        batch = EventBatch.from_rows([(it.t, it.x, it.y) for it in items])
        intensity, estimator = self._estimate_intensity(batch)
        # Eq. (3) normalises by the batch, so the target expected count is
        # target_rate * area * batch window; flatten_events keeps that
        # expectation when we pass the expected count as the "rate" knob.
        result = flatten_events(
            batch, intensity, self.target_expected, rng=self.rng
        )
        self._reports.append(
            FlattenBatchReport(
                batch_size=len(items),
                retained=result.retained_count,
                violation_percent=result.violation_percent,
                shortfall_percent=result.shortfall_percent,
                target_rate=self._target_rate,
                estimator=estimator,
            )
        )
        for item, kept in zip(items, result.keep_mask):
            if kept:
                self.emit(item, output_index=0)
            elif self._emit_discarded:
                self.emit(item, output_index=1)

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        """Vectorised flatten: the survivors of :meth:`process_batch_mask`.

        The single-operator form of the kernel the engine's compiled
        programs run — same report, counters, RNG draw and discard output.
        """
        return batch.select(self.process_batch_mask(batch))

    def process_batch_mask(self, batch: TupleBatch) -> np.ndarray:
        """Columnar flatten: the Eq. (3) keep-mask of a whole batch.

        The one-segment case of :func:`~repro.pointprocess.flatten_segments`,
        which the engine's attribute programs run over every cell at once.
        Byte-identical accounting to :meth:`flush` — same report (including
        the full-shortfall report for an empty batch), same counters, same
        single ``rng.random(n)`` draw — but returns the boolean keep-mask
        instead of gathering the surviving columns.  With
        ``emit_discarded`` the complement of the mask is pushed to the
        discard output.
        """
        if batch.is_empty:
            self.record_batch(0)
            return np.empty(0, dtype=bool)
        intensity, estimator = self.estimate_rows(batch.t, batch.x, batch.y)
        result = flatten_keep_mask(
            EventBatch(batch.t, batch.x, batch.y),
            intensity,
            self.target_expected,
            rng=self.rng,
        )
        self.record_batch(
            len(batch),
            result.retained_count,
            result.violation_percent,
            result.shortfall_percent,
            estimator,
        )
        if self._emit_discarded:
            self._push_discarded(batch.select(~result.keep_mask))
        return result.keep_mask

    # ------------------------------------------------------------------
    # The steps of one batch, for kernels that flatten many operators'
    # batches at once (repro.plan's attribute programs)
    # ------------------------------------------------------------------
    @property
    def emits_discarded(self) -> bool:
        """Whether dropped tuples go to a discard output."""
        return self._emit_discarded

    @property
    def target_expected(self) -> float:
        """Eq. (3)'s target: the expected retained count of one batch window.

        The nominal batch duration is used (not the observed span), so
        straggler responses with long latencies do not inflate the target.
        """
        return self._target_rate * self.region.area * self._batch_duration

    def estimate_rows(
        self, t: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> Tuple[IntensityModel, str]:
        """Take in one non-empty batch's coordinates; the intensity to flatten it.

        Counts the rows in and runs :meth:`_estimate_intensity` (the online
        SGD step, the MLE fit or the constant fallback).
        """
        self._tuples_in += t.shape[0]
        return self._estimate_intensity(EventBatch(t, x, y))

    def record_batch(
        self,
        batch_size: int,
        retained: int = 0,
        violation_percent: float = 0.0,
        shortfall_percent: float = 100.0,
        estimator: Optional[str] = None,
    ) -> None:
        """Report one flattened batch and count its survivors out.

        ``record_batch(0)`` is the empty batch: a full shortfall, so the
        budget tuner reacts to silent cells.
        """
        self._reports.append(
            FlattenBatchReport(
                batch_size=batch_size,
                retained=retained,
                violation_percent=violation_percent,
                shortfall_percent=shortfall_percent,
                target_rate=self._target_rate,
                estimator=estimator,
            )
        )
        self._tuples_out += retained

    def lower_ir(self) -> dict:
        """Describe this operator's compiled kernel for the plan IR."""
        estimator = "fixed"
        if self._intensity is None:
            estimator = "online-sgd" if self._online else "mle"
        return {
            "kind": "flatten-mask",
            "symbol": self.symbol,
            "name": self.name,
            "target_rate": self._target_rate,
            "batch_duration": self._batch_duration,
            "estimator": estimator,
            "rng_draws": "random(n)",
        }
