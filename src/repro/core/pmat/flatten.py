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

Choosing the intensity takes three steps —
:meth:`FlattenOperator.observe_online` (the online SGD step, if any),
:meth:`FlattenOperator.begin_estimate` (given, online, too small to fit, or
a :class:`PendingFit`) and :func:`finish_estimate` (a converged fit, else
the batch's constant rate) — so the engine can step every online chain's
estimator in one lockstep pass
(:meth:`~repro.core.planner.QueryPlanner.process_columnar`) before its
attribute programs run, and each program can solve its chains' pending fits
in one lockstep Newton solve (:func:`fit_pending`) between the last two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ...errors import StreamError
from ...pointprocess import (
    ConstantIntensity,
    EstimationResult,
    EventBatch,
    IntensityModel,
    OnlineIntensityEstimator,
    fit_linear_intensity_mle,
    fit_linear_intensity_mle_segments,
    flatten_events,
    flatten_keep_mask,
)
from ...streams import SensorTuple, TupleBatch
from .base import PMATOperator

#: Smallest batch a Flatten operator fits by default; smaller batches are
#: flattened with their constant empirical rate.
MIN_BATCH_FOR_FIT = 20


@dataclass(frozen=True)
class PendingFit:
    """A batch whose intensity waits on its maximum-likelihood fit.

    The window is ``[t_start, t_start + duration]`` over ``region``;
    ``duration`` is also what the constant fallback divides by.
    """

    batch: EventBatch
    region: object
    t_start: float
    duration: float

    @property
    def t_end(self) -> float:
        """End of the fitted window."""
        return self.t_start + self.duration

    def constant(self) -> Tuple[IntensityModel, str]:
        """The batch's constant empirical rate, and its estimator name."""
        mean_rate = max(len(self.batch) / (self.region.area * self.duration), 1e-9)
        return ConstantIntensity(mean_rate), "constant"

    def finish(
        self, fit: Optional[EstimationResult] = None
    ) -> Tuple[IntensityModel, str]:
        """The converged fit, else the constant rate.

        ``fit`` defaults to this batch's fit solved alone.  A fit that did
        not converge is not a maximum-likelihood estimate (the likelihood
        is unbounded when the events leave enough of the cell empty):
        never flatten with it.
        """
        if fit is None:
            fit = fit_linear_intensity_mle(
                self.batch, self.region, self.t_start, self.t_end
            )
        if fit.converged:
            return fit.intensity, "mle"
        return self.constant()


#: What the first half of the estimator rule hands back: an intensity and
#: its estimator name, or a fit still to run.
Estimate = Union[Tuple[IntensityModel, str], PendingFit]


def begin_mle(
    batch: EventBatch,
    region,
    t_start: float,
    duration: float,
    min_batch_for_fit: int = MIN_BATCH_FOR_FIT,
) -> Estimate:
    """First half of the MLE estimator rule, shared with the baselines.

    A batch of at least ``min_batch_for_fit`` events on a window of
    positive length waits for its fit (:class:`PendingFit`); any other
    non-empty batch is flattened with its constant rate right away.
    """
    pending = PendingFit(batch, region, t_start, duration)
    if len(batch) >= min_batch_for_fit and pending.t_end > t_start:
        return pending
    return pending.constant()


def finish_estimate(
    estimate: Estimate, fit: Optional[EstimationResult] = None
) -> Tuple[IntensityModel, str]:
    """Second half: the intensity that flattens the batch, and its name.

    A pending fit takes ``fit`` (its result from a solve over many
    batches) or is solved alone; a chosen intensity is returned as it is.
    """
    if isinstance(estimate, PendingFit):
        return estimate.finish(fit)
    return estimate


def fit_pending(pending: Sequence[PendingFit]) -> List[EstimationResult]:
    """Every pending fit in one lockstep Newton solve.

    Result ``i`` is bit for bit the fit ``pending[i]`` gets alone
    (:func:`~repro.pointprocess.fit_linear_intensity_mle_segments`).
    """
    if not pending:
        return []
    return fit_linear_intensity_mle_segments(
        np.concatenate([p.batch.t for p in pending]),
        np.concatenate([p.batch.x for p in pending]),
        np.concatenate([p.batch.y for p in pending]),
        list(accumulate([len(p.batch) for p in pending[:-1]], initial=0)),
        [(p.region, p.t_start, p.t_end) for p in pending],
    )


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
    history_batches:
        Optional bound on the report history: only the newest
        ``history_batches`` :class:`FlattenBatchReport`\\ s are kept (the
        planner wires it to
        :attr:`~repro.config.EngineConfig.retention_batches`).  ``None``
        keeps every report.
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
        min_batch_for_fit: int = MIN_BATCH_FOR_FIT,
        history_batches: Optional[int] = None,
        name: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if target_rate <= 0:
            raise StreamError("the Flatten target rate must be strictly positive")
        if batch_duration <= 0:
            raise StreamError("batch_duration must be positive")
        if min_batch_for_fit < 4:
            raise StreamError("min_batch_for_fit must be at least 4")
        if history_batches is not None and history_batches <= 0:
            raise StreamError("history_batches must be positive (or None)")
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
        self._history_batches = history_batches
        self._window_start: Optional[float] = None
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

    @property
    def estimator(self) -> str:
        """How the intensity is chosen: ``"given"``, ``"online"`` or ``"mle"``.

        The configured estimator, in :attr:`FlattenBatchReport.estimator`'s
        vocabulary; a batch's report names what that batch actually used
        (the online estimator fits by MLE until it has warmed up, and a
        batch too small to fit falls back to ``"constant"``).
        """
        if self._intensity is not None:
            return "given"
        return "online" if self._online else "mle"

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
        """Reports of the retained batches, oldest first.

        Every processed batch's, unless ``history_batches`` bounds the
        history to the newest ones.
        """
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

    def open_window(self, t_start: float) -> None:
        """Fit the batches that follow over the window starting at ``t_start``.

        The engine opens each batch's acquisition window before it
        fabricates the batch.  Without one the fit starts at the batch's
        first event, so its window runs past the events at the end only:
        that tilts the fitted time slope, and Eq. (3) then keeps the
        batch's early events more often.
        """
        self._window_start = float(t_start)

    def online_window(self) -> Optional[Tuple[OnlineIntensityEstimator, Optional[float]]]:
        """The online estimator a batch steps and its window start, or ``None``.

        Only an online operator without a given intensity steps one.  The
        window start is the one :meth:`open_window` opened (``None``: the
        batch's first event): anchoring the SGD compensator at the batch's
        own window keeps it from integrating the basis over
        ``[0, window_duration]`` forever while event times grow, which
        biased theta_t more and more as simulation time advanced.
        """
        if self._intensity is not None or self._online_estimator is None:
            return None
        return self._online_estimator, self._window_start

    def observe_online(self, batch: EventBatch) -> None:
        """The online SGD step over one batch alone, if the operator takes one.

        The first step of choosing a batch's intensity;
        :meth:`begin_estimate` decides with the stepped estimate.  The
        engine steps every online chain's batch in one
        :func:`~repro.pointprocess.observe_segments` call instead.
        """
        if self.online_window() is not None:
            self._online_estimator.observe_batch_fused(batch, window_start=self._window_start)

    def begin_estimate(self, batch: EventBatch) -> Estimate:
        """Choose the intensity that flattens a batch, or begin its fit.

        Returns the given intensity, or the warmed-up online estimate (the
        batch's SGD step, :meth:`observe_online`, has run), or hands the
        batch to :func:`begin_mle`: a :class:`PendingFit`, or the constant
        rate of a batch too small to fit.  :func:`finish_estimate` is the
        last step; its name is what :attr:`FlattenBatchReport.estimator`
        records.  Fits run over the window :meth:`open_window` opened, at
        least ``batch_duration`` long.
        """
        if self._intensity is not None:
            return self._intensity, "given"
        t_start, t_max = batch.time_span()
        if self._window_start is not None:
            t_start = self._window_start
        # Until the online estimate has warmed up — or when it diverged to a
        # non-finite theta — fall back to MLE below.
        online = self._online_estimator
        if online is not None and online.updates >= 2 * self._min_batch_for_fit:
            intensity = online.intensity
            if all(math.isfinite(value) for value in intensity.theta):
                return intensity, "online"
        return begin_mle(
            batch,
            self.region,
            t_start,
            max(t_max - t_start, self._batch_duration),
            self._min_batch_for_fit,
        )

    def flush(self) -> None:
        """Process the buffered batch: flatten, report ``N_v``, emit survivors."""
        if not self._buffer:
            # An empty batch cannot supply any of the target mass.
            self.record_batch(0)
            return
        items = self._buffer
        self._buffer = []
        batch = EventBatch.from_rows([(it.t, it.x, it.y) for it in items])
        self.observe_online(batch)
        intensity, estimator = finish_estimate(self.begin_estimate(batch))
        # Eq. (3) normalises by the batch, so the target expected count is
        # target_rate * area * batch window; flatten_events keeps that
        # expectation when we pass the expected count as the "rate" knob.
        result = flatten_events(
            batch, intensity, self.target_expected, rng=self.rng
        )
        self._append_report(
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
        events = EventBatch(batch.t, batch.x, batch.y)
        self.observe_online(events)
        intensity, estimator = finish_estimate(self.begin_rows(events.t, events.x, events.y))
        result = flatten_keep_mask(
            events,
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

    def begin_rows(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> Estimate:
        """Take in one non-empty batch's coordinates and begin its estimate.

        Counts the rows in and runs :meth:`begin_estimate`; a returned
        :class:`PendingFit` may be solved with other operators' fits
        (:func:`fit_pending`) before :func:`finish_estimate`.
        """
        self._tuples_in += t.shape[0]
        return self.begin_estimate(EventBatch(t, x, y))

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
        self._append_report(
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

    def _append_report(self, report: FlattenBatchReport) -> None:
        """Keep one batch's report, trimming the history to its bound."""
        self._reports.append(report)
        if (
            self._history_batches is not None
            and len(self._reports) > self._history_batches
        ):
            del self._reports[: len(self._reports) - self._history_batches]
