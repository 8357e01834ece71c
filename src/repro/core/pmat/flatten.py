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

Which intensity flattens a batch is decided in one place,
:func:`estimate_segments`, for any number of operators' batches at once:
:meth:`FlattenOperator.flush` and :meth:`FlattenOperator.process_batch_mask`
are its one-batch case, the engine calls it once per batch over every chain
with rows, whatever its attribute
(:meth:`~repro.core.planner.QueryPlanner.process_columnar`), and the naive
baseline reaches the rule through it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...errors import StreamError
from ...pointprocess import (
    ConstantIntensity,
    EventBatch,
    IntensityModel,
    OnlineIntensityEstimator,
    fit_linear_intensity_mle,  # unused here: benchmarks/e2e/tracer.py patches this binding
    fit_linear_intensity_mle_segments,
    flatten_events,
    flatten_keep_mask,
    observe_segments,
)
from ...streams import SensorTuple, TupleBatch
from .base import PMATOperator

#: Smallest batch a Flatten operator fits by default; smaller batches are
#: flattened with their constant empirical rate.
MIN_BATCH_FOR_FIT = 20


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
        if not 0 < target_rate < math.inf:
            raise StreamError("the Flatten target rate must be positive and finite")
        if not 0 < batch_duration < math.inf:
            raise StreamError("batch_duration must be positive and finite")
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

    def flush(self) -> None:
        """Process the buffered batch: flatten, report ``N_v``, emit survivors."""
        if not self._buffer:
            # An empty batch cannot supply any of the target mass.
            self.record_batch(0)
            return
        items = self._buffer
        self._buffer = []
        batch = EventBatch.from_rows([(it.t, it.x, it.y) for it in items])
        [(intensity, estimator)] = estimate_segments([self], [batch], [(0, 0, len(batch))])
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
        [(intensity, estimator)] = estimate_segments([self], [batch], [(0, 0, len(batch))])
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

    def record_batch(
        self,
        batch_size: int,
        retained: int = 0,
        violation_percent: float = 0.0,
        shortfall_percent: float = 100.0,
        estimator: Optional[str] = None,
    ) -> None:
        """Report one flattened batch and count its rows in and survivors out.

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
        self._tuples_in += batch_size
        self._tuples_out += retained

    def _append_report(self, report: FlattenBatchReport) -> None:
        """Keep one batch's report, trimming the history to its bound."""
        self._reports.append(report)
        if (
            self._history_batches is not None
            and len(self._reports) > self._history_batches
        ):
            del self._reports[: len(self._reports) - self._history_batches]


def estimate_segments(
    flattens: Sequence[FlattenOperator],
    batches: Sequence,
    segments: Sequence[Tuple[int, int, int]],
) -> List[Tuple[IntensityModel, str]]:
    """The intensity that flattens each operator's batch, and its estimator name.

    Operator ``i``'s batch is rows ``[start, stop)`` of ``batches[b]`` for
    ``segments[i] = (b, start, stop)`` (anything with ``t``, ``x`` and
    ``y`` columns: the map phase's attribute batches, one operator's own
    batch); every segment is non-empty and the operators are distinct.
    Both kernels read the rows where they lie: nothing is concatenated or
    gathered here.  The estimator rule, in four steps:

    1. every online operator without a given intensity takes its SGD step
       over its batch, all of them in one
       :func:`~repro.pointprocess.observe_segments` lockstep, the
       compensator anchored at the window :meth:`FlattenOperator.open_window`
       opened (``None``: the batch's first event) — a fixed anchor would
       integrate the basis over ``[0, window_duration]`` while event times
       grow, biasing theta_t more and more as simulation time advances;
    2. each operator decides: its given intensity (``"given"``); the online
       estimate once it has taken ``2 * min_batch_for_fit`` steps, unless
       it diverged to a non-finite theta (``"online"``); for a batch of at
       least ``min_batch_for_fit`` events, a maximum-likelihood fit over the
       opened window (the batch's first event without one), at least
       ``batch_duration`` long; else the batch's constant empirical rate
       over that window (``"constant"``);
    3. every fit runs in one
       :func:`~repro.pointprocess.fit_linear_intensity_mle_segments`
       lockstep Newton solve, whose working memory is one block of rows;
    4. a fit that converged is ``"mle"``; one that did not is no
       maximum-likelihood estimate (the likelihood is unbounded when the
       events leave enough of the cell empty), and its batch takes the
       constant rate.

    Result ``i``, and operator ``i``'s estimator state, are bit for bit
    what its batch alone gets: both kernels hold each segment to its
    one-segment result, whatever the other segments are.
    """
    online = [
        index for index, flatten in enumerate(flattens)
        if flatten._intensity is None and flatten._online_estimator is not None
    ]
    if online:
        observe_segments(
            [flattens[index]._online_estimator for index in online],
            batches,
            [segments[index] for index in online],
            [flattens[index]._window_start for index in online],
        )

    estimates: List[Tuple[IntensityModel, str]] = []
    fits: List[int] = []
    windows = []
    for index, flatten in enumerate(flattens):
        if flatten._intensity is not None:
            estimates.append((flatten._intensity, "given"))
            continue
        estimator = flatten._online_estimator
        if estimator is not None and estimator.updates >= 2 * flatten._min_batch_for_fit:
            intensity = estimator.intensity
            if all(math.isfinite(value) for value in intensity.theta):
                estimates.append((intensity, "online"))
                continue
        source, start, stop = segments[index]
        rows = batches[source].t[start:stop]
        t_start = float(rows.min()) if flatten._window_start is None else flatten._window_start
        duration = max(float(rows.max()) - t_start, flatten._batch_duration)
        mean_rate = max(rows.shape[0] / (flatten.region.area * duration), 1e-9)
        estimates.append((ConstantIntensity(mean_rate), "constant"))  # craqr: ignore[CRQ403] - one fallback per chain, never per row
        t_end = t_start + duration
        if rows.shape[0] >= flatten._min_batch_for_fit and t_end > t_start:
            fits.append(index)
            windows.append((flatten.region, t_start, t_end))

    if fits:
        solved = fit_linear_intensity_mle_segments(
            batches, [segments[index] for index in fits], windows
        )
        for index, fit in zip(fits, solved):  # craqr: ignore[CRQ402] - one fit per chain, never per row
            if fit.converged:
                estimates[index] = (fit.intensity, "mle")
    return estimates
