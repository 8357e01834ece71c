"""The hot-path manifest the CRQ4xx purity rules enforce.

Functions listed here are the per-batch inner loops whose cost the
``benchmarks/e2e`` harness reports as per-layer spans: the fused
acquisition round, the mobility kernels and their keyed draw policy, the
columnar map phase, the compiled attribute programs and their
flatten/thin kernels, the batch MLE, the lockstep online SGD, the
incremental view fold and the serve-layer fan-out.
Inside them, per-row Python iteration is a regression by construction —
the analyzer flags ``.tolist()`` calls, ``range(len(...))`` / ``zip(...)``
row loops, object construction inside loops and libm ``hypot`` calls (see
``docs/craqr_lint.md``).

Registering a new hot path is one line here; the analyzer then fails
the build when the function regresses to per-row Python, and fails it
too when the entry goes stale (``CRQ404``) because the function moved
or was renamed.  Loops that are per-*cell* or per-*group* (bounded by
topology, not by batch size) are acknowledged at the offending line
with ``# craqr: ignore[CRQ40x]`` and a justification.
"""

from __future__ import annotations

from typing import List, Tuple

#: ``(package-relative module path, dotted symbol)`` pairs.
HOT_PATHS: List[Tuple[str, str]] = [
    # Acquisition: the one wave loop every round runs once per attribute,
    # under the world's one RNG policy, and the bucketing pass feeding it
    # every cell's population.  Per-row Python here undoes the fused-round
    # win.
    ("repro/sensing/handler.py", "RequestResponseHandler._acquire_waves"),
    ("repro/sensing/handler.py", "_SharedStream.answer"),
    ("repro/sensing/handler.py", "RequestResponseHandler._bucket_sensors"),
    (
        "repro/sensing/handler.py",
        "RequestResponseHandler._resolve_cell_populations",
    ),
    # The sensor choice every wave runs under both contracts: one
    # ``rng.choice`` per covered cell and one ``rng.integers`` per run of
    # small undersized cells; its loop over the runs is waived inline.
    ("repro/sensing/handler.py", "_choose_rows"),
    ("repro/sensing/handler.py", "_SharedStream.request_times"),
    # The strict wave answers in one vectorised pass too: every request's
    # counter is its sensor's request count plus its rank within the wave,
    # one Philox call (``repro.rng.keyed_uniforms``) draws every block, and
    # the stationary rows are decided and sensed as columns.  Only the walk
    # both policies run for stateful / custom participation, the module
    # function ``_decide_walked``, stays per-request Python by contract and
    # is NOT registered.  Under the strict policy its contract is
    # bit-equality with the per-object ``MobileSensor.handle_request`` in a
    # shuffled order, kept in ``tests/sensing/test_strict_acquisition.py``.
    ("repro/sensing/handler.py", "_PerSensorStreams.answer"),
    ("repro/rng.py", "philox4x64"),
    ("repro/rng.py", "keyed_uniforms"),
    # Strict movement runs the mobility kernels below with the keyed draw
    # policy: one Philox call per ``advance`` draws the next block of every
    # row of the compact copy (``KeyedDraws.__init__``), ``rows`` serves
    # each row's first draw of the window from that table by position, and
    # only second or later draws miss — one call per kernel call over just
    # those rows (about one ``advance`` in fifty on ``crowd_strict``).  A
    # group left on the world's columns, and ``MobileSensor.move``, still
    # draw one call per kernel call.  The words become uniforms, Box-Muller
    # normals and inverse-CDF choices as columns.  Its contracts are that a
    # crowd's advance equals each sensor moved alone (``MobileSensor.move``,
    # the same kernel on a one-row slice) in a shuffled order, kept in
    # ``tests/sensing/test_crowd_independence.py``, and equals the advance
    # that drew per kernel call, kept in
    # ``tests/sensing/test_compact_advance.py`` with the call count.
    ("repro/sensing/mobility.py", "KeyedDraws.__init__"),
    ("repro/sensing/mobility.py", "KeyedDraws.rows"),
    ("repro/sensing/mobility.py", "_BlockRows.normal"),
    ("repro/sensing/mobility.py", "_BlockRows.choice"),
    # World advance: the mobility kernels, ≈40% of a large-crowd batch
    # (``sensing.world.advance_ms`` on ``crowd_fast``).
    # Each is a fixed sequence of full-width ufuncs over the group's row
    # selector (views for a slice, one gather and one
    # scatter per column for an index array); a per-row loop or a
    # compacted ``idx[mask]`` subset inside a sub-step is what PR 17
    # removed.  Compaction happens once per ``advance``, by design: the
    # draw-free ``skip_ahead`` pre-pass moves the walkers no event can
    # reach in one full-width pass and returns the index array of the
    # rest, and ``_compact_groups`` gathers every group's index array into
    # one compact copy (``take_movement``) whose slices the kernels then
    # sub-step as views, scattered back once (``put_movement``) — under
    # both RNG contracts.  The kernels' fast-sim contract is bit-equality
    # with the gather/scatter bodies kept in
    # ``tests/sensing/test_mobility_kernels.py``; the pre-pass's is
    # ``tests/sensing/test_skip_ahead.py``; the compaction's is
    # ``tests/sensing/test_compact_advance.py``.
    ("repro/sensing/world.py", "_compact_groups"),
    ("repro/sensing/state.py", "SensorStateArrays.take_movement"),
    ("repro/sensing/state.py", "SensorStateArrays.put_movement"),
    ("repro/sensing/mobility.py", "RandomWaypointMobility.step_batch"),
    ("repro/sensing/mobility.py", "RandomWaypointMobility.skip_ahead"),
    ("repro/sensing/mobility.py", "HotspotMobility.step_batch"),
    # Their one distance spelling: square, add, sqrt as three correctly
    # rounded ufuncs — bit-equal to the scalar expression on every build,
    # where libm's ``hypot`` (CRQ405) is neither portable nor cheap.
    ("repro/sensing/mobility.py", "_distance"),
    # Compiled per-batch execution, one program per attribute: flat numpy
    # kernels with survivor-index composition over all of the attribute's
    # cell segments.  Its loops are per chain, per level and per tap —
    # bounded by topology — and a Python row loop would re-interpret the
    # chain.
    ("repro/plan/executor.py", "ChainProgram.run"),
    # The kernels that program runs and the map phase feeding it — what
    # ``core.fabricator.map_ms`` / ``core.pmat.thin_ms`` /
    # ``plan.program.run_ms`` time in the e2e benchmark.  The map phase
    # sorts each attribute once by (cell, time) and builds a segment table,
    # no per-cell batch; its loop is per cell segment.  The segmented
    # flatten kernel runs everything elementwise once over all rows; its
    # loops are per segment (float sums, compensation, the draw into the
    # segment's slice).  ``process_batch_mask`` is its one-segment case:
    # nothing in the engine calls it, the e2e tracer's ``core.pmat.flatten``
    # span patches it by name and the kernel tests compare it with
    # ``flush``.  Discard recording is per-row by nature and lives in
    # ``PMATOperator._push_discarded``, outside the gated kernels.
    ("repro/core/fabricator.py", "StreamFabricator.map_batches_fused"),
    ("repro/pointprocess/thinning.py", "flatten_segments"),
    ("repro/core/pmat/flatten.py", "FlattenOperator.process_batch_mask"),
    ("repro/core/pmat/thin.py", "ThinOperator.thin_indices"),
    # The estimator rule: one call per batch chooses every chain's
    # intensity, whatever its attribute — given, online, a batch MLE fit or
    # the constant rate.  Its loops are per chain (the decision, the fit
    # windows), never per row, and it gathers no rows; the row work is the
    # two lockstep kernels below, which read each chain's rows where they
    # lie in its attribute batch.
    ("repro/core/pmat/flatten.py", "estimate_segments"),
    # The batch MLE every non-online chain runs each batch (PR 21): a
    # damped Newton iteration whose loops are per Newton step and per
    # line-search halving — each step is a fixed number of column sums and
    # a 4x4 solve on plain floats — never per event.  Every chain's fit of
    # a batch runs in one lockstep solve, a block of consecutive fits at a
    # time: the elementwise work is one pass over the block's unfinished
    # fits' rows, and the loops are per block, per Newton step, per halving
    # and per segment (the layout, the fourteen slice sums, the solve, the
    # step rule, the Armijo test).  ``fit_linear_intensity_mle``
    # is its one-segment case.  Its Eq. (3) companion
    # ``_compensate_clipping`` is one sort and one cumulative sum where a
    # 60-step bisection used to be.
    ("repro/pointprocess/estimation.py", "fit_linear_intensity_mle"),
    ("repro/pointprocess/estimation.py", "fit_linear_intensity_mle_segments"),
    ("repro/pointprocess/thinning.py", "_compensate_clipping"),
    # The online SGD every online chain runs each batch: one lockstep over
    # all of a batch's online chains, whatever their attribute, whose pass
    # ``k`` steps the ``k``-th event of every chain with nine ufuncs on
    # ``(4, chains)`` views.  Its loops are per pass (per event of the
    # longest chain) and per estimator (the batch's set-up and write-back),
    # never per row.  ``OnlineIntensityEstimator.observe_batch_fused`` is
    # its one-segment case; the plain-float loop it replaced is the oracle
    # in ``tests/property/test_estimation_kernels.py``.
    ("repro/pointprocess/estimation.py", "observe_segments"),
    # Incremental view maintenance (PR 5): one lexsort + segment reductions
    # per delivered batch; history is never rescanned.
    ("repro/views/view.py", "ContinuousView.on_delivery"),
    # Serve-layer fan-out (PR 9, PR 16): payload and header encoded once
    # per publish, O(1) per subscriber send — a queue append at publish,
    # four byte parts by reference in the writer's burst.  The loops are
    # per event by nature; what is guarded is per-row work and building
    # an object per subscriber.
    ("repro/serve/fanout.py", "FrameFanout.publish"),
    ("repro/serve/fanout.py", "FrameFanout._publish_topic"),
    ("repro/serve/fanout.py", "SubscriberQueue.offer"),
    ("repro/serve/server.py", "_Connection.next_burst"),
    # Columnar delivery into result buffers (PR 1/4).
    ("repro/storage/result_buffer.py", "QueryResultBuffer.extend_batch"),
]


def default_hot_paths() -> List[Tuple[str, str]]:
    """The committed manifest (copied, so callers can extend safely)."""
    return list(HOT_PATHS)
