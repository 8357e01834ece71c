"""Per-batch compiled chain programs (ROADMAP item 1).

Compiles every materialised (cell, attribute) PMAT chain into
:class:`ChainSteps` and runs each batch as one :class:`ChainProgram` per
attribute: a handful of numpy kernels that deliver, for the same acquired
batch, exactly the bytes of the per-tuple operator walk
(``StreamFabricator.process_batch``, the reference
``tests/core/test_chain_differential.py`` drives).

Entry points:

* :class:`PlanCache` — the engine's derived-state cache of compiled
  :class:`ChainSteps`, invalidated per changed cell, from which each
  batch's per-attribute :class:`ChainProgram`\\ s are assembled.
* :func:`render_explain` — ``EXPLAIN``: the live chains a query taps, in
  the order the programs run them.
"""

from .cache import PlanCache
from .executor import ChainProgram, ChainSteps
from .explain import render_explain

__all__ = [
    "PlanCache",
    "ChainProgram",
    "ChainSteps",
    "render_explain",
]
