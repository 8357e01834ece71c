"""In-memory storage substrate.

Query result buffers (:class:`QueryResultBuffer`, read through cursors and
push subscriptions) hold each query's delivered stream, and
:class:`DiscardedStore` keeps, in one capped :class:`TupleStore` per
operator, the tuples Flatten and Thin drop ("the discarded tuples can be
stored separately").
"""

from .tuple_store import TupleStore
from .result_buffer import QueryResultBuffer, RateEstimate, ResultCursor, Subscription
from .discarded import DiscardedStore

__all__ = [
    "TupleStore",
    "QueryResultBuffer",
    "RateEstimate",
    "ResultCursor",
    "Subscription",
    "DiscardedStore",
]
