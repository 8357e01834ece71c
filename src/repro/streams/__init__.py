"""Minimal push-based stream-processing substrate.

The paper assumes a stream data management system in the style of Aurora /
TelegraphCQ / CQL: operators connected into an execution topology that tuples
flow through.  This package provides a compact in-process equivalent — typed
sensor tuples, streams (named edges), operators (nodes), sinks, and a
topology runner — on which the PMAT operators of :mod:`repro.core` are built.
"""

from .tuples import SensorTuple, make_tuple_id_allocator
from .batch import NO_SENSOR_ID, TupleBatch
from .codec import (
    decode_tuple_batch,
    decode_view_frame,
    encode_tuple_batch,
    encode_view_frame,
    pack_column,
    pack_tuple_batches,
    reduce_tuple_batch,
    rebuild_tuple_batch,
    unpack_column,
    unpack_tuple_batches,
)
from .stream import Stream, StreamStats
from .operator import StreamOperator, FilterOperator
from .topology import StreamTopology, BranchingPoint
from .sinks import CollectingSink, CountingSink, CallbackSink

__all__ = [
    "SensorTuple",
    "make_tuple_id_allocator",
    "TupleBatch",
    "NO_SENSOR_ID",
    "decode_tuple_batch",
    "decode_view_frame",
    "encode_tuple_batch",
    "encode_view_frame",
    "pack_column",
    "pack_tuple_batches",
    "reduce_tuple_batch",
    "rebuild_tuple_batch",
    "unpack_column",
    "unpack_tuple_batches",
    "Stream",
    "StreamStats",
    "StreamOperator",
    "FilterOperator",
    "StreamTopology",
    "BranchingPoint",
    "CollectingSink",
    "CountingSink",
    "CallbackSink",
]
