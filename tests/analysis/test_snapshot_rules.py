"""CRQ3xx — snapshot state coverage fixtures."""

from __future__ import annotations

from lint_harness import codes

OPAQUE_GETSTATE = """\
class Box:
    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __getstate__(self):
        return {"a": self.a}
"""

UNDECLARED_EXCLUSION = """\
class Box:
    def __init__(self, payload):
        self.payload = payload
        self._cache = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_cache"] = None
        return state
"""

DECLARED_EXCLUSION = """\
class Box:
    _DERIVED_STATE = ("_cache",)

    def __init__(self, payload):
        self.payload = payload
        self._cache = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_cache"] = None
        return state
"""

SETSTATE_REBUILD = """\
class Box:
    def __init__(self, payload):
        self.payload = payload
        self._cache = None

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_cache"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache = None
"""

STALE_DECLARATION = """\
class Box:
    _DERIVED_STATE = ("_cache", "_gone")

    def __init__(self, payload):
        self.payload = payload
        self._cache = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_cache"] = None
        return state
"""

REDUCER_MISSES_ATTR = """\
import copyreg

class Packet:
    def __init__(self, a, b):
        self.a = a
        self.b = b

def _reduce_packet(packet):
    return (Packet, (packet.a,))

dispatch_table = {}
dispatch_table[Packet] = _reduce_packet
"""

REDUCER_WHOLESALE = """\
import copyreg

class Packet:
    def __init__(self, a, b):
        self.a = a
        self.b = b

def _reduce_packet(packet):
    return (Packet.__new__, (Packet,), dict(packet.__dict__))

dispatch_table = {}
dispatch_table[Packet] = _reduce_packet
"""


def test_opaque_getstate_flagged(lint):
    assert codes(lint({"box.py": OPAQUE_GETSTATE})) == ["CRQ301"]


def test_undeclared_exclusion_flagged(lint):
    assert codes(lint({"box.py": UNDECLARED_EXCLUSION})) == ["CRQ302"]


def test_declared_exclusion_is_clean(lint):
    assert codes(lint({"box.py": DECLARED_EXCLUSION})) == []


def test_setstate_rebuild_is_clean(lint):
    assert codes(lint({"box.py": SETSTATE_REBUILD})) == []


def test_stale_derived_state_entry_flagged(lint):
    assert codes(lint({"box.py": STALE_DECLARATION})) == ["CRQ303"]


def test_reducer_missing_init_attribute_flagged(lint):
    report = lint({"codec.py": REDUCER_MISSES_ATTR})
    assert codes(report) == ["CRQ304"]
    assert "'b'" in report.findings[0].message or "b" in report.findings[0].message


def test_wholesale_dict_reducer_is_clean(lint):
    assert codes(lint({"codec.py": REDUCER_WHOLESALE})) == []


def test_aliased_reducer_resolved_through_module_alias(lint):
    source = """\
    class Packet:
        def __init__(self, a, b):
            self.a = a
            self.b = b

    def reduce_packet(packet):
        return (Packet, (packet.a,))

    _reduce_packet = reduce_packet
    dispatch_table = {}
    dispatch_table[Packet] = _reduce_packet
    """
    assert codes(lint({"codec.py": source})) == ["CRQ304"]


ADMITTED_LOADER = """\
_ADMITTED = {
    (__name__, "_rebuild_packet"),
    ("pkg.codec", "rebuild_frame"),
}
"""

PICKLER = """\
from .codec import Frame, reduce_frame

class Packet:
    def __init__(self, a):
        self.a = a

def _rebuild_packet(a):
    return Packet(a)

def _reduce_packet(packet):
    return _rebuild_packet, (packet.a,)

dispatch_table = {}
dispatch_table[Packet] = _reduce_packet
dispatch_table[Frame] = reduce_frame
"""

CODEC = """\
class Frame:
    def __init__(self, body):
        self.body = body

def rebuild_frame(body):
    return Frame(body)

def reduce_frame(frame):
    return {rebuilder}, (frame.body,)
"""


def pickler_package(rebuilder="rebuild_frame", admitted=ADMITTED_LOADER):
    return {
        "pkg/__init__.py": "",
        "pkg/snapshot.py": admitted + PICKLER,
        "pkg/codec.py": CODEC.format(rebuilder=rebuilder),
    }


def test_admitted_rebuilders_are_clean(lint):
    # One rebuilder admitted through ``__name__``, one through a relative
    # import of another module's reducer.
    assert codes(lint(pickler_package())) == []


def test_rebuilder_missing_from_the_allow_list_flagged(lint):
    only_packets = '_ADMITTED = {(__name__, "_rebuild_packet")}\n'
    report = lint(pickler_package(admitted=only_packets))
    assert codes(report) == ["CRQ305"]
    assert "pkg.codec.rebuild_frame" in report.findings[0].message


def test_rebuilding_through_the_class_itself_flagged(lint):
    # ``Frame`` is an engine-style class, but the rule asks for _ADMITTED.
    report = lint(pickler_package(rebuilder="Frame"))
    assert codes(report) == ["CRQ305"]
    assert "pkg.codec.Frame" in report.findings[0].message


def test_unresolvable_rebuilder_flagged(lint):
    report = lint(pickler_package(rebuilder="frame.rebuild"))
    assert codes(report) == ["CRQ305"]
    assert "cannot resolve" in report.findings[0].message


def test_inline_suppression_waives_snapshot_finding(lint):
    source = """\
    class Box:
        def __init__(self, payload):
            self.payload = payload
            self._cache = None

        def __getstate__(self):
            state = dict(self.__dict__)
            state["_cache"] = None  # craqr: ignore[CRQ302] - rebuilt lazily
            return state
    """
    report = lint({"box.py": source})
    assert codes(report) == []
    assert report.suppressed == 1
