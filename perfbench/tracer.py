"""Outside-in tracing of kdfkit's layers, by wrapping entry points at run time.

``installed(tracer)`` replaces each entry point in ``WRAP_POINTS`` with a
wrapper that records one span per call, and puts the originals back on
exit. A plain function is replaced in every loaded kdfkit module that binds
it, because a module that did ``from .x import f`` looks ``f`` up in its own
namespace. A method is replaced on its class. No kdfkit source changes.

A span is ``(point, start_ns, end_ns, parent)``, where ``point`` indexes
``WRAP_POINTS`` (-1 for the benchmark's own root span of the call) and
``parent`` indexes the enclosing span of the same call. A span's self time
is its duration minus the durations of its direct children. Calls are
sequential on one thread, so children never overlap.

A layer that is never entered on a target's path yields no metric at all,
never a zero. This covers an entry point that a later commit renamed,
removed or inlined.
"""

import contextlib
import functools
import sys
import time

# (layer, module, attribute) for every wrapped entry point. The layer names
# appear in the per-layer metric names.
WRAP_POINTS = (
    ("keccak_f1600", "kdfkit.primitives", "keccak_f1600"),
    ("sponge", "kdfkit.primitives", "KeccakSponge.absorb"),
    ("sponge", "kdfkit.primitives", "KeccakSponge.finalize"),
    ("sponge", "kdfkit.primitives", "KeccakSponge.squeeze"),
    ("aes_key_setup", "kdfkit.primitives", "AesBlockCipher.__init__"),
    ("aes_block", "kdfkit.primitives", "AesBlockCipher.encrypt_block"),
    ("sha256", "kdfkit.primitives", "HashSpec.digest"),
    ("sha256", "kdfkit.primitives", "sha256"),
    ("hmac", "kdfkit.hmac", "hmac"),
    ("cmac", "kdfkit.cmac", "cmac"),
    ("kmac", "kdfkit.kmac", "kmac"),
    ("kmac", "kdfkit.kmac", "cshake"),
    ("kdf", "kdfkit.kdf", "counter_kdf"),
    ("kdf", "kdfkit.kdf", "kmac_kdf"),
    ("kdf", "kdfkit.kdf", "ieee_kdf"),
)

ROOT_POINT = -1


class Tracer:
    """Collects the spans of one call at a time."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self) -> None:
        self.spans = []
        self._stack = [0]
        # Root span placeholder; ``end`` fills in the call's own times.
        self.spans.append(None)

    def end(self, start_ns: int, end_ns: int) -> list:
        self.spans[0] = (ROOT_POINT, start_ns, end_ns, -1)
        return self.spans

    def wrap(self, point: int, fn):
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (point, start, end, parent)

        return traced


def _resolve(module_name: str, attribute: str):
    """(owner, name, original) of a wrap point, or None if it no longer exists."""
    owner = sys.modules.get(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    original = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


def missing_points() -> list:
    """Wrap points that the loaded kdfkit modules no longer define."""
    return [f"{module}.{attribute}" for _, module, attribute in WRAP_POINTS
            if _resolve(module, attribute) is None]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every existing entry point with ``tracer`` for the block's duration."""
    restore = []
    try:
        for point, (_, module_name, attribute) in enumerate(WRAP_POINTS):
            found = _resolve(module_name, attribute)
            if found is None:
                continue
            owner, name, original = found
            wrapped = tracer.wrap(point, original)
            if isinstance(owner, type):
                bindings = [(owner, name)]
            else:
                bindings = [(module, attr)
                            for mod_name, module in list(sys.modules.items())
                            if mod_name == "kdfkit" or mod_name.startswith("kdfkit.")
                            for attr, value in list(vars(module).items())
                            if value is original]
            for holder, attr in bindings:
                setattr(holder, attr, wrapped)
                restore.append((holder, attr, original))
        yield tracer
    finally:
        for holder, attr, original in reversed(restore):
            setattr(holder, attr, original)


class LayerTotals:
    """Per-layer call counts and self time summed over the traced calls of one target."""

    def __init__(self):
        self.ops = 0
        self.calls = {}
        self.self_ns = {}

    def add(self, spans: list) -> None:
        child_ns = [0] * len(spans)
        for point, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.ops += 1
        for index, (point, start, end, _) in enumerate(spans):
            if point == ROOT_POINT:
                continue
            layer = WRAP_POINTS[point][0]
            self.calls[layer] = self.calls.get(layer, 0) + 1
            self.self_ns[layer] = self.self_ns.get(layer, 0) + end - start - child_ns[index]

    def merge(self, other: "LayerTotals") -> None:
        self.ops += other.ops
        for layer, calls in other.calls.items():
            self.calls[layer] = self.calls.get(layer, 0) + calls
            self.self_ns[layer] = self.self_ns.get(layer, 0) + other.self_ns[layer]

    def mean_calls(self, layer: str):
        """Calls per traced call, or None when the layer was never entered."""
        if not self.ops or not self.calls.get(layer):
            return None
        return self.calls[layer] / self.ops

    def mean_self_us(self, layer: str):
        """Self time in µs per traced call, or None when the layer was never entered."""
        if not self.ops or not self.calls.get(layer):
            return None
        return self.self_ns[layer] / self.ops / 1e3


def span_records(op_id: int, target: str, spans: list) -> list:
    """JSON-ready records of one call's spans; times are ns from the call's start."""
    origin = spans[0][1]
    records = []
    for index, (point, start, end, parent) in enumerate(spans):
        if point == ROOT_POINT:
            name = f"call:{target}"
        else:
            _, module, attribute = WRAP_POINTS[point]
            name = f"{module}.{attribute}"
        records.append({"op": op_id, "span": index, "parent": parent, "name": name,
                        "start_ns": start - origin, "end_ns": end - origin})
    return records
