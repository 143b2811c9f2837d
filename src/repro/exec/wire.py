"""The wire protocol: schema'd, versioned, authenticated frames — no pickle.

This module is the trust boundary of the distributed stack.  Until v2
the protocol was ``8-byte length || pickle`` — any peer that could reach
a worker socket owned the process, because ``pickle.loads`` constructs
arbitrary objects.  v2 replaced the payload with a **closed-vocabulary
schema codec** plus a **mandatory authenticated session**; v3 added
packed int runs to the vocabulary, and v4 (this version) drops the codec
lists from the handshake:

* **Schema codec.**  :func:`encode_value` / :func:`decode_value` handle
  a fixed, tagged vocabulary: ``None``/bools/ints/floats/strings/bytes,
  lists/tuples/dicts/sets/frozensets, numpy arrays as
  ``dtype || shape || bytes`` (object dtypes refused), numpy scalars,
  ``SeedSequence`` and ``Generator`` state, exceptions by registered
  name + arguments, and *registered* classes/functions only.  A
  non-empty list/tuple/set/frozenset whose elements are all plain
  ``int`` in 0..255 travels as one **packed run** —
  ``R || container tag || count || one byte per value`` — so a
  ``BCAST(b)`` transcript key or an output vertex set costs a byte per
  value instead of a 9-byte tagged int; bools, numpy scalars, mixed
  types and ints outside 0..255 keep element-wise tags.  Decoding never
  imports a module, never calls ``__reduce__``, and only instantiates
  classes explicitly placed in the registry (:func:`register_wire_type` /
  :func:`register_wire_function`, plus the lazy sweep over the repo's
  own ``Protocol``/``InputDistribution``/… hierarchies) — a worker never
  deserializes code, it looks up callables it already has.
* **Authenticated session.**  :class:`WireSession` performs a
  challenge–response handshake at connect time (mutual HMAC-SHA256
  proofs over fresh nonces, derived from a per-worker shared secret)
  and then MACs **every frame** over a direction label, the session key
  (which binds both nonces) and a strict per-direction sequence number
  — so a tampered fixed input matrix fails verification instead of
  being computed on, and a replayed frame's MAC cannot match the
  expected sequence number.  Transport privacy is optional TLS
  (``ssl.SSLContext``) underneath; authentication is not optional.

Every verification failure is a **typed** :class:`ConnectionError`
subclass, so the executor's existing requeue/health/telemetry paths
handle it like any other transport failure:

* oversized frames are refused *before sending* and before any receive
  allocation — :class:`FrameSizeError`;
* a connection closed mid-frame — :class:`TruncatedFrameError`;
* payload bytes that fail schema decoding — :class:`CorruptFrameError`
  (unregistered names and malformed structures raise the
  :class:`SchemaViolationError` refinement);
* a failed handshake — :class:`AuthenticationError`; a per-frame MAC
  mismatch (tampering or replay) — :class:`FrameAuthenticationError`;
* a worker announcing another protocol version —
  :class:`ProtocolVersionError`.

The raw framing layer (:func:`send_frame` / :func:`recv_frame`) is
``8-byte big-endian length || schema payload`` and carries only the
handshake; everything after the handshake travels through
:meth:`WireSession.send` / :meth:`WireSession.recv`, which append the
32-byte frame MAC.  Large payload chunks (a runner's fixed input
matrix) are written by reference — the frame is never materialized as
one ``header + payload`` copy.

Key distribution is deliberately boring: both ends share a secret
(``DistributedExecutor(secret=...)``, worker ``--secret-file``), by
default read from the ``REPRO_WIRE_SECRET`` environment variable.  The
insecure well-known development secret is used only when neither side
configures anything — fine for loopback tests, loudly documented as
unfit for deployment (``docs/robustness.md``).

>>> import socket
>>> left, right = socket.socketpair()
>>> send_frame(left, ("ping",))
>>> recv_frame(right)
('ping',)
>>> left.close(); right.close()
"""

from __future__ import annotations

import builtins
import functools
import hashlib
import hmac
import importlib
import math
import os
import socket
import struct
import threading
from typing import Any, Callable, Iterable

import numpy as np

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "DEFAULT_SECRET_ENV",
    "WireProtocolError",
    "FrameSizeError",
    "TruncatedFrameError",
    "CorruptFrameError",
    "SchemaViolationError",
    "AuthenticationError",
    "FrameAuthenticationError",
    "ProtocolVersionError",
    "UnencodableError",
    "RemoteError",
    "register_wire_type",
    "register_wire_function",
    "encode_value",
    "decode_value",
    "function_digest",
    "resolve_secret",
    "send_frame",
    "recv_frame",
    "WireSession",
]

_LENGTH = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")

#: Element-wise tag of each container kind; a packed int run names its
#: container by the same tag, and the decoder rebuilds it from the tag.
_CONTAINER_TAGS: dict[type, bytes] = {
    list: b"l",
    tuple: b"t",
    set: b"h",
    frozenset: b"H",
}
_RUN_CONTAINERS: dict[int, type] = {
    tag[0]: kind for kind, tag in _CONTAINER_TAGS.items()
}
_PLAIN_INT = frozenset({int})

#: Refuse frames beyond this size (a corrupt length prefix would
#: otherwise ask us to allocate petabytes).  Checked on *both* sides:
#: the sender raises before writing a byte, the receiver before
#: allocating.
MAX_FRAME_BYTES = 1 << 32

#: Version announced in the handshake challenge.  v1 was the pickle
#: protocol; v2 the schema'd, authenticated protocol; v3 added packed
#: int runs, which a v2 decoder cannot read; v4 drops the codec lists
#: from the challenge and auth frames.  There is no cross-version
#: negotiation — both ends must speak the same version, and a client
#: meeting another one raises :class:`ProtocolVersionError`.
PROTOCOL_VERSION = 4

#: Environment variable both ends read the shared secret from when none
#: is configured explicitly.
DEFAULT_SECRET_ENV = "REPRO_WIRE_SECRET"

#: Well-known development secret, used only when neither side
#: configured one.  It authenticates nothing against an adversary — it
#: exists so loopback tests and single-user smoke runs work out of the
#: box while deployments set ``REPRO_WIRE_SECRET`` (or pass explicit
#: per-worker secrets) and get real authentication.
_DEV_SECRET = b"repro-dev-secret:configure-REPRO_WIRE_SECRET"

_MAC_BYTES = 32  # HMAC-SHA256
_NONCE_BYTES = 16
#: Handshake frames are tiny; bounding them separately keeps a
#: pre-authentication peer from asking us to buffer gigabytes.
_HANDSHAKE_MAX_BYTES = 1 << 16
_MAX_DEPTH = 64
#: Chunks at least this large are written to the socket by reference
#: instead of being coalesced into a copy.
_BIG_CHUNK_BYTES = 1 << 18


# ----------------------------------------------------------------------
# Typed errors
# ----------------------------------------------------------------------
class WireProtocolError(ConnectionError):
    """A frame violated the wire protocol (oversized, malformed)."""


class FrameSizeError(WireProtocolError):
    """A frame exceeded :data:`MAX_FRAME_BYTES` (refused on both sides)."""


class TruncatedFrameError(WireProtocolError):
    """The peer closed the connection in the middle of a frame."""


class CorruptFrameError(WireProtocolError):
    """A full-length frame arrived whose payload failed schema decoding."""


class SchemaViolationError(CorruptFrameError):
    """A well-formed frame carried disallowed content (an unregistered
    type or function name, a malformed structure, a bad digest)."""


class AuthenticationError(WireProtocolError):
    """The connect-time challenge–response handshake failed."""


class FrameAuthenticationError(AuthenticationError):
    """A frame's MAC did not verify — tampering or replay."""


class ProtocolVersionError(WireProtocolError):
    """The peer speaks another wire protocol version (no retry heals it)."""


class UnencodableError(TypeError):
    """A value cannot be expressed in the wire schema.

    Deliberately *not* a :class:`ConnectionError`: it fires on the
    sending side before any traffic, and executors respond by running
    the task locally (mirroring the old unpicklable fallback), not by
    requeueing chunks.
    """


class RemoteError(Exception):
    """A worker-side exception whose concrete type is not wire-registered.

    The original type name and message are preserved in the text; the
    traceback travels separately in the ``("err", exc, text)`` frame.
    """


# ----------------------------------------------------------------------
# Registries: the closed vocabulary of constructible types / callables
# ----------------------------------------------------------------------
_REGISTRY_LOCK = threading.RLock()
_TYPES: dict[str, type] = {}
_TYPE_NAMES: dict[type, str] = {}
_FUNCTIONS: dict[str, Callable[..., Any]] = {}
_FUNCTION_NAMES: dict[Any, str] = {}
_SWEPT = False

#: Builtin exceptions are decodable without registration — a worker
#: re-raising ``ValueError`` is the normal task-error path.
_BUILTIN_EXCEPTIONS: dict[str, type] = {
    name: value
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}

#: Modules swept for registrable classes the first time the codec runs.
#: Importing here (lazily, at first encode/decode) is how every
#: ``Protocol``/``InputDistribution``/``Scheduler``/``CoinSource``
#: subclass the repo ships becomes decodable without a manual register
#: call at each definition site.
_SWEEP_MODULES = (
    "repro.core.compile",
    "repro.core.engine",
    "repro.core.errors",
    "repro.core.network",
    "repro.core.processor",
    "repro.core.randomness",
    "repro.core.scheduler",
    "repro.core.simulator",
    "repro.core.transcript",
    "repro.linalg",
    "repro.distributions",
    "repro.protocols",
    "repro.cliques",
    "repro.distinguish",
    "repro.lowerbounds",
    "repro.infotheory",
    "repro.prg",
    "repro.analysis",
    "repro.costs",
)


def _wire_name(obj: Any) -> str:
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname:
        raise UnencodableError(
            f"{obj!r} has no module/qualname to register under"
        )
    return f"{module}:{qualname}"


def register_wire_type(cls: type) -> type:
    """Register ``cls`` as decodable (usable as a class decorator).

    Instances travel as ``registered-name || state`` where state is the
    object's ``__getstate__()`` result expressed in the schema;
    decoding allocates with ``cls.__new__`` and applies the state via
    ``__setstate__`` (or the standard dict/slots application) — never
    ``__init__``, never ``__reduce__``.
    """
    name = _wire_name(cls)
    with _REGISTRY_LOCK:
        _TYPES[name] = cls
        _TYPE_NAMES[cls] = name
    return cls


def register_wire_function(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Register a callable as referenceable by name over the wire.

    Only registered callables (and registered classes, which act as
    factories) can appear in a frame; a worker resolves the name against
    its own registry — code never travels.
    """
    name = _wire_name(fn)
    with _REGISTRY_LOCK:
        _FUNCTIONS[name] = fn
        try:
            _FUNCTION_NAMES[fn] = name
        except TypeError:  # repro-lint: disable=EXC03 an unhashable callable still decodes by name; only the reverse lookup is skipped
            pass
    return fn


def _register_tree(root: type) -> None:
    register_wire_type(root)
    for sub in type.__subclasses__(root):
        _register_tree(sub)


def _ensure_registry(resweep: bool = False) -> None:
    """Populate the registry from the repo's own class hierarchies.

    ``resweep=True`` re-walks the subclass trees — how a test-local
    ``Protocol`` subclass defined after the first sweep still resolves
    (both ends of an in-process loopback share this registry).
    """
    global _SWEPT
    with _REGISTRY_LOCK:
        if _SWEPT and not resweep:
            return
        first = not _SWEPT
        _SWEPT = True
        if first:
            for module_name in _SWEEP_MODULES:
                try:
                    importlib.import_module(module_name)
                except ImportError:  # pragma: no cover - optional subpackage
                    continue
        from ..core.engine import RunSpec, TrialResult, _TrialRunner
        from ..core.errors import BroadcastCliqueError
        from ..core.network import CostReport
        from ..core.processor import ProcessorContext
        from ..core.protocol import Protocol
        from ..core.randomness import CoinSource
        from ..core.scheduler import Scheduler
        from ..core.simulator import ExecutionResult
        from ..core.transcript import BroadcastEvent, Transcript
        from ..distributions.base import InputDistribution
        from ..linalg.bitvec import BitVector

        for root in (
            Protocol,
            Scheduler,
            CoinSource,
            InputDistribution,
            BroadcastCliqueError,
        ):
            _register_tree(root)
        for cls in (
            RunSpec,
            TrialResult,
            _TrialRunner,
            CostReport,
            ProcessorContext,
            ExecutionResult,
            BroadcastEvent,
            Transcript,
            BitVector,
            RemoteError,
        ):
            register_wire_type(cls)
        try:
            from ..prg.newman import NewmanCompiled, _CompiledTrialRunner

            register_wire_type(NewmanCompiled)
            register_wire_type(_CompiledTrialRunner)
        except ImportError:  # repro-lint: disable=EXC03 optional subpackage; its frames would fail loudly as unregistered  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------
class _Encoder:
    """Accumulates encoded bytes; big payloads ride as separate chunks.

    The chunk list is what lets the framing layer write a multi-GiB
    fixed input matrix to the socket by reference instead of joining
    ``header + payload`` into one doubled-peak-memory copy.
    """

    __slots__ = ("chunks", "buf")

    def __init__(self) -> None:
        self.chunks: list[bytes] = []
        self.buf = bytearray()

    def write(self, data: bytes) -> None:
        self.buf += data

    def write_big(self, data: bytes) -> None:
        if len(data) >= _BIG_CHUNK_BYTES:
            if self.buf:
                self.chunks.append(bytes(self.buf))
                self.buf = bytearray()
            self.chunks.append(data)
        else:
            self.buf += data

    def done(self) -> list[bytes]:
        if self.buf:
            self.chunks.append(bytes(self.buf))
            self.buf = bytearray()
        return self.chunks


def _encode_str(enc: _Encoder, tag: bytes, text: str) -> None:
    data = text.encode("utf-8", "surrogatepass")
    enc.write(tag + _LENGTH.pack(len(data)) + data)


def _encode_int_run(obj: Any, container_tag: bytes, enc: _Encoder) -> bool:
    """Write ``obj`` as one packed run if every element is a plain ``int``
    in 0..255.

    The run is ``R || container tag || count || one byte per value``.
    Returns ``False`` (nothing written) otherwise: a bool or numpy scalar
    keeps its own tag, and any other int its 9-byte ``i`` tag.
    """
    if set(map(type, obj)) != _PLAIN_INT:
        return False
    try:
        data = bytes(obj)
    except ValueError:  # a value outside 0..255
        return False
    enc.write(b"R" + container_tag + _LENGTH.pack(len(obj)) + data)
    return True


def _lookup_function_name(obj: Any) -> str | None:
    try:
        return _FUNCTION_NAMES.get(obj)
    except TypeError:  # unhashable callable
        return None


def _encode(obj: Any, enc: _Encoder, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise UnencodableError("value nests deeper than the wire schema allows")
    if obj is None:
        enc.write(b"N")
        return
    kind = type(obj)
    if kind is bool:
        enc.write(b"T" if obj else b"F")
        return
    if kind is int:
        if -(1 << 63) <= obj < (1 << 63):
            enc.write(b"i" + _I64.pack(obj))
        else:
            magnitude = abs(obj)
            data = magnitude.to_bytes((magnitude.bit_length() + 7) // 8, "big")
            sign = b"\x01" if obj < 0 else b"\x00"
            enc.write(b"I" + sign + _U32.pack(len(data)) + data)
        return
    if kind is float:
        enc.write(b"d" + _F64.pack(obj))
        return
    if kind is str:
        _encode_str(enc, b"s", obj)
        return
    if kind in (bytes, bytearray, memoryview):
        data = bytes(obj) if kind is not bytes else obj
        enc.write(b"b" + _LENGTH.pack(len(data)))
        enc.write_big(data)
        return
    container_tag = _CONTAINER_TAGS.get(kind)
    if container_tag is not None:
        if obj and _encode_int_run(obj, container_tag, enc):
            return
        enc.write(container_tag + _LENGTH.pack(len(obj)))
        for item in obj:
            _encode(item, enc, depth + 1)
        return
    if kind is dict:
        enc.write(b"D" + _LENGTH.pack(len(obj)))
        for key, value in obj.items():
            _encode(key, enc, depth + 1)
            _encode(value, enc, depth + 1)
        return
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            raise UnencodableError("object-dtype arrays cannot travel the wire")
        array = np.ascontiguousarray(obj)
        dtype_str = np.dtype(array.dtype).str
        _encode_str(enc, b"A", dtype_str)
        enc.write(bytes([array.ndim]))
        for extent in array.shape:
            enc.write(_LENGTH.pack(extent))
        data = array.tobytes()
        enc.write(_LENGTH.pack(len(data)))
        enc.write_big(data)
        return
    if isinstance(obj, np.generic):
        if obj.dtype.hasobject:
            raise UnencodableError("object-dtype scalars cannot travel the wire")
        data = obj.tobytes()
        _encode_str(enc, b"x", np.dtype(obj.dtype).str)
        enc.write(_LENGTH.pack(len(data)) + data)
        return
    if isinstance(obj, np.random.SeedSequence):
        entropy = obj.entropy
        if isinstance(entropy, np.ndarray):  # pragma: no cover - rare form
            entropy = [int(word) for word in entropy]
        state = (
            entropy,
            tuple(int(key) for key in obj.spawn_key),
            int(obj.pool_size),
            int(obj.n_children_spawned),
        )
        enc.write(b"S")
        _encode(state, enc, depth + 1)
        return
    if isinstance(obj, np.random.Generator):
        enc.write(b"G")
        _encode(obj.bit_generator.state, enc, depth + 1)
        return
    if isinstance(obj, functools.partial):
        enc.write(b"P")
        _encode(obj.func, enc, depth + 1)
        _encode(tuple(obj.args), enc, depth + 1)
        _encode(dict(obj.keywords), enc, depth + 1)
        return
    if isinstance(obj, BaseException):
        name = _exception_name(kind)
        try:
            args_chunks = _encode_chunks(tuple(obj.args), depth + 1)
        except UnencodableError:
            args_chunks = _encode_chunks((_safe_repr(obj),), depth + 1)
        _encode_str(enc, b"E", name)
        for chunk in args_chunks:
            enc.write_big(chunk)
        return
    if isinstance(obj, type):
        name = _TYPE_NAMES.get(obj)
        if name is None:
            _ensure_registry(resweep=True)
            name = _TYPE_NAMES.get(obj)
        if name is None:
            raise UnencodableError(
                f"class {obj.__module__}.{obj.__qualname__} is not "
                "wire-registered (register_wire_type)"
            )
        _encode_str(enc, b"C", name)
        return
    if callable(obj):
        name = _lookup_function_name(obj)
        if name is None:
            _ensure_registry(resweep=True)
            name = _lookup_function_name(obj)
        if name is not None:
            _encode_str(enc, b"f", name)
            return
        # A callable *instance* of a registered class (a trial runner)
        # falls through to the object path below.
    name = _TYPE_NAMES.get(kind)
    if name is None:
        _ensure_registry(resweep=True)
        name = _TYPE_NAMES.get(kind)
    if name is None:
        raise UnencodableError(
            f"{kind.__module__}.{kind.__qualname__} is not wire-encodable "
            "(register_wire_type / register_wire_function)"
        )
    state = obj.__getstate__()
    _encode_str(enc, b"O", name)
    _encode(state, enc, depth + 1)


def _safe_repr(obj: BaseException) -> str:
    try:
        return f"{type(obj).__name__}: {obj}"
    except Exception:  # pragma: no cover - degenerate __str__
        return type(obj).__name__


def _exception_name(cls: type) -> str:
    if cls.__module__ == "builtins":
        return f"builtins:{cls.__qualname__}"
    return _wire_name(cls)


def _encode_chunks(obj: Any, depth: int = 0) -> list[bytes]:
    enc = _Encoder()
    _encode(obj, enc, depth)
    return enc.done()


def encode_value(obj: Any) -> bytes:
    """``obj`` in the wire schema, as one byte string.

    Raises :class:`UnencodableError` when the value steps outside the
    schema (an unregistered class, a lambda, an object-dtype array).
    """
    _ensure_registry()
    return b"".join(_encode_chunks(obj))


def function_digest(fn_bytes: bytes) -> str:
    """Content digest a ``register_fn`` frame keys its callable under."""
    return hashlib.sha256(fn_bytes).hexdigest()


class _Decoder:
    __slots__ = ("view", "pos")

    def __init__(self, payload: bytes) -> None:
        self.view = memoryview(payload)
        self.pos = 0

    @property
    def remaining(self) -> int:
        return len(self.view) - self.pos

    def take(self, count: int) -> memoryview:
        if count < 0 or count > self.remaining:
            raise CorruptFrameError(
                f"frame payload underflow ({count} bytes wanted, "
                f"{self.remaining} left)"
            )
        chunk = self.view[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def u64(self) -> int:
        return int(_LENGTH.unpack(self.take(_LENGTH.size))[0])

    def count(self) -> int:
        value = self.u64()
        if value > self.remaining:
            # Every element costs at least one tag byte: a count beyond
            # the remaining payload is a lie, refuse before looping.
            raise CorruptFrameError(
                f"container of {value} elements exceeds the frame payload"
            )
        return value

    def text(self) -> str:
        length = self.u64()
        if length > self.remaining:
            raise CorruptFrameError("string length exceeds the frame payload")
        return bytes(self.take(length)).decode("utf-8", "surrogatepass")

    def value(self, depth: int) -> Any:
        if depth > _MAX_DEPTH:
            raise CorruptFrameError("frame nests deeper than the wire schema")
        tag = bytes(self.take(1))
        if tag == b"N":
            return None
        if tag == b"T":
            return True
        if tag == b"F":
            return False
        if tag == b"i":
            return int(_I64.unpack(self.take(_I64.size))[0])
        if tag == b"I":
            sign = bytes(self.take(1))
            length = int(_U32.unpack(self.take(_U32.size))[0])
            magnitude = int.from_bytes(self.take(length), "big")
            return -magnitude if sign == b"\x01" else magnitude
        if tag == b"d":
            return float(_F64.unpack(self.take(_F64.size))[0])
        if tag == b"s":
            return self.text()
        if tag == b"b":
            length = self.u64()
            return bytes(self.take(length))
        if tag == b"R":
            return self._int_run()
        if tag in (b"l", b"t"):
            size = self.count()
            items = [self.value(depth + 1) for _ in range(size)]
            return items if tag == b"l" else tuple(items)
        if tag == b"D":
            size = self.count()
            return {
                self.value(depth + 1): self.value(depth + 1)
                for _ in range(size)
            }
        if tag in (b"h", b"H"):
            size = self.count()
            items = [self.value(depth + 1) for _ in range(size)]
            return set(items) if tag == b"h" else frozenset(items)
        if tag == b"A":
            return self._array(depth)
        if tag == b"x":
            dtype = self._dtype(self.text())
            length = self.u64()
            data = bytes(self.take(length))
            if dtype.itemsize != len(data):
                raise CorruptFrameError("scalar payload does not match dtype")
            return np.frombuffer(data, dtype=dtype)[0]
        if tag == b"S":
            return self._seed_sequence(depth)
        if tag == b"G":
            return self._generator(depth)
        if tag == b"P":
            func = self.value(depth + 1)
            args = self.value(depth + 1)
            keywords = self.value(depth + 1)
            if not callable(func) or not isinstance(args, tuple) or not isinstance(keywords, dict):
                raise SchemaViolationError("malformed partial on the wire")
            return functools.partial(func, *args, **keywords)
        if tag == b"E":
            return self._exception(depth)
        if tag == b"C":
            return self._class_ref(self.text())
        if tag == b"f":
            return self._function_ref(self.text())
        if tag == b"O":
            return self._object(depth)
        raise CorruptFrameError(f"unknown wire tag {tag!r}")

    # -- composite decoders ---------------------------------------------
    def _int_run(self) -> Any:
        container_tag = self.take(1)[0]
        container = _RUN_CONTAINERS.get(container_tag)
        if container is None:
            raise CorruptFrameError(
                f"packed int run of unknown container kind {container_tag:#04x}"
            )
        return container(self.take(self.u64()))

    def _dtype(self, dtype_str: str) -> np.dtype:
        try:
            dtype = np.dtype(dtype_str)
        except Exception as exc:
            raise CorruptFrameError(f"bad dtype {dtype_str!r} on the wire") from exc
        if dtype.hasobject:
            raise SchemaViolationError("object dtypes are not wire-decodable")
        return dtype

    def _array(self, depth: int) -> np.ndarray:
        dtype = self._dtype(self.text())
        ndim = bytes(self.take(1))[0]
        if ndim > 32:
            raise CorruptFrameError(f"array of {ndim} dimensions refused")
        shape = tuple(self.u64() for _ in range(ndim))
        nbytes = self.u64()
        expected = int(math.prod(shape)) * dtype.itemsize
        if expected != nbytes:
            raise CorruptFrameError(
                f"array payload of {nbytes} bytes does not match "
                f"shape {shape} / dtype {dtype.str}"
            )
        data = self.take(nbytes)
        # One copy, straight out of the frame buffer: the result owns
        # aligned, writable memory, so it pins no multi-GiB frame alive
        # and decoded state (e.g. recorded inputs) may be mutated
        # downstream.
        return np.frombuffer(data, dtype=dtype).reshape(shape).copy()

    def _seed_sequence(self, depth: int) -> np.random.SeedSequence:
        state = self.value(depth + 1)
        if not (isinstance(state, tuple) and len(state) == 4):
            raise SchemaViolationError("malformed SeedSequence on the wire")
        entropy, spawn_key, pool_size, n_children = state
        try:
            seq = np.random.SeedSequence(
                entropy=entropy,
                spawn_key=tuple(spawn_key),
                pool_size=int(pool_size),
                n_children_spawned=int(n_children),
            )
        except Exception as exc:
            raise SchemaViolationError(
                f"SeedSequence state rejected ({exc})"
            ) from exc
        return seq

    def _generator(self, depth: int) -> np.random.Generator:
        state = self.value(depth + 1)
        if not isinstance(state, dict) or "bit_generator" not in state:
            raise SchemaViolationError("malformed Generator state on the wire")
        name = state["bit_generator"]
        bit_cls = getattr(np.random, str(name), None)
        if not (
            isinstance(bit_cls, type)
            and issubclass(bit_cls, np.random.BitGenerator)
        ):
            raise SchemaViolationError(
                f"unknown bit generator {name!r} on the wire"
            )
        try:
            bit_gen = bit_cls()
            bit_gen.state = state
        except Exception as exc:
            raise SchemaViolationError(
                f"Generator state rejected ({exc})"
            ) from exc
        return np.random.Generator(bit_gen)

    def _exception(self, depth: int) -> BaseException:
        name = self.text()
        args = self.value(depth + 1)
        if not isinstance(args, tuple):
            raise SchemaViolationError("malformed exception args on the wire")
        cls: type | None = None
        module, _, qualname = name.partition(":")
        if module == "builtins":
            candidate = _BUILTIN_EXCEPTIONS.get(qualname)
            if candidate is not None:
                cls = candidate
        else:
            candidate = _TYPES.get(name)
            if candidate is None:
                _ensure_registry(resweep=True)
                candidate = _TYPES.get(name)
            if isinstance(candidate, type) and issubclass(candidate, BaseException):
                cls = candidate
        if cls is None:
            return RemoteError(
                f"[unregistered worker exception {name}] "
                + ", ".join(str(arg) for arg in args)
            )
        try:
            return cls(*args)
        except Exception:
            return RemoteError(
                f"[{name} not reconstructible from args] "
                + ", ".join(str(arg) for arg in args)
            )

    def _class_ref(self, name: str) -> type:
        cls = _TYPES.get(name)
        if cls is None:
            _ensure_registry(resweep=True)
            cls = _TYPES.get(name)
        if cls is None:
            raise SchemaViolationError(
                f"frame references unregistered class {name!r}"
            )
        return cls

    def _function_ref(self, name: str) -> Callable[..., Any]:
        fn = _FUNCTIONS.get(name)
        if fn is None:
            _ensure_registry(resweep=True)
            fn = _FUNCTIONS.get(name)
        if fn is None:
            raise SchemaViolationError(
                f"frame references unregistered function {name!r}"
            )
        return fn

    def _object(self, depth: int) -> Any:
        cls = self._class_ref(self.text())
        state = self.value(depth + 1)
        try:
            obj = cls.__new__(cls)
        except Exception as exc:  # pragma: no cover - exotic metaclass
            raise SchemaViolationError(
                f"cannot allocate {cls.__qualname__} ({exc})"
            ) from exc
        setstate = getattr(obj, "__setstate__", None)
        if setstate is not None:
            setstate(state)
            return obj
        dict_state: Any = state
        slots_state: Any = None
        if isinstance(state, tuple) and len(state) == 2:
            dict_state, slots_state = state
        if dict_state is not None:
            if not isinstance(dict_state, dict):
                raise SchemaViolationError(
                    f"malformed state for {cls.__qualname__} on the wire"
                )
            for key, value in dict_state.items():
                obj.__dict__[key] = value
        if slots_state is not None:
            if not isinstance(slots_state, dict):
                raise SchemaViolationError(
                    f"malformed slots state for {cls.__qualname__} on the wire"
                )
            for key, value in slots_state.items():
                object.__setattr__(obj, key, value)  # repro-lint: disable=DET02 applying decoded slot state is the codec's one sanctioned use
        return obj


def decode_value(payload: bytes) -> Any:
    """Decode one schema payload; typed errors on anything malformed."""
    _ensure_registry()
    dec = _Decoder(payload)
    try:
        value = dec.value(0)
    except CorruptFrameError:
        raise
    except RecursionError as exc:
        raise CorruptFrameError("frame nests deeper than the decoder") from exc
    except Exception as exc:  # noqa: BLE001 - any decode failure is corruption
        raise CorruptFrameError(
            f"frame payload of {len(payload)} bytes failed to decode "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if dec.pos != len(dec.view):
        raise CorruptFrameError(
            f"{len(dec.view) - dec.pos} trailing bytes after the frame payload"
        )
    return value


# ----------------------------------------------------------------------
# Raw framing (handshake transport; MAC-less)
# ----------------------------------------------------------------------
def _send_chunks(sock: socket.socket, chunks: Iterable[bytes]) -> None:
    """Write chunks without joining big ones into a doubled-memory copy."""
    pending: list[bytes] = []
    pending_len = 0
    for chunk in chunks:
        if len(chunk) >= _BIG_CHUNK_BYTES:
            if pending:
                sock.sendall(b"".join(pending))
                pending = []
                pending_len = 0
            sock.sendall(chunk)
        else:
            pending.append(chunk)
            pending_len += len(chunk)
            if pending_len >= _BIG_CHUNK_BYTES:
                sock.sendall(b"".join(pending))
                pending = []
                pending_len = 0
    if pending:
        sock.sendall(b"".join(pending))


def _frame_length(chunks: list[bytes]) -> int:
    length = sum(len(chunk) for chunk in chunks)
    if length > MAX_FRAME_BYTES:
        # The sender-side size guard: refuse before a single byte is
        # written, instead of poisoning the stream and letting the
        # receiver kill the connection.
        raise FrameSizeError(
            f"frame of {length} bytes exceeds protocol limit "
            f"({MAX_FRAME_BYTES})"
        )
    return length


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Write ``obj`` as one length-prefixed schema frame (no MAC).

    Carries only the pre-session handshake (and tests); authenticated
    traffic goes through :meth:`WireSession.send`.
    """
    _ensure_registry()
    chunks = _encode_chunks(obj)
    length = _frame_length(chunks)
    _send_chunks(sock, [_LENGTH.pack(length), *chunks])


def _recv_exact(sock: socket.socket, n_bytes: int) -> bytes:
    chunks = []
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise TruncatedFrameError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_header(sock: socket.socket, max_bytes: int) -> int:
    header = sock.recv(_LENGTH.size)
    if not header:
        raise ConnectionError("peer closed the connection")
    if len(header) < _LENGTH.size:
        header += _recv_exact(sock, _LENGTH.size - len(header))
    (length,) = _LENGTH.unpack(header)
    if length > max_bytes:
        raise FrameSizeError(
            f"frame of {length} bytes exceeds protocol limit ({max_bytes})"
        )
    return length


def recv_frame(sock: socket.socket, max_bytes: int | None = None) -> Any:
    """Read one length-prefixed schema frame (no MAC).

    Raises plain :class:`ConnectionError` on a clean EOF between frames
    (the peer hung up — the normal end of a session) and the typed
    subclasses above for everything pathological.
    """
    length = _recv_header(sock, MAX_FRAME_BYTES if max_bytes is None else max_bytes)
    return decode_value(_recv_exact(sock, length))


# ----------------------------------------------------------------------
# Authenticated session
# ----------------------------------------------------------------------
def resolve_secret(secret: "bytes | str | None") -> bytes:
    """The shared secret as bytes: explicit, else env, else dev default."""
    if secret is None:
        env = os.environ.get(DEFAULT_SECRET_ENV)
        if env:
            return env.encode("utf-8")
        return _DEV_SECRET
    if isinstance(secret, str):
        return secret.encode("utf-8")
    return bytes(secret)


def _proof(secret: bytes, label: bytes, *nonces: bytes) -> bytes:
    mac = hmac.new(secret, digestmod=hashlib.sha256)
    mac.update(label)
    for nonce in nonces:
        mac.update(nonce)
    return mac.digest()


def _check_nonce(value: Any, what: str) -> bytes:
    if not isinstance(value, bytes) or len(value) != _NONCE_BYTES:
        raise AuthenticationError(f"malformed {what} in handshake")
    return value


class WireSession:
    """An authenticated, sequenced frame channel.

    Construct with :meth:`client` / :meth:`server`, which run the
    challenge–response handshake over raw frames:

    1. server → ``("challenge", version, server_nonce)``
    2. client → ``("auth", client_nonce, client_proof)`` where
       ``client_proof = HMAC(secret, "client" || nonces)``
    3. server verifies, replies ``("welcome", server_proof)`` with the
       mirrored server proof — authentication is mutual — or
       ``("auth_denied",)`` and closes.

    The session key is ``HMAC(secret, "session" || nonces)``; every
    subsequent frame is ``length || payload || MAC`` with the MAC taken
    over a direction label, the strict per-direction sequence number,
    the length, and the payload.  Fresh nonces mean a frame recorded
    from one session can never verify in another; the sequence number
    means it cannot be replayed (or reordered) within its own session.
    """

    __slots__ = ("sock", "_key", "_send_label", "_recv_label",
                 "_send_seq", "_recv_seq")

    def __init__(
        self,
        sock: socket.socket,
        key: bytes,
        send_label: bytes,
        recv_label: bytes,
    ) -> None:
        self.sock = sock
        self._key = key
        self._send_label = send_label
        self._recv_label = recv_label
        self._send_seq = 0
        self._recv_seq = 0

    # -- handshake ------------------------------------------------------
    @classmethod
    def client(
        cls, sock: socket.socket, secret: "bytes | str | None" = None
    ) -> "WireSession":
        """Authenticate the client side of a fresh connection."""
        key = resolve_secret(secret)
        challenge = recv_frame(sock, max_bytes=_HANDSHAKE_MAX_BYTES)
        if not (
            isinstance(challenge, tuple)
            and len(challenge) >= 2
            and challenge[0] == "challenge"
        ):
            raise AuthenticationError(
                f"expected a handshake challenge, got {_frame_kind(challenge)!r}"
            )
        # The version is read before the arity: a worker on another
        # version may shape its challenge differently (v3 appended a
        # codec list) and must still be named as a version mismatch.
        version = challenge[1]
        if version != PROTOCOL_VERSION:
            raise ProtocolVersionError(
                f"worker speaks wire protocol v{version}, this client "
                f"speaks v{PROTOCOL_VERSION}"
            )
        if len(challenge) != 3:
            raise AuthenticationError("malformed handshake challenge")
        server_nonce = _check_nonce(challenge[2], "server nonce")
        client_nonce = os.urandom(_NONCE_BYTES)
        send_frame(
            sock,
            ("auth", client_nonce, _proof(key, b"client", server_nonce, client_nonce)),
        )
        reply = recv_frame(sock, max_bytes=_HANDSHAKE_MAX_BYTES)
        if isinstance(reply, tuple) and reply[:1] == ("auth_denied",):
            raise AuthenticationError(
                "worker rejected this client's credentials (secret mismatch?)"
            )
        if not (
            isinstance(reply, tuple) and len(reply) == 2 and reply[0] == "welcome"
        ):
            raise AuthenticationError(
                f"expected a handshake welcome, got {_frame_kind(reply)!r}"
            )
        expected = _proof(key, b"server", client_nonce, server_nonce)
        if not isinstance(reply[1], bytes) or not hmac.compare_digest(
            reply[1], expected
        ):
            raise AuthenticationError(
                "worker failed mutual authentication (secret mismatch?)"
            )
        return cls(
            sock,
            _proof(key, b"session", server_nonce, client_nonce),
            send_label=b"C",
            recv_label=b"S",
        )

    @classmethod
    def server(
        cls, sock: socket.socket, secret: "bytes | str | None" = None
    ) -> "WireSession":
        """Authenticate the server side of a freshly accepted connection."""
        key = resolve_secret(secret)
        server_nonce = os.urandom(_NONCE_BYTES)
        send_frame(sock, ("challenge", PROTOCOL_VERSION, server_nonce))
        reply = recv_frame(sock, max_bytes=_HANDSHAKE_MAX_BYTES)
        if not (
            isinstance(reply, tuple) and len(reply) == 3 and reply[0] == "auth"
        ):
            raise AuthenticationError(
                f"expected a handshake auth frame, got {_frame_kind(reply)!r}"
            )
        _, client_nonce, client_proof = reply
        client_nonce = _check_nonce(client_nonce, "client nonce")
        expected = _proof(key, b"client", server_nonce, client_nonce)
        if not isinstance(client_proof, bytes) or not hmac.compare_digest(
            client_proof, expected
        ):
            try:
                send_frame(sock, ("auth_denied",))
            except OSError:  # repro-lint: disable=EXC03 peer may be gone; the denial below is the signal
                pass
            raise AuthenticationError(
                "client failed authentication (secret mismatch?)"
            )
        send_frame(
            sock, ("welcome", _proof(key, b"server", client_nonce, server_nonce))
        )
        return cls(
            sock,
            _proof(key, b"session", server_nonce, client_nonce),
            send_label=b"S",
            recv_label=b"C",
        )

    # -- authenticated frames -------------------------------------------
    def _mac(self, label: bytes, seq: int, length: int, chunks: Iterable[bytes]) -> bytes:
        mac = hmac.new(self._key, digestmod=hashlib.sha256)
        mac.update(label)
        mac.update(_LENGTH.pack(seq))
        mac.update(_LENGTH.pack(length))
        for chunk in chunks:
            mac.update(chunk)
        return mac.digest()

    def frame_bytes(self, obj: Any) -> tuple[bytes, list[bytes], bytes]:
        """``(header, payload_chunks, mac)`` for ``obj``, advancing the
        send sequence — the hook fault injection uses to damage a frame
        *after* the MAC is computed, so chaos cells exercise detection."""
        _ensure_registry()
        chunks = _encode_chunks(obj)
        length = _frame_length(chunks)
        seq = self._send_seq
        self._send_seq += 1
        mac = self._mac(self._send_label, seq, length, chunks)
        return _LENGTH.pack(length), chunks, mac

    def send(self, obj: Any) -> None:
        """Encode, MAC, and write ``obj`` as one authenticated frame."""
        header, chunks, mac = self.frame_bytes(obj)
        _send_chunks(self.sock, [header, *chunks, mac])

    def recv(self) -> Any:
        """Read and verify one authenticated frame.

        MAC verification happens **before** schema decoding: tampered
        bytes surface as :class:`FrameAuthenticationError`, never as a
        decoder crash on attacker-shaped input.
        """
        length = _recv_header(self.sock, MAX_FRAME_BYTES)
        payload = _recv_exact(self.sock, length)
        mac = _recv_exact(self.sock, _MAC_BYTES)
        expected = self._mac(self._recv_label, self._recv_seq, length, [payload])
        if not hmac.compare_digest(mac, expected):
            raise FrameAuthenticationError(
                f"frame {self._recv_seq} failed MAC verification "
                "(tampered, truncated-and-refilled, or replayed)"
            )
        self._recv_seq += 1
        return decode_value(payload)

    def request(self, obj: Any) -> Any:
        """One authenticated round-trip."""
        self.send(obj)
        return self.recv()


def _frame_kind(frame: Any) -> Any:
    if isinstance(frame, tuple) and frame:
        return frame[0]
    return type(frame).__name__
