"""Serialization helpers: state flattening and wire-size accounting.

The federated simulator needs to (a) snapshot and restore model state for
the staleness memory pools, (b) measure how many bytes a model costs to
transmit — the quantity the paper's adaptive-transmission scheme sorts
sub-models by — and (c) put state dicts on a real wire for the socket
execution backend (:mod:`repro.transport`).

Two size accountings coexist deliberately:

* :func:`state_size_bytes` — the *analytic* estimate (4 bytes/scalar,
  float32), matching the paper's Fig. 7 cost model; and
* :func:`payload_size_bytes` — the *exact* on-wire size of the packed
  blob :func:`pack_state` produces (including per-entry headers and
  optional zlib compression), which is what the transport layer actually
  sends.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Dict

import numpy as np

from .arena import ParameterArena
from .modules import Module

__all__ = [
    "WIRE_DTYPES",
    "arena_to_bytes",
    "arena_from_bytes",
    "pack_state",
    "pack_state_via_arena",
    "unpack_state",
    "state_num_parameters",
    "state_size_bytes",
    "payload_size_bytes",
    "model_size_megabytes",
    "clone_state",
    "cow_clone_state",
]

_WIRE_BYTES_PER_SCALAR = 4  # the analytic model assumes float32 scalars

#: Wire precisions the payload codec can ship.  ``float64`` is lossless
#: for the (float64) parameter arrays — the precision the socket backend
#: uses by default so seeded runs stay bit-identical across backends;
#: ``float32``/``float16`` trade precision for bytes (Sec. IV's
#: bandwidth-constrained devices) and are therefore *not* bit-identical.
WIRE_DTYPES = {
    "float16": np.float16,
    "float32": np.float32,
    "float64": np.float64,
}

#: The only element types a packed blob may name, keyed by their stored
#: ``dtype.str``: the wire precisions in either byte order.  Anything
#: else a peer sends (strings, complex, objects) is rejected on decode.
_PACKED_DTYPES = {
    dt.str.encode("ascii"): dt
    for dt in (
        np.dtype(wire).newbyteorder(order)
        for wire in WIRE_DTYPES.values()
        for order in "<>"
    )
}
_NAME_LEN = struct.Struct(">H")


def pack_state(
    state: Dict[str, np.ndarray], *, dtype: str = "float32", compress: bool = False
) -> bytes:
    """Serialize a state dict to a *compact* binary blob.

    An npz container costs ~300 bytes of zip/npy headers **per array**
    — more than the array data itself at simulator scale.  This packed
    format spends ~40 bytes per entry::

        name_len (u16 BE) | name utf-8 | dtype_len (u8) | dtype.str |
        ndim (u8) | dims (u32 BE each) | raw C-order bytes

    Entries keep dict order; the stored ``dtype.str`` carries the byte
    order, so the blob is self-describing and platform-portable.  It is
    the tensor-blob format of every socket task and update.
    """
    if dtype not in WIRE_DTYPES:
        raise ValueError(
            f"dtype must be one of {sorted(WIRE_DTYPES)}, got {dtype!r}"
        )
    wire = WIRE_DTYPES[dtype]
    parts = []
    for name, value in state.items():
        # ``tobytes`` emits C order for any layout; skipping
        # ``ascontiguousarray`` keeps 0-d entries 0-d on the wire.
        array = np.asarray(value, dtype=wire)
        name_bytes = name.encode("utf-8")
        dtype_bytes = array.dtype.str.encode("ascii")
        if len(name_bytes) > 0xFFFF or len(dtype_bytes) > 0xFF or array.ndim > 0xFF:
            raise ValueError(f"state entry {name!r} does not fit the packed format")
        header = (
            len(name_bytes).to_bytes(2, "big")
            + name_bytes
            + bytes([len(dtype_bytes)])
            + dtype_bytes
            + bytes([array.ndim])
            + b"".join(dim.to_bytes(4, "big") for dim in array.shape)
        )
        parts.append(header)
        parts.append(array.tobytes())
    payload = b"".join(parts)
    if compress:
        payload = zlib.compress(payload)
    return payload


def pack_state_via_arena(
    state: Dict[str, np.ndarray],
    arena: ParameterArena,
    *,
    dtype: str = "float32",
    compress: bool = False,
) -> bytes:
    """Arena-accelerated :func:`pack_state`: identical bytes, fewer copies.

    When every entry of ``state`` is a live float64 view into ``arena``
    (the delta-dispatch case: changed-parameter dicts drawn from
    ``Supernet.submodel_state`` with the arena attached), the data bytes
    are gathered straight out of the arena's contiguous buffer as
    zero-copy memoryview ranges — no per-name ``ascontiguousarray`` /
    ``tobytes`` round trip.  Per-entry headers interleave with the data
    in the packed format, so the gather is one range per entry rather
    than one per :meth:`~repro.nn.arena.ParameterArena.merged_runs` run;
    the ranges are still raw arena slices, and the resulting blob is
    byte-for-byte what :func:`pack_state` produces (asserted in tests).
    Anything that disqualifies the fast path — a non-arena entry, or a
    narrowing wire dtype, which needs a real conversion — falls back to
    :func:`pack_state` transparently.
    """
    if dtype not in WIRE_DTYPES:
        raise ValueError(
            f"dtype must be one of {sorted(WIRE_DTYPES)}, got {dtype!r}"
        )
    if arena is None or WIRE_DTYPES[dtype] != np.float64:
        return pack_state(state, dtype=dtype, compress=compress)
    for name, value in state.items():
        if not arena.has(name) or arena.view(name) is not value:
            return pack_state(state, dtype=dtype, compress=compress)
    raw = memoryview(arena.data).cast("B")
    itemsize = arena.data.itemsize
    parts = []
    for name, value in state.items():
        entry = arena.index[name]
        name_bytes = name.encode("utf-8")
        dtype_bytes = value.dtype.str.encode("ascii")
        if len(name_bytes) > 0xFFFF or len(dtype_bytes) > 0xFF or value.ndim > 0xFF:
            raise ValueError(f"state entry {name!r} does not fit the packed format")
        parts.append(
            len(name_bytes).to_bytes(2, "big")
            + name_bytes
            + bytes([len(dtype_bytes)])
            + dtype_bytes
            + bytes([value.ndim])
            + b"".join(dim.to_bytes(4, "big") for dim in value.shape)
        )
        parts.append(
            raw[entry.offset * itemsize : (entry.offset + entry.size) * itemsize]
        )
    payload = b"".join(parts)
    if compress:
        payload = zlib.compress(payload)
    return payload


def unpack_state(payload: bytes, *, compressed: bool = False) -> Dict[str, np.ndarray]:
    """Inverse of :func:`pack_state` (arrays come back as float64).

    Only float16/float32/float64 entries (either byte order) and unique
    names are accepted; anything else raises ``ValueError``, as does a
    truncated blob.  Entries are read straight from a ``memoryview`` of
    ``payload``, so the only copy per entry is the float64 conversion.
    """
    if compressed:
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise ValueError(f"corrupt compressed state payload: {exc}") from exc
    buf = memoryview(payload).cast("B")
    total = len(buf)
    state: Dict[str, np.ndarray] = {}
    offset = 0

    def need(count: int) -> None:
        if offset + count > total:
            raise ValueError(
                f"truncated packed state blob at byte {offset} "
                f"(wanted {count} more of {total})"
            )

    while offset < total:
        need(2)
        (name_len,) = _NAME_LEN.unpack_from(buf, offset)
        offset += 2
        need(name_len)
        name = str(buf[offset : offset + name_len], "utf-8")
        offset += name_len
        if name in state:
            raise ValueError(f"packed state blob repeats entry {name!r}")
        need(1)
        dtype_len = buf[offset]
        offset += 1
        need(dtype_len)
        dtype_str = bytes(buf[offset : offset + dtype_len])
        dt = _PACKED_DTYPES.get(dtype_str)
        if dt is None:
            raise ValueError(
                f"packed state entry {name!r} has a bad dtype {dtype_str!r} "
                "(only float16/float32/float64 are accepted)"
            )
        offset += dtype_len
        need(1)
        ndim = buf[offset]
        offset += 1
        need(4 * ndim)
        shape = struct.unpack_from(f">{ndim}I", buf, offset)
        offset += 4 * ndim
        count = math.prod(shape)
        need(count * dt.itemsize)
        state[name] = (
            np.frombuffer(buf, dt, count, offset).reshape(shape).astype(np.float64)
        )
        offset += count * dt.itemsize
    return state


def arena_to_bytes(
    arena: ParameterArena, names=None, *, compress: bool = False
) -> bytes:
    """Serialize (a subset of) a :class:`ParameterArena` as one buffer write.

    Where :func:`pack_state` loops over per-name arrays, this emits the
    arena's contiguous buffer directly — a single ``tobytes`` for the
    whole model (or one write per merged range for a subset) plus a JSON
    ``name → shape`` index.  Inverse:
    :func:`arena_from_bytes`.
    """
    return arena.to_bytes(names, compress=compress)


def arena_from_bytes(payload: bytes) -> Dict[str, np.ndarray]:
    """Inverse of :func:`arena_to_bytes`: one buffer read → state dict."""
    return ParameterArena.state_from_bytes(payload)


def state_num_parameters(state: Dict[str, np.ndarray]) -> int:
    return int(sum(v.size for v in state.values()))


def state_size_bytes(state: Dict[str, np.ndarray]) -> int:
    """*Analytic* wire size of a state dict, assuming 4 bytes/scalar.

    This is the paper's cost model (raw float32 scalars, no container
    overhead) and what the Fig. 7 adaptive-transmission results sort by.
    For the exact size of the bytes the transport actually ships, use
    :func:`payload_size_bytes`.
    """
    return _WIRE_BYTES_PER_SCALAR * state_num_parameters(state)


def payload_size_bytes(
    state: Dict[str, np.ndarray], *, compressed: bool = False, dtype: str = "float32"
) -> int:
    """*Exact* on-wire size of ``state`` as the transport would send it.

    Unlike :func:`state_size_bytes` this includes the packed blob's
    per-entry headers (see :func:`pack_state`) and reflects the chosen
    wire precision and optional zlib compression.
    """
    return len(pack_state(state, dtype=dtype, compress=compressed))


def model_size_megabytes(model: Module) -> float:
    """Wire size of a model's trainable parameters in MB (float32)."""
    return _WIRE_BYTES_PER_SCALAR * model.num_parameters() / 1e6


def clone_state(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Deep-copy a state dict."""
    return {k: np.array(v, copy=True) for k, v in state.items()}


def cow_clone_state(
    state: Dict[str, np.ndarray],
    versions,
    cache: Dict[str, tuple],
) -> Dict[str, np.ndarray]:
    """Copy-on-write snapshot of a state dict.

    ``versions`` maps (or indexes, via ``versions[name]``) each name to a
    monotonically increasing counter that changes whenever the live array
    is mutated; ``cache`` persists between calls and maps name →
    ``(version, frozen_copy)``.  Entries whose version is unchanged since
    the previous snapshot *share* the previously frozen copy — only
    mutated entries are physically copied.  Each returned snapshot is
    therefore safe to keep after the live arrays change, at a cost of
    O(changed entries) rather than O(full state) per call.
    """
    snapshot: Dict[str, np.ndarray] = {}
    for name, value in state.items():
        version = versions[name]
        cached = cache.get(name)
        if cached is None or cached[0] != version:
            cached = (version, np.array(value, copy=True))
            cache[name] = cached
        snapshot[name] = cached[1]
    return snapshot
