"""Capture/replay compute engine for the :mod:`repro.nn` hot path.

The submodel graph for a given controller mask is *fixed*: every local
step runs the same primitive ops on the same shapes.  Eager execution
nevertheless rebuilds the whole Python autograd graph — one
:class:`~repro.nn.tensor.Tensor`, one backward closure, one parent tuple
per op — every step.  This module captures the forward **once** per
(mask, input shape, dtype) key as a linear tape of replay thunks over a
retained graph, then replays it with zero graph construction:

* **Forward replay** walks the tape; each thunk recomputes its op's
  output from the (refreshed) parent ``.data`` arrays, rebinding the
  retained output tensor's ``.data`` and any saved backward state
  (closure-cell rebinding — see :mod:`repro.nn.tensor`).
* **Backward replay** seeds the retained output and walks the stored
  topological order in reverse, accumulating into **preallocated
  gradient buffers** (``Tensor._grad_buf``) — one ``np.copyto`` instead
  of one allocation per node.  Parameter buffers alias the flat
  :class:`~repro.nn.arena.ParameterArena` gradient view when an arena is
  attached.

Equality contract: float64 replay is **bit-identical** to eager — the
thunks run the same numpy expressions in the same order, the retained
closures compute the same backward products, and the first-accumulate
``np.copyto`` produces the same bytes as eager's defensive copy.  The
opt-in float32 mode (``compute_dtype="float32"``) replays the tape in
single precision and is tolerance-verified instead.

Configuration is process-global (``configure()``) and mirrored into
``$REPRO_TAPE`` / ``$REPRO_COMPUTE_DTYPE`` / ``$REPRO_TAPE_FUSION`` so
forked/spawned worker processes inherit it.  Compiled tapes are *derived
state*: never serialized, never checkpointed, rebuilt on first use after
a resume.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import tensor as _tensor
from .tensor import Tensor

__all__ = [
    "TapeUnsupported",
    "configure",
    "enabled",
    "compute_dtype",
    "fusion_enabled",
    "capturing",
    "is_capturing",
    "CompiledStep",
    "TapeStats",
    "stats",
    "reset_stats",
]


class TapeUnsupported(RuntimeError):
    """Raised mid-capture when an op cannot be recorded (e.g. active
    dropout).  The caller falls back to eager execution for that key."""


def _env_bool(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in {"1", "true", "yes", "on"}


_ENABLED: bool = _env_bool("REPRO_TAPE")
_COMPUTE_DTYPE: str = os.environ.get("REPRO_COMPUTE_DTYPE", "float64") or "float64"
_FUSION: bool = _env_bool("REPRO_TAPE_FUSION")


def configure(
    enabled: Optional[bool] = None,
    compute_dtype: Optional[str] = None,
    fusion: Optional[bool] = None,
) -> None:
    """Set the process-global tape configuration.

    Every given field is also mirrored into the environment
    (``$REPRO_TAPE``, ``$REPRO_COMPUTE_DTYPE``, ``$REPRO_TAPE_FUSION``)
    so worker processes forked or spawned afterwards inherit it.  A
    worker that misses the update only loses the speedup — float64
    replay is bit-identical to eager, so results are unchanged.
    """
    global _ENABLED, _COMPUTE_DTYPE, _FUSION
    if enabled is not None:
        _ENABLED = bool(enabled)
        os.environ["REPRO_TAPE"] = "1" if _ENABLED else "0"
    if compute_dtype is not None:
        if compute_dtype not in ("float64", "float32"):
            raise ValueError(
                f"compute_dtype must be 'float64' or 'float32', got {compute_dtype!r}"
            )
        _COMPUTE_DTYPE = compute_dtype
        os.environ["REPRO_COMPUTE_DTYPE"] = compute_dtype
    if fusion is not None:
        _FUSION = bool(fusion)
        os.environ["REPRO_TAPE_FUSION"] = "1" if _FUSION else "0"


def enabled() -> bool:
    """Whether the compiled compute engine is on for this process."""
    return _ENABLED


def compute_dtype() -> np.dtype:
    """The replay dtype (float64 reference / opt-in float32)."""
    return np.dtype(_COMPUTE_DTYPE)


def fusion_enabled() -> bool:
    """Whether the fused conv→BN→ReLU tape primitive is on."""
    return _FUSION


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
@contextlib.contextmanager
def capturing(entries: List[Tuple[str, Callable[[], None]]]):
    """Record every op executed in the block into ``entries``."""
    previous = _tensor._set_tape(entries)
    try:
        yield entries
    finally:
        _tensor._set_tape(previous)


def is_capturing() -> bool:
    return _tensor._TAPE is not None


class TapeStats:
    """Process-global capture/replay counters (telemetry + tests)."""

    __slots__ = ("captures", "replays", "fallbacks")

    def __init__(self) -> None:
        self.captures = 0
        self.replays = 0
        self.fallbacks = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "captures": self.captures,
            "replays": self.replays,
            "fallbacks": self.fallbacks,
        }


_STATS = TapeStats()


def stats() -> TapeStats:
    return _STATS


def reset_stats() -> None:
    _STATS.captures = 0
    _STATS.replays = 0
    _STATS.fallbacks = 0


# ----------------------------------------------------------------------
# Compiled step
# ----------------------------------------------------------------------
def _topo_from(root: Tensor) -> List[Tensor]:
    """Topological order of ``root``'s subgraph — the same stack-DFS as
    :meth:`Tensor.backward`, so a replayed walk visits nodes in exactly
    the order eager backward would."""
    ordered: List[Tensor] = []
    visited: set = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            ordered.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return ordered


class CompiledStep:
    """One captured (mask, input-shape, dtype) forward as a replayable tape.

    Parameters
    ----------
    x_in:
        The retained input tensor; replays rebind ``x_in.data``.
    output:
        The retained network output (logits) tensor.
    entries:
        ``(op_name, replay_fn)`` tape recorded during capture.
    grad_view:
        Optional ``name -> flat-buffer-window`` resolver (the arena's
        :meth:`~repro.nn.arena.ParameterArena.grad_view`); matching
        parameter gradient buffers alias these windows.
    """

    __slots__ = (
        "x_in",
        "output",
        "entries",
        "_reversed",
        "_nodes",
        "param_leaves",
    )

    def __init__(
        self,
        x_in: Tensor,
        output: Tensor,
        entries: List[Tuple[str, Callable[[], None]]],
        named_params: Optional[Dict[int, Tuple[str, Tensor]]] = None,
        grad_view: Optional[Callable[[str], Optional[np.ndarray]]] = None,
    ):
        self.x_in = x_in
        self.output = output
        self.entries = entries
        ordered = _topo_from(output)
        self._nodes = ordered
        self._reversed = [
            n for n in reversed(ordered) if n._backward is not None
        ]
        # Preallocate gradient buffers for *parameter* leaves: each one
        # accumulates via np.copyto into a retained array — aliasing the
        # arena's flat gradient window when one matches — so optimizer
        # state access never re-allocates.  Intermediate nodes keep the
        # eager zero-copy borrow path: an extra memcpy per activation
        # gradient costs more than the allocation it would save.
        # Buffers must be C-contiguous — eager gradients always are
        # (``Tensor._accumulate`` normalises layout), and numpy's
        # pairwise-summation reductions are layout-sensitive, so a
        # buffer with a strided layout would change downstream ``sum``
        # bits.
        named_params = named_params or {}
        in_graph = {
            id(node) for node in ordered if node.requires_grad
        }
        #: (name, param) for every named parameter this graph actually
        #: touches, in the caller's ``named_params`` (declaration)
        #: order — the only slots whose ``.grad`` a step populates, so
        #: callers can clear and pack exactly this subset instead of
        #: walking the full model.
        self.param_leaves: List[Tuple[str, Tensor]] = [
            (name, param)
            for pid, (name, param) in named_params.items()
            if pid in in_graph
        ]
        for _, node in self.param_leaves:
            buf = None
            if grad_view is not None:
                buf = grad_view(named_params[id(node)][0])
                if buf is not None and not buf.flags["C_CONTIGUOUS"]:
                    buf = None
            if buf is None or buf.shape != node.data.shape:
                buf = np.empty(node.data.shape, dtype=node.data.dtype)
            node._grad_buf = buf

    def replay_forward(
        self, x: np.ndarray, profile: Optional[Dict] = None
    ) -> Tensor:
        """Run the tape on ``x``; returns the retained output tensor.

        ``profile`` (optional) is a mapping updated with per-op replay
        timings keyed ``("tape:<op>", "<out-shape>")`` →
        ``[count, total_s]`` — the same row format as
        :class:`repro.telemetry.tracing.OpProfiler`.
        """
        self.x_in.data = x
        if profile is None:
            for _, fn in self.entries:
                fn()
        else:
            for name, fn in self.entries:
                start = time.perf_counter()
                fn()
                elapsed = time.perf_counter() - start
                key = ("tape:" + name, "*")
                cell = profile.get(key)
                if cell is None:
                    profile[key] = [1, elapsed]
                else:
                    cell[0] += 1
                    cell[1] += elapsed
        return self.output

    def replay_backward(self, loss: Tensor) -> None:
        """Backward from a fresh eager ``loss`` node through the tape.

        ``loss`` must have been computed (eagerly) from ``self.output``.
        The walk mirrors :meth:`Tensor.backward` seeded at ``loss``:
        eager DFS-from-loss orders the loss node first, then exactly this
        stored order for the output's subgraph — so the accumulation
        sequence (and hence every float) matches eager bit for bit.
        """
        seed = np.ones_like(loss.data)
        loss._accumulate(seed)
        if loss._backward is not None:
            loss._backward(loss.grad)
        loss.grad = None
        for node in self._reversed:
            g = node.grad
            if g is not None:
                node._backward(g)
                if node._parents:
                    node.grad = None
