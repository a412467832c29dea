"""Deterministic trace-context propagation for distributed spans.

A :class:`TraceContext` gives every span a ``trace_id`` / ``span_id`` /
``parent_span_id`` triple without consulting ``random`` or the wall clock
(RL001): span ids are *hierarchical dotted paths* allocated from per-context
counters — the root context hands out ``"1"``, ``"2"``, ...; the context
under span ``"2"`` hands out ``"2.1"``, ``"2.2"``.  Allocation depends only
on the order spans open under one context, so two runs of the same stream
replay to the same ids.  Contexts are not thread-safe: only the serving
thread opens spans (the sharded service's workers only score).
"""

from __future__ import annotations

__all__ = ["TraceContext"]


class TraceContext:
    """One id-allocation namespace under one parent span.

    ``trace_id`` names the whole trace; ``span_id`` is the parent span that
    spans opened under this context attach to (``None`` at the root).
    :meth:`allocate` mints the next child span id; :meth:`child` descends
    under an allocated span.
    """

    __slots__ = ("trace_id", "span_id", "_prefix", "_n_children")

    def __init__(
        self,
        trace_id: str,
        span_id: str | None = None,
        _prefix: str = "",
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self._prefix = _prefix
        self._n_children = 0

    @classmethod
    def root(cls, seed: int = 0) -> "TraceContext":
        """The root context of a fresh trace; ``seed`` names the trace."""
        return cls(trace_id=f"t{int(seed):04d}")

    def allocate(self) -> str:
        """Mint the next span id in this namespace (deterministic counter)."""
        self._n_children += 1
        if self._prefix:
            return f"{self._prefix}.{self._n_children}"
        return str(self._n_children)

    def child(self, span_id: str) -> "TraceContext":
        """The context *under* an allocated span: children of ``span_id``."""
        return TraceContext(self.trace_id, span_id=span_id, _prefix=span_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, prefix={self._prefix!r}, "
            f"n_children={self._n_children})"
        )
