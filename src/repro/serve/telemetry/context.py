"""Deterministic trace-context propagation for distributed spans.

A :class:`TraceContext` gives every span a ``trace_id`` / ``span_id`` /
``parent_span_id`` triple without consulting ``random`` or the wall clock
(RL001): span ids are *hierarchical dotted paths* allocated from per-context
counters — the root context hands out ``"1"``, ``"2"``, ...; the context
under span ``"2"`` hands out ``"2.1"``, ``"2.2"``; a shard fork of that
context hands out ``"2.s0.1"``, ``"2.s0.2"``.  Two consequences matter for
the serving stack:

* **Reproducible trees** — allocation depends only on the order spans open
  under one context, so sequential and thread runs of the same stream
  produce the same span *tree shape* (parent/child edges and stage
  multiset), and re-running a fork re-allocates the *same* ids.
* **Race-free concurrency** — contexts are deliberately *not* shared across
  threads; instead the coordinator :meth:`fork`\\ s one child namespace per
  shard (``s0``, ``s1``, ...), so concurrent workers can never interleave on
  one counter.  A fork does not consume ids from its parent, so the ids a
  shard allocates never depend on the order its siblings run.

Contexts pickle, and the dotted ids are collision-free across workers
because each worker only allocates inside the namespace it was handed.
"""

from __future__ import annotations

__all__ = ["TraceContext"]


class TraceContext:
    """One id-allocation namespace under one parent span.

    ``trace_id`` names the whole trace; ``span_id`` is the parent span that
    spans opened under this context attach to (``None`` at the root).
    :meth:`allocate` mints the next child span id; :meth:`child` descends
    under an allocated span; :meth:`fork` splits off a disjoint namespace
    with the *same* parent span (one per shard/worker).
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

    def fork(self, label: str) -> "TraceContext":
        """A disjoint sibling namespace with the same parent span.

        ``ctx.fork("s3")`` allocates ``<prefix>.s3.1``, ``<prefix>.s3.2``, ...
        while ``ctx`` keeps allocating ``<prefix>.1``, ``<prefix>.2``, ... —
        neither consumes the other's ids, so per-shard forks are safe to hand
        to concurrent workers and to re-create verbatim on round replay.
        """
        prefix = f"{self._prefix}.{label}" if self._prefix else str(label)
        return TraceContext(self.trace_id, span_id=self.span_id, _prefix=prefix)

    # -- pickling (``__slots__`` classes need explicit state) ------------------
    def __getstate__(self) -> tuple[str, str | None, str, int]:
        return (self.trace_id, self.span_id, self._prefix, self._n_children)

    def __setstate__(self, state: tuple[str, str | None, str, int]) -> None:
        self.trace_id, self.span_id, self._prefix, self._n_children = state

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"span_id={self.span_id!r}, prefix={self._prefix!r}, "
            f"n_children={self._n_children})"
        )
