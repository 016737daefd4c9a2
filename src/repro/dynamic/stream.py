"""Edge-stream files: a replayable text format for mutation workloads.

``repro service --mutations FILE`` (and the ``dynamic_stream`` example) replay
streams in a line-oriented format, one mutation per line::

    # comment
    + 17 42          # insert edge 17 -> 42, due immediately
    add 42 99 0.002  # alias; due at virtual time 0.002 s
    - 17 42 0.004    # delete edge 17 -> 42 at 0.004 s

``+``/``a``/``add``/``insert`` insert, ``-``/``d``/``del``/``delete``
delete; the optional fourth column is the virtual arrival time (seconds,
finite and non-negative, default 0.0) at which the mutation becomes due.
**Consecutive lines with the same arrival form one atomic batch** — they
apply as a single epoch advance, exactly like one
:meth:`~repro.runtime.scheduler.QueryService.apply_mutations` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import MutationError

__all__ = ["MutationBatch", "parse_edge_stream"]

_INSERT_OPS = frozenset({"+", "a", "add", "insert"})
_DELETE_OPS = frozenset({"-", "d", "del", "delete"})


@dataclass
class MutationBatch:
    """One atomic batch of an edge stream (a single epoch advance)."""

    arrival: float
    inserts: list = field(default_factory=list)  # [(u, v), ...]
    deletes: list = field(default_factory=list)

    @property
    def num_mutations(self) -> int:
        return len(self.inserts) + len(self.deletes)


def parse_edge_stream(source) -> list[MutationBatch]:
    """Parse an edge-stream file (path) or iterable of lines.

    Returns the stream's batches in file order; consecutive same-arrival
    lines are merged into one batch.  Malformed lines raise
    :class:`~repro.errors.MutationError` naming the offending line.
    """
    if isinstance(source, str):
        with open(source) as fh:
            lines = fh.readlines()
    else:
        lines = list(source)
    batches: list[MutationBatch] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise MutationError(
                f"edge-stream line {lineno}: expected 'op u v [arrival]', "
                f"got {raw.strip()!r}"
            )
        op = parts[0].lower()
        if op not in _INSERT_OPS and op not in _DELETE_OPS:
            raise MutationError(
                f"edge-stream line {lineno}: unknown op {parts[0]!r} "
                f"(use one of +, -, add, del)"
            )
        try:
            u, v = int(parts[1]), int(parts[2])
            arrival = float(parts[3]) if len(parts) == 4 else 0.0
        except ValueError as exc:
            raise MutationError(
                f"edge-stream line {lineno}: {exc}"
            ) from None
        if not 0.0 <= arrival < math.inf:  # NaN fails both comparisons
            raise MutationError(
                f"edge-stream line {lineno}: arrival must be finite and "
                f"non-negative, got {parts[3]!r}"
            )
        if not batches or batches[-1].arrival != arrival:
            batches.append(MutationBatch(arrival))
        (batches[-1].inserts if op in _INSERT_OPS else
         batches[-1].deletes).append((u, v))
    return batches
