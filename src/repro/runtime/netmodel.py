"""Network/compute cost model and virtual clock.

The scalability figures (9–12) report *response time under a cluster
configuration we cannot physically reproduce offline*.  Following the
substitution rule in DESIGN.md, the runtime counts the real work every
machine performs each superstep — edges scanned, vertices updated, messages
and bytes sent per destination — and a calibrated linear cost model converts
the counts into **virtual seconds**:

* compute:   ``seconds_per_edge * edges + seconds_per_vertex * vertices``,
  divided by a per-machine parallel efficiency factor (the paper's nodes have
  44 cores);
* network:   per destination, ``latency + bytes / bandwidth``; a machine's
  superstep communication cost is the sum over its destinations (its NIC is
  the bottleneck);
* barrier:   a fixed synchronisation cost per superstep per machine, which is
  what makes small graphs stop scaling past ~6 machines (Figure 10, OR-100M).

Synchronous supersteps cost ``max_machines(compute) + max_machines(comm) +
barrier``; the asynchronous model overlaps compute and communication
(``max(compute, comm)``) and pays no barrier, matching §3.3's discussion.

Default constants are calibrated to the paper's testbed: 2.6 GHz Xeons
(~10⁸ edge traversals/s/core sustained on random access), 10 GbE
(~1.25 GB/s, ~50 µs effective per message batch including serialisation).
Absolute times are *not* the claim — the shapes are; tests pin the shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "StepStats",
    "NetworkModel",
    "VirtualClock",
    "choose_direction",
    "PUSH_SECONDS_PER_EDGE",
    "PULL_SECONDS_PER_EDGE",
]

# Per-direction edge coefficients for the push/pull decision (wall-clock
# heuristic only; the virtual clock always charges ``seconds_per_edge``).
# A pushed edge pays a random scatter into the next-frontier plane; a
# pulled edge is a sequential gather + segmented OR, roughly 4x cheaper
# per edge on the calibrated testbed — but pull must touch *every* local
# edge, so it only wins once the frontier covers ~a quarter of the
# partition's edge mass.  The one definition: :class:`NetworkModel`,
# :func:`choose_direction` and the k-hop task default to these.
PUSH_SECONDS_PER_EDGE = 1.0e-8
PULL_SECONDS_PER_EDGE = 2.5e-9


@dataclass
class StepStats:
    """Work counted on one machine during one superstep.

    ``push_partitions``/``pull_partitions`` count how many partition-steps
    executed in each traversal direction.  They are *observability* counters:
    the cost terms above are kept canonical (push-equivalent) in both modes
    by k-hop's one booking rule, :func:`repro.core.khop._book`, so the
    virtual clock is direction-independent by construction — the direction
    choice changes wall-clock only.
    """

    edges_scanned: int = 0
    vertices_updated: int = 0
    bytes_sent: dict[int, int] = field(default_factory=dict)
    messages_sent: dict[int, int] = field(default_factory=dict)
    disk_bytes_read: int = 0
    disk_reads: int = 0
    push_partitions: int = 0
    pull_partitions: int = 0

    def record_send(self, dest: int, nbytes: int, num_tasks: int) -> None:
        """Accumulate one outgoing batch toward ``dest``."""
        self.bytes_sent[dest] = self.bytes_sent.get(dest, 0) + int(nbytes)
        self.messages_sent[dest] = self.messages_sent.get(dest, 0) + int(num_tasks)

    def record_disk_read(self, nbytes: int) -> None:
        """Accumulate one block fetch from local disk (§3 I/O hierarchy)."""
        self.disk_bytes_read += int(nbytes)
        self.disk_reads += 1

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_sent.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages_sent.values())

    @property
    def partition_steps(self) -> int:
        return self.push_partitions + self.pull_partitions

    def merge(self, other: "StepStats") -> None:
        """Fold another machine-step's counts into this one (for totals)."""
        self.edges_scanned += other.edges_scanned
        self.vertices_updated += other.vertices_updated
        self.disk_bytes_read += other.disk_bytes_read
        self.disk_reads += other.disk_reads
        self.push_partitions += other.push_partitions
        self.pull_partitions += other.pull_partitions
        for d, b in other.bytes_sent.items():
            self.bytes_sent[d] = self.bytes_sent.get(d, 0) + b
        for d, m in other.messages_sent.items():
            self.messages_sent[d] = self.messages_sent.get(d, 0) + m


@dataclass(frozen=True)
class NetworkModel:
    """Linear cost model mapping counted work to virtual seconds.

    Parameters mirror the paper's hardware; see the module docstring.
    ``cores_per_machine``/``parallel_efficiency`` shrink per-machine compute;
    ``async_overlap`` is the compute/communication overlap credit used by the
    asynchronous update model.
    """

    seconds_per_edge: float = 1.0e-8
    seconds_per_vertex: float = 2.0e-8
    seconds_per_edge_push: float = PUSH_SECONDS_PER_EDGE
    seconds_per_edge_pull: float = PULL_SECONDS_PER_EDGE
    latency_seconds: float = 50e-6
    bandwidth_bytes_per_second: float = 1.25e9
    barrier_seconds: float = 150e-6
    disk_latency_seconds: float = 100e-6
    disk_bandwidth_bytes_per_second: float = 500e6
    cores_per_machine: int = 44
    parallel_efficiency: float = 0.25
    async_overlap: bool = False

    def compute_seconds(self, stats: StepStats) -> float:
        """One machine's compute time for a superstep."""
        return self.work_seconds(stats.edges_scanned, stats.vertices_updated)

    def work_seconds(self, edges, vertices):
        """:meth:`compute_seconds` of ``edges`` scanned and ``vertices``
        updated; elementwise, with the same float operations, when either
        is an array."""
        raw = self.seconds_per_edge * edges + self.seconds_per_vertex * vertices
        effective_cores = max(self.cores_per_machine * self.parallel_efficiency, 1.0)
        return raw / effective_cores

    def disk_seconds(self, stats: StepStats) -> float:
        """One machine's local-disk time for a superstep (out-of-core shards).

        The paper folds disk into the same I/O hierarchy as the network
        (§3 overview); each block fetch pays a seek-ish latency plus
        bytes over the disk bandwidth.
        """
        if stats.disk_reads == 0:
            return 0.0
        return (
            stats.disk_reads * self.disk_latency_seconds
            + stats.disk_bytes_read / self.disk_bandwidth_bytes_per_second
        )

    def comm_seconds(self, stats: StepStats) -> float:
        """One machine's outbound communication time for a superstep."""
        total = 0.0
        for dest, nbytes in stats.bytes_sent.items():
            total += self.latency_seconds + nbytes / self.bandwidth_bytes_per_second
        return total

    def superstep_seconds(self, per_machine: list[StepStats]) -> float:
        """Cluster-wide elapsed virtual time for one superstep.

        Synchronous: slowest compute + slowest communication + barrier.
        Asynchronous: slowest ``max(compute, comm)`` and no barrier.
        """
        if not per_machine:
            return 0.0
        compute = [
            self.compute_seconds(s) + self.disk_seconds(s) for s in per_machine
        ]
        comm = [self.comm_seconds(s) for s in per_machine]
        if self.async_overlap:
            return max(max(c, x) for c, x in zip(compute, comm))
        barrier = self.barrier_seconds if len(per_machine) > 1 else 0.0
        return max(compute) + max(comm) + barrier

    def with_async(self) -> "NetworkModel":
        """A copy of this model with the asynchronous overlap on."""
        from dataclasses import replace

        return replace(self, async_overlap=True)


def choose_direction(
    frontier_edges: int,
    local_edges: int,
    push_coeff: float = PUSH_SECONDS_PER_EDGE,
    pull_coeff: float = PULL_SECONDS_PER_EDGE,
) -> str:
    """Direction-optimizing heuristic for one partition-superstep.

    ``frontier_edges`` is the out-edge mass of the active frontier (what
    push would scan); ``local_edges`` is the edge count one pull sweep reads
    whatever the frontier (for k-hop, all the partition's out-edges, boundary
    included).  Pull wins when scanning everything with
    the cheap sequential kernel beats scattering the frontier's edges:
    ``pull_coeff * local_edges < push_coeff * frontier_edges``.

    The decision is a pure function of its arguments, so both backends —
    and a checkpoint/rewind replay — reproduce identical choices.
    """
    if frontier_edges <= 0:
        return "push"
    return (
        "pull"
        if pull_coeff * local_edges < push_coeff * frontier_edges
        else "push"
    )


class VirtualClock:
    """Accumulates virtual seconds superstep by superstep."""

    def __init__(self) -> None:
        self.now = 0.0
        self.per_step: list[float] = []

    def advance(self, seconds: float) -> float:
        """Advance by ``seconds`` (>= 0) and return the new time."""
        if seconds < 0:
            raise ValueError("time cannot flow backwards")
        self.now += seconds
        self.per_step.append(seconds)
        return self.now

    @property
    def num_steps(self) -> int:
        return len(self.per_step)
