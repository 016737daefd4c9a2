"""Host-speed compensation for the timed phase.

The sandbox this benchmark runs in is a few vCPUs of a shared host whose
speed is two-state: for seconds to minutes at a time every CPU-bound thing in
the guest — a pinned numpy loop as much as this program — runs ~25 % slower
or faster, with no steal time to show for it.  Run medians snap to whichever
state held most of a run, so ten runs of one commit spread by 10-30 %, more
than any bound a regression check could use.

So the harness reads the host's speed as it goes: before every timed wave
(and after the last) it times a fixed pure-Python loop, and each wave's wall
time is multiplied by ``REFERENCE_S / (median probe around that wave)`` —
the time the wave would have taken on the reference host.  The probe is the
harness's own code and never touches the program under test, so a change to
the program moves the compensated times exactly as it moves the raw ones;
only the host's common mode cancels.  Raw values are printed beside the
compensated ones, and the median factor is the ``host_speed`` metric.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds ``probe`` takes on the reference host: this repository's 2-vCPU
#: sandbox (Xeon @ 2.1 GHz, CPython 3) in the slower of its two states, the
#: one it is in most of the time.  A constant, so compensated times are
#: comparable across runs, commits and days.
REFERENCE_S = 80e-6
#: A wave's factor is the median of the probes taken within this many seconds
#: of its midpoint (the host's states last seconds, a probe ~0.25 ms) ...
WINDOW_S = 1.0
#: ... and never fewer than this many probes on each side (long waves).
MIN_NEIGHBOURS = 4


def probe() -> float:
    """Seconds for a fixed interpreter-bound loop: best of three, so a cold
    cache after a wave or an interrupt does not read as a slow host."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = 1
        for i in range(1500):
            x = (x * 31 + i) & 0xFFFF
        best = min(best, time.perf_counter() - t0)
    return best


def speed_per_wave(probe_at, probe_s) -> np.ndarray:
    """Host speed relative to the reference (> 1 = faster) for each of the
    ``len(probe_s) - 1`` waves that ran between consecutive probes taken at
    ``probe_at`` (``perf_counter`` readings)."""
    at = np.asarray(probe_at, dtype=np.float64)
    seconds = np.asarray(probe_s, dtype=np.float64)
    mid = (at[:-1] + at[1:]) / 2
    first = np.searchsorted(at, mid - WINDOW_S, side="left")
    last = np.searchsorted(at, mid + WINDOW_S, side="right")
    waves = np.arange(mid.size)
    # wave i sits between probes i and i + 1
    first = np.minimum(first, np.maximum(waves + 1 - MIN_NEIGHBOURS, 0))
    last = np.maximum(last, np.minimum(waves + 1 + MIN_NEIGHBOURS, at.size))
    local = np.array([np.median(seconds[a:b]) for a, b in zip(first, last)])
    return REFERENCE_S / local
