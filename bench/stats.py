"""Statistics the benchmark reports with: the percentile rule, timings at
nominal machine speed, span self time, and the cross-process span join.

Kept free of any enclaveflow import so the helpers can be tested alone.
"""

from __future__ import annotations

import bisect
import math
import statistics
from fractions import Fraction
from typing import Iterable, Sequence

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
# The tail percentiles a whole run is summarised with, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
# Speed samples on each side of an instant whose median gives the
# reference time there: one stray sample cannot move it.
SPEED_NEIGHBOURS = 2


class TooFewSamples(ValueError):
    """A percentile was asked for without MIN_BEYOND samples above it."""


def _rank(n: int, p: float) -> int:
    """Nearest-rank position (1-based) of the p-th percentile of n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def samples_beyond(n: int, p: float) -> int:
    return n - _rank(n, p)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; refuses when fewer than MIN_BEYOND samples
    lie beyond it, because such a tail is one or two outliers, not a
    percentile."""
    n = len(samples)
    if n == 0 or samples_beyond(n, p) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} of {n} samples leaves {max(0, samples_beyond(n, p))} beyond it;"
            f" need {MIN_BEYOND}"
        )
    return sorted(samples)[_rank(n, p) - 1]


def highest_percentile(samples: Sequence[float]) -> tuple[float, float]:
    """The highest of TAIL_PERCENTILES that has MIN_BEYOND samples beyond
    it, as (p, value)."""
    for p in TAIL_PERCENTILES:
        try:
            return p, percentile(samples, p)
        except TooFewSamples:
            continue
    raise TooFewSamples(f"no candidate percentile is supported by {len(samples)} samples")


class SpeedScale:
    """Scales wall-clock durations to nominal machine speed, from speed
    samples (perf_counter seconds, reference ms, cumulative steal seconds)
    in time order.  The reference time at an instant is the median of the
    SPEED_NEIGHBOURS samples on either side of it, and the factor is
    nominal / that time: below 1 while the machine runs slower than
    nominal.  Steal is time the host kept the CPU from this machine."""

    def __init__(self, samples: Sequence[tuple[float, float, float]], nominal_ms: float):
        if not samples:
            raise ValueError("no speed samples")
        self.nominal_ms = nominal_ms
        self.times = [t for t, _, _ in samples]
        refs = [r for _, r, _ in samples]
        # index i: the stretch between samples i-1 and i
        self.smooth = [
            statistics.median(refs[max(0, i - SPEED_NEIGHBOURS) : i + SPEED_NEIGHBOURS])
            for i in range(len(refs) + 1)
        ]
        self.steal_share = [0.0] + [
            min(1.0, max(0.0, (s1 - s0) / (t1 - t0))) if t1 > t0 else 0.0
            for (t0, _, s0), (t1, _, s1) in zip(samples, samples[1:])
        ] + [0.0]

    def at(self, t: float) -> float:
        return self.nominal_ms / self.smooth[bisect.bisect(self.times, t)]

    def call_ms(self, done: Sequence[float], ms: Sequence[float]) -> list[float]:
        """Each call's time, scaled at its midpoint (a call ends at done[i]).
        Steal stays in: the steal counter ticks every 10 ms and cannot say
        which short call the host interrupted."""
        return [m * self.at(d - m / 2e3) for d, m in zip(done, ms)]

    def _pieces(self, t0: float, t1: float):
        """(length, stretch index) of [t0, t1] cut at the samples."""
        lo, hi = bisect.bisect(self.times, t0), bisect.bisect(self.times, t1)
        cuts = [t0, *self.times[lo:hi], t1]
        return [(b - a, bisect.bisect(self.times, (a + b) / 2)) for a, b in zip(cuts, cuts[1:])]

    def duration(self, t0: float, t1: float) -> float:
        """The part of t1 - t0 the host ran this machine, scaled piece by
        piece between samples."""
        return sum(
            length * (1 - self.steal_share[i]) * self.nominal_ms / self.smooth[i]
            for length, i in self._pieces(t0, t1)
        )

    def stolen(self, t0: float, t1: float) -> float:
        """Seconds of t1 - t0 the host kept the CPU (wall clock)."""
        return sum(length * self.steal_share[i] for length, i in self._pieces(t0, t1))


def quartile_spread(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --- spans ----------------------------------------------------------------------------
#
# A span is a dict with at least: id, parent (id or None), name, start, end
# (integer nanoseconds on the machine-wide monotonic clock) and agg_ns, the
# time its aggregated (counted, not stored) children took.  attrs carries
# the join key and per-span facts.


def covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of the intervals."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if min(end, b) > max(start, a)
    )
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[dict]) -> dict[int, int]:
    """span id -> self time: its duration minus the part of its interval
    that its stored children cover (overlapping children counted once),
    minus the time of its aggregated children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        cover = covered_ns(s["start"], s["end"], children.get(s["id"], ()))
        out[s["id"]] = max(0, s["end"] - s["start"] - cover - s.get("agg_ns", 0))
    return out


def join_by_key(
    client: Sequence[dict], enclave: Sequence[dict]
) -> list[tuple[dict, dict]]:
    """Pair client spans with enclave spans of the same call.  Both ends
    derive the same session id, and the n-th request record carries
    sequence number n on both ends, so (session id, sequence) names one
    call in both processes.  Spans without a key are skipped."""
    by_key = {}
    for s in enclave:
        key = s.get("attrs", {}).get("key")
        if key is not None:
            by_key[tuple(key)] = s
    pairs = []
    for s in client:
        key = s.get("attrs", {}).get("key")
        if key is not None and tuple(key) in by_key:
            pairs.append((s, by_key[tuple(key)]))
    return pairs
