"""Synthetic workload generator calibrated to Table III characteristics.

The MSR Cambridge traces the paper replays are characterised in its
Table III by four statistics: read-request ratio, mean read size,
read-data ratio, and the fraction of MSB reads whose associated LSB/CSB
pages are invalid.  The generator here is parameterised so each named
workload can be tuned to land near its Table III row:

* ``read_ratio`` sets the request mix directly;
* ``read_size_pages_mean`` / ``write_size_pages_mean`` set geometric
  request-size distributions;
* ``aging_update_fraction`` sizes the workload's **update working set**:
  a fixed, hot-skewed subset of the footprint that all writes (warm-up
  aging, timed writes, background updates) target.  Rewrites invalidate
  the old copies, creating wordlines with invalid lower pages — the IDA
  opportunity — while the pages *outside* the update set stay valid in
  place, cohabiting wordlines with the churned ones.  Those stable pages
  are exactly what the paper's modified refresh keeps and reprograms
  ("valid page data that might be read more and more in the future, as
  they are not invalidated during the long refresh period", Sec. III-C).
  For an update fraction ``u``, roughly ``1 - (1-u)^2`` of surviving MSB
  pages see an invalid LSB/CSB, so ``u`` ~ half the Table III column-5
  target;
* ``hot_fraction`` / ``hot_access_prob`` skew reads (and the update set)
  toward a hot region, correlating reads with the aged blocks;
* arrivals come in bursts (geometric burst sizes, exponential idle gaps)
  so queueing — the source of the paper's "indirect" wait-time benefit —
  actually occurs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

import numpy as np

from .request import IoRequest
from .trace import Trace

__all__ = ["WorkloadSpec", "GeneratedWorkload", "generate_workload"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Tunable description of one synthetic workload.

    Attributes:
        name: Workload identifier (e.g. ``"proj_1"``).
        num_requests: Timed requests to generate.
        read_ratio: Fraction of timed requests that are reads.
        footprint_pages: Logical pages the workload lives on.
        read_size_pages_mean: Mean read size, in pages (geometric).
        write_size_pages_mean: Mean write size, in pages (geometric).
        aging_update_fraction: Fraction of the footprint rewritten during
            warm-up (drives the invalid-lower-page exposure).
        hot_fraction: Fraction of the footprint forming the hot set.
        hot_access_prob: Probability an access targets the hot set.
        duration_us: Timed-trace span on the simulated clock.
        burst_size_mean: Mean requests per arrival burst.
        intra_burst_gap_us: Spacing of requests inside a burst.
        seed: Generator seed (derived from the name when 0).
    """

    name: str
    num_requests: int = 6000
    read_ratio: float = 0.9
    footprint_pages: int = 24_000
    read_size_pages_mean: float = 4.0
    write_size_pages_mean: float = 3.0
    aging_update_fraction: float = 0.15
    hot_fraction: float = 0.2
    hot_access_prob: float = 0.75
    duration_us: float = 120e6
    burst_size_mean: float = 6.0
    intra_burst_gap_us: float = 150.0
    update_chunk_pages: int = 24
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ValueError("read_ratio must be within [0, 1]")
        if self.footprint_pages < 16:
            raise ValueError("footprint_pages too small")
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if not 0.0 <= self.aging_update_fraction <= 1.0:
            raise ValueError("aging_update_fraction must be within [0, 1]")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be within (0, 1]")
        if min(self.read_size_pages_mean, self.write_size_pages_mean) < 1.0:
            raise ValueError("mean request sizes must be >= 1 page")

    def effective_seed(self) -> int:
        """Stable seed: explicit, or a CRC of the workload name."""
        if self.seed:
            return self.seed
        return zlib.crc32(self.name.encode()) or 7

    def scaled(self, num_requests: int, footprint_pages: int | None = None) -> "WorkloadSpec":
        """A copy resized for quick tests or full experiments."""
        footprint = footprint_pages or self.footprint_pages
        return replace(self, num_requests=num_requests, footprint_pages=footprint)


@dataclass
class GeneratedWorkload:
    """A realised workload: warm-up phases plus the timed trace.

    Attributes:
        spec: The generating spec.
        fill_lpns: LPNs written during the initial sequential fill.
        aging_lpns: LPNs rewritten during warm-up aging (in order).
        trace: The timed request stream.
        update_set: The spec's :func:`update_working_set`, which the
            background update stream samples.
    """

    spec: WorkloadSpec
    fill_lpns: range
    aging_lpns: list[int]
    trace: Trace
    update_set: np.ndarray


def _geometric_sizes(
    rng: np.random.Generator, count: int, mean_pages: float
) -> np.ndarray:
    """Geometric request sizes (in pages) with the given mean, >= 1."""
    if mean_pages <= 1.0:
        return np.ones(count, dtype=np.int64)
    p = 1.0 / mean_pages
    return rng.geometric(p, size=count).astype(np.int64)


def _pick_starts(
    rng: np.random.Generator,
    count: int,
    spec: WorkloadSpec,
) -> np.ndarray:
    """Start LPNs with hot-set skew."""
    hot_pages = max(1, int(spec.footprint_pages * spec.hot_fraction))
    in_hot = rng.random(count) < spec.hot_access_prob
    hot_starts = rng.integers(0, hot_pages, size=count)
    cold_span = max(1, spec.footprint_pages - hot_pages)
    cold_starts = hot_pages + rng.integers(0, cold_span, size=count)
    return np.where(in_hot, hot_starts, cold_starts)


def _arrival_times(rng: np.random.Generator, spec: WorkloadSpec) -> np.ndarray:
    """Bursty arrival process spanning roughly ``duration_us``."""
    times = np.empty(spec.num_requests, dtype=np.float64)
    expected_bursts = max(1.0, spec.num_requests / spec.burst_size_mean)
    busy = spec.num_requests * spec.intra_burst_gap_us
    mean_idle = max(
        spec.intra_burst_gap_us, (spec.duration_us - busy) / expected_bursts
    )
    now = 0.0
    index = 0
    while index < spec.num_requests:
        burst = max(1, int(rng.geometric(1.0 / spec.burst_size_mean)))
        for _ in range(min(burst, spec.num_requests - index)):
            times[index] = now
            now += spec.intra_burst_gap_us
            index += 1
        now += rng.exponential(mean_idle)
    return times


def update_working_set(spec: WorkloadSpec) -> np.ndarray:
    """The workload's fixed update working set: hot-skewed *chunks*.

    Deterministic per spec.  Size = ``aging_update_fraction`` of the
    footprint, composed of contiguous runs of ``update_chunk_pages``.
    Real traces update spatially — whole files and extents — so
    invalidation is clustered: runs fully invalidate their interior
    wordlines (the paper's case 8) while the run *boundaries* leave
    wordlines with a mix of invalid lower pages and valid upper pages
    (cases 1-4, the IDA opportunity).  This is what lets a block carry
    ~40% invalid pages (Table IV's ~113/192 valid) while only ~30% of MSB
    reads see invalid lower pages (Fig. 4).  Pages outside the set are
    never invalidated — the stable, read-hot data that survives in
    refresh target blocks and gets IDA-reprogrammed.
    """
    quota = int(spec.footprint_pages * spec.aging_update_fraction)
    if quota <= 0:
        return np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(spec.effective_seed() + 2)
    # Hot-skewed chunk starts; oversampled so the quota is always met.
    # Chunks join the set in draw order until it first holds ``quota``
    # pages; each covers ``update_chunk_pages`` clipped to the footprint.
    starts = _pick_starts(rng, max(8, 4 * quota // spec.update_chunk_pages), spec)
    footprint = spec.footprint_pages
    chunks = len(starts)
    # A chunk at least as wide as the footprint covers the rest of it,
    # so clipping the width keeps every temporary O(footprint).
    width = min(spec.update_chunk_pages, footprint)

    # First chunk starting at each page (``chunks`` = none), padded to
    # whole blocks of ``width`` pages.
    first_at = np.full(-(-footprint // width) * width, chunks, dtype=np.int64)
    at, first = np.unique(starts, return_index=True)
    inside = at < footprint
    first_at[at[inside]] = first[inside]

    # First chunk covering each page: the minimum of ``first_at`` over
    # the window ``(page - width, page]``, from per-block running minima
    # in both directions (van Herk / Gil-Werman).
    blocks = first_at.reshape(-1, width)
    prefix = np.minimum.accumulate(blocks, axis=1).ravel()
    suffix = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    cover = prefix[:footprint]
    cover[width - 1 :] = np.minimum(
        suffix[: footprint - width + 1], prefix[width - 1 : footprint]
    )

    # Chunk ``i`` adds the pages it covers first, so the union's size
    # after each chunk is a cumulative count; the last chunk to join is
    # the first that brings it to the quota.
    union = np.cumsum(np.bincount(cover, minlength=chunks + 1)[:chunks])
    last = min(int(np.searchsorted(union, quota)), chunks - 1)
    return np.flatnonzero(cover <= last).astype(np.int64, copy=False)


def sample_update_lpns(
    spec: WorkloadSpec,
    count: int,
    seed_offset: int = 1,
    working_set: np.ndarray | None = None,
) -> list[int]:
    """Sample ``count`` update targets from the update working set.

    Used for the *background update stream*: the experiment runner replays
    only a subset of a long trace's requests with timing, but applies the
    full update rate logically through these samples so invalid-page
    exposure evolves as in the original trace.

    Args:
        working_set: ``update_working_set(spec)`` when the caller already
            holds it (:attr:`GeneratedWorkload.update_set`).
    """
    if count <= 0:
        return []
    if working_set is None:
        working_set = update_working_set(spec)
    if len(working_set) == 0:
        return []
    rng = np.random.default_rng(spec.effective_seed() + seed_offset)
    picks = rng.integers(0, len(working_set), size=count)
    return working_set[picks].tolist()


def generate_workload(
    spec: WorkloadSpec, page_size_bytes: int = 8192
) -> GeneratedWorkload:
    """Generate the warm-up phases and timed trace for ``spec``.

    Deterministic for a given spec (the seed derives from the name).
    """
    rng = np.random.default_rng(spec.effective_seed())

    # Warm-up aging: rewrite the update working set once so the old
    # copies become invalid pages scattered through the filled blocks.
    working_set = update_working_set(spec)
    aging_lpns = rng.permutation(working_set).tolist()

    is_read = rng.random(spec.num_requests) < spec.read_ratio
    sizes = np.where(
        is_read,
        _geometric_sizes(rng, spec.num_requests, spec.read_size_pages_mean),
        _geometric_sizes(rng, spec.num_requests, spec.write_size_pages_mean),
    )
    read_starts = _pick_starts(rng, spec.num_requests, spec)
    if len(working_set):
        write_picks = rng.integers(0, len(working_set), size=spec.num_requests)
        write_starts = working_set[write_picks]
    else:
        write_starts = read_starts
    starts = np.where(is_read, read_starts, write_starts)
    times = _arrival_times(rng, spec)

    requests: list[IoRequest] = []
    for i in range(spec.num_requests):
        start = int(min(starts[i], spec.footprint_pages - 1))
        count = int(min(sizes[i], spec.footprint_pages - start))
        requests.append(
            IoRequest(
                time_us=float(times[i]),
                is_read=bool(is_read[i]),
                offset_bytes=start * page_size_bytes,
                size_bytes=max(1, count) * page_size_bytes,
            )
        )
    return GeneratedWorkload(
        spec=spec,
        fill_lpns=range(spec.footprint_pages),
        aging_lpns=aging_lpns,
        trace=Trace(name=spec.name, requests=requests),
        update_set=working_set,
    )
