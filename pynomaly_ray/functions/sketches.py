"""Mergeable sketches for approximate wide aggregations.

Three sketches: HyperLogLog (approximate COUNT(DISTINCT)), a
deterministic KLL quantile sketch (approximate quantiles of continuous
columns), and a Bloom filter (constant-size set membership for
cross-run novelty checks), plus the count-min query over a grid that
reuses the Bloom index kernel.  HyperLogLog is the engine's
approximate-COUNT(DISTINCT) path: the exact path (q_distinct_users)
must ship every distinct (group, key) pair through the exchange —
O(distinct) bytes — while a register vector is a CONSTANT 2^p bytes
per group regardless of cardinality, which is the difference between a
shuffle and a broadcastable partial at 100 TB.

All operations are vectorized over whole key arrays (np.bincount over
register indices); partials merge by element-wise max — associative,
commutative, idempotent, so retries and arbitrary splits are safe.
"""

from __future__ import annotations

import numpy as np

from pynomaly_ray.functions.hashing import hash_strings

_ALPHA16 = 0.673
_ALPHA32 = 0.697
_ALPHA64 = 0.709


def _alpha(m: int) -> float:
    if m == 16:
        return _ALPHA16
    if m == 32:
        return _ALPHA32
    if m == 64:
        return _ALPHA64
    return 0.7213 / (1.0 + 1.079 / m)


def hll_partial(values, p: int = 12) -> np.ndarray:
    """Register vector (uint8, length 2^p) for one batch of keys.

    Vectorized: stable 64-bit key hash -> top p bits pick the register,
    the rank (leading-zero count + 1) of the remaining 64-p bits is
    max-combined into it via np.maximum.at-free bincount trick.
    """
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    h = hash_strings(values)
    if not len(h):
        return regs
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | (np.uint64(1) << np.uint64(p - 1))
    # rank = leading zeros of `rest` + 1, computed via float64 exponent
    # (exact for the leading-bit position; rest is never 0 thanks to the
    # guard bit above)
    exp = ((rest.astype(np.float64)).view(np.uint64) >> np.uint64(52)).astype(
        np.int64
    )
    # 1086 = bias(1023) + 63; clip guards the 2^64-rounding edge where a
    # near-max value rounds up a power of two (true rank is 1 there)
    lz = np.maximum(np.int64(1086) - exp, 0)
    rank = (lz + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_merge(parts, p: int = 12) -> np.ndarray:
    """Element-wise max of register vectors (associative/idempotent).
    Zero partials merge to the empty register vector of ``2^p`` (the
    estimate is then 0 instead of a crash)."""
    out = None
    for pvec in parts:
        arr = np.asarray(pvec, dtype=np.uint8)
        out = arr.copy() if out is None else np.maximum(out, arr)
    return out if out is not None else np.zeros(1 << p, dtype=np.uint8)


class KLLSketch:
    """Deterministic KLL-style mergeable quantile sketch for CONTINUOUS
    columns — the 100-TB path where the exact count-vector quantiles
    (q_source_median_chars / q_source_p90_chars) don't apply because the
    value domain isn't small and discrete.

    Level ``i`` holds a buffer of items each representing ``2^i`` input
    rows; a buffer past capacity ``k`` is sorted and every other element
    promoted to level ``i+1`` (classic KLL compaction).  The kept parity
    alternates with the level index instead of a random coin, making the
    sketch fully deterministic — identical on retry, which a distributed
    exchange partial must be.  Size is O(k log(n/k)); merge is
    concatenate-then-compact (associative up to the deterministic
    compaction order; rank error stays within the same O(1/k) envelope
    either way, which is the contract tests pin).
    """

    __slots__ = ("k", "levels")

    def __init__(self, k: int = 256):
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]

    def add(self, values) -> "KLLSketch":
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v):
            self.levels[0] = np.concatenate([self.levels[0], v])
            self._compress()
        return self

    def _compress(self) -> None:
        i = 0
        while i < len(self.levels):
            if len(self.levels[i]) > self.k:
                buf = np.sort(self.levels[i], kind="stable")
                # an odd-length buffer can't halve weight-exactly: one
                # element stays behind so total represented count n is
                # conserved through every compaction
                if len(buf) % 2:
                    self.levels[i] = buf[-1:]
                    buf = buf[:-1]
                else:
                    self.levels[i] = np.empty(0, dtype=np.float64)
                keep = buf[(i % 2) :: 2]
                if i + 1 == len(self.levels):
                    self.levels.append(np.empty(0, dtype=np.float64))
                self.levels[i + 1] = np.concatenate([self.levels[i + 1], keep])
            i += 1

    def merge(self, other: "KLLSketch") -> "KLLSketch":
        for i, buf in enumerate(other.levels):
            while len(self.levels) <= i:
                self.levels.append(np.empty(0, dtype=np.float64))
            self.levels[i] = np.concatenate([self.levels[i], buf])
        self._compress()
        return self

    @property
    def n(self) -> int:
        """Total input rows represented (sum of item weights)."""
        return int(sum(len(b) << i for i, b in enumerate(self.levels)))

    def quantile(self, q: float) -> float:
        """Approximate ``quantile_disc``-style quantile (rank ceil(q*n))."""
        vals = np.concatenate(self.levels)
        if not len(vals):
            return float("nan")
        weights = np.concatenate(
            [np.full(len(b), 1 << i, dtype=np.int64) for i, b in enumerate(self.levels)]
        )
        order = np.argsort(vals, kind="stable")
        cw = np.cumsum(weights[order])
        target = max(int(np.ceil(q * cw[-1])), 1)
        idx = int(np.searchsorted(cw, target, side="left"))
        return float(vals[order][min(idx, len(vals) - 1)])

    # --- Arrow-exchange serialization: two flat vectors per sketch ----
    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, level-per-value) — list-column-friendly partials."""
        vals = np.concatenate(self.levels) if self.levels else np.empty(0)
        lvls = np.concatenate(
            [np.full(len(b), i, dtype=np.int8) for i, b in enumerate(self.levels)]
        ) if self.levels else np.empty(0, dtype=np.int8)
        return vals.astype(np.float64), lvls

    @classmethod
    def from_arrays(cls, vals, lvls, k: int = 256) -> "KLLSketch":
        sk = cls(k=k)
        vals = np.asarray(vals, dtype=np.float64)
        lvls = np.asarray(lvls, dtype=np.int64)
        top = int(lvls.max()) if len(lvls) else 0
        sk.levels = [vals[lvls == i].copy() for i in range(top + 1)]
        if not sk.levels:
            sk.levels = [np.empty(0, dtype=np.float64)]
        sk._compress()
        return sk


_BLOOM_MIX = np.uint64(0x9E3779B97F4A7C15)


def _bloom_indices(values, m_bits: int, k: int) -> np.ndarray:
    """(k, n) bit indices via double hashing idx_j = h1 + j*h2 (mod m)."""
    h1 = hash_strings(values)
    h2 = (h1 ^ (h1 >> np.uint64(29))) * _BLOOM_MIX | np.uint64(1)  # odd
    j = np.arange(k, dtype=np.uint64)[:, None]
    with np.errstate(over="ignore"):
        return ((h1[None, :] + j * h2[None, :]) % np.uint64(m_bits)).astype(
            np.int64
        )


def bloom_partial(values, m_bits: int = 1 << 20, k: int = 4) -> np.ndarray:
    """Bloom-filter bit vector (packed uint64, length m_bits/64) for one
    batch of keys — the constant-size membership partial for cross-run
    "have we seen this doc before" checks: per-run docpart checkpoints
    give the EXACT answer at O(ids) storage; a Bloom filter answers the
    same question in m_bits regardless of corpus size (one-sided error:
    false positives only, rate ~(1-e^{-kn/m})^k).  Partials merge by OR
    — associative, commutative, idempotent, retry-safe."""
    m_bits = (m_bits + 63) & ~63  # packed uint64 words need 64-bit multiples
    bits = np.zeros(m_bits >> 6, dtype=np.uint64)
    if len(values) == 0:
        return bits
    idx = _bloom_indices(values, m_bits, k).ravel()
    np.bitwise_or.at(bits, idx >> 6, np.uint64(1) << (idx & np.int64(63)).astype(np.uint64))
    return bits


def bloom_merge(parts, m_bits: int = 1 << 20) -> np.ndarray:
    """Element-wise OR of bit vectors (associative/idempotent).  An empty
    partials iterable (zero input batches) merges to the empty filter of
    ``m_bits`` bits, so downstream probes report "nothing seen" instead
    of crashing on None."""
    out = None
    for pvec in parts:
        arr = np.asarray(pvec, dtype=np.uint64)
        out = arr.copy() if out is None else (out | arr)
    return (
        out
        if out is not None
        else np.zeros(((m_bits + 63) & ~63) >> 6, dtype=np.uint64)
    )


def bloom_contains(bits: np.ndarray, values, k: int = 4) -> np.ndarray:
    """Vectorized membership probe: True where ALL k bits are set (may
    include false positives, never false negatives)."""
    bits = np.asarray(bits, dtype=np.uint64)
    m_bits = len(bits) << 6
    if len(values) == 0:
        return np.zeros(0, dtype=bool)
    idx = _bloom_indices(values, m_bits, k)
    probe = (bits[idx >> 6] >> (idx & np.int64(63)).astype(np.uint64)) & np.uint64(1)
    return probe.all(axis=0)


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with the small-range (linear counting)
    correction — relative error ~1.04/sqrt(2^p)."""
    regs = np.asarray(regs, dtype=np.float64)
    m = len(regs)
    est = _alpha(m) * m * m / np.sum(np.exp2(-regs))
    if est <= 2.5 * m:
        zeros = np.count_nonzero(regs == 0)
        if zeros:
            return m * np.log(m / zeros)
    return float(est)


def cms_query(cms: np.ndarray, values) -> np.ndarray:
    """Count-min frequency estimates over a (depth, width) int64 counter
    grid built with the Bloom filter's double-hashing index kernel
    (h1 + j*h2 mod width per row): the min over the depth rows at each
    key's indices.  One-sided error: estimate >= true count."""
    cms = np.asarray(cms, dtype=np.int64)
    depth, width = cms.shape
    if len(values) == 0:
        return np.zeros(0, dtype=np.int64)
    idx = _bloom_indices(values, width, depth)
    return np.min(cms[np.arange(depth)[:, None], idx], axis=0)


def mg_prune(tokens: np.ndarray, counts: np.ndarray, k: int):
    """Misra-Gries / mergeable-heavy-hitters prune: reduce a counter set
    to at most ``k`` entries by subtracting the (k+1)-th largest count
    from every counter and dropping the non-positive ones.

    This is the offline-equivalent MG step (Agarwal et al., "Mergeable
    Summaries", PODS'12): applied to exact per-batch counts it yields a
    deterministic, order-independent summary (unlike streaming MG,
    whose counter set depends on arrival order), and summaries merge by
    summing counters per key and pruning again.  Each prune adds at
    most its threshold to every key's undercount, and the threshold is
    <= (mass pruned)/(k+1), so a two-level pipeline (per-batch prune,
    then one global prune of the summed counters) undercounts any key
    by at most 2N/(k+1) for N total stream items — estimates are
    one-sided (est <= exact), the mirror of the CMS overestimate.

    Ties at the boundary keep FEWER than k entries (every counter equal
    to the threshold drops), which preserves determinism without an
    arbitrary tie pick.
    """
    tokens = np.asarray(tokens)
    counts = np.asarray(counts, dtype=np.int64)
    if len(counts) <= k:
        return tokens, counts
    t = np.partition(counts, len(counts) - (k + 1))[len(counts) - (k + 1)]
    kept = counts > t
    return tokens[kept], counts[kept] - t


# ---------------------------------------------------------------------------
# KMV / theta sketch — the SET-OPERATION sketch (Beyer et al. 2007;
# Dasgupta et al., "Theta sketch framework", 2016).  HLL answers one
# distinct count; KMV's k smallest distinct hash values additionally
# support INTERSECTION (and difference) estimates across sketches —
# the distinct-overlap question ("how many users do these two segments
# share?") that inclusion-exclusion over HLLs answers with compounding
# error.  Mergeable (union = k smallest of the concatenation) and
# constant-size, like every sketch in this family.
# ---------------------------------------------------------------------------

_KMV_FULL_THETA = float(2**64)


def kmv_partial(values, k: int = 256) -> np.ndarray:
    """k smallest distinct stable 64-bit hashes of ``values`` (sorted
    ascending uint64).  Hash via :func:`hashing.hash_strings` (pandas'
    keyed SipHash — stable across processes, NUL-safe)."""
    from pynomaly_ray.functions.hashing import hash_strings

    if len(values) == 0:
        return np.empty(0, dtype=np.uint64)
    h = np.unique(hash_strings(values))
    return h[:k]


def kmv_merge(parts, k: int = 256) -> np.ndarray:
    """Union of KMV partials -> the union's KMV sketch."""
    parts = [p for p in parts if len(p)]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts))[:k]


def kmv_theta(sk: np.ndarray, k: int) -> int:
    """The sketch's inclusion threshold as an EXACT python int: every
    distinct hash of the underlying set STRICTLY below theta is in the
    sketch.  A non-full sketch saw its whole set (theta = 2^64 ==
    'exact').  Exact integers here — float64 cannot represent every
    uint64, and a threshold off by one ulp flips boundary hashes."""
    return int(sk[k - 1]) if len(sk) >= k else 2**64


def kmv_estimate(sk: np.ndarray, k: int) -> float:
    """Distinct-count estimate: exact cardinality while the sketch is
    not full; the unbiased (k-1)/U_(k) estimator once it is."""
    if len(sk) < k:
        return float(len(sk))
    return float(k - 1) * _KMV_FULL_THETA / float(int(sk[k - 1]))


def kmv_intersection(sa: np.ndarray, sb: np.ndarray, k: int) -> float:
    """|A intersect B| estimate from two KMV sketches: count the common
    hashes below theta = min(theta_A, theta_B) and scale by 1/theta —
    the theta-sketch a-and-b estimator.  Exact when both sketches are
    exact."""
    theta = min(kmv_theta(sa, k), kmv_theta(sb, k))
    common = np.intersect1d(sa, sb)
    if theta >= 2**64:
        return float(len(common))
    # strict-below test in uint64 (exact; see kmv_theta)
    d = int((common < np.uint64(theta)).sum())
    return float(d) * _KMV_FULL_THETA / float(theta)
