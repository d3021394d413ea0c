"""Regression tests for the post-wave-15 review fixes: range_join's
interval-column resolution under left-side name shadowing and its
schemaless-empty-side guard, the editdist kernel's trailing-NUL
trimming, and pack_offsets' prefix-base ordering under a non-identity
sort_col."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as papq
import pytest
import ray

from tests.conftest import pinned_fanout


def _lev_ref(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        prev, dp[0] = dp[0], i
        for j in range(1, len(b) + 1):
            cur = dp[j]
            dp[j] = min(dp[j] + 1, dp[j - 1] + 1, prev + (a[i - 1] != b[j - 1]))
            prev = cur
    return dp[len(b)]


def test_range_join_left_side_shadows_interval_names(ray_session):
    """When the LEFT table carries columns named like the right's
    interval bounds, pandas keeps the left ones unsuffixed — the
    predicate must still evaluate against the RIGHT side's (suffixed)
    bounds, not the left impostors."""
    from pynomaly_ray.functions.exchange import range_join

    # left 'lo'/'hi' are garbage that would accept EVERY candidate if
    # the predicate read them (lo=-1e9, hi=+1e9) — a silent wrong join
    ldf = pd.DataFrame(
        {
            "k": [1, 1, 2],
            "t": [5, 50, 7],
            "lo": [-10**9] * 3,
            "hi": [10**9] * 3,
        }
    )
    rdf = pd.DataFrame(
        {
            "k": [1, 1, 2],
            "lo": [0, 40, 100],
            "hi": [10, 45, 200],
            "tag": ["a", "b", "c"],
        }
    )
    with pinned_fanout(3):
        out = range_join(
            ray.data.from_pandas(ldf),
            ray.data.from_pandas(rdf),
            by="k",
            left_on="t",
            right_lo="lo",
            right_hi="hi",
        )
    out = (
        out.to_pandas()
        .sort_values(["k", "t"])
        .reset_index(drop=True)
    )
    # only (k=1, t=5) lands in [0,10); t=50 misses [40,45); k=2 t=7
    # misses [100,200) — the shadowing bug would return all 3
    assert len(out) == 1
    assert out.loc[0, "k"] == 1 and out.loc[0, "t"] == 5
    assert out.loc[0, "tag"] == "a"
    assert out.loc[0, "lo_right"] == 0 and out.loc[0, "hi_right"] == 10


def test_range_join_schemaless_empty_side(ray_session, tmp_path):
    """A fully-pruned pushdown read ships 0-row blocks with no columns
    at all; range_join (inner) must yield the well-defined empty result
    instead of a merge KeyError."""
    import pyarrow.dataset as pads

    from pynomaly_ray.functions.exchange import range_join
    from pynomaly_ray.sources.parquet import read_parquet_clean

    path = os.path.join(tmp_path, "t.parquet")
    papq.write_table(
        pa.table(
            {
                "k": pa.array([1, 2], pa.int64()),
                "t": pa.array([5, 6], pa.int64()),
            }
        ),
        path,
    )
    empty = read_parquet_clean(path, filter=pads.field("k") > 100)
    right = ray.data.from_pandas(
        pd.DataFrame({"k": [1, 2], "lo": [0, 0], "hi": [10, 10]})
    )
    with pinned_fanout(2):
        out = range_join(
            empty, right, by="k", left_on="t", right_lo="lo", right_hi="hi"
        )
    assert out.count() == 0
    # and the mirrored orientation (typed left, schemaless right)
    left = read_parquet_clean(path)
    with pinned_fanout(2):
        out2 = range_join(
            left, empty, by="k", left_on="t", right_lo="k", right_hi="k"
        )
    assert out2.count() == 0


def test_editdist_le1_trailing_nul_not_trimmed():
    """numpy U-dtype silently trims TRAILING NUL codepoints; the kernel
    appends a shared non-NUL sentinel so 'ab' vs 'a\\x00\\x00' stays
    distance 2 (the trimmed comparison would report 1)."""
    from pynomaly_ray.stages.dedup import editdist_le1

    ta = ["ab", "a", "a\x00", "\x00", "x\x00", "ab\x00"]
    tb = ["a\x00\x00", "a\x00", "a\x00", "", "x", "ab"]
    got = list(editdist_le1(ta, tb))
    want = [min(_lev_ref(a, b), 2) for a, b in zip(ta, tb)]
    assert got == want, list(zip(ta, tb, got, want))

    # fuzz on a NUL-heavy alphabet vs the DP
    import random

    rng = random.Random(7)
    pairs = [
        (
            "".join(rng.choice("a\x00b") for _ in range(rng.randint(0, 6))),
            "".join(rng.choice("a\x00b") for _ in range(rng.randint(0, 6))),
        )
        for _ in range(1500)
    ]
    got = editdist_le1([p[0] for p in pairs], [p[1] for p in pairs])
    for (a, b), g in zip(pairs, got):
        assert g == min(_lev_ref(a, b), 2), (repr(a), repr(b))


def test_pack_offsets_sort_col_order_disagrees_with_doc_id(ray_session):
    """Block prefix bases must be ordered by the RANGE key (sort_col),
    not by min doc_id: construct a corpus whose curriculum key order is
    the REVERSE of doc-id order and check every placement against the
    key-ordered cumsum."""
    from pynomaly_ray.stages.packing import pack_offsets

    n = 400
    ids = np.arange(n, dtype=np.int64)
    key = (n - ids).astype(np.int64)  # strictly reversed order
    ntok = ((ids * 37) % 90 + 1).astype(np.int64)
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": ids, "n_tok": ntok, "key": key})
    )
    with pinned_fanout(5):
        placed = pack_offsets(ds, chunk=64, sort_col="key")
    placed = (
        placed.to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    order = np.argsort(key, kind="stable")
    start_in_key_order = np.concatenate([[0], np.cumsum(ntok[order])[:-1]])
    start = np.empty(n, dtype=np.int64)
    start[order] = start_in_key_order
    ref = pd.DataFrame(
        {
            "doc_id": ids,
            "seq_first": start // 64,
            "seq_last": (start + ntok - 1) // 64,
            "off_in_seq": start % 64,
        }
    )
    got = placed[["doc_id", "seq_first", "seq_last", "off_in_seq"]]
    pd.testing.assert_frame_equal(
        got.astype(np.int64), ref.astype(np.int64), check_like=True
    )


# ---------------------------------------------------------------------------
# sorted zone-map layout (sources/sorted_layout.py)
# ---------------------------------------------------------------------------


def test_sorted_layout_prunes_and_matches_bruteforce(ray_session, tmp_path):
    """A mid-range scan opens strictly fewer files than the layout has,
    and returns exactly the brute-force filtered rows."""
    from pynomaly_ray.sources.sorted_layout import (
        write_sorted,
        zone_plan,
        zone_pruned_scan,
    )

    n = 2000
    rng = np.random.default_rng(3)
    ids = rng.permutation(n).astype(np.int64)  # unsorted input
    df = pd.DataFrame({"k": ids, "v": ids * 7})
    lay = str(tmp_path / "lay")
    m = write_sorted(ray.data.from_pandas(df), "k", lay, num_partitions=8)
    total = len(m["zones"])
    assert total >= 4
    files = zone_plan(lay, 500, 700)
    assert 0 < len(files) < total
    out = (
        zone_pruned_scan(lay, 500, 700)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    ref = (
        df[(df["k"] >= 500) & (df["k"] <= 700)]
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, ref)
    # file-name order is the global sort order; ordered=True pins the
    # block stream to it (the default streaming read may deliver blocks
    # out of completion order under load)
    full = zone_pruned_scan(lay, ordered=True).to_pandas()
    assert (full["k"].to_numpy() == np.sort(ids)).all()


def test_sorted_layout_refuses_uncommitted(ray_session, tmp_path):
    import os

    from pynomaly_ray.sources.sorted_layout import (
        write_sorted,
        zone_pruned_scan,
    )

    lay = str(tmp_path / "lay")
    write_sorted(
        ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "v": [1, 2]})),
        "k",
        lay,
        num_partitions=2,
    )
    os.remove(os.path.join(lay, "_sorted.json"))
    with pytest.raises(FileNotFoundError, match="commit marker"):
        zone_pruned_scan(lay, 0, 10)


def test_sorted_layout_rewrite_clears_stale_parts(ray_session, tmp_path):
    """Rewriting with fewer partitions must not leave phantom files
    from the wider previous layout."""
    from pynomaly_ray.sources.sorted_layout import write_sorted, zone_pruned_scan

    lay = str(tmp_path / "lay")
    big = pd.DataFrame({"k": np.arange(1000, dtype=np.int64)})
    write_sorted(ray.data.from_pandas(big), "k", lay, num_partitions=8)
    small = pd.DataFrame({"k": np.arange(10, dtype=np.int64)})
    write_sorted(ray.data.from_pandas(small), "k", lay, num_partitions=2)
    out = zone_pruned_scan(lay).to_pandas()
    assert sorted(out["k"].tolist()) == list(range(10))


def test_sorted_layout_null_keys(ray_session, tmp_path):
    """Bounded scans exclude NULL keys (SQL predicate semantics); the
    unbounded full scan still returns them."""
    from pynomaly_ray.sources.sorted_layout import write_sorted, zone_pruned_scan

    df = pd.DataFrame(
        {
            "k": pd.array([5, None, 1, None, 9], dtype="Int64"),
            "v": np.arange(5, dtype=np.int64),
        }
    )
    lay = str(tmp_path / "lay")
    write_sorted(ray.data.from_pandas(df), "k", lay, num_partitions=2)
    bounded = zone_pruned_scan(lay, 0, 100).to_pandas()
    assert sorted(bounded["k"].tolist()) == [1, 5, 9]
    full = zone_pruned_scan(lay).to_pandas()
    assert len(full) == 5 and full["k"].isna().sum() == 2


def test_sorted_layout_string_and_timestamp_keys(ray_session, tmp_path):
    from pynomaly_ray.sources.sorted_layout import write_sorted, zone_pruned_scan

    sdf = pd.DataFrame({"k": ["ant", "bee", "cat", "dog", "emu"], "v": range(5)})
    lay_s = str(tmp_path / "s")
    write_sorted(ray.data.from_pandas(sdf), "k", lay_s, num_partitions=2)
    out = zone_pruned_scan(lay_s, "bee", "dog").to_pandas()
    assert sorted(out["k"].tolist()) == ["bee", "cat", "dog"]

    ts = pd.to_datetime(
        ["2024-01-01", "2024-06-01", "2025-01-01", "2025-06-01"]
    ).astype("datetime64[us]")
    tdf = pd.DataFrame({"k": ts, "v": range(4)})
    lay_t = str(tmp_path / "t")
    write_sorted(ray.data.from_pandas(tdf), "k", lay_t, num_partitions=2)
    out = zone_pruned_scan(
        lay_t, pd.Timestamp("2024-03-01"), pd.Timestamp("2025-01-01")
    ).to_pandas()
    assert len(out) == 2


# ---------------------------------------------------------------------------
# prefix-filter exact similarity join (stages/dedup.prefix_jaccard_pairs)
# ---------------------------------------------------------------------------


def _brute_jaccard_pairs(docs, num, den):
    """All-pairs distinct-word-set Jaccard >= num/den, by Python sets."""
    import re

    sets = {i: set(re.findall(r"[^ \t\n\r\f\v]+", t or "")) for i, t in docs}
    out = []
    ids = sorted(sets)
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            a, b = ids[x], ids[y]
            sa, sb = sets[a], sets[b]
            if not sa and not sb:
                continue
            inter = len(sa & sb)
            union = len(sa | sb)
            if inter * den >= union * num:
                out.append((a, b, inter, union))
    return sorted(out)


def test_prefix_jaccard_lossless_vs_bruteforce_fuzz(ray_session):
    """The prefix filter must be LOSSLESS: on randomized small-alphabet
    corpora (forcing heavy token sharing), the distributed join returns
    exactly the brute-force all-pairs result — no missed pair, no
    extra."""
    import random

    from pynomaly_ray.stages.dedup import prefix_jaccard_pairs

    rng = random.Random(42)
    vocab = [f"w{i}" for i in range(30)]
    for trial, (num, den) in enumerate([(1, 2), (4, 5), (1, 3), (1, 1)]):
        docs = []
        for i in range(60):
            k = rng.randint(0, 12)
            words = [rng.choice(vocab) for _ in range(k)]
            # duplicated words inside a doc exercise the distinct-set
            # semantics
            docs.append((i, " ".join(words)))
        ds = ray.data.from_pandas(
            pd.DataFrame(
                {"doc_id": [d[0] for d in docs], "text": [d[1] for d in docs]}
            )
        )
        with pinned_fanout(3):
            got = prefix_jaccard_pairs(ds, num=num, den=den)
        got_t = sorted(
            zip(
                got["doc_a"].astype(int),
                got["doc_b"].astype(int),
                got["n_inter"].astype(int),
                got["n_union"].astype(int),
            )
        )
        want = _brute_jaccard_pairs(docs, num, den)
        assert got_t == want, (trial, num, den)


def test_prefix_jaccard_group_cap_raises(ray_session):
    """A pathological block of identical docs must refuse loudly, not
    silently star-cap (exactness contract)."""
    from pynomaly_ray.stages.dedup import prefix_jaccard_pairs

    docs = pd.DataFrame(
        {"doc_id": np.arange(50, dtype=np.int64), "text": ["same text here"] * 50}
    )
    with pytest.raises(Exception, match="group_cap"):
        prefix_jaccard_pairs(
            ray.data.from_pandas(docs), num=4, den=5, group_cap=10
        )


def test_prefix_jaccard_empty_and_disjoint(ray_session):
    from pynomaly_ray.stages.dedup import prefix_jaccard_pairs

    docs = pd.DataFrame(
        {
            "doc_id": np.array([1, 2, 3], dtype=np.int64),
            "text": ["alpha beta", "gamma delta", ""],
        }
    )
    out = prefix_jaccard_pairs(ray.data.from_pandas(docs), num=1, den=2)
    assert len(out) == 0
    assert list(out.columns) == ["doc_a", "doc_b", "n_inter", "n_union"]


# ---------------------------------------------------------------------------
# layout appends (append_sorted / compact_sorted / append_bucketed)
# ---------------------------------------------------------------------------


def test_append_sorted_scan_and_compact(ray_session, tmp_path):
    """Appended generations participate in pruned scans exactly;
    compaction restores one tight globally-sorted generation."""
    from pynomaly_ray.sources.sorted_layout import (
        append_sorted,
        compact_sorted,
        write_sorted,
        zone_pruned_scan,
    )

    lay = str(tmp_path / "lay")
    base = pd.DataFrame({"k": np.arange(0, 100, 2, dtype=np.int64)})
    delta = pd.DataFrame({"k": np.arange(1, 100, 2, dtype=np.int64)})
    write_sorted(ray.data.from_pandas(base), "k", lay, num_partitions=4)
    m = append_sorted(ray.data.from_pandas(delta), lay, num_partitions=3)
    assert m["rows"] == 100 and m["gen"] == 1
    out = zone_pruned_scan(lay, 10, 20).to_pandas()
    assert sorted(out["k"].tolist()) == list(range(10, 21))
    # second append, then compact back to one generation
    append_sorted(
        ray.data.from_pandas(pd.DataFrame({"k": np.array([200], dtype=np.int64)})),
        lay,
    )
    m2 = compact_sorted(lay, num_partitions=4)
    assert m2["rows"] == 101 and m2["gen"] == 0
    full = zone_pruned_scan(lay, ordered=True).to_pandas()
    k = full["k"].to_numpy()
    want = np.sort(np.r_[np.arange(100), 200])
    assert len(k) == len(want), (len(k), len(want))
    assert (np.diff(k) >= 0).all(), "scan not in global order"
    assert (k == want).all()


def test_append_sorted_schema_drift_refuses(ray_session, tmp_path):
    from pynomaly_ray.sources.sorted_layout import append_sorted, write_sorted

    lay = str(tmp_path / "lay")
    write_sorted(
        ray.data.from_pandas(
            pd.DataFrame({"k": np.array([1, 2], dtype=np.int64)})
        ),
        "k",
        lay,
    )
    drifted = pd.DataFrame(
        {"k": np.array([3], dtype=np.int64), "extra": np.array([1], np.int64)}
    )
    with pytest.raises(ValueError, match="schema differs"):
        append_sorted(ray.data.from_pandas(drifted), lay)


def test_append_sorted_orphans_invisible(ray_session, tmp_path):
    """A crashed append's orphan part files (not in the manifest) are
    never opened by scans."""
    from pynomaly_ray.sources.sorted_layout import write_sorted, zone_pruned_scan

    lay = str(tmp_path / "lay")
    write_sorted(
        ray.data.from_pandas(
            pd.DataFrame({"k": np.array([1, 2, 3], dtype=np.int64)})
        ),
        "k",
        lay,
        num_partitions=1,
    )
    # orphan with absurd rows that WOULD change the result if read
    papq.write_table(
        pa.table({"k": pa.array([1, 1, 1], pa.int64())}),
        str(tmp_path / "lay" / "part-g0099-00000.parquet"),
    )
    out = zone_pruned_scan(lay, 0, 10).to_pandas()
    assert sorted(out["k"].tolist()) == [1, 2, 3]


def test_append_bucketed_join_sees_delta(ray_session, tmp_path):
    """Rows appended into the bucketed layout join with zero reader
    changes; schema drift refuses."""
    from pynomaly_ray.sources.bucketed import (
        append_bucketed,
        bucketed_join,
        write_bucketed,
    )

    root = tmp_path
    left = pd.DataFrame(
        {"k": np.array([1, 2, 3], dtype=np.int64), "v": np.array([10, 20, 30], np.int64)}
    )
    right = pd.DataFrame(
        {"k": np.array([1, 2], dtype=np.int64), "w": np.array([7, 8], np.int64)}
    )
    write_bucketed(ray.data.from_pandas(left), ["k"], 4, str(root / "L"))
    write_bucketed(ray.data.from_pandas(right), ["k"], 4, str(root / "R"))
    m = append_bucketed(
        ray.data.from_pandas(
            pd.DataFrame({"k": np.array([3], dtype=np.int64), "w": np.array([9], np.int64)})
        ),
        str(root / "R"),
    )
    assert m["rows"] == 3 and m["gen"] == 1
    out = (
        bucketed_join(str(root / "L"), str(root / "R"))
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [1, 2, 3]
    assert out["w"].tolist() == [7, 8, 9]

    drifted = pd.DataFrame({"k": np.array([5], dtype=np.int64)})
    with pytest.raises(Exception, match="schema differs"):
        append_bucketed(ray.data.from_pandas(drifted), str(root / "R"))


# ---------------------------------------------------------------------------
# KMV / theta sketch (functions/sketches.kmv_*)
# ---------------------------------------------------------------------------


def test_kmv_accuracy_and_merge_invariance():
    """Estimates within the ~1/sqrt(k-2) envelope; merge of arbitrary
    splits equals the single-pass sketch exactly (mergeability)."""
    from pynomaly_ray.functions.sketches import (
        kmv_estimate,
        kmv_intersection,
        kmv_merge,
        kmv_partial,
    )

    k = 256
    rng = np.random.default_rng(5)
    A = rng.integers(0, 10**12, 40000)
    B = np.concatenate([A[:15000], rng.integers(10**12, 2 * 10**12, 25000)])
    one_pass = kmv_partial(A, k)
    split = kmv_merge([kmv_partial(A[i::9], k) for i in range(9)], k)
    assert (one_pass == split).all()

    sa, sb = kmv_partial(A, k), kmv_partial(B, k)
    tol = 4.0 / np.sqrt(k - 2)  # ~4 sigma
    na, nb = len(np.unique(A)), len(np.unique(B))
    ni = len(np.intersect1d(A, B))
    assert abs(kmv_estimate(sa, k) - na) <= tol * na
    assert abs(kmv_estimate(sb, k) - nb) <= tol * nb
    assert abs(kmv_intersection(sa, sb, k) - ni) <= 2 * tol * max(na, nb)


def test_kmv_exact_paths_and_nul_keys():
    """Below k the sketch IS the set (exact estimates, exact
    intersection); NUL-bearing string keys stay distinct."""
    from pynomaly_ray.functions.sketches import (
        kmv_estimate,
        kmv_intersection,
        kmv_partial,
    )

    s1 = kmv_partial(np.arange(30), 256)
    s2 = kmv_partial(np.arange(20, 50), 256)
    assert kmv_estimate(s1, 256) == 30.0
    assert kmv_intersection(s1, s2, 256) == 10.0

    sk = kmv_partial(["a", "a\x00b", "a\x00c", "a"], 256)
    assert len(sk) == 3  # NUL-distinct, duplicate collapsed


def test_kmv_overlap_query_runs(ray_session):
    from pynomaly_ray.pipelines.engine_queries import q_kmv_overlap

    out = q_kmv_overlap("/root/testdata/sf0.001")
    assert list(out.columns) == ["n_click", "n_purchase", "n_overlap"]
    # sf0.001 cardinalities sit below k=256, so the sketch is in its
    # exact regime: all three numbers must equal the pandas truth
    ev = pd.read_parquet(
        "/root/testdata/sf0.001/events.parquet",
        columns=["user_id", "event_type", "ts"],
    )
    ev = ev[ev["event_type"].isin(["click", "purchase"])]
    day = ev["ts"].to_numpy().astype("datetime64[us]").astype(np.int64) // (
        86_400_000_000
    )
    key = ev["user_id"].to_numpy(dtype=np.int64) * 1_000_000 + day
    sets = {
        et: set(key[(ev["event_type"] == et).to_numpy()].tolist())
        for et in ("click", "purchase")
    }
    assert len(sets["click"]) < 256 and len(sets["purchase"]) < 256
    assert out.loc[0, "n_click"] == len(sets["click"])
    assert out.loc[0, "n_purchase"] == len(sets["purchase"])
    assert out.loc[0, "n_overlap"] == len(sets["click"] & sets["purchase"])


def test_daily_trend_matches_lstsq(ray_session, tmp_path):
    """Integer (num, den) pair equals the least-squares slope on a
    handcrafted series, independent of row order and partitioning."""
    from pynomaly_ray.pipelines.queries import q_daily_trend

    days = np.array([0, 1, 2, 3, 10], dtype=np.int64)
    counts = np.array([3, 5, 4, 8, 1], dtype=np.int64)
    rows = []
    eid = 0
    for d, c in zip(days, counts):
        for _ in range(c):
            rows.append((eid, np.datetime64("2024-01-01", "us") + d * 86_400_000_000, 7, "click", 1.0, "{}"))
            eid += 1
    df = pd.DataFrame(
        rows, columns=["event_id", "ts", "user_id", "event_type", "value", "props"]
    ).sample(frac=1.0, random_state=0)  # shuffled row order
    papq.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        str(tmp_path / "events.parquet"),
    )
    out = q_daily_trend(str(tmp_path))
    assert out["event_type"].tolist() == ["click"]
    n = len(days)
    num = n * (days * counts).sum() - days.sum() * counts.sum()
    den = n * (days * days).sum() - days.sum() ** 2
    assert out.loc[0, "n_days"] == n
    assert out.loc[0, "slope_num"] == num
    assert out.loc[0, "slope_den"] == den
    # sanity: the float slope they encode equals numpy lstsq
    slope = np.polyfit(days.astype(float), counts.astype(float), 1)[0]
    assert abs(num / den - slope) < 1e-9


# ---------------------------------------------------------------------------
# interval_overlap_join + snapshot_diff
# ---------------------------------------------------------------------------


def test_interval_overlap_join_matches_bruteforce_fuzz(ray_session):
    """Granule replication must emit every overlapping pair EXACTLY
    once, for granules smaller, comparable, and larger than the
    interval lengths — including intervals spanning many bins and
    negative coordinates."""
    from pynomaly_ray.functions.exchange import interval_overlap_join

    rng = np.random.default_rng(11)
    nl, nr = 80, 70
    llo = rng.integers(-500, 500, nl)
    lhi = llo + rng.integers(1, 120, nl)
    rlo = rng.integers(-500, 500, nr)
    rhi = rlo + rng.integers(1, 80, nr)
    a = pd.DataFrame(
        {"ka": np.arange(nl, dtype=np.int64), "lo_a": llo, "hi_a": lhi}
    )
    b = pd.DataFrame(
        {"kb": np.arange(nr, dtype=np.int64), "lo_b": rlo, "hi_b": rhi}
    )
    want = sorted(
        (int(i), int(j))
        for i in range(nl)
        for j in range(nr)
        if llo[i] < rhi[j] and rlo[j] < lhi[i]
    )
    for granule in (13, 64, 1000):
        with pinned_fanout(4):
            out = interval_overlap_join(
                ray.data.from_pandas(a),
                ray.data.from_pandas(b),
                "lo_a",
                "hi_a",
                "lo_b",
                "hi_b",
                granule=granule,
            ).to_pandas()
        got = sorted(zip(out["ka"].astype(int), out["kb"].astype(int)))
        assert got == want, f"granule={granule}"


def test_interval_overlap_join_drops_empty_and_null(ray_session):
    from pynomaly_ray.functions.exchange import interval_overlap_join

    a = pd.DataFrame(
        {
            "ka": np.array([1, 2, 3], dtype=np.int64),
            "lo_a": pd.array([0, 5, None], dtype="Int64"),
            "hi_a": pd.array([0, 10, 20], dtype="Int64"),  # row 1 empty
        }
    )
    b = pd.DataFrame(
        {
            "kb": np.array([9], dtype=np.int64),
            "lo_b": np.array([0], dtype=np.int64),
            "hi_b": np.array([100], dtype=np.int64),
        }
    )
    out = interval_overlap_join(
        ray.data.from_pandas(a),
        ray.data.from_pandas(b),
        "lo_a",
        "hi_a",
        "lo_b",
        "hi_b",
        granule=10,
    ).to_pandas()
    assert out["ka"].tolist() == [2]


def test_snapshot_diff_reducer_three_classes(ray_session, tmp_path):
    """The diff reducer classifies added/removed/changed correctly on a
    handcrafted pair of snapshots (the gate data never exercises
    'added' because its perturbation only drops and bumps)."""
    import pyarrow as pa

    from pynomaly_ray.functions.exchange import hash_aggregate
    from pynomaly_ray.pipelines.queries import q_snapshot_diff

    # drive the full query over a tiny orders table whose keys hit
    # every perturbation class
    keys = np.array([1, 31, 97, 97 * 2, 31 * 97, 5], dtype=np.int64)
    df = pd.DataFrame(
        {
            "o_orderkey": keys,
            "o_custkey": np.ones(len(keys), dtype=np.int64),
            "o_orderstatus": ["O"] * len(keys),
            "o_totalprice": np.full(len(keys), 10.0),
            "o_orderdate": pd.to_datetime(["2024-01-01"] * len(keys)).astype(
                "datetime64[us]"
            ),
            "o_orderpriority": ["1-URGENT"] * len(keys),
        }
    )
    papq.write_table(
        pa.Table.from_pandas(df, preserve_index=False),
        str(tmp_path / "orders.parquet"),
    )
    out = q_snapshot_diff(str(tmp_path))
    got = dict(zip(out["o_orderkey"], out["change"]))
    # 31 -> changed (+500), 97 & 194 & 3007 -> removed, 1 & 5 unchanged
    assert got == {31: "changed", 97: "removed", 194: "removed", 3007: "removed"}
    ch = out[out["o_orderkey"] == 31].iloc[0]
    assert ch["cents_b"] - ch["cents_a"] == 500
