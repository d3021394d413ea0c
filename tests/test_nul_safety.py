"""NUL-byte hostile-input regressions (round-4 verdict task #1/#3).

pandas' object-string hash table (hash_pandas_object's categorize path,
factorize, groupby, pd.unique) compares values as NUL-terminated C
strings, so keys differing only after an embedded ``\\x00`` byte alias
— and the same string could hash differently depending on its batch
co-contents.  A crawl corpus WILL contain NUL bytes; these tests pin
the engine-wide fixes (categorize=False hashing, np.unique coding,
nul_safe_key group keys).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

# distinct hostile keys: identical up to the embedded NUL byte
NUL_KEYS = ["a", "a\x00b", "a\x00c", "\x00", "\x000"]


def test_hash_strings_distinct_on_nul_suffixes():
    from pynomaly_ray.functions.hashing import hash_strings

    h = hash_strings(NUL_KEYS)
    assert len(set(h.tolist())) == len(NUL_KEYS)


def test_hash_strings_batch_independent():
    """The hash of a string must not depend on which other strings share
    its batch (the round-4 categorize-path failure mode)."""
    from pynomaly_ray.functions.hashing import hash_strings

    for s in NUL_KEYS:
        alone = hash_strings([s])[0]
        batched = hash_strings(NUL_KEYS)
        assert batched[NUL_KEYS.index(s)] == alone


def test_hash_key_column_distinct_and_block_consistent():
    """Exchange routing: a NUL-bearing key must hash identically in
    every block (else the same key lands in two buckets) and distinctly
    from its NUL-truncated sibling (else two keys merge)."""
    import pyarrow as pa

    from pynomaly_ray.functions.exchange import _hash_key_column

    h_all = _hash_key_column(pa.chunked_array([pa.array(NUL_KEYS)]))
    assert len(set(h_all.tolist())) == len(NUL_KEYS)
    for i, s in enumerate(NUL_KEYS):
        h_one = _hash_key_column(pa.chunked_array([pa.array([s])]))
        assert h_one[0] == h_all[i]


def test_exact_dedup_does_not_pair_nul_variants(ray_session):
    """'a' and 'a\\x00b' are NOT exact duplicates; 'a\\x00b' repeated is."""
    import ray.data as rd

    from pynomaly_ray.stages.dedup import exact_duplicates_by_content

    docs = pd.DataFrame(
        {
            "doc_id": ["d1", "d2", "d3", "d4"],
            "text": ["a", "a\x00b", "a\x00c", "a\x00b"],
        }
    )
    out = exact_duplicates_by_content(rd.from_pandas(docs)).to_pandas()
    dup = out[out["copies"] > 1]
    assert len(dup) == 1
    assert dup["copies"].iloc[0] == 2
    assert dup["doc_id"].iloc[0] == "d2"  # min doc_id of the true pair
    assert len(out) == 3  # three distinct contents


def test_uniqueness_projection_keeps_nul_doc_ids_distinct():
    """project_doc_partition's slow path (in-batch duplicates present)
    must not merge NUL-differing doc_ids into one occurrence count."""
    import pyarrow as pa

    from pynomaly_ray.stages.uniqueness import project_doc_partition

    batch = pa.table(
        {
            "doc_id": ["a", "a\x00b", "a\x00b", "a\x00c"],
            "partition_id": ["p0", "p0", "p0", "p0"],
        }
    )
    out = project_doc_partition(batch).to_pandas()
    assert sorted(out["cnt"].tolist()) == [1, 1, 2]
    assert len(out) == 3
    dup_row = out[out["cnt"] == 2]
    assert dup_row["doc_id"].iloc[0] == "a\x00b"


def test_uniqueness_end_to_end_nul_doc_ids(ray_session):
    """Batch projection, then the uniqueness exchange: only the genuinely
    repeated NUL-bearing doc_id yields a violation (c-1 = 1 row)."""
    import pyarrow as pa
    import ray.data as rd

    from pynomaly_ray.stages.uniqueness import (
        duplicates_from_docparts,
        project_doc_partition,
    )

    t = pa.table(
        {
            "doc_id": ["a", "a\x00b", "a\x00b", "a\x00c", "b", "b"],
            "partition_id": ["p0", "p0", "p1", "p1", "p0", "p1"],
        }
    )
    docparts = rd.from_arrow(t).map_batches(
        project_doc_partition, batch_format="pyarrow", batch_size=3
    )
    out = duplicates_from_docparts(docparts).to_pandas()
    assert len(out) == 2  # one for a\x00b, one for b
    assert set(out["doc_id"]) == {"a\x00b", "b"}
    # the tolerated occurrence is the lowest partition_id -> violations
    # attribute to p1 for both
    assert set(out["partition_id"]) == {"p1"}


def test_local_components_nul_node_ids():
    from pynomaly_ray.functions.graph import _local_components

    edges = pd.DataFrame(
        {
            "a": ["a", "a\x00b"],
            "b": ["a\x00c", "x"],
        }
    )
    out = _local_components(edges, "a", "b")
    lbl = dict(zip(out["node"], out["lbl"]))
    assert len(lbl) == 4  # all four nodes distinct
    # two separate components: {a, a\x00c} and {a\x00b, x}
    assert lbl["a"] == lbl["a\x00c"]
    assert lbl["a\x00b"] == lbl["x"]
    assert lbl["a"] != lbl["a\x00b"]


def test_distributed_components_nul_node_ids(ray_session, monkeypatch):
    """Force the distributed label-propagation path and check that NUL
    node ids survive init_labels/min_label/message groupbys."""
    import ray.data as rd

    from pynomaly_ray.functions import graph

    monkeypatch.setenv("PNR_LOCAL_CC_EDGES", "0")
    edges = pd.DataFrame(
        {
            "a": ["a", "a\x00b", "q"],
            "b": ["a\x00c", "x", "a"],
        }
    )
    out = graph.connected_components(rd.from_pandas(edges)).to_pandas()
    lbl = dict(zip(out["node"], out["lbl"]))
    assert len(lbl) == 5
    assert lbl["a"] == lbl["a\x00c"] == lbl["q"]
    assert lbl["a\x00b"] == lbl["x"]
    assert lbl["a"] != lbl["a\x00b"]


def test_minhash_signatures_nul_distinct():
    """MinHash signatures of NUL-differing texts must differ (they share
    no shingles with NUL-exact hashing) and equal their solo signature."""
    from pynomaly_ray.stages.dedup import MinHasher

    mh = MinHasher(n_perm=32)
    batch = mh.signatures(NUL_KEYS)
    for i, t in enumerate(NUL_KEYS):
        np.testing.assert_array_equal(batch[i], mh.signature(t))
    assert not np.array_equal(batch[3], batch[4])


def test_salt_of_batch_independent():
    from pynomaly_ray.functions.hashing import salt_of

    full = salt_of(NUL_KEYS, 16)
    for i, s in enumerate(NUL_KEYS):
        assert salt_of([s], 16)[0] == full[i]
