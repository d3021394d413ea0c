"""Wave-73 query: cross-run incremental EXACT dedup (first-crawl-wins).

``exact_dedup_incremental`` — the documents table arrives as two crawl
snapshots (even doc_ids first, then the full corpus).  Run 1 hashes the
even docs and emits their internal duplicate pairs; run 2 anti-joins
doc_ids against run 1's committed hash state, hashes ONLY the odd
(new) docs, and emits pairs only for new docs whose content was
already seen — keeper = the FIRST-SEEN doc (min run rank, then
doc_id), so the keeper never changes across the corpus lifetime and
the union of both runs' outputs drops exactly all-but-the-first copy
of every content (``stages/dedup.exact_duplicates_incremental``).
Content is NORMALIZED to the first 24 codepoints before hashing (the
usual normalize-then-exact-dedup shape — lowercased/stripped/prefixed
canonical forms; full raw texts in this corpus are all distinct, so
the raw surface would certify only the empty case).

Certification: first-crawl-wins is pure relational logic over (run
rank, doc_id, text), so the DuckDB twin reconstructs BOTH runs
directly from the documents view — run 1's within-snapshot pairs, run
2's new-doc pairs against the first-seen keeper over the full corpus
— with no persisted surface needed (hash equality == content equality
at oracle scale; the ~2^-64 collision caveat is the one-shot
``exact_dedup``'s documented contract).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pynomaly_ray.pipelines.queries import ORACLE_QUERIES, _pq


def q_exact_dedup_incremental(sf_dir: str):
    from pynomaly_ray.pipelines.engine_queries import _surface_dir
    from pynomaly_ray.stages.dedup import (
        commit_run_state,
        exact_duplicates_incremental,
    )

    def _docs(even_only: bool = False):
        def conv(t: pa.Table) -> pa.Table:
            if even_only:
                t = t.filter(
                    pc.equal(pc.bit_wise_and(t["doc_id"], 1), 0)
                )
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "text": pc.utf8_slice_codeunits(t["text"], 0, 24),
                }
            )

        return _pq(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            conv, batch_format="pyarrow"
        )

    state = _surface_dir("exact_inc_state")
    runs = []
    for run_id, docs in (("run1", _docs(even_only=True)), ("run2", _docs())):
        runs.append(exact_duplicates_incremental(docs, state, run_id))
        # sink-then-commit: the run's pairs are this query's output, so
        # its hash state commits only once they are in hand
        commit_run_state(state, run_id, table="hashes")
    both = pd.concat(runs, ignore_index=True)
    # disjointness invariant: run 1 emits even dups, run 2 odd dups —
    # a doc_dup appearing twice means the anti-join re-processed a
    # committed doc (raise rather than return wrong rows)
    if both["doc_dup"].duplicated().any():
        raise AssertionError("incremental runs re-emitted a committed doc")
    return both.sort_values(["doc_keep", "doc_dup"]).reset_index(drop=True)


SQL_EXACT_DEDUP_INCREMENTAL = """
WITH tagged AS (
  SELECT doc_id, SUBSTR(text, 1, 24) AS text,
         CASE WHEN doc_id % 2 = 0 THEN 0 ELSE 1 END AS rnk
  FROM documents
),
r1 AS (
  SELECT MIN(doc_id) OVER (PARTITION BY text) AS doc_keep,
         doc_id AS doc_dup
  FROM tagged WHERE rnk = 0
),
k AS (
  SELECT doc_id, rnk,
         FIRST_VALUE(doc_id) OVER (
           PARTITION BY text ORDER BY rnk, doc_id
         ) AS doc_keep
  FROM tagged
)
SELECT doc_keep, doc_dup FROM r1 WHERE doc_keep <> doc_dup
UNION ALL
SELECT doc_keep, doc_id AS doc_dup FROM k
WHERE rnk = 1 AND doc_id <> doc_keep
ORDER BY doc_keep, doc_dup
"""


ORACLE_QUERIES["exact_dedup_incremental"] = (
    q_exact_dedup_incremental,
    SQL_EXACT_DEDUP_INCREMENTAL,
)
