"""Stage-A constraint kernels: schema conformance + row predicates.

Where the reference *raises* on bad input (``MissingValuesError``
loop.py:313-322, shape checks loop.py:202-255), a streaming engine must
not: each kernel emits **violation rows** ``(doc_id, partition_id, check,
detail)`` and the pipeline keeps going (SURVEY.md §2.2 M1/M2).  All
predicates are vectorized pyarrow/numpy over zero-copy Arrow batches.

The single-scan design: one ``map_batches`` pass produces BOTH the sparse
violation rows and the per-partition partial statistics (stages/stats.py),
tagged by a ``kind`` column — the wide ``tokens`` payload never crosses a
stage boundary, which is what makes this viable at 10^12 sequences.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pandas import isna as pd_isna

from pynomaly_ray.config import SEQUENCE_SCHEMA, VIOLATION_SCHEMA


def _viol(doc_id, partition_id, check: str, detail) -> pa.Table:
    n = len(doc_id)
    return pa.table(
        {
            "doc_id": pa.array(doc_id, pa.string()),
            "partition_id": pa.array(partition_id, pa.string()),
            "check": pa.array([check] * n, pa.string()),
            "detail": pa.array(detail, pa.string()),
        },
        schema=VIOLATION_SCHEMA,
    )


def check_sequence_batch(
    batch: pa.Table,
    valid_sources: Optional[frozenset] = None,
    vocab_size: Optional[int] = None,
    valid_sources_arr: Optional[pa.Array] = None,
) -> tuple[pa.Table, np.ndarray]:
    """Run all row-level constraint predicates over one Arrow batch.

    Returns ``(violations_table, valid_mask)`` where ``valid_mask`` marks
    rows that passed every check (these feed the stats kernel; violating
    rows are excluded from drift statistics).

    Checks (north_rule):
      - ``null_doc_id``      doc_id IS NULL
      - ``null_tokens``      tokens IS NULL
      - ``n_tok_mismatch``   n_tok != len(tokens) (or n_tok IS NULL)
      - ``unknown_source``   source NULL or not in the broadcast universe
      - ``null_token_element`` a NULL inside the token list (would reach
        the stats kernel as NaN and crash its integer bincount)
      - ``token_out_of_range`` any token id outside [0, vocab_size)

    ``valid_sources_arr``: prebuilt Arrow value set (SequenceValidator
    builds it once per actor; falls back to building from
    ``valid_sources`` per call).
    """
    n = batch.num_rows
    doc_id = batch["doc_id"]
    part_id = batch["partition_id"]
    tokens = batch["tokens"]
    n_tok = batch["n_tok"]
    source = batch["source"]

    # id columns materialize to Python objects ONLY when a violation
    # actually needs them — clean batches (the common case) skip the
    # per-row PyString construction entirely
    _ids: dict = {}

    def doc_np() -> np.ndarray:
        if "d" not in _ids:
            _ids["d"] = doc_id.to_pandas().fillna("<null>").to_numpy(dtype=object)
        return _ids["d"]

    def part_np() -> np.ndarray:
        if "p" not in _ids:
            _ids["p"] = part_id.to_pandas().fillna("<null>").to_numpy(dtype=object)
        return _ids["p"]

    pieces = []
    bad = np.zeros(n, dtype=bool)

    null_doc = pc.is_null(doc_id).to_numpy(zero_copy_only=False)
    if null_doc.any():
        idx = np.flatnonzero(null_doc)
        pieces.append(
            _viol(doc_np()[idx], part_np()[idx], "null_doc_id", ["doc_id is null"] * len(idx))
        )
        bad |= null_doc

    null_tok = pc.is_null(tokens).to_numpy(zero_copy_only=False)
    if null_tok.any():
        idx = np.flatnonzero(null_tok)
        pieces.append(
            _viol(doc_np()[idx], part_np()[idx], "null_tokens", ["tokens is null"] * len(idx))
        )
        bad |= null_tok

    # n_tok == len(tokens): pc.list_value_length is null where tokens null.
    length = pc.list_value_length(tokens)
    mismatch = pc.fill_null(
        pc.or_kleene(pc.is_null(n_tok), pc.not_equal(pc.cast(length, pa.int32()), n_tok)),
        True,
    ).to_numpy(zero_copy_only=False) & ~null_tok
    if mismatch.any():
        idx = np.flatnonzero(mismatch)
        ntok_np = n_tok.to_pandas().to_numpy()
        len_np = length.to_pandas().to_numpy()

        def _fmt(v) -> str:  # avoid pandas' int->float promotion on nulls
            return "null" if pd_isna(v) else str(int(v))

        detail = [
            f"n_tok={_fmt(ntok_np[i])} len(tokens)={_fmt(len_np[i])}"
            for i in idx
        ]
        pieces.append(_viol(doc_np()[idx], part_np()[idx], "n_tok_mismatch", detail))
        bad |= mismatch

    if valid_sources is not None or valid_sources_arr is not None:
        if valid_sources_arr is None:
            valid_sources_arr = pa.array(sorted(valid_sources), pa.string())
        member = pc.is_in(source, value_set=valid_sources_arr)
        bad_src = ~pc.fill_null(member, False).to_numpy(zero_copy_only=False)
        if bad_src.any():
            idx = np.flatnonzero(bad_src)
            src_np = source.to_pandas().fillna("<null>").to_numpy(dtype=object)
            detail = [f"source={src_np[i]!r} not in source table" for i in idx]
            pieces.append(_viol(doc_np()[idx], part_np()[idx], "unknown_source", detail))
            bad |= bad_src

    comb = tokens.combine_chunks() if isinstance(tokens, pa.ChunkedArray) else tokens
    offsets = comb.offsets.to_numpy(zero_copy_only=False).astype(np.int64)

    def _rows_of_flat_positions(flat_mask: np.ndarray) -> np.ndarray:
        # map flat value positions back to row indices via searchsorted
        rows = (
            np.searchsorted(
                offsets, np.flatnonzero(flat_mask) + offsets[0], side="right"
            )
            - 1
        )
        rows = np.unique(rows)
        return rows[~null_tok[rows]]

    # NULL elements INSIDE a token list: they reach numpy as NaN floats
    # and would crash the integer stats kernel downstream — flag the row
    # instead of letting one malformed row abort the whole scan
    if comb.values.null_count:
        isn = pc.is_null(comb.values).to_numpy(zero_copy_only=False)
        rows = _rows_of_flat_positions(isn[offsets[0] : offsets[-1]])
        if len(rows):
            detail = ["null element inside tokens"] * len(rows)
            pieces.append(
                _viol(doc_np()[rows], part_np()[rows], "null_token_element", detail)
            )
            bad[rows] = True

    if vocab_size is not None:
        # .values with explicit offset slicing (NOT .flatten(), which skips
        # null rows and would misalign the position->row mapping).
        flat = comb.values[offsets[0] : offsets[-1]].to_numpy(zero_copy_only=False)
        if len(flat):
            with np.errstate(invalid="ignore"):  # NaN from null elements
                seg_bad = (flat < 0) | (flat >= vocab_size)
            if seg_bad.any():
                rows = _rows_of_flat_positions(seg_bad)
                if len(rows):
                    detail = ["token id outside [0, vocab)"] * len(rows)
                    pieces.append(
                        _viol(doc_np()[rows], part_np()[rows], "token_out_of_range", detail)
                    )
                    bad[rows] = True

    if pieces:
        violations = pa.concat_tables(pieces)
    else:
        violations = VIOLATION_SCHEMA.empty_table()
    return violations, ~bad


def schema_conformance_violations(
    batch, expected: pa.Schema
) -> list[str]:
    """Names of expected columns missing or mistyped in ``batch`` (an
    Arrow Table or a bare Schema).

    Column-level (not row-level): ``require_sequence_schema`` raises on
    it to fail fast with a readable report on a wrong table layout — the
    engine analogue of the reference's shape validation
    (loop.py:224-255) — instead of opaque Arrow cast errors mid-scan.
    """
    sch = batch if isinstance(batch, pa.Schema) else batch.schema
    problems = []
    for f in expected:
        if sch.get_field_index(f.name) < 0:
            problems.append(f"missing column {f.name}:{f.type}")
        else:
            actual = sch.field(f.name).type
            if actual != f.type:
                problems.append(f"column {f.name} has type {actual}, expected {f.type}")
    return problems


def require_sequence_schema(schema: pa.Schema) -> None:
    """Raise ``ValueError`` naming every ``SEQUENCE_SCHEMA`` column that
    ``schema`` lacks or mistypes.  run_validation calls it on the input's
    planned schema, before any scan, and ``SequenceValidator`` on every
    block, which covers inputs whose schema is unknown until they run."""
    problems = schema_conformance_violations(schema, SEQUENCE_SCHEMA)
    if problems:
        raise ValueError(
            "input table does not conform to the sequence schema: "
            + "; ".join(problems)
        )
