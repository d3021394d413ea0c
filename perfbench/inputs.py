"""Workload inputs: sizes, corpus generation from the seed, and the
expected outputs, made in a child process so that neither the generated
tables nor the checker's data count towards the driver's memory."""

from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import oracle
from pynomaly_ray.sources.datagen import (
    SOURCES,
    VOCAB,
    GenSpec,
    generate_partition,
    plant_violations,
)

DRIFTED = (("web", 3), ("code", 2))


@dataclass(frozen=True)
class Size:
    parts_per_source: int
    rows_per_part: int
    files: int | None = None  # None: one file per partition


SIZES = {
    "flagship": Size(8, 1920),
    "resume_sink": Size(6, 1000),
    "many_partitions": Size(768, 8, files=32),
}
SMOKE_SIZES = {
    "flagship": Size(4, 40),
    "resume_sink": Size(4, 40),
    "many_partitions": Size(16, 8, files=4),
}


def write_inputs(directory: str, size: Size, seed: int) -> list[str]:
    """Generate the corpus with ``sources.datagen`` and write it as Parquet;
    returns the file paths in sorted order."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    spec = GenSpec(
        parts_per_source=size.parts_per_source,
        rows_per_part=size.rows_per_part,
        seed=seed,
        drifted=DRIFTED,
    )
    tables = {
        f"{s}-{p:04d}": generate_partition(s, p, spec)
        for s in spec.sources
        for p in range(spec.parts_per_source)
    }
    plant_violations(tables, spec)
    keys = sorted(tables)
    if size.files is None:
        groups = [[k] for k in keys]
    else:
        groups = [sorted(keys[i :: size.files]) for i in range(size.files)]
    paths = []
    for i, group in enumerate(groups):
        path = os.path.join(directory, f"part-{i:05d}.parquet")
        pq.write_table(pa.concat_tables([tables[k] for k in group]), path)
        paths.append(path)
    return paths


def _prepare(directory: str, size: Size, seed: int, scans: int):
    t0 = time.perf_counter()
    files = write_inputs(directory, size, seed)
    gen_s = time.perf_counter() - t0
    # one expectation for the full input; with two scans, also for the
    # first half that the committed run reads
    subsets = [files] if scans == 1 else [files, files[: len(files) // 2]]
    expected = [oracle.expected_from_files(f, SOURCES, VOCAB) for f in subsets]
    return files, gen_s, expected


def prepare(directory: str, size: Size, seed: int, scans: int = 1):
    """(files, generation seconds, [Expected]) from a child process."""
    out = directory.rstrip("/") + ".expected.pkl"
    args = [directory, json.dumps(asdict(size)), str(seed), str(scans), out]
    subprocess.run([sys.executable, "-m", "perfbench.inputs", *args], check=True)
    with open(out, "rb") as f:
        return pickle.load(f)


if __name__ == "__main__":
    directory, size, seed, scans, out = sys.argv[1:]
    result = _prepare(directory, Size(**json.loads(size)), int(seed), int(scans))
    with open(out, "wb") as f:
        pickle.dump(result, f)
