"""The benchmark's workloads: inputs made from the seed, and one round of
operations against the engine's public API, each checked against
``oracle``.

flagship         one run_validation over 32 one-file partitions, no
                 out_dir: decode, the Stage A kernel and Ray scheduling.
resume_sink      a committed run over half the partitions, a resumed run
                 over all of them with Stage B forced onto the distributed
                 exchange, then the validated-rows sink, called as
                 ``cli validate --write-validated`` calls it.
many_partitions  thousands of small partitions packed into few files:
                 per-partition work (stat merge, stat vectors, the exact
                 O(n^2) LoOP fit, the report).
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow.parquet as pq

from perfbench import inputs, oracle, proc

from pynomaly_ray.config import ValidationConfig
from pynomaly_ray.pipelines.validation import (
    run_validation,
    sequence_dataset_from_dir,
    write_validated_output,
)
from pynomaly_ray.sources.datagen import SOURCES, VOCAB
from pynomaly_ray.sources.parquet import read_parquet_clean

N_NEIGHBORS, EXTENT, THRESHOLD = 10, 3, 0.5
# below any tagged stream, so the resumed run's Stage B takes the
# distributed exchange path that inputs past the driver cap take
DRIVER_CAP_BYTES = 1024
SINK_FAULT = (
    "validated rows of violating doc_ids from partitions committed by an "
    "earlier run: cli.py cmd_validate hands write_validated_output only the "
    "resumed run's violations"
)


@dataclass
class Op:
    name: str
    wall_s: float
    cpu_s: float
    problems: list = field(default_factory=list)
    fault: str | None = None


@dataclass
class Round:
    no: int
    traced: bool
    ops: list = field(default_factory=list)
    sequences: int = 0  # sequences validated by the round's scans
    validate_s: float = 0.0  # wall of the round's run_validation calls
    peak_rss_mb: float = 0.0  # driver VmHWM after the ops, before checks
    counts: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)


def validation_config(run_id: str, **kw) -> ValidationConfig:
    return ValidationConfig(
        valid_sources=list(SOURCES),
        vocab_size=VOCAB,
        n_neighbors=N_NEIGHBORS,
        extent=EXTENT,
        drift_threshold=THRESHOLD,
        run_id=run_id,
        **kw,
    )


class Workload:
    name = ""
    scans_per_round = 1
    # run the whole process tree (driver, Ray, inputs) on the nproc CPUs
    # Ray is given, not on every CPU of the affinity mask
    confine = False

    def __init__(self, work_dir: str, seed: int, size: inputs.Size, tracer=None):
        self.work_dir = work_dir
        self.input_dir = os.path.join(work_dir, "input")
        self.seed = seed
        self.size = size
        self.tracer = tracer

    def make_inputs(self) -> float:
        """Write the inputs and compute the expected outputs; returns the
        generation time."""
        self.files, gen_s, self.expected = inputs.prepare(
            self.input_dir, self.size, self.seed, self.scans_per_round
        )
        self.exp = self.expected[0]
        self.loop_cache: dict = {}
        return gen_s

    def run_round(self, no: int, traced: bool) -> Round:
        """Run the round's operations, note the driver's peak RSS, then
        check every output."""
        rnd = Round(no, traced)
        results = self.operations(rnd)
        rnd.peak_rss_mb = proc.peak_rss_mb()
        self.check(rnd, *results)
        return rnd

    def scans(self) -> list[tuple[list, frozenset]]:
        """What the round's Stage A scans decode: (files, partitions its
        resume filter drops before validating)."""
        return [(self.files, frozenset())]

    def drifted_ids(self) -> list[str]:
        return [f"{s}-{p:04d}" for s, p in inputs.DRIFTED]

    def _op(self, rnd: Round, name: str, root: str, fn):
        traced = rnd.traced and self.tracer is not None
        cpu0 = proc.cpu_snapshot()
        t0 = time.perf_counter()
        if traced:
            with self.tracer.root(root, rnd.no):
                out = fn()
        else:
            out = fn()
        wall = time.perf_counter() - t0
        rnd.ops.append(Op(name, wall, proc.cpu_delta_s(cpu0, proc.cpu_snapshot())))
        return out


class _SingleScan(Workload):
    """One run_validation over the whole input, no out_dir."""

    def operations(self, rnd: Round):
        res = self._op(
            rnd,
            "validate",
            "pipelines.run_validation",
            lambda: run_validation(
                sequence_dataset_from_dir(self.input_dir),
                validation_config(f"r{rnd.no}"),
            ),
        )
        rnd.sequences = self.exp.rows
        rnd.validate_s = rnd.ops[0].wall_s
        return (res,)

    def check(self, rnd: Round, res) -> None:
        op = rnd.ops[0]
        op.problems += oracle.diff_counters(
            oracle.violation_counter(res.violations), self.exp.violations, "violations"
        )
        if res.n_sequences != self.exp.n_valid:
            op.problems.append(f"n_sequences {res.n_sequences} != {self.exp.n_valid}")
        op.problems += oracle.check_report(
            res.report,
            self.exp,
            threshold=THRESHOLD,
            drifted=self.drifted_ids(),
            loop_params=(N_NEIGHBORS, EXTENT),
            loop_cache=self.loop_cache,
        )


class Flagship(_SingleScan):
    name = "flagship"


class ManyPartitions(_SingleScan):
    name = "many_partitions"


class ResumeSink(Workload):
    name = "resume_sink"
    scans_per_round = 2
    # three short pipelines per round whose wall is mostly hand-offs
    # between the driver, the raylet and one worker; spread over idle CPUs
    # of a shared host each hand-off waits on a CPU waking up: seq_per_s
    # spread 0.15-0.33 between runs, against 0.05-0.09 confined
    confine = True

    @property
    def half(self) -> list[str]:
        return self.files[: len(self.files) // 2]

    def scans(self):
        committed = frozenset(self.expected[1].valid_rows)
        return [(self.half, frozenset()), (self.files, committed)]

    def operations(self, rnd: Round):
        out = os.path.join(self.work_dir, f"out-{rnd.no}")
        shutil.rmtree(out, ignore_errors=True)
        res1 = self._op(
            rnd,
            "committed_run",
            "pipelines.run_validation",
            lambda: run_validation(
                read_parquet_clean(self.half, override_num_blocks=len(self.half)),
                validation_config("committed"),
                out_dir=out,
            ),
        )
        cfg2 = validation_config("resumed", driver_collect_bytes=DRIVER_CAP_BYTES)
        res2 = self._op(
            rnd,
            "resumed_run",
            "pipelines.run_validation",
            lambda: run_validation(
                sequence_dataset_from_dir(self.input_dir), cfg2, out_dir=out
            ),
        )
        dest = self._op(
            rnd,
            "sink",
            "pipelines.sink",
            lambda: write_validated_output(
                sequence_dataset_from_dir(self.input_dir),
                res2.violations_dir
                if res2.violations_dir
                else res2.violations.to_pandas(),
                out,
                cfg2.run_id,
            ),
        )
        rnd.sequences = self.exp.rows
        rnd.validate_s = rnd.ops[0].wall_s + rnd.ops[1].wall_s
        return res1, res2, dest, out

    def check(self, rnd: Round, res1, res2, dest, out) -> None:
        op1, op2, op3 = rnd.ops
        exp, exp_half = self.expected
        v1 = oracle.violation_counter(res1.violations)
        op1.problems += oracle.diff_counters(v1, exp_half.violations, "violations")
        if res1.n_sequences != exp_half.n_valid:
            op1.problems.append(f"n_sequences {res1.n_sequences} != {exp_half.n_valid}")

        if res2.violations_dir is None:
            op2.problems.append("resumed run did not take the distributed Stage B")
        else:
            op2.problems += oracle.diff_counters(
                oracle.violation_counter(pq.read_table(res2.violations_dir)),
                oracle.violation_counter(res2.violations),
                "violations_dir vs returned violations",
            )
        if res2.skipped_partitions != len(exp_half.valid_rows):
            op2.problems.append(
                f"skipped {res2.skipped_partitions} partitions, "
                f"{len(exp_half.valid_rows)} were committed"
            )
        want_new = exp.n_valid - exp_half.n_valid
        if res2.n_sequences != want_new:
            op2.problems.append(f"n_sequences {res2.n_sequences} != {want_new}")
        # resume identity: both runs' violations union to one full pass
        union = v1 + oracle.violation_counter(res2.violations)
        op2.problems += oracle.diff_counters(
            union, exp.violations, "union of both runs' violations"
        )
        op2.problems += oracle.check_report(
            res2.report, exp, threshold=THRESHOLD, drifted=self.drifted_ids(), loop_params=None
        )

        problems, leaked, rows, nbytes = oracle.check_sink(dest, exp)
        op3.problems += problems
        if leaked:
            op3.fault = f"{SINK_FAULT} ({', '.join(leaked)} rows)"
        rnd.counts = {"pipelines.sink_rows": rows, "pipelines.sink_mb": nbytes / 1e6}
        shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Flagship, ResumeSink, ManyPartitions)}
