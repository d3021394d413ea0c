"""Layered validation benchmark.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each run starts Ray with the CPU count
``nproc`` prints (on ``resume_sink``, after pinning itself to that many
CPUs), generates its inputs from ``--seed``, runs one untimed warm-up
round, then whole rounds of the workload's operations for ``--seconds``,
checking every output against ``oracle``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``).  ``--smoke`` runs every workload at a tiny size,
traced and untraced, with every check.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pbw")
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets at
# <temp>/session_<date>_<pid>/sockets/plasma_store (~66 bytes past <temp>)
_SOCKET_BUDGET = 107 - 66


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def _import_engine():
    """Make the checkout's ``pynomaly_ray`` importable here and in every Ray
    worker (workers inherit PYTHONPATH), whatever the launch directory."""
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    import pynomaly_ray

    where = os.path.dirname(os.path.abspath(pynomaly_ray.__file__))
    if os.path.dirname(where) != ROOT:
        raise SystemExit(f"pynomaly_ray imported from {where}, not from {ROOT}")


def _start_ray(ncpu: int):
    import ray
    from ray.data import DataContext

    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    if len(WORK) + len("/ray") <= _SOCKET_BUDGET:
        temp = os.path.join(WORK, "ray")
    else:  # checkout path too long for Ray's socket paths
        temp = tempfile.mkdtemp(prefix="pbray")
    os.makedirs(temp, exist_ok=True)
    ray.init(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 << 20,
        _temp_dir=temp,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return ray, temp


def _stop_ray(ray, temp: str) -> None:
    from perfbench import proc

    started = proc.descendants()
    ray.shutdown()
    proc.wait_gone(started)
    shutil.rmtree(temp, ignore_errors=True)


def confine(ncpu: int) -> list[int]:
    """Pin this process, and so every process it starts later, to the last
    ``ncpu`` CPUs of its affinity mask; returns them."""
    cpus = sorted(os.sched_getaffinity(0))[-ncpu:]
    os.sched_setaffinity(0, cpus)
    return cpus


def nproc() -> int:
    """The CPU count GNU ``nproc`` reports (it honours OMP_NUM_THREADS)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return len(os.sched_getaffinity(0))
    return int(out.stdout)


def _median(values):
    return statistics.median(values) if values else 0.0


def _host(args, ncpu: int, mask: list[int], cpus: list[int]) -> dict:
    import pyarrow
    import ray

    return {
        "nproc": ncpu,
        "affinity_cpus": len(mask),
        "ray_cpus": ncpu,
        "cpus_used": cpus,
        "ray_version": ray.__version__,
        "pyarrow_version": pyarrow.__version__,
        "python": platform.python_version(),
        "seed": args.seed,
    }


def layer_probe(workload) -> dict:
    """Decode and the Stage A kernels called in-process on the same input
    the round's scans decode, in the engine's 4096-row batches."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from pynomaly_ray.stages.constraints import check_sequence_batch
    from pynomaly_ray.stages.stats import partial_stats_batch
    from pynomaly_ray.stages.uniqueness import project_doc_partition
    from pynomaly_ray.stages.validate import SequenceValidator
    from perfbench.workloads import SOURCES, validation_config

    cfg = validation_config("probe")
    out = {"sources.decode_s": 0.0, "sources.input_mb": 0.0}
    batches = []
    for files, dropped in workload.scans():
        t0 = time.perf_counter()
        tables = [pq.read_table(f) for f in files]
        out["sources.decode_s"] += time.perf_counter() - t0
        out["sources.input_mb"] += sum(os.path.getsize(f) for f in files) / 1e6
        t = pa.concat_tables(tables).replace_schema_metadata(None)
        if dropped:
            keep = pc.invert(pc.is_in(t["partition_id"], pa.array(sorted(dropped))))
            t = t.filter(keep)
        batches += [t.slice(i, cfg.batch_size) for i in range(0, t.num_rows, cfg.batch_size)]
    validator = SequenceValidator(
        valid_sources=cfg.valid_sources,
        vocab_size=cfg.vocab_size,
        salt_buckets=cfg.salt_buckets,
    )
    sources = frozenset(SOURCES)
    sources_arr = pa.array(sorted(sources), pa.string())

    def timed(fn):
        t0 = time.perf_counter()
        res = [fn(b) for b in batches]
        return time.perf_counter() - t0, res

    out["stages.kernel_s"], _ = timed(validator)
    out["stages.constraints_s"], checked = timed(
        lambda b: check_sequence_batch(b, sources, cfg.vocab_size, sources_arr)
    )
    masks = iter([mask for _viol, mask in checked])
    out["stages.stats_s"], _ = timed(
        lambda b: partial_stats_batch(b, next(masks), cfg.vocab_size)
    )
    out["stages.uniqueness_s"], _ = timed(
        lambda b: project_doc_partition(b, cfg.salt_buckets)
    )
    return out


def layer_metrics(tracer, traced_rounds, untraced_rounds, probe) -> dict:
    per_round = []
    for rnd in traced_rounds:
        st = tracer.self_times(rnd.no)
        sink = tracer.outer_total(rnd.no, "pipelines.sink")
        m = {
            "pipelines.stage_a_s": st.get("pipelines.stage_a", 0.0),
            "pipelines.stage_b_s": st.get("pipelines.stage_b", 0.0),
            "pipelines.stage_c_s": st.get("pipelines.stage_c", 0.0),
            "pipelines.stage_d_s": st.get("pipelines.stage_d", 0.0),
            "functions.exchange_s": tracer.outer_total(rnd.no, "functions.exchange"),
            "loop_core.fit_s": tracer.outer_total(rnd.no, "loop_core.fit"),
            "state.manifest_s": tracer.outer_total(rnd.no, "state.manifest"),
            "pipelines.sink_s": sink,
            "pipelines.written_seq_per_s": (
                rnd.counts.get("pipelines.sink_rows", 0) / sink if sink else 0.0
            ),
        }
        for key in (
            "stages.tagged_rows",
            "stages.tagged_mb",
            "pipelines.blocks",
            "functions.exchange_mb",
            "functions.exchange_partitions",
            "loop_core.vectors",
            "pipelines.sink_rows",
            "pipelines.sink_mb",
            "state.resume_rows_decoded",
            "state.resume_rows_kept",
        ):
            m[key] = rnd.counts.get(key, 0.0)
        per_round.append(m)
    out = {k: _median([m[k] for m in per_round]) for k in per_round[0]}
    decoded = out.pop("state.resume_rows_decoded")
    kept = out.pop("state.resume_rows_kept")
    out["state.resume_rows_decoded"] = decoded
    out["state.resume_useful_ratio"] = kept / decoded if decoded else 1.0
    out.update(probe)
    out["pipelines.ray_overhead_s"] = (
        out["pipelines.stage_a_s"] - probe["sources.decode_s"] - probe["stages.kernel_s"]
    )
    out["trace.overhead_s"] = _median([r.wall_s for r in traced_rounds]) - _median(
        [r.wall_s for r in untraced_rounds]
    )
    return out


def run_workload(args, sizes, ray_started=None) -> dict:
    """One benchmark run; returns the result object printed last."""
    from perfbench.tracing import Tracer, print_self_time_table
    from perfbench.workloads import WORKLOADS

    ncpu = nproc()
    mask = cpus = sorted(os.sched_getaffinity(0))
    # confining needs a fresh Ray: its processes inherit the mask at start
    if ray_started is None and WORKLOADS[args.workload].confine:
        cpus = confine(ncpu)
    t0 = time.perf_counter()
    if ray_started is None:
        ray, temp = _start_ray(ncpu)
    else:
        ray, temp = ray_started, None
    ray_s = time.perf_counter() - t0
    tracer = Tracer() if args.trace else None
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    wl = WORKLOADS[args.workload](work, args.seed, sizes[args.workload], tracer)
    try:
        if tracer:
            tracer.start()
        gen_s = wl.make_inputs()
        warm = wl.run_round(0, traced=False)
        setup_s = ray_s + gen_s + warm.wall_s

        rounds = []
        t_start = time.perf_counter()
        while (
            not rounds
            or time.perf_counter() - t_start < args.seconds
            or (args.trace and len(rounds) < 3)
        ):
            no = len(rounds) + 1
            # pairs of untraced and traced rounds (U U T T U U ...), so
            # that a slow-fast alternation of successive calls falls
            # evenly on both kinds
            traced = bool(args.trace) and (no - 1) // 2 % 2 == 1
            if traced:
                before = dict(tracer.counts)
                tracer.install()
            try:
                rnd = wl.run_round(no, traced)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                rows = tracer.take_resume_rows()
                rnd.counts.update(
                    {k: tracer.counts[k] - before.get(k, 0.0) for k in tracer.counts}
                )
                rnd.counts["state.resume_rows_decoded"] = rows.get("decoded", 0)
                rnd.counts["state.resume_rows_kept"] = rows.get("kept", 0)
            rounds.append(rnd)
        ops = [op for r in [warm, *rounds] for op in r.ops]
        problems = [f"{op.name}: {p}" for op in ops for p in op.problems]
        timed_ops = [op for r in rounds for op in r.ops]
        failed = sum(op.fault is not None for op in timed_ops)
        untraced = [r for r in rounds if not r.traced]
        record = {
            "workload": args.workload,
            "host": _host(args, ncpu, mask, cpus),
            "seconds": args.seconds,
            "trace": args.trace,
            "rounds": len(rounds),
            "op_wall_s": {
                name: _median([op.wall_s for op in timed_ops if op.name == name])
                for name in dict.fromkeys(op.name for op in timed_ops)
            },
            "round_wall_s": [round(r.wall_s, 4) for r in rounds],
            "setup": {"ray_start_s": ray_s, "generate_s": gen_s, "warm_up_s": warm.wall_s},
            "faults": sorted({op.fault for op in timed_ops if op.fault}),
            "problems": problems[:20],
        }
        print(json.dumps({"record": record}))
        if args.trace:
            traced_rounds = [r for r in rounds if r.traced]
            values = layer_metrics(tracer, traced_rounds, untraced, layer_probe(wl))
            # the table shows the traced round with the median wall
            by_wall = sorted(traced_rounds, key=lambda r: r.wall_s)
            print_self_time_table(
                args.workload,
                tracer.self_times(by_wall[(len(by_wall) - 1) // 2].no),
                _median([r.wall_s for r in untraced]),
            )
            tracer.dump(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json"))
            units = metric_units("per_layer")
            metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        else:
            values = {
                "seq_per_s": _median([r.sequences / r.validate_s for r in rounds]),
                "cpu_s": _median([r.cpu_s for r in rounds]),
                "peak_rss_mb": warm.peak_rss_mb,
                "setup_s": setup_s,
            }
            units = metric_units("end_to_end")
            metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        return {
            "correct": not problems,
            "attempted": len(timed_ops),
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if temp is not None:
            _stop_ray(ray, temp)


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced, with every check."""
    from perfbench.inputs import SMOKE_SIZES
    from perfbench.workloads import WORKLOADS

    ray, temp = _start_ray(nproc())
    ok = True
    try:
        for name in WORKLOADS:
            for trace in (0, 1):
                args = argparse.Namespace(workload=name, seed=1, seconds=0, trace=trace)
                res = run_workload(args, SMOKE_SIZES, ray_started=ray)
                print(json.dumps({"smoke": name, "trace": trace, **res}))
                # the sink operation fails on every round (known fault)
                want_failed = res["attempted"] // 3 if name == "resume_sink" else 0
                ok &= res["correct"] and res["failed"] == want_failed
    finally:
        _stop_ray(ray, temp)
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["flagship", "resume_sink", "many_partitions"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    _import_engine()
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required unless --smoke")
    from perfbench.inputs import SIZES

    result = run_workload(args, SIZES)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
