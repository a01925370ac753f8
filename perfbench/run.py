"""evanom benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from `src/`.
Workloads are defined in `workloads.py`, and which end-to-end metric
each per-layer metric should move is in `layers.json`.

With `--trace 0` the run is untraced and the last line reports the
end-to-end metrics, each time rescaled to the reference host's speed
(see `hostspeed.py`). With `--trace 1` the workload runs twice with the
same inputs and one set-up, scoring each test stream once: untraced,
then traced from outside the package (see
`tracing.py`); the last line reports the per-layer metrics and the
tracing overhead, and the run fails its checks unless both produced
byte-identical EVCK checkpoints and score CSVs. Spans are written to
`.perfbench_out/`.

Earlier stdout lines record the environment, the workload's input
properties and a summary (failures, latency percentile, host speed,
unscaled times, digests).
Exit code 0 means a result was printed; anything else means the
benchmark could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded."""
    import ctypes
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(nproc: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def _emit(key: str, value) -> None:
    print(json.dumps({key: value}), flush=True)


def _untraced(wl, args):
    import workloads

    run = workloads.timed_pass(wl, args.seed, args.seconds, workloads.SETUPS,
                               workloads.SETUP_MIN_S)
    attempted, failed, problems = workloads.check(wl, args.seed, run)
    _emit("workload_properties", workloads.properties(run))
    n = len(run.latencies)
    _emit("summary", {
        "workload": wl.name, "seed": args.seed, "failed_frac": failed / attempted,
        "streams": n, "tail_percentile": wl.tail_percentile,
        "host_s": run.host_s,
        "host_scale": {phase: run.host_scale(phase) for phase in run.host_s},
        "raw_setup_s": run.setup_s, "raw_train_s": run.train_s,
        "raw_latencies_s": run.latencies,
        "output_sha256": run.output_digests(), "problems": problems})
    metrics = workloads.end_to_end(wl, run)
    return attempted, failed, problems, metrics


def _traced(wl, args):
    import tracing
    import workloads

    n = wl.mixed + wl.trajectory   # each test stream scored once
    plain = workloads.timed_pass(wl, args.seed, args.seconds, 1, n_streams=n)
    tracer = tracing.Tracer()
    traced = workloads.timed_pass(wl, args.seed, args.seconds, 1, n_streams=n,
                                  tracer=tracer)
    attempted, failed, problems = workloads.check(wl, args.seed, traced)
    if traced.output_digests() != plain.output_digests():
        problems.append("traced and untraced runs produced different outputs")
    props = workloads.properties(traced)
    _emit("workload_properties", props)
    _emit("summary", {
        "workload": wl.name, "seed": args.seed, "failed_frac": failed / attempted,
        "streams": n, "untraced_s": plain.wall_s, "traced_s": traced.wall_s,
        "spans": len(tracer.spans),
        "output_sha256": traced.output_digests(), "problems": problems})
    _write_spans(tracer, wl.name, args.seed)
    metrics = tracing.layer_metrics(tracer)
    det = traced.detector
    metrics.update({
        "msnet.loss_final": det.ms_curve[-1],
        "gan.loss_g_final": det.gan_curves["g"][-1],
        "representation.nonzero_row_frac": props["nonzero_row_frac"],
        "representation.unique_row_frac": props["unique_row_frac"],
        "trace.overhead_s": traced.wall_s - plain.wall_s,
    })
    return attempted, failed, problems, metrics


def _write_spans(tracer, workload: str, seed: int) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(out / f"spans-{workload}-seed{seed}.jsonl", "w") as f:
        for name, start, end, parent in tracer.spans:
            f.write(json.dumps({"name": name, "start": start - t0,
                                "end": end - t0, "parent": parent}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One single-threaded process generates the load. At evanom's matrix
    # sizes a second BLAS thread gains about 5% and makes peak RSS jump
    # between two levels 19% apart, so BLAS gets one thread; nproc is
    # recorded beside it. Set before numpy loads.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import evanom
    except ImportError as err:
        print(f"perfbench: cannot import evanom from {src}: {err}",
              file=sys.stderr)
        return 2
    if Path(evanom.__file__).resolve().parent != src / "evanom":
        print(f"perfbench: evanom imported from {evanom.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(nproc)
    _emit("environment", env)
    attempted, failed, problems, metrics = (_traced if args.trace else _untraced)(
        wl, args)
    if env["blas_threads"] not in (None, 1):
        problems.append(f"{env['blas_threads']} BLAS threads, not 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        print("perfbench: measured metrics differ from BENCHMARK.json: "
              f"{sorted({m['name'] for m in declared} ^ set(metrics))}",
              file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
