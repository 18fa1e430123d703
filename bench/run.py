"""Benchmark of sandgait: one workload per process, fixed work per run.

    python3 bench/run.py --workload study --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The run builds the workload's inputs from the seed,
warms up with one untimed operation, times every operation of the
workload one after another (a closed loop with a single caller), then
checks every output.  The amount of work is fixed by the workload, never
by the clock; ``--seconds`` is the nominal length the work was sized for.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run is traced and the metrics are
the per-layer ones, and the spans go to ``.bench_out/``.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("study", "long_trial", "simulate")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _run_ops(ops, tracer):
    """Time every operation back to back; returns (outputs, seconds,
    phase seconds).  An operation that raises has the exception as output."""
    outputs, took = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        tracer.request = ("op", i)
        t = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation, reported below
            out = exc
        took.append(time.perf_counter() - t)
        if tracer.active and op.bundle is not None and op.bundle.is_dir():
            tracer.add("pipeline.bundle_bytes",
                       sum(f.stat().st_size for f in op.bundle.iterdir()))
        outputs.append(out)
    tracer.request = None
    return outputs, took, time.perf_counter() - start


def _check(ops, outputs):
    """(failed operations, unexpected failures).  An operation fails when
    it raised or a check rejected its output; the failure is expected only
    when every rejection comes from the check of a known program fault."""
    failed, unexpected = 0, []
    for i, (op, out) in enumerate(zip(ops, outputs)):
        if isinstance(out, Exception):
            errors = [f"raised {type(out).__name__}: {out}"]
        else:
            try:
                errors = op.check(out)
            except Exception as exc:  # output too broken to check
                errors = [f"check raised {type(exc).__name__}: {exc}"]
        if not errors:
            continue
        failed += 1
        known = op.fault is not None and all(e.startswith(op.fault) for e in errors)
        _log(f"op {i}: {'known fault' if known else 'FAILED'}: "
             + "; ".join(errors))
        if not known:
            unexpected.extend(errors)
    return failed, unexpected


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sandgait" / "__init__.py").is_file():
        _log(f"run.py: no sandgait source at {SRC}; run from a source checkout")
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import numpy as np

    import tracing
    import workloads

    tracer = tracing.Tracer()
    if args.trace:
        import sandgait
        tracer.install({name: getattr(sandgait, name) for name in
                        ("ingest", "pipeline", "kinematics", "gaitseg",
                         "forces", "dynamics", "metrics", "synth")}
                       | {"cli": workloads.cli})

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rng = np.random.default_rng(args.seed)
        ops, warmup = workloads.SETUP[args.workload](rng, work, tracer)
        warmup()
        setup_s = time.perf_counter() - T0
        outputs, took, phase_s = _run_ops(ops, tracer)
        failed, unexpected = _check(ops, outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    trial_ms = 1e3 * statistics.median(t for op, t in zip(ops, took) if op.trial)
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "trial_ms_p50": {"value": trial_ms, "unit": "ms"},
        "frames_per_s": {"value": sum(op.frames for op in ops) / phase_s,
                         "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "unit": "MB"},
    }
    _log(f"{args.workload} seed {args.seed}: "
         + ", ".join(f"{k} {v['value']:.4g}" for k, v in end_to_end.items())
         + f", {len(ops)} ops in {phase_s:.1f} s, {failed} failed; op ms: "
         + " ".join(f"{1e3 * t:.0f}" for t in took))
    if args.trace:
        tracer.uninstall()
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "end_to_end_traced": end_to_end})
        metrics = tracer.metrics()
    else:
        metrics = end_to_end
    print(json.dumps({"correct": not unexpected, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
