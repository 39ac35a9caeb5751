"""benloc benchmark: one command, three workloads, every output checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--workload`` is ``ingest``, ``experiment``, ``roundtrip`` or ``all``; ``all``
runs each workload in its own fresh process, one after the other.  The seed
makes the inputs; the library only receives what the set-up generates.  Each
process pins BLAS/OpenMP threads to 1 before numpy loads.

With ``--trace 0`` a run sets up three times, each time followed by a third
of ``--seconds`` of passes (at least two passes in all), and reports the
median ``setup_s``, the median ``pass_s`` and the other end-to-end metrics.
Each set-up and each pass is bracketed by the host-speed probe of
``hostspeed.py``, and ``setup_s`` and ``pass_s`` are its wall time rescaled
to the probe's reference speed, so that the shared host's drift cancels; the
raw medians are printed and recorded as ``setup_wall_s`` and ``pass_wall_s``.
With ``--trace 1`` it sets up once under the span tracer of ``tracing.py`` and
then alternates untraced and traced passes for ``--seconds``; it reports the
per-layer metrics and ``trace.overhead_frac``, and writes the spans to
``.perfbench_out/``.

Every pass's outputs are checked outside the timed region (see
``workloads.py``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print each metric with its unit and sample count, the provenance
and the checks that ran.  A full record goes to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``.  The exit code is 0 only
when every operation succeeded and passed its checks; it is 2, with no result
printed, when the checkout has no benloc source to run.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BENLOC_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here or in a child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

WORKLOAD_NAMES = ("ingest", "experiment", "roundtrip")
SETUPS = 3
MIN_PASSES = 2

# end-to-end metric -> unit; must match BENCHMARK.json (the self-check asserts
# it).  The two timings are scaled to the probe's reference host speed.
# Latency percentiles of single operations are printed and recorded but not
# bounded: on a shared 2-vCPU host their run-to-run spread at identical work
# (0.20 to 0.27 of the median) exceeds any bound the benchmark may set.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "quality": "fraction",
    "peak_rss_mb": "MB",
}


def _load_benloc():
    """Import benloc from this checkout's src/, or say why not."""
    if not os.path.isfile(os.path.join(SRC, "benloc", "__init__.py")):
        return f"no benloc source under {SRC}"
    sys.path.insert(0, SRC)
    try:
        import benloc
    except ImportError as exc:
        return f"cannot import benloc: {exc}"
    if os.path.dirname(os.path.dirname(os.path.abspath(benloc.__file__))) != SRC:
        return f"benloc imported from {benloc.__file__}, not {SRC}"
    return None


def _git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None  # a repository around the checkout, not the checkout
    return lines[1]


def _src_sha256():
    """Content hash of the library source, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "benloc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _provenance(args, workload, state):
    import numpy
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inputs": workload.describe(state),
    }


class Totals:
    """Everything measured over a run's passes."""

    def __init__(self):
        self.pass_times = []  # wall seconds
        self.pass_scaled = []  # untraced passes only, see hostspeed.scaled
        self.traced = []  # per pass: whether it ran under the tracer
        self.op_times = []
        self.quality = []
        self.info = {}
        self.attempted = 0
        self.failed = 0
        self.error = None


def _one_pass(workload, state, tracer):
    if tracer is None:
        t0 = time.perf_counter()
        result = workload.run_pass(state)
        return result, time.perf_counter() - t0
    with tracer.installed():
        t0 = time.perf_counter()
        with tracer.span("pass"):
            result = workload.run_pass(state)
        return result, time.perf_counter() - t0


def _run_passes(workload, state, seconds, log, totals, tracer=None):
    """Repeat passes until `seconds` of pass time have run here and MIN_PASSES
    in all.

    With a tracer, passes alternate between untraced, where the library runs
    unmodified, and traced, so that a drift in machine speed during the run is
    not read as tracing overhead.  Checks always run untraced.
    """
    modes = 1 if tracer is None else 2
    spent = 0.0
    before = hostspeed.probe() if tracer is None else None
    while len(totals.pass_times) < MIN_PASSES * modes or spent < seconds:
        traced = tracer is not None and len(totals.pass_times) % 2 == 1
        try:
            result, elapsed = _one_pass(workload, state,
                                        tracer if traced else None)
            if before is not None:
                after = hostspeed.probe()
                totals.pass_scaled.append(
                    hostspeed.scaled(elapsed, before, after))
                before = after
            verdict = workload.check(state, result, log)
        except Exception:  # count the whole pass as failed and stop
            totals.error = traceback.format_exc()
            print(totals.error, file=sys.stderr)
            totals.attempted += workload.ops_per_pass(state)
            totals.failed += workload.ops_per_pass(state)
            return
        spent += elapsed
        totals.pass_times.append(elapsed)
        totals.traced.append(traced)
        totals.op_times.extend(result.op_times)
        totals.quality.append(verdict.quality)
        for k, v in verdict.info.items():
            totals.info.setdefault(k, []).append(v)
        totals.attempted += verdict.attempted
        totals.failed += verdict.failed


def _timed_setup(workload, args, workdir):
    """Set up once: the state, the wall time and the scaled time."""
    before = hostspeed.probe()
    t0 = time.perf_counter()
    state = workload.setup(args.seed, args.tiny, workdir)
    wall = time.perf_counter() - t0
    return state, wall, hostspeed.scaled(wall, before, hostspeed.probe())


def _measure(workload, args, workdir, log, totals):
    """Untraced run: the end-to-end metrics.

    Each set-up is followed by its share of the passes, so that set-up times
    sample the same stretch of the run as pass times do; every set-up builds
    the same inputs, and all passes must match the first one.
    """
    setup_walls, setup_times, ref = [], [], None
    for i in range(SETUPS):
        state = None  # free the previous set-up before building anew
        state, wall, dt = _timed_setup(workload, args, workdir)
        setup_walls.append(wall)
        setup_times.append(dt)
        state.ref = ref
        due = args.seconds * (i + 1) / SETUPS - sum(totals.pass_times)
        _run_passes(workload, state, due, log, totals)
        ref = state.ref
        if totals.error is not None:
            break
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(totals.pass_scaled),
        "quality": statistics.median(totals.quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {"setup_s": len(setup_times), "pass_s": len(totals.pass_scaled),
               "quality": len(totals.quality)}
    totals.info["setup_wall_s"] = setup_walls
    totals.info["pass_wall_s"] = totals.pass_times
    return state, metrics, END_TO_END, samples, None


def _measure_traced(workload, args, workdir, log, totals):
    """One set-up under the tracer, then untraced and traced passes in turn."""
    from tracing import LAYER_METRICS, Tracer

    tracer = Tracer()
    with tracer.installed(), tracer.span("setup"):
        state = workload.setup(args.seed, args.tiny, workdir)
    _run_passes(workload, state, args.seconds, log, totals, tracer)
    untraced = [t for t, tr in zip(totals.pass_times, totals.traced) if not tr]
    units = {k: u for k, (u, _) in LAYER_METRICS.items()}
    samples = {"untraced_passes": len(untraced),
               "traced_passes": sum(totals.traced),
               "spans": len(tracer.spans)}
    return state, tracer.layer_metrics(untraced), units, samples, tracer


def run_workload(args):
    from workloads import CheckLog, WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK_DIR, f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    log, totals = CheckLog(), Totals()
    tag = f"{workload.name}-seed{args.seed}"
    try:
        measure = _measure_traced if args.trace else _measure
        state, values, units, samples, tracer = measure(
            workload, args, workdir, log, totals)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run still works there
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    info = {k: statistics.median(v) for k, v in totals.info.items()}
    if len(totals.op_times) >= 2:
        deciles = statistics.quantiles(totals.op_times, n=10, method="inclusive")
        info.update({"op_p50_ms": 1e3 * deciles[4], "op_p90_ms": 1e3 * deciles[8],
                     "op_samples": len(totals.op_times)})

    provenance = _provenance(args, workload, state)
    if tracer is not None:
        tracer.dump(os.path.join(OUT_DIR, f"{tag}-spans.json"),
                    {"provenance": provenance})
    correct = totals.failed == 0 and totals.error is None
    fail_frac = totals.failed / max(totals.attempted, 1)
    record = {
        "provenance": provenance,
        "why": workload.why,
        "op": workload.op,
        "quality": workload.quality,
        "metrics": metrics,
        "samples": samples,
        "pass_times": totals.pass_times,
        "pass_scaled": totals.pass_scaled,
        "pass_traced": totals.traced,
        "info": info,
        "checks_run": log.runs,
        "checks_failed": log.fails,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "fail_frac": fail_frac,
        "error": totals.error,
    }
    with open(os.path.join(OUT_DIR, f"{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# benloc perfbench: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# why: {workload.why}")
    print(f"# provenance: {json.dumps(provenance, sort_keys=True)}")
    print(f"# checks {workload.name}: {json.dumps(log.runs, sort_keys=True)}")
    for k, v in values.items():
        n = f"  (n={samples[k]})" if k in samples else ""
        print(f"{k:<32} {v:.6g} {units[k]}{n}")
    for k, v in info.items():
        print(f"{k:<32} {v:.6g}")
    print(f"{'fail_frac':<32} {fail_frac:.6g} fraction  "
          f"({totals.failed} of {totals.attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args):
    """Each workload in a fresh process; a combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return proc.returncode or 1  # no result from this workload
        status = status or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-check")
    args = parser.parse_args(argv)

    problem = _load_benloc()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except Exception:  # a failed set-up leaves nothing to measure
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
