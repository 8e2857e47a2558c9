"""End-to-end benchmark of orbitflow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

One workload runs as a closed loop of identical units in this process, with
BLAS pinned to one thread: a unit starts only when the previous one has
ended.  Inputs are made from the seed before timing; outputs are checked
after it.

With ``--trace 0`` an untimed warm-up unit comes first, then a fixed number
of timed units per workload, sized to take about S seconds on a quiet host
(fewer, but at least two, if they would not end within 1.5 S).  They
alternate between the processor cores the process may use.  ``run_s`` is
the sum of per-segment minima over the timed units (see ``segments.py``),
which removes the host's short slow spells from a unit's wall time; a slow
spell that lasts through a whole run still shows.  With ``--trace 1``
untraced and traced units alternate while the next pair fits in S.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced units alternate and the per-layer metrics of
``tracer.py`` are printed, with ``trace.overhead_s``, the median traced unit
minus the median untraced one.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results and spans go to ``.perfbench/`` at the root of the checkout.
``--workload all`` runs every workload in its own process, one after the
other.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("verify_n2", "flow_n4", "thimble_n8", "geometry_n12")
SETUP_REPEATS = 5
MIN_TIMED_UNITS = 2
SLOW_HOST_SLACK = 1.5   # a timed run may overrun --seconds by this factor
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class SetupError(Exception):
    """The program cannot be imported or its inputs cannot be built."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--small", action="store_true",
                   help="reduced sizes, for the benchmark's own smoke check")
    return p.parse_args(argv)


def setup_once(args):
    """Seconds of one set-up in a fresh interpreter."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), args.workload, str(args.seed)]
    if args.small:
        cmd.append("small")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise SetupError(f"set-up failed in a fresh interpreter:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_one(wl, k):
    """One unit; an exception is returned, to be counted as failed by ``gate``."""
    try:
        return wl.unit(k)
    except Exception as exc:
        return exc


def timed_units(wl, seconds, setup_sample):
    """Warm-up unit, then ``wl.timed_units`` segment-timed units.

    The number of timed units is fixed per workload, because the sum of
    per-segment minima falls as units are added; only when the host is so
    slow that the next unit would end after ``SLOW_HOST_SLACK * seconds``
    does a run stop early, though never before ``MIN_TIMED_UNITS``.  The
    warm-up unit runs unmarked, and the peak resident memory is read right
    after it, before the segment marks take memory of their own.  The timed
    units alternate
    between the processor cores the process may use.  ``setup_sample`` is
    called after timed units spread over the run, so that the set-up
    samples, like the units, meet the host at different moments.  Returns
    the outputs in unit order, the segment clock, the warm-up time and the
    peak RSS in MB.
    """
    import segments

    start = time.perf_counter()
    outputs = [run_one(wl, 0)]
    warm_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cores = sorted(os.sched_getaffinity(0))
    spaced = wl.timed_units / (SETUP_REPEATS - 1)
    sample_after = {max(1, round(i * spaced)) for i in range(1, SETUP_REPEATS)}
    clock = segments.SegmentClock()
    clock.install()
    try:
        while True:
            k = len(outputs)
            os.sched_setaffinity(0, {cores[(k - 1) % len(cores)]})
            outputs.append(clock.time_unit(run_one, wl, k))
            if k in sample_after:
                setup_sample()
            used = time.perf_counter() - start
            if k >= wl.timed_units or (
                    k >= MIN_TIMED_UNITS
                    and used + statistics.median(clock.whole) > SLOW_HOST_SLACK * seconds):
                return outputs, clock, warm_s, peak_rss_mb
    finally:
        clock.uninstall()
        os.sched_setaffinity(0, cores)


def traced_units(wl, seconds, tracer):
    """Closed loop of alternating untraced and traced units.

    Returns the outputs in unit order and the wall times of the untraced and
    the traced units.
    """
    outputs, plain, traced = [], [], []
    cycles = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for with_trace in (False, True):
            k = len(outputs)
            undo = None
            if with_trace:
                tracer.unit = k
                undo = tracer.install()
            t0 = time.perf_counter()
            out = run_one(wl, k)
            elapsed = time.perf_counter() - t0
            if with_trace:
                tracer.uninstall(undo)
            (traced if with_trace else plain).append(elapsed)
            outputs.append(out)
        cycles.append(time.perf_counter() - cycle_start)
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            return outputs, plain, traced


def gate(wl, outputs):
    """Attempted operations and one message per failed one; never raises."""
    attempted, failures = 0, []
    for k, out in enumerate(outputs):
        attempted += wl.ops_per_unit
        if isinstance(out, Exception):
            failures += [f"unit {k}: {type(out).__name__}: {out}"] * wl.ops_per_unit
            continue
        try:
            failures += wl.check(k, out)
        except Exception as exc:
            failures += [f"unit {k}: check raised {type(exc).__name__}: {exc}"] * wl.ops_per_unit
    return attempted, failures


def run_workload(args):
    setup_samples = [setup_once(args)]
    sys.path.insert(0, SRC)
    import orbitflow

    if not os.path.abspath(orbitflow.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported orbitflow from {orbitflow.__file__}, not from {SRC}")
    import context
    import tracer as tracing
    import workloads

    ctx = context.run_context(ROOT)
    ctx["probe_before_s"] = context.host_probe()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = tracing.Tracer() if args.trace else None
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, small=args.small)
        if tracer:
            outputs, plain, traced = traced_units(wl, args.seconds, tracer)
        else:
            outputs, clock, warm_s, peak_rss_mb = timed_units(
                wl, args.seconds, lambda: setup_samples.append(setup_once(args)))
            while len(setup_samples) < SETUP_REPEATS:  # the run stopped early
                setup_samples.append(setup_once(args))
        attempted, failures = gate(wl, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ctx["probe_after_s"] = context.host_probe()

    failed = min(len(failures), attempted)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    notes = {"setup_s": f"shortest of {len(setup_samples)} fresh interpreters spread over the run"}
    if tracer:
        per_unit = [tracer.per_unit(k) for k in range(1, len(outputs), 2)]
        # counts repeat exactly across units; median_low keeps them whole numbers
        metrics = {name: ((statistics.median_low if unit == "count" else statistics.median)(
                       [u[name] for u in per_unit]), unit)
                   for name, unit in tracing.metric_names()}
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        notes["trace.overhead_s"] = f"{len(traced)} traced and {len(plain)} untraced units"
        tracer.write(os.path.join(OUT, f"spans_{tag}.csv"))
    else:
        values = {"run_s": clock.unit_seconds(), "setup_s": min(setup_samples),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        plain, traced = clock.whole, []
        how = "sum of per-segment minima" if clock.aligned else "shortest whole unit"
        notes["run_s"] = (f"{how} over {len(plain)} timed units; median whole unit "
                          f"{statistics.median(plain):.4g} s")
        notes["peak_rss_mb"] = "read after the warm-up unit"
        ctx.update(segments=clock.segment_count(), segments_aligned=clock.aligned,
                   warm_up_unit_s=warm_s)
    extras = {"fail_ratio": (failed / attempted, "ratio",
                             f"{failed} of {attempted} operations failed")}
    if "oracle_err" in wl.extras:
        extras["oracle_err"] = (wl.extras["oracle_err"], "frobenius",
                                "largest distance of a trajectory row to the exact solution")

    print("context " + json.dumps(ctx, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{args.workload} {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    for name, (value, unit, note) in extras.items():
        print(f"{args.workload} {name} = {value!r} {unit}  ({note})")
    for message in failures[:20]:
        print(f"{args.workload} FAILED {message}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, small=args.small, context=ctx,
                  extras={k: {"value": v, "unit": u} for k, (v, u, _) in extras.items()},
                  setup_samples_s=setup_samples, untraced_unit_s=plain, traced_unit_s=traced,
                  failures=failures[:20])
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process; prints each workload's lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(f"{name}: exit code {proc.returncode}\n")
            code = code or proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if code:
        return code
    with open(os.path.join(OUT, f"BENCH_all_seed{args.seed}_trace{args.trace}.json"), "w") as fh:
        json.dump(combined, fh, indent=1, sort_keys=True)
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orbitflow", "__init__.py")):
        sys.stderr.write(f"no orbitflow source under {SRC}\n")
        return 2
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except SetupError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
