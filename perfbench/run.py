#!/usr/bin/env python3
"""Closed-loop benchmark of the pingpong CLI, run in one process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One client runs one job at a time through ``pingpong.cli.run(argv)``; each
job writes its report with ``--out`` and the benchmark reads it back and
judges it (``oracle.py``).  ``--trace 0`` times jobs untraced for
``--seconds`` seconds, repeating a fixed pool of seeded cycles, and prints
the end-to-end metrics; ``--trace 1`` runs a fixed list of jobs once
untraced and once under the span recorder (``tracer.py``) and prints the
per-layer metrics.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  See README.md.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads, in this process and its children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work" / str(os.getpid())  # one directory per run
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import jobs as workloads  # noqa: E402
import oracle  # noqa: E402

SETUP_PROBES = 9
CALIBRATE_EVERY_S = 0.2  # of job time between two runs of the calibration kernel
# Distinct cycles a timed run draws its jobs from, about 16 s of job time at
# the seed commit.  The timed phase runs them in order, all of them at least
# once, and starts again from the first until the jobs have run --seconds.
# So a run judges the same inputs whatever the machine's speed, and its
# attempted and failed counts repeat exactly for a given seed.
POOL_CYCLES = {"separate-arch": 60, "separate-q5": 150, "falsify": 32, "certify": 150}
# cycles in the fixed job list of a traced run, about 4 s of untraced work each
TRACE_CYCLES = {"separate-arch": 15, "separate-q5": 30, "falsify": 8, "certify": 40}
# a run must end within 180 s: stop starting cycles well before that
WALL_LIMIT_S = 120.0
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Printed in the summary but left out of the JSON line that gates changes.
# Raw times follow the machine's speed (see calibration.py).  The tail's
# percentile moves with the job count, so it shifts when jobs get faster,
# and its value follows the costliest inputs of each seed.  fail_share is 0
# on three workloads; the line carries it as failed / attempted.
SUMMARY_ONLY = {"import_s", "jobs_per_s", "job_p50_ms", "job_tail_ms", "fail_share"}
# import time, then the calibration kernel, in one fresh interpreter
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import pingpong.cli
elapsed = time.perf_counter() - start
import calibration
print(elapsed, sorted(calibration.kernel_seconds() for _ in range(3))[1])
"""


def import_pingpong():
    """Import the checkout's own pingpong, never an installed copy."""
    if not (SRC / "pingpong" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'pingpong'} not found; run from a pingpong checkout")
    sys.path.insert(0, str(SRC))
    import pingpong.cli
    if Path(pingpong.cli.__file__).resolve().parent != SRC / "pingpong":
        sys.exit(f"error: imported pingpong from {pingpong.cli.__file__}, not {SRC}")
    return pingpong.cli


def environment():
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            **{var: os.environ[var] for var in THREAD_VARS}}


def import_seconds():
    """Wall time of `import pingpong.cli` in a fresh interpreter, and the
    calibration kernel's time in that interpreter just after."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=60)
    elapsed, kernel = map(float, done.stdout.split())
    return elapsed, kernel


def remove_work():
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()  # only if no other run is using it
    except OSError:
        pass


# a job run more than once keeps its worst verdict
SEVERITY = {oracle.OK: 0, oracle.KNOWN_DEFECT: 1, oracle.FAILED: 2}


class Runner:
    """Writes each job's documents, runs it, reads its report, judges it.

    Verdicts are kept per distinct job, keyed by (cycle, position in the
    cycle): a job run several times counts once in `tally`.
    """

    def __init__(self, cli, workload, seed):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.make_cycle = workloads.WORKLOADS[workload]
        self.verdicts = {}
        self.previous_report = None
        WORK.mkdir(parents=True, exist_ok=True)
        for name, doc in workloads.shared_docs(seed).items():
            self._write(name, doc)

    def _write(self, name, doc):
        path = WORK / f"{name}.json"
        if isinstance(doc, Path):
            shutil.copyfile(doc, path)
        else:
            path.write_text(json.dumps(doc))

    def cycle(self, index):
        return self.make_cycle(self.seed, index)

    def run_cycle(self, index):
        """Run every job of a cycle in order; return their wall times."""
        return [self.run(job, (index, position))
                for position, job in enumerate(self.cycle(index))]

    def prepare(self, job):
        docs = dict(job.docs)
        if job.derive is not None:
            docs.update(job.derive(self.previous_report))
        for name, doc in docs.items():
            self._write(name, doc)
        out = WORK / "report.json"
        if out.exists():
            out.unlink()
        argv = [str(WORK / f"{a[1:]}.json") if a.startswith("@") else a for a in job.argv]
        return argv + ["--out", str(out)], out

    def run(self, job, key):
        """Run one job, judged under `key`; return its wall time in seconds."""
        argv, out = self.prepare(job)
        crash = None
        start = time.perf_counter()
        try:
            code = self.cli.run(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            code, crash = None, traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - start
        report = json.loads(out.read_text()) if out.exists() else None
        self.previous_report = report
        status, why = oracle.judge(job.expect, code, report)
        previous = self.verdicts.get(key)
        if previous is None or SEVERITY[status] > SEVERITY[previous[1]]:
            self.verdicts[key] = (job.argv[0], status, why if crash is None else crash)
        return elapsed

    def tally(self):
        """Distinct jobs judged, those failed, those failed by the known
        defect, and the unexpected failures."""
        verdicts = self.verdicts.values()
        failed = sum(1 for _, status, _ in verdicts if status != oracle.OK)
        unexpected = [(kind, why) for kind, status, why in verdicts if status == oracle.FAILED]
        defects = sum(1 for _, status, _ in verdicts if status == oracle.KNOWN_DEFECT)
        return len(self.verdicts), failed, defects, unexpected


def tail(times_ms):
    """Highest percentile of PERCENTILES with at least ten samples beyond it."""
    n = len(times_ms)
    for pct in PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            cut = statistics.quantiles(times_ms, n=1000, method="inclusive")
            return pct, cut[round(pct * 10) - 1]
    return 100.0, max(times_ms)


def timed_phase(runner, seconds, started, probes, pool):
    """Whole cycles, one job at a time: cycles 1..`pool` in order, then again
    from 1, until every cycle has run once and the jobs have run `seconds`.

    The `probes` import timings and the calibration kernel are run between
    cycles, spread over the phase, so they sample the machine at the same
    moments as the jobs.  Kernel samples are kept as (jobs done, seconds).
    """
    import_seconds()  # untimed: the first import also writes bytecode caches
    times, imports, kernel = [], [], [(0, calibration.kernel_seconds())]
    since_kernel = 0.0
    cycle = 1
    while cycle <= pool or sum(times) < seconds:
        if cycle > 1 and time.monotonic() - started >= WALL_LIMIT_S:
            break
        for elapsed in runner.run_cycle((cycle - 1) % pool + 1):
            times.append(elapsed)
            since_kernel += elapsed
        cycle += 1
        if since_kernel >= CALIBRATE_EVERY_S:
            kernel.append((len(times), calibration.kernel_seconds()))
            since_kernel = 0.0
        while len(imports) < probes and sum(times) >= seconds * len(imports) / probes:
            imports.append(import_seconds())
    kernel.append((len(times), calibration.kernel_seconds()))
    while len(imports) < probes:
        imports.append(import_seconds())
    return times, imports, kernel, cycle - 1


def at_reference_speed(times, kernel, window=3):
    """Each job time rescaled by the median of the `window` kernel samples
    taken nearest to it, so a change of machine speed within the run is
    followed."""
    rescaled = []
    for index, elapsed in enumerate(times):
        nearest = sorted(kernel, key=lambda sample: abs(sample[0] - index))[:window]
        rescaled.append(elapsed * calibration.REF_S / statistics.median(k for _, k in nearest))
    return rescaled


def end_to_end(runner, seconds, started, probes, pool):
    times, imports, kernel, cycles = timed_phase(runner, seconds, started, probes, pool)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times_ms = [t * 1000.0 for t in times]
    ref_ms = [t * 1000.0 for t in at_reference_speed(times, kernel)]
    pct, tail_ms = tail(times_ms)
    attempted, failed, _, _ = runner.tally()
    metrics = {
        "import_s": (statistics.median(t for t, _ in imports), "s"),
        "jobs_per_s": (1000.0 * len(times_ms) / sum(times_ms), "1/s"),
        "job_p50_ms": (statistics.median(times_ms), "ms"),
        "job_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "fail_share": (failed / attempted, "ratio"),
        # at reference speed
        "setup_s": (statistics.median(t * calibration.REF_S / k for t, k in imports), "s"),
        "ref_jobs_per_s": (1000.0 * len(ref_ms) / sum(ref_ms), "1/s"),
        "ref_job_p50_ms": (statistics.median(ref_ms), "ms"),
    }
    notes = {"timed_jobs": len(times), "cycles": cycles, "pool_cycles": pool,
             "tail_percentile": pct, "timed_s": sum(times), "import_probes": probes, "kernel_runs": len(kernel),
             "kernel_ms": statistics.median(k for _, k in kernel) * 1000.0}
    return metrics, notes


def layer_metrics(rec, untraced_s, traced_s, trials):
    def calls(name):
        return rec.total(name)[0]

    def busy(name):
        return rec.total(name)[1]

    def self_s(name):
        return rec.total(name)[2]

    def ratio(num, den):
        return num / den if den else 0.0

    products = rec.counts["pingpong.falsifier.products"]
    return {
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "io.decode.self_s": (self_s("io.decode"), "s"),
        "io.encode.self_s": (self_s("io.encode"), "s"),
        "fields.padic_ops": (rec.counts["fields.padic_ops"], "count"),
        "fields.padic.self_s": (self_s("fields.padic"), "s"),
        "projective.canon.calls": (calls("projective.canon"), "count"),
        "projective.canon.self_s": (self_s("projective.canon"), "s"),
        "projective.dist.calls": (calls("projective.dist"), "count"),
        "projective.dist.self_s": (self_s("projective.dist"), "s"),
        "cartan.matmul.calls": (calls("cartan.matmul"), "count"),
        "cartan.matmul.self_s": (self_s("cartan.matmul"), "s"),
        "cartan.inverse.calls": (calls("cartan.inverse"), "count"),
        "cartan.inverse.self_s": (self_s("cartan.inverse"), "s"),
        "cartan.decompose.calls": (calls("cartan.decompose"), "count"),
        "cartan.decompose.hit_ratio": (
            ratio(rec.counts["cartan.decompose.hits"], calls("cartan.decompose")), "ratio"),
        "cartan.decompose.self_s": (self_s("cartan.decompose"), "s"),
        "contraction.verify.samples_per_s": (
            ratio(rec.counts["contraction.verify.samples"],
                  busy("contraction.verify")), "1/s"),
        "contraction.data.calls": (calls("contraction.data"), "count"),
        "sampling.chunks.self_s": (self_s("sampling.chunks"), "s"),
        "separation.sample.calls": (calls("separation.sample"), "count"),
        "separation.sample.self_s": (self_s("separation.sample"), "s"),
        "separation.margin.self_s": (self_s("separation.margin"), "s"),
        "separation.sample_per_trial": (ratio(calls("separation.sample"), trials), "ratio"),
        "pingpong.falsifier.self_s": (self_s("pingpong.falsifier"), "s"),
        "pingpong.falsifier.products": (products, "count"),
        "pingpong.falsifier.products_per_s": (
            ratio(products, busy("pingpong.falsifier")), "1/s"),
        "pingpong.build.self_s": (self_s("pingpong.build"), "s"),
        "pingpong.verify.self_s": (self_s("pingpong.verify"), "s"),
        "liegen.self_s": (self_s("liegen"), "s"),
        "trace.overhead": (traced_s / untraced_s, "ratio"),
    }


def traced(runner, cycles):
    """The fixed job list twice, untraced and traced in alternating order."""
    from tracer import Recorder
    rec = Recorder()
    untraced_s = traced_s = 0.0
    trials = 0
    index = 0
    for cycle in range(1, cycles + 1):
        for position, job in enumerate(runner.cycle(cycle)):
            if job.expect["kind"] == "separate":
                trials += job.expect["trials"]
            for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
                if with_trace:
                    rec.job = index
                    rec.install()
                    try:
                        traced_s += runner.run(job, (cycle, position))
                    finally:
                        rec.uninstall()
                else:
                    untraced_s += runner.run(job, (cycle, position))
            index += 1
    rec.write(OUT / f"trace-{runner.workload}-seed{runner.seed}.json")
    metrics = layer_metrics(rec, untraced_s, traced_s, trials)
    return metrics, {"traced_jobs": index, "untraced_s": untraced_s, "traced_s": traced_s}


def run_workload(cli, workload, seed, seconds, trace, probes, cycles):
    """`cycles` is the traced run's job list, or the timed run's pool."""
    started = time.monotonic()
    runner = Runner(cli, workload, seed)
    runner.run_cycle(0)  # warm-up: lazy imports, first-call costs
    if trace:
        metrics, notes = traced(runner, cycles)
    else:
        metrics, notes = end_to_end(runner, seconds, started, probes, cycles)
    attempted, failed, defects, unexpected = runner.tally()
    return {"workload": workload, "seed": seed, "trace": trace, "attempted": attempted,
            "failed": failed, "known_defect": defects, "unexpected": unexpected[:5],
            "metrics": metrics, "notes": notes}


def print_summary(result):
    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} distinct jobs judged, {result['failed']} failed "
          f"({result['known_defect']} of them the known falsifier defect)")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  {json.dumps(result['notes'])}")
    for kind, why in result["unexpected"]:
        print(f"  FAILED {kind}: {why}")


def final_line(result):
    return json.dumps({
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                    if name not in SUMMARY_ONLY},
    })


def smoke(cli):
    """Every workload, a cycle timed and a cycle traced, in a few seconds."""
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_workload(cli, workload, 1, 0.0, trace, 1, 1)
            print_summary(result)
            ok = ok and not result["unexpected"]
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the outputs")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    cli = import_pingpong()
    print("env: " + json.dumps(environment()))
    try:
        if args.smoke:
            return 0 if smoke(cli) else 1
        cycles = (TRACE_CYCLES if args.trace else POOL_CYCLES)[args.workload]
        result = run_workload(cli, args.workload, args.seed, args.seconds, args.trace,
                              SETUP_PROBES, cycles)
    finally:
        remove_work()
    print_summary(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
