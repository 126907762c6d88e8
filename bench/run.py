"""Run one plasmakin benchmark workload and print its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
./src.  Whole rounds of the workload's operations run until --seconds have
passed (at least one round).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
from spans recorded around the program's entry points (see bench/README.md).
The line before it is the run record.  Both are also written to
bench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# BLAS runs single-threaded: the stages are mostly Python loops over small
# arrays, and one thread keeps the 2-core run-to-run spread low.  Set before
# numpy loads; never more than the cores this process may use.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def setup(workload, seed, work):
    """Import the program and every module its scenarios load lazily; make inputs."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import plasmakin.cli  # noqa: F401
    import plasmakin.dielectric  # noqa: F401
    import plasmakin.equilibrium  # noqa: F401
    import plasmakin.kernel  # noqa: F401
    import plasmakin.propagator  # noqa: F401
    import scipy.special  # noqa: F401  (loaded lazily by transforms)
    import workloads

    return workloads.build(workload, seed, work)


def time_setup(args):
    """Set-up time of fresh interpreters: spawn until the child reports ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = child.communicate(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {err.strip()}")
        samples.append(elapsed)
    return samples


# -- run record ----------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def git_commit():
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref).strip()
    if direct:
        return direct
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def blas_info():
    import ctypes

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = None
    for line in _read("/proc/self/maps").splitlines():
        path = line.split()[-1]
        if "openblas" in Path(path).name.lower() and ".so" in path:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = fn()
                    break
            if threads is not None:
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads if threads is not None else BLAS_THREADS}


def machine_record():
    import numpy
    import scipy

    cpu = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor())
    l3 = None
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        if _read(index / "level").strip() == "3":
            l3 = _read(index / "size").strip()
    mem = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/meminfo").splitlines()
                if ln.startswith("MemTotal")), None)
    nproc = len(os.sched_getaffinity(0))
    blas = blas_info()
    if blas["threads"] > nproc:
        raise SystemExit(f"error: BLAS threads {blas['threads']} exceed nproc {nproc}")
    return {
        "commit": git_commit(), "nproc": nproc, "cpu_model": cpu, "l3_cache": l3,
        "ram": mem, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
    }


# -- the run -------------------------------------------------------------------


def run_rounds(ops, seconds, tracer):
    from workloads import run_op

    warning_counts, outcomes, latencies, round_walls = {}, [], [], []
    csv_digest = hashlib.sha256()
    t_begin = time.perf_counter()
    rnd = 0
    while rnd == 0 or time.perf_counter() - t_begin < seconds:
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = f"{rnd}:{i}:{op.name}"
            t0 = time.perf_counter()
            outcome = run_op(op, warning_counts)
            latencies.append(time.perf_counter() - t0)
            outcomes.append((rnd, op.name, outcome, latencies[-1]))
            csv_bytes = getattr(op, "csv_bytes", None)
            if rnd == 0 and csv_bytes is not None:
                for name, body in csv_bytes():
                    csv_digest.update(f"{op.name}/{name}\n".encode() + body)
        round_walls.append(time.perf_counter() - t_round)
        rnd += 1
    return outcomes, latencies, round_walls, warning_counts, csv_digest.hexdigest()


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "plasmakin" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'plasmakin'}")
    RESULTS.mkdir(exist_ok=True)
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, work)
            print("ready", flush=True)
            return 0
        setup_samples = time_setup(args) if args.trace == 0 else []
        t0 = time.perf_counter()
        ops = setup(args.workload, args.seed, work)
        inproc_setup_s = time.perf_counter() - t0
        import numpy as np
        import spans

        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
        try:
            outcomes, latencies, walls, warning_counts, digest = run_rounds(
                ops, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rounds = len(walls)
        failed = [o for o in outcomes if o[2].failed]
        correct = not any(o[2].incorrect for o in outcomes)

        record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        twin = RESULTS / f"{args.workload}-seed{args.seed}-trace{1 - args.trace}.json"
        csv_match = None
        if twin.is_file():
            csv_match = json.loads(twin.read_text()).get("csv_sha256") == digest
            correct = correct and csv_match

        if args.trace == 0:
            metrics = {
                "setup_s": (statistics.median(setup_samples), "s"),
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ops": (len(ops), "count"),
                "run_p50_s": (float(np.percentile(latencies, 50)), "s"),
                "run_p90_s": (float(np.percentile(latencies, 90)), "s"),
            }
        else:
            layer = tracer.layer_metrics(warning_counts, rounds)
            metrics = {name: (value, spans.metric_unit(name)) for name, value in layer.items()}
            metrics["ops_failed"] = (len(failed) // rounds, "count")
            metrics["trace.wall_s"] = (statistics.median(walls), "s")
            metrics["trace.spans"] = (len(tracer.spans) // rounds, "count")
            metrics["trace.overhead_s"] = (spans.span_cost() * len(tracer.spans) / rounds, "s")
            (RESULTS / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(tracer.to_json()))

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": rounds, "machine": machine_record(),
            "setup_samples_s": setup_samples, "inprocess_setup_s": inproc_setup_s,
            "round_walls_s": walls, "latency_samples": len(latencies),
            "warnings": warning_counts, "csv_sha256": digest,
            "csv_match_other_trace_mode": csv_match,
            "operations": [
                {"round": r, "name": name, "seconds": sec, "exit_code": o.exit_code,
                 "failed": o.failed, "incorrect": o.incorrect, "reasons": o.reasons,
                 "info": o.info}
                for r, name, o, sec in outcomes
            ],
        }
        result = {
            "correct": bool(correct),
            "attempted": len(outcomes),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        record["result"] = result
        record_path.write_text(json.dumps(record, indent=1, default=float) + "\n")
        for r, name, o, _ in failed:
            print(f"failed op {r}:{name}: {'; '.join(o.reasons)}", file=sys.stderr)
        print(json.dumps(record, default=float))
        print(json.dumps(result, default=float), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
