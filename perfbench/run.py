"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload learner --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and nowhere else.  The run stays in this single-threaded
process (BLAS threads are pinned to 1) apart from short set-up probes.

* set-up: ``setup_s`` is the median over fresh interpreters, half started
  before the passes and half after, that each import the package and build
  the workload's inputs (no sampling), timed from spawn to the end of input
  generation;
* passes: the workload's fixed work is repeated while another pass fits in
  ``--seconds`` (at least two).  With ``--trace 1`` untraced and traced
  passes alternate, at least one of each, and only the traced ones record
  spans;
* times: every time is a raw ``perf_counter`` interval.  ``wall_s`` is the
  mean untraced pass, and the latency percentiles are taken over the
  latencies of all untraced passes.  A fixed pure-Python loop is timed
  between passes and kept in the record as a note of the machine's speed;
  it scales nothing;
* checks: every answer is scored against ``expectation`` after the pass, and
  every pass must reproduce the first pass's answer fingerprint and counts.

The last stdout line is the result object.  A fuller record (environment,
fingerprint, counts, every pass, every metric) goes to ``perfbench/out/``.
"""

import os

# before numpy is imported: one BLAS thread, never more than the machine has
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_PROBES = 12
# latency percentiles kept in the record; the bounded metrics are p50 and p90
PERCENTILES = (10, 25, 50, 75, 90, 95, 99, 99.9)


def load_package():
    """Import adaptive_shadows from this checkout's src, or exit non-zero."""
    init = SRC / "adaptive_shadows" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no package source at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import adaptive_shadows
    if Path(adaptive_shadows.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported {adaptive_shadows.__file__}, not {init}")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    sources = sorted((SRC / "adaptive_shadows").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "source_lines": lines,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def machine_ms() -> float:
    """Milliseconds of a fixed pure-Python loop: a note of the machine's speed."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(50_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return (time.perf_counter() - start) * 1e3


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning an interpreter to its inputs being built."""
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1]) - start


def _score(ctx) -> int:
    failed = ctx.lost
    for op in ctx.ops:
        try:
            ok = math.isfinite(op.answer) and (op.check is None or op.check())
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
    return failed


def fingerprint(stream) -> str:
    """sha256 of the answer stream, each value rounded to 10 digits."""
    text = "\n".join(f"{x:.10g}" for x in stream)
    return hashlib.sha256(text.encode()).hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool, size=None,
        probes: int = SETUP_PROBES, out_dir: Path = OUT_DIR) -> dict:
    """Run one workload; returns the record (the result object is in it)."""
    import spans
    import workloads

    spec = workloads.WORKLOADS[workload]
    size = size or spec.full
    # set-up probes run before and after the passes, so that they sample more
    # than one stretch of the machine's speed
    setup_samples = [probe_setup(workload, seed)
                     for _ in range(probes - probes // 2)]
    inputs = spec.setup(seed, size)

    tracer = spans.Tracer() if trace else None
    passes = []
    machine = [machine_ms()]
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        ctx = workloads.Ctx(tracer if traced else None)
        with spans.instrument(tracer, [workloads]) if traced else nullcontext():
            if traced:
                tracer.run_id = "setup"
                spec.setup(seed, size)      # spans of set-up, outside the pass
                tracer.run_id = f"pass{len(passes)}"
            t0 = time.perf_counter()
            spec.run(inputs, size, ctx)
            t1 = time.perf_counter()
        machine.append(machine_ms())
        # score now and keep only the summary, so memory does not grow with
        # the number of passes
        lat = np.array(ctx.latencies).reshape(-1, 2)
        passes.append({"traced": traced, "span": (t0, t1), "wall_s": t1 - t0,
                       "fingerprint": fingerprint(ctx.stream),
                       "attempted": len(ctx.ops) + ctx.lost,
                       "failed": _score(ctx), "counts": ctx.counts,
                       "probes": ctx.probes,
                       "latencies_ms": (lat[:, 1] - lat[:, 0]) * 1e3})
        del ctx
        # two passes at least: more than one stretch of the machine's speed
        # in every run, and an untraced and a traced pass in a traced run
        if len(passes) < 2:
            continue
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            break
    setup_samples += [probe_setup(workload, seed) for _ in range(probes // 2)]

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    first = passes[0]
    repeatable = all(p["fingerprint"] == first["fingerprint"]
                     and p["counts"] == first["counts"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    latencies = np.concatenate([p["latencies_ms"] for p in plain])
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.mean(p["wall_s"] for p in plain),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": (attempted - failed) / attempted,
        "query_p50_ms": float(np.percentile(latencies, 50)),
        "query_p90_ms": float(np.percentile(latencies, 90)),
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": repr(size), "env": environment(),
        "fingerprint": first["fingerprint"], "counts": first["counts"],
        "query_percentiles_ms": dict(zip(
            map(str, PERCENTILES), np.percentile(latencies, PERCENTILES))),
        "passes": [{k: p[k] for k in ("traced", "wall_s", "fingerprint")}
                   for p in passes],
        "machine_ms": machine,
        "setup_samples_s": setup_samples,
        "failed_frac": failed / attempted,
        "query_samples": int(latencies.size),
        "query_passes": len(plain),
        "end_to_end": end_to_end,
    }
    correct = failed == 0 and repeatable
    metrics_out = end_to_end
    if trace:
        traced = [p for p in passes if p["traced"]]
        pass_spans = [s for s in tracer.spans if s[4] != "setup"]
        per_layer = spans.layer_metrics(tracer.spans)
        per_layer.update({k: float(v) for k, v in first["counts"].items()})
        per_layer["shadows.povm_rss_ratio"] = first["probes"].get(
            "povm_rss_ratio", 0.0)
        per_layer["trace.overhead_frac"] = (
            statistics.mean(p["wall_s"] for p in traced)
            / end_to_end["wall_s"] - 1.0)
        # share of the traced passes' time that the spans cover
        per_layer["trace.self_frac"] = (
            sum(spans.self_times(pass_spans))
            / sum(p["span"][1] - p["span"][0] for p in traced))
        record["per_layer"] = per_layer
        record["povm_sizes"] = spans.povm_sizes(tracer.spans)
        metrics_out = per_layer

    bench = benchmark_spec()
    kind = "per_layer" if trace else "end_to_end"
    record["result"] = {
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics_out.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in bench[kind]},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        tracer.write(out_dir / f"{stem}-spans.jsonl.gz")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        spec = workloads.WORKLOADS[args.workload]
        spec.setup(args.seed, spec.full)
        print(time.monotonic())
        return 0

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = {m["name"]: m["unit"] for k in ("end_to_end", "per_layer")
             for m in benchmark_spec()[k]}
    shown = dict(record["end_to_end"], **record.get("per_layer", {}))
    for name, value in shown.items():
        print(f"{name:42s} {value:14.6g} {units.get(name, '')}")
    print(f"{'failed_frac':42s} {record['failed_frac']:14.6g} ratio")
    print(f"{'fingerprint':42s} {record['fingerprint']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
