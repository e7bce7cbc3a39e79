"""Run workloads over several seeds and summarise every metric.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each of the seeds 1 to 10 is one untraced ``run.py`` process per workload;
traced runs on the first three seeds give the per-layer metrics.  For every
metric the summary holds the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, (q3 - q1) / median; an end-to-end metric's spread
is printed next to its bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACED_RUNS = 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    if record["result"] != result:
        raise RuntimeError(f"{workload} seed {seed}: record and stdout differ")
    return record


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "spread": 0.0, "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--out", default=str(HERE / "out" / "baseline.json"))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = list(SEEDS)
    summary = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        records = []
        for seed in seeds:
            records.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: "
                  + json.dumps(records[-1]["result"]), flush=True)
        entry = {
            "attempted": [r["result"]["attempted"] for r in records],
            "failed": [r["result"]["failed"] for r in records],
            "correct": [r["result"]["correct"] for r in records],
            "fingerprints": {r["seed"]: r["fingerprint"] for r in records},
            "counts": {r["seed"]: r["counts"] for r in records},
            "passes": [len(r["passes"]) for r in records],
            "end_to_end": {},
        }
        for name in bounds:
            stats = summarise([r["end_to_end"][name] for r in records])
            stats["bound"] = bounds[name]
            entry["end_to_end"][name] = stats
            print(f"  {name:14s} median {stats['median']:.6g} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                  f"spread {stats['spread']:.4f} (bound {bounds[name]})",
                  flush=True)
        traced = [run_once(workload, seed, seconds, 1)
                  for seed in seeds[:TRACED_RUNS]]
        entry["traced_matches"] = {
            t["seed"]: t["fingerprint"] == entry["fingerprints"][t["seed"]]
            and t["counts"] == entry["counts"][t["seed"]] for t in traced}
        entry["per_layer"] = {
            name: summarise([t["per_layer"][name] for t in traced])
            for name in (traced[0]["per_layer"] if traced else {})}
        entry["povm_sizes"] = {t["seed"]: t["povm_sizes"] for t in traced}
        if traced:
            print(f"  traced runs match untraced: {entry['traced_matches']}",
                  flush=True)
        summary["env"] = records[0]["env"]
        summary["workloads"][workload] = entry
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
