"""skymine benchmark: one workload per run, one client in a closed loop.

    python3 perfbench/run.py --workload {load,query,mine,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from `src/`; all
files the run makes live in `.perfbench_work/` and are removed at exit.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
repeats the workload's first cycle untraced and traced in turn, and reports
the per-layer metrics plus the tracing overhead. The last line of stdout is
the JSON result; the lines before it are a readable report and one JSON line
of details (host, input sizes, per-command figures, digests, errors).
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3


def measure(wl, seconds: float, tally) -> tuple[dict, list]:
    """Run whole cycles until `seconds` have passed and the workload's
    minimum cycle count is met; returns the end-to-end metrics."""
    from harness import MB, execute, geomean, percentile
    results, cycle_walls, first_digest = [], [], {}
    start = time.perf_counter()
    i = 0
    while i < wl.min_cycles or time.perf_counter() - start < seconds:
        cycle_wall = 0.0
        for op in wl.cycle(i):
            r = execute(op, tally)
            results.append(r)
            cycle_wall += r.wall_s
            if first_digest.setdefault(tuple(op.argv), r.digest) != r.digest and not r.error:
                tally.fail(f"{op.kind}: stdout differs from the same command's earlier output")
        cycle_walls.append(cycle_wall)
        i += 1
    walls = [r.wall_s for r in results]
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(r)
    rates = [rs[0].nbytes / MB / percentile([r.wall_s for r in rs], 0.5)
             for rs in by_kind.values()]
    return {"cycle_s": percentile(cycle_walls, 0.5),
            "p90_ms": percentile(walls, 0.9) * 1e3,
            "MB_per_s": geomean(rates)}, results


def measure_traced(wl, seconds: float, tally) -> tuple[dict, list]:
    """Alternate untraced and traced runs of cycle 0 until `seconds` have
    passed; per-layer values are per repetition. Layers the workload never
    called read 0."""
    from harness import execute
    from spans import Tracer, layer_metrics
    tracer = Tracer()
    plain = traced = 0.0
    written = user = 0
    reps = 0
    start = time.perf_counter()
    while reps == 0 or time.perf_counter() - start < seconds:
        plain += sum(execute(op, tally).wall_s for op in wl.cycle(0))
        with tracer.installed():
            for op in wl.cycle(0):
                r = execute(op, tally)
                traced += r.wall_s
                if op.store_dir is not None:
                    written += r.written_bytes
        user += wl.user_bytes
        reps += 1
    metrics = layer_metrics(tracer.aggregate(), reps)
    metrics["store.bytes_written_per_user_byte"] = written / user if user else 0.0
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    return metrics, tracer.absent


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    from harness import Tally, execute, host_facts, percentile
    from workloads import WORKLOADS
    work = ROOT / ".perfbench_work" / name
    host = host_facts()
    wl = WORKLOADS[name](seed, host["nproc"])
    tally = Tally()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        wl.setup(work)
        setup_times.append(time.perf_counter() - t0)
    wl.prepare()
    for op in wl.warmup():
        execute(op, tally)

    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "host": host, "input": wl.input_facts(), "setup_s_each": setup_times}
    if trace:
        values, detail["absent"] = measure_traced(wl, seconds, tally)
        declared = spec["per_layer"]
    else:
        values, results = measure(wl, seconds, tally)
        values["setup_s"] = percentile(setup_times, 0.5)
        declared = spec["end_to_end"]
        stage = wl.stage_metrics(results)
        stage["failed_frac"] = (tally.failed / tally.attempted, "fraction")
        detail["stage"] = {k: {"value": v, "unit": u} for k, (v, u) in stage.items()}
        detail["samples"] = dict(Counter(r.kind for r in results))
        detail["stdout_sha256"] = [[r.kind, r.digest] for r in results]
        detail["digests"] = wl.digests()
    detail["errors"] = tally.errors
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if trace else values[m["name"]],
                           "unit": m["unit"]} for m in declared}
    return {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["load", "query", "mine", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skymine" / "__init__.py").is_file():
        print(f"error: no skymine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = ["load", "query", "mine"] if args.workload == "all" else [args.workload]
    outcomes = {}
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
            outcomes[name] = out
            detail = out.pop("detail")
            print(f"== {name} (seed {args.seed}, trace {args.trace})")
            for key, m in {**out["metrics"], **detail.get("stage", {})}.items():
                print(f"  {key:<44} {m['value']:>14.6g} {m['unit']}")
            print(json.dumps(detail))
    finally:
        shutil.rmtree(ROOT / ".perfbench_work", ignore_errors=True)

    if len(names) == 1:
        final = outcomes[names[0]]
    else:
        final = {"correct": all(o["correct"] for o in outcomes.values()),
                 "attempted": sum(o["attempted"] for o in outcomes.values()),
                 "failed": sum(o["failed"] for o in outcomes.values()),
                 "metrics": {f"{n}.{k}": v for n, o in outcomes.items()
                             for k, v in o["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
