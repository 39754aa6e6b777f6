"""smoothclap benchmark: one workload, timed end to end or traced layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wav_pipeline --seed 1 --seconds 30 --trace 0

``--trace 0`` sets up the inputs several times, then runs the workload's CLI
chain until ``--seconds`` are used and prints the medians of the end-to-end
metrics in BENCHMARK.json. ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics, the span tree of the last traced
pass, and the tracing overhead. The last stdout line is always the JSON
result; a line before it carries machine and run information. The exit code
is 1 if any correctness check failed and 2 if the checkout has no program.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Fixed before numpy loads (measure imports it): one BLAS thread, at most
# nproc, keeps runs steadier on a shared machine and is recorded with them.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

WORK_DIR = ".perfbench_work"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    checkout = Path.cwd()
    src = checkout / "src"
    if not (src / "smoothclap" / "__init__.py").is_file():
        print(f"error: no smoothclap sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # imported only now, so that smoothclap comes from this checkout
    import chains
    import measure

    wl = chains.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(chains.WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = checkout / WORK_DIR
    try:
        outcome = measure.measure(
            wl, args.seed, args.seconds, bool(args.trace), work_root / f"{wl.name}-{args.seed}-{os.getpid()}"
        )
    finally:
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    if outcome.tree:
        print(f"span tree of the last traced pass ({wl.name}, seed {args.seed}):")
        for line in outcome.tree:
            print("  " + line)
    result = measure.result_line(outcome)
    for name, metric in result["metrics"].items():
        print(f"{name:<44} {metric['value']:>16.6f} {metric['unit']:<10} (n={outcome.samples[name]})")
    for problem in outcome.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "one closed-loop caller in one process; subcommands run in order",
        **measure.machine_info(BLAS_THREADS),
        "setups": outcome.setups,
        "passes": outcome.passes,
        "samples": outcome.samples,
        "problems": outcome.problems,
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
