"""Benchmark of record: the BT pipeline through TiMR and a live feed.

One run of one workload::

    python3 perfbench/run.py --workload bt-timr-serial --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with nothing installed and reports the end-to-end
metrics; ``--trace 1`` adds a traced pass with wrappers around each
layer's public functions and reports the per-layer metrics. The last
line of standard output is the result as JSON; the full record (every
pass, the span tree, machine and input facts) is written to
``perfbench/out/``. ``--workload all`` runs every workload both ways,
each in its own process, and prints every metric.

The program is imported from ``src/`` of the checkout the script sits
in; without it the script exits with status 2 and prints no result.
Exit status 1 means a check or path guard failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_commit(root: Path):
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src}/repro; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # the environment must not pick the executor, batch format or tracing
    # behind the benchmark's back: a number measures the program it names
    cleared = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("REPRO_")}

    result = workloads.run_workload(
        workloads.WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace)
    )
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    artifact = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "cleared_env": sorted(cleared),
        **result["artifact"],
        "result": line,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(artifact, indent=1, sort_keys=True) + "\n")

    for problem in artifact["problems"]:
        print(f"FAILED: {problem}")
    for name, metric in line["metrics"].items():
        print(f"{args.workload:16s} {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process (peak
    RSS is per process)."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "runs": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", args.out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode not in (0, 1) or not lines:
                print(f"{name} --trace {trace}: exited {proc.returncode}", file=sys.stderr)
                return proc.returncode or 2
            line = json.loads(lines[-1])
            summary["correct"] &= line["correct"]
            summary["attempted"] += line["attempted"]
            summary["failed"] += line["failed"]
            summary["runs"][f"{name}/trace{trace}"] = line["correct"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to repeat the workload (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for the full JSON record of each run")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
