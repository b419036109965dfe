"""The repository benchmark: one command, every workload, every metric.

Run from the root of a source tree::

    python3 perfbench/run.py --workload corpus-static --seed 1 \\
        --seconds 40 --trace 0

``BENCHMARK.json`` at the root names the workloads and the metrics with
their units; this script prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
Times are reference-speed times (see ``clock.py``).  Before the last
line, human-readable lines give the environment record and the proxies
(schedules, interpreted steps, pruned flips) beside the time they cost,
with the median wall time of a pass.  A copy of the full result, environment included, is written
to ``.perfbench-work/results/``.

The program is imported from ``src/`` of the same tree; a tree without
it is refused with exit code 2 before anything is measured.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")


def environment(args):
    """The ledger fields every result carries."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "cores": os.cpu_count(), "python": platform.python_version(),
            "git_commit": git_commit(), "source_sha256": digest.hexdigest()}


def git_commit():
    """HEAD's commit id read from ``.git`` (no subprocess, so no child
    process enters ``peak_rss_mb``); None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                commit, _, name = line.strip().partition(" ")
                if name == ref:
                    return commit
    except OSError:
        pass
    return None


def peak_rss_mb():
    """Peak RSS of this process, in MiB; the workloads start no child
    process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}/repro; run from the "
              "root of a source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = environment(args)
    print("env " + json.dumps(env), flush=True)

    import bench_corpus
    result = bench_corpus.run(args.seed, args.seconds, bool(args.trace),
                              adaptive=args.workload == "corpus-adaptive-warm")

    attempted, failed = result["attempted"], result["failed"]
    measured = dict(result["e2e"])
    measured["ok_ratio"] = (attempted - failed) / attempted
    measured["peak_rss_mb"] = peak_rss_mb()
    if args.trace:
        declared = spec["per_layer"]
        measured = result["layers"]
    else:
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}

    print("proxies " + json.dumps(result["report"]), flush=True)
    for problem in result["problems"][:20]:
        print("WRONG " + problem)
    if args.trace and metrics["other.share"]["value"] > 0.05:
        print("WARNING: other.share above 5%: part of the blocking time lies "
              "outside every measured layer")
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w") as fh:
        json.dump(dict(line, env=env, proxies=result["report"],
                       problems=result["problems"],
                       samples=result["samples"]), fh, indent=1)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
