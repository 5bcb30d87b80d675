#!/usr/bin/env python3
"""branchsim benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 bench/run.py --workload chain_report --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one table
    python3 bench/run.py --scaling                 # counts-only scaling table

Each workload runs in a fresh interpreter (bench/worker.py) with
single-threaded BLAS, against the package source in ``src``.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run instead.  Exit code 0 on a completed run (failed checks are counted
in the result), 2 when the benchmark cannot run at all.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("chain_report", "chsh_record", "verify_random", "wide_evolve")

#: Set-up-only interpreters started before and again after the workload
#: process, so the set-up samples straddle the run's host-speed phase.
SETUP_SAMPLES = 3

#: Gated end-to-end metrics.  Op costs are in units of a fixed pure-Python
#: loop timed around every op ("ref"), which cancels the host's speed drift;
#: raw seconds per op are reported beside them, ungated.
END_TO_END_UNITS = {"setup_s": "s", "op_p50_ref": "ref", "ops_per_ref": "1/ref",
                    "peak_rss_mib": "MiB"}

#: Seconds per ref unit for `setup_s`: the reference loop's typical time on
#: the 2-core machine of the recorded baseline.  Each set-up sample is
#: divided by a reference loop timed right after it in the same process and
#: converted back to seconds at this fixed host speed; the raw seconds are
#: reported beside it, ungated.
REF_SECONDS = 0.025

CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker(mode, seed, workload=None, seconds=0.0, trace_file=None):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode, "--seed", str(seed),
           "--seconds", repr(seconds), "--workdir", str(OUT)]
    if workload:
        cmd += ["--workload", workload]
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} {workload}: no result within {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} {workload}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
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
        pass
    return "unknown"


def tail_percentile(times):
    """The highest of p99/p90 with at least ten samples beyond it, or None."""
    ordered = sorted(times)
    for q in (99, 90):
        if len(ordered) * (100 - q) / 100 >= 10:
            return q, ordered[int(len(ordered) * q / 100)]
    return None


def run_workload(name, seed, seconds, trace):
    """One run: set-up samples, then the workload process; returns
    (result line, metadata)."""
    setups = [worker("setup", seed, name) for _ in range(SETUP_SAMPLES)]
    trace_file = OUT / f"trace-{name}.npz" if trace else None
    out = worker("trace" if trace else "run", seed, name, seconds, trace_file)
    setups.append(out)
    setups += [worker("setup", seed, name) for _ in range(SETUP_SAMPLES)]
    setup_raw = [s["setup_s"] for s in setups]

    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["layers"].items()}
    else:
        values = dict(out, setup_s=REF_SECONDS * statistics.median(s["setup_ref"] for s in setups))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    result = {"correct": out["failed"] == 0 and out["attempted"] > 0,
              "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}
    meta = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": out["numpy"],
            "host_ref_ms_before": out["host_ref_ms"][0], "host_ref_ms_after": out["host_ref_ms"][1],
            "timed_ops": len(out["op_times"]), "window_s": out["window_s"],
            "op_p50_s": out["op_p50_s"], "ops_per_s": out["ops_per_s"],
            "fail_ratio": out["failed"] / out["attempted"],
            "setup_raw_s": statistics.median(setup_raw), "setup_samples_s": setup_raw,
            "problems": out["problems"]}
    tail = tail_percentile(out["op_times"])
    if tail:
        meta[f"op_p{tail[0]}_s"] = tail[1]
    if trace_file:
        meta["spans_file"] = str(trace_file.relative_to(ROOT))
    return result, meta


def describe(name, result, meta):
    parts = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()
             if not meta["trace"] or not k.endswith(".self_s")]
    return (f"{name}: " + ", ".join(parts) + f"; ops {meta['timed_ops']} timed, "
            f"op_p50_s {meta['op_p50_s']:.4g} s, ops_per_s {meta['ops_per_s']:.4g} 1/s, "
            f"setup_raw_s {meta['setup_raw_s']:.4g} s, "
            f"fail_ratio {meta['fail_ratio']:.3g} ({result['failed']}/{result['attempted']}), "
            f"host_ref_ms {meta['host_ref_ms_before']:.1f}->{meta['host_ref_ms_after']:.1f}")


def print_scaling(seed):
    rows = worker("scaling", seed)["scaling"]
    keys = list(rows[0]["counts"])
    print("| workload | size | " + " | ".join(keys) + " | failed |")
    print("|---" * (len(keys) + 3) + "|")
    for row in rows:
        cells = [row["workload"], row["size"], *(f"{row['counts'][k]:g}" for k in keys),
                 str(row["failed"])]
        print("| " + " | ".join(cells) + " |")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling", action="store_true",
                        help="print the counts-only scaling table and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "branchsim" / "__init__.py").is_file():
        print(f"error: no branchsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.scaling:
            print_scaling(args.seed)
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result, meta = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"meta": meta}))
            print(describe(name, result, meta))
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
