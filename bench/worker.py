"""Workload process: set up one workload, run its closed loop, print JSON.

Started by run.py in a fresh interpreter with single-threaded BLAS and
``src`` on PYTHONPATH.  One caller issues one op at a time, back to
back, on one thread.  Modes:

  setup    import branchsim, build the inputs, report the set-up time
  run      set up, one checked warm-up op, then timed ops for --seconds
  trace    run, then a fixed number of traced ops (per-layer metrics)
  scaling  traced counts of one op at two sizes (no timing)
"""

import time

T0 = time.perf_counter()  # before any heavy import: set-up starts here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy  # noqa: E402
import workloads  # noqa: E402 - imports branchsim

#: Traced ops per traced run.  Fixed (never time-based) so that counts
#: repeat exactly; two ops make one full round of every workload.
TRACED_OPS = 2

#: Second sizes of the counts-only scaling table.
SCALING = {"chain_report": ("n_sites", (16, 32)), "wide_evolve": ("n_plus", (8, 10))}


def host_ref_s():
    """Seconds taken by a fixed pure-Python loop: the host's speed right now.

    The loop builds 32-bit tuples and a dict of complex values, the same
    kind of work as the sparse engine, so it slows down with the host in
    the same way.  The host's speed drifts by tens of percent over
    minutes; an op timed between two of these loops, and divided by
    them, does not."""
    start = time.perf_counter()
    table = {}
    for i in range(6000):
        bits = tuple((i >> p) & 1 for p in range(32))
        table[bits] = table.get(bits[:16] + bits[16:], 0j) + 1j
    return time.perf_counter() - start


class Loop:
    """Runs ops of one workload and counts attempts and failed checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, i):
        wl = self.workload
        start = time.perf_counter()
        code, text = workloads.run_cli(wl.argv(i))
        elapsed = time.perf_counter() - start
        try:
            problem = wl.check(i, code, text)
        except (OSError, ValueError, LookupError, TypeError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {i}: {problem}")
        return elapsed

    def timed(self, first, seconds=0.0, count=None):
        """Ops from index `first`, each followed by a host-reference loop.

        Runs `count` ops, or else whole rounds until `seconds` have passed.
        Returns (op seconds, reference seconds around them, window
        seconds); reference k and k+1 bracket op k.
        """
        times, refs = [], [host_ref_s()]
        start = time.perf_counter()
        i = first
        while True:
            times.append(self.op(i))
            refs.append(host_ref_s())
            i += 1
            n = len(times)
            if n == count or (count is None and n % self.workload.round_len == 0
                              and time.perf_counter() - start >= seconds):
                return times, refs, time.perf_counter() - start

    def result(self):
        return {"attempted": self.attempted, "failed": self.failed, "problems": self.problems}


def costs(times, refs):
    """Each op's time in units of the reference loop timed around it."""
    return [t / (0.5 * (refs[k] + refs[k + 1])) for k, t in enumerate(times)]


def per_op_median(values, round_len):
    """Median per op, taken over whole rounds of the input mix, so that a
    mix of slow and fast inputs has a stable median."""
    rounds = [sum(values[k:k + round_len]) / round_len
              for k in range(0, len(values) - round_len + 1, round_len)]
    return statistics.median(rounds)


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_traced(workload, n_ops):
    """`n_ops` traced ops from index 0; returns (tracer, loop, op costs)."""
    from layertrace import Tracer

    tracer = Tracer()
    loop = Loop(workload)
    with tracer.installed():
        times, refs, _ = loop.timed(0, count=n_ops)
    return tracer, loop, costs(times, refs)


def scaling_table(seed, workdir):
    keys = ("analysis.reduced_density_matrix.calls", "analysis.reduced_density_matrix.terms",
            "lattice.PureState.calls", "lattice.PureState.terms",
            "gates.apply_columns.calls", "gates.apply_columns.terms_in")
    rows = []
    for name, (param, sizes) in SCALING.items():
        for size in sizes:
            tracer, loop, _ = run_traced(workloads.make(name, seed, workdir, **{param: size}), 1)
            m = tracer.layer_metrics(1)
            rows.append({"workload": name, "size": f"{param}={size}", "failed": loop.failed,
                         "counts": {k: m[k][0] for k in keys}})
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["setup", "run", "trace", "scaling"], required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="wl-", dir=args.workdir)
    try:
        if args.mode == "scaling":
            print(json.dumps({"scaling": scaling_table(args.seed, workdir)}))
            return 0
        workload = workloads.make(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T0
        out = {"setup_s": setup_s, "setup_ref": setup_s / host_ref_s()}
        if args.mode != "setup":
            loop = Loop(workload)
            loop.op(0)  # warm-up: checked, not timed
            times, refs, window = loop.timed(1, seconds=args.seconds)
            op_costs = costs(times, refs)
            out.update(op_times=times, window_s=window,
                       op_p50_s=per_op_median(times, workload.round_len),
                       ops_per_s=len(times) / window,
                       op_p50_ref=per_op_median(op_costs, workload.round_len),
                       ops_per_ref=len(op_costs) / sum(op_costs),
                       host_ref_ms=[1e3 * refs[0], 1e3 * refs[-1]],
                       peak_rss_mib=peak_rss_mib(), **loop.result())
            if args.mode == "trace":
                tracer, traced_loop, traced_costs = run_traced(workload, TRACED_OPS)
                layers = tracer.layer_metrics(TRACED_OPS)
                layers["trace.overhead_ratio"] = (
                    statistics.mean(traced_costs) / out["op_p50_ref"], "ratio")
                out["layers"] = layers
                out["attempted"] += traced_loop.attempted
                out["failed"] += traced_loop.failed
                out["problems"] += traced_loop.problems
                if args.trace_file:
                    tracer.save(args.trace_file)
        out["numpy"] = numpy.__version__
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
