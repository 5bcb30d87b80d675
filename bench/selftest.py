#!/usr/bin/env python3
"""Self-test of the benchmark: every output check can fail, failures are
counted, and the trace covers every binding and repeats its counts.

    python3 bench/selftest.py

Exits 0 when every case behaves, 1 otherwise.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import branchsim  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402
from worker import Loop, run_traced  # noqa: E402

failures = []


def expect(label, problem, should_fail):
    ok = bool(problem) == should_fail
    print(f"{'ok  ' if ok else 'FAIL'}  {label}: {problem or 'passes'}")
    if not ok:
        failures.append(label)


def chsh_cases():
    expect("epr at Tsirelson", workloads.check_chsh("epr", workloads.TSIRELSON), False)
    expect("collision at 2", workloads.check_chsh("collision", 2.0), False)
    expect("wrong epr CHSH", workloads.check_chsh("epr", 2.5), True)
    expect("collision above 2", workloads.check_chsh("collision", 2.1), True)
    expect("no CHSH printed", workloads.check_chsh("epr", workloads.parse_chsh("")), True)


def chain_cases(workdir):
    wl = workloads.make("chain_report", 7, workdir, n_sites=8)
    loop = Loop(wl)
    loop.op(0)
    expect("chain op", loop.problems, False)
    with open(os.path.join(wl.out, "report.json"), "rb") as fh:
        good = fh.read()
    report = json.loads(good)
    final = report["steps"][-1]["branches"]
    final["items"].pop()
    final["count"] -= 1
    dropped = json.dumps(report).encode()
    expect("real report", workloads.check_chain_report(good, wl.alpha2, wl.beta2), False)
    expect("report with a dropped branch",
           workloads.check_chain_report(dropped, wl.alpha2, wl.beta2), True)
    expect("swapped branch weights",
           workloads.check_chain_report(good, wl.beta2, wl.alpha2), True)
    with open(os.path.join(wl.out, "report.json"), "wb") as fh:
        fh.write(dropped)
    expect("dropped branch on a later op", wl.check(1, 0, ""), True)


def wide_cases(workdir):
    wl = workloads.make("wide_evolve", 7, workdir, n_plus=4)
    loop = Loop(wl)
    loop.op(0)
    expect("wide op", loop.problems, False)
    with open(os.path.join(wl.out, "report.json"), "rb") as fh:
        good = fh.read()
    expect("wide report wants other term count",
           workloads.check_wide_report(good, 2 * wl.n_terms, wl.horizon), True)


def fault_cases(workdir):
    argv = ["--inject-fault", "corrupt-gate"]
    wl = workloads.make("verify_random", 7, workdir, extra_argv=argv)
    code, _ = workloads.run_cli(wl.argv(0))
    expect("verify --inject-fault exits 2", None if code == 2 else f"exit {code}", False)
    loop = Loop(wl)
    loop.op(0)
    loop.op(1)
    expect("injected faults are counted",
           None if (loop.attempted, loop.failed) == (2, 2) else loop.result(), False)


class _Unreadable:
    """An op whose output cannot be parsed, and one with a bad argument."""

    round_len = 1

    def argv(self, i):
        return ["scenario", "list"] if i == 0 else ["run", "--no-such-flag"]

    def check(self, i, code, text):
        return workloads.exit_problem(code, text) or json.loads("{")


def unreadable_cases():
    loop = Loop(_Unreadable())
    loop.op(0)
    loop.op(1)
    expect("unparsable output and bad arguments are failed ops",
           None if (loop.attempted, loop.failed) == (2, 2) else loop.result(), False)


def trace_cases(workdir):
    original = branchsim.gates.apply_gate2
    tracer = layertrace.Tracer()
    with tracer.installed():
        bound = [branchsim.apply_gate2, branchsim.gates.apply_gate2, branchsim.schedule.apply_gate2,
                 branchsim.bell.apply_columns, branchsim.cli.build_report]
        wrapped = all(hasattr(f, "__wrapped__") for f in bound)
    expect("every binding wrapped", None if wrapped else "a binding escaped", False)
    expect("bindings restored", None if branchsim.apply_gate2 is original
           else "still wrapped", False)

    def counts():
        wl = workloads.make("chain_report", 7, workdir, n_sites=8)
        tracer, _, _ = run_traced(wl, 2)
        return {k: v for k, (v, unit) in tracer.layer_metrics(2).items() if unit != "s"}

    first, second = counts(), counts()
    expect("traced counts repeat", None if first == second else "counts differ", False)


def main():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as workdir:
        chsh_cases()
        chain_cases(workdir)
        wide_cases(workdir)
        fault_cases(workdir)
        unreadable_cases()
        trace_cases(workdir)
    print(f"{'all cases behave' if not failures else f'{len(failures)} case(s) misbehave'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
