"""Command-line interface.

Subcommands::

    branchsim run       --config CFG --out DIR  [--horizon N] [--tolerance X] [--verify]
    branchsim verify    [--tolerance X] [--trials N | --quick] [--seed N]
    branchsim chsh-scan --config CFG --sites A B [--resolution DEG]
                        [--protocol record|state] [--out DIR]
    branchsim scenario  list

Exit codes: 0 success; 1 configuration or usage error; 2 verification
failure (a check missed, or a --verify cross-check diverged); 141 stdout
was closed before the output was written (a reader such as ``head``
stopped early).
"""

import argparse
import functools
import math
import os
import sys
import time

import numpy as np

from . import __version__, analysis, oracle, verify
from .bell import record_chsh_scan
from .gates import GateError
from .lattice import LatticeError, StateError
from .reporting import _g12, build_report, json_text, write_files, write_report
from .schedule import SCENARIOS, ConfigError, ScheduleError, load_config, run_steps

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a `ConfigError`, which `main` prints as one
    ``error:`` line with exit code 1; argparse's own exit code 2 is the
    verification-failure code here.  Subcommand parsers inherit this."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every `main` call, built once per process: parsing
    reads it and changes nothing in it, and each call gets a new
    namespace filled from the defaults."""
    parser = _ArgumentParser(
        prog="branchsim",
        description="Simulate and analyse decoherence branching on a 1-D spin lattice.")
    parser.add_argument("--version", action="version", version=f"branchsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write a report")
    run.add_argument("--config", required=True, help="scenario config (JSON)")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--horizon", type=int, default=None, help="override the horizon")
    run.add_argument("--tolerance", type=float, default=analysis.BRANCH_TOL,
                     help="branch/decoherence tolerance in [0, 1) (default %(default)g)")
    run.add_argument("--verify", action="store_true",
                     help="cross-check every step against the dense reference engine")

    ver = sub.add_parser("verify", help="run the self-verification suite")
    ver.add_argument("--tolerance", type=float, default=verify.DEFAULT_TOL,
                     help="largest allowed deviation, >= 0 (default %(default)g)")
    count = ver.add_mutually_exclusive_group()
    count.add_argument("--trials", type=int, default=verify.DEFAULT_TRIALS,
                       help="random differential trials, >= 0 (default %(default)s)")
    count.add_argument("--quick", action="store_true", help="only 100 random trials")
    ver.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    # test hook: corrupt a library gate to prove the checks can fail
    ver.add_argument("--inject-fault", choices=["corrupt-gate"], default=None,
                     help=argparse.SUPPRESS)

    scan = sub.add_parser("chsh-scan", help="grid-scan CHSH over measurement settings")
    scan.add_argument("--config", required=True, help="scenario config (JSON)")
    scan.add_argument("--sites", type=int, nargs=2, required=True, metavar=("A", "B"),
                      help="the two readout sites")
    scan.add_argument("--resolution", type=float, default=1.0,
                      help=f"grid step in degrees, {analysis.MIN_RESOLUTION_DEG:g} to 90 "
                           "(default %(default)g)")
    scan.add_argument("--protocol", choices=["record", "state"], default="record",
                      help="record: rotate the system qubits before the run and read "
                           "the record bits; state: rotated readout of the final state")
    scan.add_argument("--out", default=None, help="directory for grid CSV and summary")

    scn = sub.add_parser("scenario", help="inspect built-in scenarios")
    scn.add_argument("action", choices=["list"])
    return parser


def _require(ok: bool, message: str):
    """Raise `ConfigError` unless `ok`.  Callers pass an inclusive range
    test, which NaN fails like any other value outside the range."""
    if not ok:
        raise ConfigError(message)


def _require_directory(path: str):
    """Refuse an ``--out`` that cannot become a directory, because it or
    its nearest existing parent is something else, before any work."""
    _require(path != "", "--out must not be empty")
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    _require(os.path.isdir(probe), f"--out {path}: {probe} is not a directory")


def _cmd_run(args) -> int:
    _require(0.0 <= args.tolerance < 1.0,
             f"--tolerance must be in [0, 1), got {args.tolerance}")
    _require_directory(args.out)
    config = load_config(args.config)
    if args.verify:
        _require(config.lattice.n_sites <= oracle.MAX_DENSE_SITES,
                 f"--verify needs at most {oracle.MAX_DENSE_SITES} sites, "
                 f"got {config.lattice.n_sites}")
    horizon = config.horizon if args.horizon is None else args.horizon
    started = time.perf_counter()
    states = run_steps(config.initial, config.schedule, horizon)

    if args.verify:
        states = list(states)
        worst = verify.dense_deviation(config, states)
        if not worst <= verify.DEFAULT_TOL:
            print(f"verification FAILED: engines deviate by {worst:.3g}", file=sys.stderr)
            return EXIT_VERIFY
        print(f"verified against dense engine (worst deviation {worst:.3g})")

    report = build_report(config, states, args.tolerance, horizon)
    written = write_report(report, args.out)
    elapsed = time.perf_counter() - started
    n_branches = report.final.n_branches
    print(f"scenario {config.name}: {horizon} steps, "
          f"{'?' if n_branches is None else n_branches} final branches")
    for path in written:
        print(f"wrote {path}")
    print(f"wall time {elapsed:.3f} s")
    return EXIT_OK


def _cmd_verify(args) -> int:
    _require(0.0 <= args.tolerance < math.inf,
             f"--tolerance must be finite and >= 0, got {args.tolerance}")
    _require(args.trials >= 0, f"--trials must be >= 0, got {args.trials}")
    _require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
    overrides = None
    if args.inject_fault == "corrupt-gate":
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.5  # deliberately non-unitary
        overrides = {"U_copy": bad}
    n_trials = 100 if args.quick else args.trials
    results = verify.run_verification(tol=args.tolerance, n_trials=n_trials,
                                      seed=args.seed, gate_overrides=overrides)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_chsh_scan(args) -> int:
    _require(analysis.MIN_RESOLUTION_DEG <= args.resolution <= 90.0,
             f"--resolution must be in [{analysis.MIN_RESOLUTION_DEG:g}, 90] degrees, "
             f"got {args.resolution}")
    if args.out is not None:
        _require_directory(args.out)
    config = load_config(args.config)
    site_a, site_b = args.sites
    started = time.perf_counter()
    if args.protocol == "record":
        result = record_chsh_scan(config, (site_a, site_b), args.resolution)
    else:
        for final in run_steps(config.initial, config.schedule, config.horizon):
            pass   # keep only the state at the horizon
        result = analysis.chsh_grid_max(final, site_a, site_b, args.resolution)
    elapsed = time.perf_counter() - started

    settings_deg = [math.degrees(t) for t in result.settings]
    print(f"CHSH max {result.value:.9f} (protocol {args.protocol}, "
          f"resolution {args.resolution:g} deg, sites {site_a},{site_b})")
    print("settings (deg): a={:.6g} a'={:.6g} b={:.6g} b'={:.6g}".format(*settings_deg))
    print(f"wall time {elapsed:.3f} s")

    if args.out:
        summary = {
            "protocol": args.protocol,
            "sites": [site_a, site_b],
            "resolution_deg": args.resolution,
            "value": _g12(result.value),
            "settings_rad": [_g12(t) for t in result.settings],
            "settings_deg": [_g12(t) for t in settings_deg],
        }
        degs = [f"{t:.12g}" for t in np.rad2deg(result.angles).tolist()]
        columns = "".join([f"\0,{tb},%.12g\n" for tb in degs])   # a grid row, less its angle

        def fill(summary_out, grid_out):
            summary_out(json_text(summary))
            grid_out("theta_a_deg,theta_b_deg,correlation\n")
            for ta, row in zip(degs, result.e_grid):   # a row at a time, never the whole grid
                grid_out(columns.replace("\0", ta) % tuple(row.tolist()))

        for path in write_files(args.out, ("chsh_summary.json", "chsh_grid.csv"), fill):
            print(f"wrote {path}")
    return EXIT_OK


def _cmd_scenario(args) -> int:
    if args.action == "list":
        for name, factory in sorted(SCENARIOS.items()):
            blurb = (factory.__doc__ or "").strip().splitlines()[0]
            print(f"{name:<15} {blurb}")
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {
        "run": _cmd_run,
        "verify": _cmd_verify,
        "chsh-scan": _cmd_chsh_scan,
        "scenario": _cmd_scenario,
    }
    try:
        args = _build_parser().parse_args(argv)
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; silence the exit-time flush and
        # exit as a shell reports a process killed by SIGPIPE (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, ScheduleError, GateError, LatticeError, StateError,
            analysis.AnalysisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
