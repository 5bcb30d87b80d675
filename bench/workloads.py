"""The four benchmark workloads: inputs from a seed, one CLI call per op,
and the output check of every op.

Every op goes through the public entry point ``branchsim.cli.main(argv)``
in-process.  The module attribute is looked up at call time, so a traced
run sees the wrapped ``main``.  Inputs are JSON config files written
into a work directory; the program receives nothing but those files and
the argument list.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

import branchsim.cli

WORKLOADS = ("chain_report", "chsh_record", "verify_random", "wide_evolve")

#: Tolerances of the output checks.
NORM_TOL = 1e-12
WEIGHT_TOL = 1e-9          # report values carry 12 significant digits
TSIRELSON = 2 * math.sqrt(2)
EPR_TOL = 1e-3
CLASSICAL_TOL = 1e-9


def run_cli(argv):
    """One op: ``branchsim.cli.main(argv)`` with its output captured.

    Returns (exit code, captured stdout+stderr).  An exception escaping
    ``main`` is a failed op, reported with exit code None; an argument
    error exits through SystemExit and keeps its code.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = branchsim.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - any escape fails the op
            buf.write(f"\n{type(exc).__name__}: {exc}")
            code = None
    return code, buf.getvalue()


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def exit_problem(code, text):
    if code == 0:
        return None
    tail = text.strip().splitlines()[-1:] or [""]
    return f"exit code {code}: {tail[0][:200]}"


# ---------------------------------------------------------------------------
# output checks (pure functions, so the self-test can feed them bad data)
# ---------------------------------------------------------------------------

def check_norms(report):
    for step in report["steps"]:
        if abs(step["norm"] - 1.0) > NORM_TOL:
            return f"step {step['step']}: norm {step['norm']!r}"
    return None


def check_chain_report(report_bytes, alpha2, beta2):
    """Norm at every step, final branches |alpha|^2 and |beta|^2 on the
    system bit, and one final cluster."""
    report = json.loads(report_bytes)
    problem = check_norms(report)
    if problem:
        return problem
    final = report["steps"][-1]
    weights = {item["assignment"].get("0"): item["weight"]
               for item in final["branches"]["items"]}
    if final["branches"]["count"] != 2 or set(weights) != {0, 1}:
        return f"final branches {final['branches']['items']!r}"
    if abs(weights[0] - alpha2) > WEIGHT_TOL or abs(weights[1] - beta2) > WEIGHT_TOL:
        return f"final branch weights {weights!r}, want {alpha2!r}, {beta2!r}"
    if final["clusters"]["count"] != 1:
        return f"final cluster count {final['clusters']['count']}"
    return None


def parse_chsh(text):
    for line in text.splitlines():
        if line.startswith("CHSH max "):
            return float(line.split()[2])
    return None


def check_chsh(config, value):
    """epr reaches Tsirelson's bound; collision stays classical."""
    if value is None:
        return "no CHSH value printed"
    if config == "epr" and abs(value - TSIRELSON) > EPR_TOL:
        return f"epr CHSH {value!r}, want {TSIRELSON:.6f} within {EPR_TOL}"
    if config == "collision" and value > 2.0 + CLASSICAL_TOL:
        return f"collision CHSH {value!r} exceeds 2"
    return None


def check_wide_report(report_bytes, n_terms, horizon):
    report = json.loads(report_bytes)
    if len(report["steps"]) != horizon + 1:
        return f"{len(report['steps'])} steps, want {horizon + 1}"
    for step in report["steps"]:
        if step["n_terms"] != n_terms:
            return f"step {step['step']}: {step['n_terms']} terms, want {n_terms}"
    return check_norms(report)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class ChainReport:
    """CLI ``run`` of ``single`` on a long chain with the default analyses."""

    round_len = 1

    def __init__(self, seed, workdir, n_sites=32):
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.1 * math.pi, 0.4 * math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        alpha = math.cos(theta) * complex(math.cos(phi), math.sin(phi))
        beta = math.sin(theta)
        self.alpha2 = abs(alpha) ** 2
        self.beta2 = beta * beta
        config = _write_json(os.path.join(workdir, "chain.json"), {
            "scenario": "single",
            "params": {"n_sites": n_sites, "alpha": [alpha.real, alpha.imag],
                       "beta": [beta, 0.0]},
        })
        self.out = os.path.join(workdir, "chain_out")
        self.argv_ = ["run", "--config", config, "--out", self.out]
        self._ref = None  # (bytes, problem) of the first checked op

    def argv(self, i):
        return self.argv_

    def check(self, i, code, text):
        problem = exit_problem(code, text)
        if problem:
            return problem
        report = _read_bytes(os.path.join(self.out, "report.json"))
        output = report + _read_bytes(os.path.join(self.out, "timeseries.csv"))
        if self._ref is None:
            self._ref = (output, check_chain_report(report, self.alpha2, self.beta2))
        elif output != self._ref[0]:
            return (check_chain_report(report, self.alpha2, self.beta2)
                    or "report bytes differ from the first op")
        return self._ref[1]


class ChshRecord:
    """CLI ``chsh-scan --protocol record``, alternating epr and collision."""

    round_len = 2

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        names = ["epr", "collision"]
        if rng.integers(2):
            names.reverse()
        self.configs = names
        self.argvs = [
            ["chsh-scan", "--config",
             _write_json(os.path.join(workdir, f"{name}.json"), {"scenario": name}),
             "--protocol", "record", "--sites", "2", "3", "--resolution", "2"]
            for name in names
        ]

    def argv(self, i):
        return self.argvs[i % 2]

    def check(self, i, code, text):
        return exit_problem(code, text) or check_chsh(self.configs[i % 2], parse_chsh(text))


class VerifyRandom:
    """CLI ``verify`` with 100 random sparse-vs-dense trials, reseeded per op."""

    round_len = 1

    def __init__(self, seed, workdir, extra_argv=()):
        self.seed = seed
        self.extra_argv = list(extra_argv)

    def argv(self, i):
        return ["verify", "--trials", "100", "--seed", str(self.seed + i), *self.extra_argv]

    def check(self, i, code, text):
        return exit_problem(code, text)


class WideEvolve:
    """CLI ``run`` of a brickwork circuit on a many-term 32-site state."""

    round_len = 1
    n_chain = 32
    horizon = 8

    def __init__(self, seed, workdir, n_plus=10):
        rng = np.random.default_rng(seed)
        plus_sites = set(rng.choice(self.n_chain, n_plus, replace=False).tolist())
        r = 1 / math.sqrt(2)
        product = {str(s): ([[r, 0], [r, 0]] if s in plus_sites else [[1, 0], [0, 0]])
                   for s in range(self.n_chain)}
        schedule = []
        for t in range(self.horizon):
            for a in range(t % 2, self.n_chain - 1, 2):
                gate = "U_si" if a == 0 else str(rng.choice(["U_copy", "U_swap"]))
                schedule.append({"time": t, "sites": [a, a + 1], "gate": gate})
        config = _write_json(os.path.join(workdir, "wide.json"), {
            "name": "wide_evolve",
            "lattice": [{"index": s, "kind": "system" if s == 0 else "field"}
                        for s in range(self.n_chain)],
            "initial": {"product": product},
            "schedule": schedule,
            "horizon": self.horizon,
            "analyses": [],
        })
        self.n_terms = 2 ** n_plus
        self.out = os.path.join(workdir, "wide_out")
        self.argv_ = ["run", "--config", config, "--out", self.out]

    def argv(self, i):
        return self.argv_

    def check(self, i, code, text):
        problem = exit_problem(code, text)
        if problem:
            return problem
        return check_wide_report(_read_bytes(os.path.join(self.out, "report.json")),
                                 self.n_terms, self.horizon)


def make(name, seed, workdir, **size):
    """Build a workload's inputs from its seed; `size` overrides its size
    parameter (``n_sites`` for chain_report, ``n_plus`` for wide_evolve)."""
    factories = {"chain_report": ChainReport, "chsh_record": ChshRecord,
                 "verify_random": VerifyRandom, "wide_evolve": WideEvolve}
    return factories[name](seed, workdir, **size)
