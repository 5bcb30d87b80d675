"""Outside-in tracing of branchsim's public functions.

`Tracer.installed()` replaces each function in `TARGETS` by a wrapper
that records one span (name, start, end, parent) per call, in every
``branchsim`` namespace that binds the function, so calls through
re-exports and ``from x import f`` aliases are traced too.  Spans are
kept in flat in-memory arrays and written once, by `save`.  Work counts
are taken at the same boundaries.

Everything runs on one thread, so no layer ever waits on another; the
trace has no wait metric for that reason.
"""

import array
import contextlib
import functools
import os
import sys
import time

import numpy as np

import branchsim.cli  # noqa: F401 - loads every module that binds a target

#: Layer (module) -> traced public functions.  ``PureState`` stands for
#: its ``__post_init__``, which validates every term of every new state.
TARGETS = {
    "lattice": ("PureState", "state_to_document", "product_state"),
    "gates": ("apply_gate1", "apply_gate2", "apply_columns", "column_action"),
    "schedule": ("run_schedule", "load_config"),
    "analysis": ("reduced_density_matrix", "entropy_of", "mutual_information",
                 "branch_decompose", "extended_branch_clusters", "is_decohered",
                 "purity", "coherence", "correlation", "max_chsh_from_grid",
                 "chsh_grid_max"),
    "bell": ("record_chsh_scan",),
    "reporting": ("build_report", "write_report"),
    "oracle": ("densify", "dense_apply", "dense_rdm", "dense_entropy",
               "dense_branch_weights", "dense_overlap", "dense_run"),
    "verify": ("random_differential_trial", "compare_states", "run_verification"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns)

#: Work counts, summed over traced calls.
COUNTS = ("lattice.PureState.terms", "gates.apply_columns.terms_in",
          "gates.apply_columns.terms_out", "analysis.reduced_density_matrix.terms",
          "bell.grid_points", "schedule.steps", "reporting.bytes_written")


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "branchsim" or name.startswith("branchsim."))]


class Tracer:
    def __init__(self):
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.errors = 0
        self.counts = dict.fromkeys(COUNTS, 0)
        self.rdm_states = {}  # id -> state; holding the state keeps ids unique

    # -- recording ---------------------------------------------------------

    def _wrap(self, nid, fn, after=None):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _hooks(self):
        c = self.counts

        def state(args, _):
            c["lattice.PureState.terms"] += len(args[0].amplitudes)

        def columns(args, result):
            c["gates.apply_columns.terms_in"] += len(args[0])
            c["gates.apply_columns.terms_out"] += len(result)

        def rdm(args, _):
            c["analysis.reduced_density_matrix.terms"] += args[0].n_terms
            self.rdm_states[id(args[0])] = args[0]

        def scan(_, result):
            c["bell.grid_points"] += int(result.e_grid.size)

        def steps(_, result):
            c["schedule.steps"] += len(result) - 1

        def written(_, paths):
            c["reporting.bytes_written"] += sum(os.path.getsize(p) for p in paths)

        return {"lattice.PureState": state, "gates.apply_columns": columns,
                "analysis.reduced_density_matrix": rdm, "bell.record_chsh_scan": scan,
                "schedule.run_schedule": steps, "reporting.write_report": written}

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every target; restore them on exit."""
        hooks = self._hooks()
        modules = _package_modules()
        patches = []  # (owner, attribute, original)
        originals = set()
        try:
            for nid, name in enumerate(SPAN_NAMES):
                layer, fn_name = name.split(".")
                module = sys.modules[f"branchsim.{layer}"]
                if fn_name == "PureState":
                    cls = module.PureState
                    original = cls.__dict__["__post_init__"]
                    patches.append((cls, "__post_init__", original))
                    setattr(cls, "__post_init__", self._wrap(nid, original, hooks.get(name)))
                    continue
                original = getattr(module, fn_name)
                originals.add(id(original))
                wrapper = self._wrap(nid, original, hooks.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            patches.append((m, attr, original))
                            setattr(m, attr, wrapper)
            leaks = [f"{m.__name__}.{attr}" for m in modules
                     for attr, value in vars(m).items() if id(value) in originals]
            if leaks:
                raise RuntimeError(f"untraced bindings remain: {leaks}")
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, n_ops):
        """Per-op calls, self seconds and work counts, plus waste ratios."""
        ids = np.array(self.name_id, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(SPAN_NAMES)
        calls = np.bincount(ids, minlength=k)
        self_s = np.bincount(ids, weights=dur - child, minlength=k)

        metrics = {}
        for nid, name in enumerate(SPAN_NAMES):
            metrics[f"{name}.calls"] = (calls[nid] / n_ops, "count")
            metrics[f"{name}.self_s"] = (self_s[nid] / n_ops, "s")
        for name, total in self.counts.items():
            metrics[name] = (total / n_ops, "bytes" if name.endswith("bytes_written") else "count")
        n_apply = calls[SPAN_NAMES.index("gates.apply_columns")]
        n_action = calls[SPAN_NAMES.index("gates.column_action")]
        n_rdm = calls[SPAN_NAMES.index("analysis.reduced_density_matrix")]
        metrics["gates.column_action.per_apply"] = (
            n_action / n_apply if n_apply else 0.0, "ratio")
        metrics["analysis.rdm_per_state"] = (
            n_rdm / len(self.rdm_states) if self.rdm_states else 0.0, "ratio")
        metrics["trace.errors"] = (self.errors, "count")
        return {name: (float(v), unit) for name, (v, unit) in metrics.items()}

    def save(self, path):
        """Write every span once: name table, name ids, parents, start, end."""
        np.savez(path, names=np.array(SPAN_NAMES),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end))
