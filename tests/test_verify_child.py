"""The fixed checks run in a forked child beside the random suite.

`verify.run_verification` hands the fixed checks to `verify._beside`,
which forks a child for them while this process plays the random
trials.  The child path must give the results of the in-process path
field for field, in the same order, and the same exceptions and
warnings; it must leave no child process behind, whatever happens in
either process; and it must fork only with a second CPU and random
trials enough to repay the fork.

The tests set `os.sched_getaffinity` to the CPUs they need, so each path
runs whatever host the suite runs on.
"""

import os
import warnings

import numpy as np
import pytest

from branchsim import verify

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def forks(monkeypatch):
    """The `os.fork` calls made during a test."""
    calls, fork = [], os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def fields(results):
    return [(r.name, r.passed, r.detail) for r in results]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def non_unitary_copy():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 0.5
    return {"U_copy": bad}


@pytest.mark.parametrize("kwargs", [
    dict(seed=1, n_trials=100),
    dict(seed=7, n_trials=100),
    dict(seed=verify.DEFAULT_SEED, n_trials=100),
    dict(seed=7, n_trials=0),
    dict(seed=7, n_trials=1),
    dict(seed=7, n_trials=65),
    dict(seed=7, n_trials=65, tol=1e-15),
    dict(seed=7, n_trials=65, gate_overrides=non_unitary_copy()),
])
def test_the_child_path_gives_the_in_process_results(monkeypatch, forks, kwargs):
    """Both paths give the checks called one after another, in order."""
    tol = kwargs.get("tol", verify.DEFAULT_TOL)
    in_order = (verify.check_gate_unitarity(gate_overrides=kwargs.get("gate_overrides"))
                + verify.check_reference_sequences(tol) + verify.check_known_values(tol)
                + verify.check_scenario_differential(tol)
                + [verify.check_random_differential(kwargs["n_trials"], tol, kwargs["seed"])])
    monkeypatch.setattr(verify, "FORK_TRIALS", 1)
    cpus(monkeypatch, 1)
    alone = verify.run_verification(**kwargs)
    assert not forks
    cpus(monkeypatch, 2)
    beside = verify.run_verification(**kwargs)
    assert len(forks) == (kwargs["n_trials"] > 0)
    assert fields(alone) == fields(in_order)
    assert fields(beside) == fields(in_order)
    assert_no_child_left()


@pytest.mark.parametrize("kwargs", [
    dict(),                                           # a clean run
    dict(gate_overrides=non_unitary_copy()),          # a failing fixed check
    dict(tol=1e-16),                                  # the random suite stops early
], ids=["clean", "failing", "early stop"])
def test_no_child_is_left_after_a_run(monkeypatch, forks, kwargs):
    cpus(monkeypatch, 2)
    verify.run_verification(n_trials=3 * verify.TRIAL_BLOCK, **kwargs)
    assert forks
    assert_no_child_left()


def test_an_early_stop_draws_no_later_block_on_the_child_path(monkeypatch, forks):
    cpus(monkeypatch, 2)
    blocks, original = [], verify.random_trial_block

    def recorded(rng, n_trials):
        blocks.append(n_trials)
        return original(rng, n_trials)

    monkeypatch.setattr(verify, "random_trial_block", recorded)
    results = verify.run_verification(n_trials=3 * verify.TRIAL_BLOCK, tol=1e-16)
    assert forks and not results[-1].passed
    assert blocks == [verify.TRIAL_BLOCK]


class Planted(Exception):
    pass


@pytest.mark.parametrize("error", [Planted("in the random suite"), KeyboardInterrupt()],
                         ids=["Exception", "KeyboardInterrupt"])
def test_an_error_in_the_random_suite_kills_and_reaps_the_child(monkeypatch, forks, error):
    cpus(monkeypatch, 2)

    def raising(rng, n_trials):
        raise error

    monkeypatch.setattr(verify, "random_trial_block", raising)
    with pytest.raises(type(error)):
        verify.run_verification(n_trials=verify.TRIAL_BLOCK)
    assert forks
    assert_no_child_left()


def test_a_fixed_check_that_raises_in_the_child_raises_here(monkeypatch, forks, capfd):
    cpus(monkeypatch, 2)

    def raising(tol):
        raise Planted(f"known values at tol {tol}")

    monkeypatch.setattr(verify, "check_known_values", raising)
    with pytest.raises(Planted, match=r"known values at tol 1e-10"):
        verify.run_verification(n_trials=verify.TRIAL_BLOCK)
    assert forks
    assert_no_child_left()
    assert capfd.readouterr() == ("", "")         # the child printed no traceback


def test_a_fixed_check_error_comes_before_a_random_suite_error(monkeypatch, forks):
    """Called in order, the fixed checks' error would stop the run before
    the random suite; so it is the one raised when both raise."""
    cpus(monkeypatch, 2)

    def fixed_error(tol):
        raise Planted("fixed")

    def random_error(rng, n_trials):
        raise ValueError("random")

    monkeypatch.setattr(verify, "check_known_values", fixed_error)
    monkeypatch.setattr(verify, "random_trial_block", random_error)
    with pytest.raises(Planted, match="fixed"):
        verify.run_verification(n_trials=verify.TRIAL_BLOCK)
    assert forks
    assert_no_child_left()


def test_a_warning_in_the_child_is_shown_once_here(monkeypatch, forks, capfd):
    cpus(monkeypatch, 2)
    original = verify.check_known_values

    def warning(tol):
        warnings.warn("planted", UserWarning)
        return original(tol)

    monkeypatch.setattr(verify, "check_known_values", warning)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        results = verify.run_verification(n_trials=verify.TRIAL_BLOCK)
    assert forks
    assert [str(w.message) for w in shown] == ["planted"]
    assert all(r.passed for r in results)
    assert_no_child_left()
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("n_cpus, n_trials", [
    (1, verify.TRIAL_BLOCK),
    (2, 0),
    (2, verify.FORK_TRIALS - 1),
])
def test_no_fork_without_a_second_cpu_or_trials_to_repay_it(monkeypatch, n_cpus, n_trials):
    cpus(monkeypatch, n_cpus)

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    results = verify.run_verification(n_trials=n_trials)
    assert all(r.passed for r in results)
