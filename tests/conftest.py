import numpy as np
import pytest

import branchsim as bs


@pytest.fixture(scope="session")
def single_states():
    return bs.scenario_single(1 / np.sqrt(2), 1 / np.sqrt(2), 4).run()


@pytest.fixture(scope="session")
def bidirectional_states():
    return bs.scenario_bidirectional(4).run()


@pytest.fixture(scope="session")
def collision_states():
    return bs.scenario_collision(4).run()


@pytest.fixture(scope="session")
def epr_states():
    return bs.scenario_epr(4).run()


def random_state(rng: np.random.Generator, n_sites: int = 5) -> bs.PureState:
    """A generic entangled test state: random product state hit by a few
    random two-site unitaries."""
    lattice = bs.chain_lattice([0], range(1, n_sites))
    vecs = rng.normal(size=(n_sites, 2)) + 1j * rng.normal(size=(n_sites, 2))
    vecs /= np.linalg.norm(vecs, axis=1)[:, None]
    state = bs.product_state(lattice, dict(enumerate(vecs)))
    for _ in range(3):
        left = int(rng.integers(0, n_sites - 1))
        state = bs.apply_gate2(state, bs.random_gate2(rng), (left, left + 1))
    return state


def _loaded(x: float):
    """What `json.loads` reads back from the `.17g` text of `x`: an int
    when `x` is integral and below 1e17 in magnitude (`.17g` then writes
    no exponent or point, and -0.0 as ``-0``), otherwise `x` itself."""
    return int(x) if x.is_integer() and abs(x) < 1e17 else x


def terms_to_json(state: bs.PureState) -> list:
    """The "terms" list that `json.loads` reads from
    `state_to_document(state)`, built without the text, one dict per
    term: the reference for the embedded states of a report."""
    return [{"basis": "".join(map(str, bits)), "re": _loaded(amp.real), "im": _loaded(amp.imag)}
            for bits, amp in state.terms()]
