import copy

import numpy as np
import pytest


def _purify_with_bob_ancilla(state):
    """Purify a two-qubit state by enlarging Bob with a 4-dim ancilla.

    Returns the pure vector on A x (B x ancilla) together with the new
    Bob dimension (8); pair it with ``qcore.ideal_model().extended(4)``.
    """
    eigs, vecs = np.linalg.eigh(state.matrix)
    eigs = np.clip(eigs, 0.0, None)
    amp = np.zeros((2, 2, 4), dtype=complex)
    for k in range(4):
        amp[:, :, k] = np.sqrt(eigs[k]) * vecs[:, k].reshape(2, 2)
    vec = amp.reshape(-1)
    return vec / np.linalg.norm(vec), 8


@pytest.fixture
def purify_with_bob_ancilla():
    return _purify_with_bob_ancilla


def _altered(problem, **fields):
    """A shallow copy of a built moment problem with the given fields
    replaced, and nothing recomputed from them."""
    other = copy.copy(problem)
    vars(other).update(fields)
    return other


@pytest.fixture
def altered():
    return _altered
