"""Dense linear algebra for two-qubit certification primitives.

States, Werner-type mixtures, two-setting measurement models with
untrusted projectors, the ancilla-swap extraction channel on the
untrusted side(s) a model has, and the standard teleportation circuit.
Everything is complex float64; Hermiticity is restored by explicit
symmetrization after constructive operations, with a deviation check
before symmetrizing.

The constant objects are built and checked once per process and then
shared: the ideal Pauli devices (one model per trust setting) and the
Werner-type states (a bounded cache keyed by visibility), whose arrays
are read-only, and each model's extraction products, kept in its
``derived`` memo.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# Pre-symmetrization deviation cap for constructive operations.
HERMITICITY_TOL = 1e-10


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    """Symmetrize (M + M†)/2, rejecting deviations beyond HERMITICITY_TOL."""
    matrix = np.asarray(matrix, dtype=complex)
    adjoint = matrix.conj().T
    deviation = np.abs(matrix - adjoint).max()
    if deviation > HERMITICITY_TOL:
        raise ValueError(f"matrix deviates from Hermitian by {deviation:.3e}")
    return 0.5 * (matrix + adjoint)


@dataclass
class TwoQubitState:
    """A 4x4 density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = _hermitize(self.matrix)
        if self.matrix.shape != (4, 4):
            raise ValueError("two-qubit state must be 4x4")
        trace = self.matrix.trace().real
        if abs(trace - 1.0) > 1e-12:
            raise ValueError(f"trace {trace!r} is not 1")
        floor = np.linalg.eigvalsh(self.matrix)[0]
        if floor < -1e-10:
            raise ValueError(f"negative eigenvalue {floor:.3e}")


def bell_vector() -> np.ndarray:
    """The maximally entangled vector (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return v


def rotated_bell_vector() -> np.ndarray:
    """Bell state rotated by local unitaries so that it maximally violates
    CHSH when both parties measure sigma_Z / sigma_X."""
    c, s = np.cos(np.pi / 8.0), np.sin(np.pi / 8.0)
    return np.array([c, s, s, -c], dtype=complex) / np.sqrt(2.0)


_WERNER_PROJECTORS = {
    "bell": np.outer(bell_vector(), bell_vector().conj()),
    "rotated": np.outer(rotated_bell_vector(), rotated_bell_vector().conj()),
}
_MAXIMALLY_MIXED = np.eye(4) / 4.0


# Bounded, so a drifting source's continuum of visibilities cannot grow
# memory; a refused v raises on every call, since exceptions are not cached.
@functools.lru_cache(maxsize=64)
def _werner_mixture(target: str, v: float) -> TwoQubitState:
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility {v!r} outside [0, 1]")
    state = TwoQubitState(v * _WERNER_PROJECTORS[target] + (1.0 - v) * _MAXIMALLY_MIXED)
    state.matrix.flags.writeable = False
    return state


def werner_state(v: float) -> TwoQubitState:
    """Mixture v |bell><bell| + (1 - v) I/4 with visibility v in [0, 1],
    shared from a bounded cache and with a read-only matrix."""
    return _werner_mixture("bell", v)


def rotated_werner_state(v: float) -> TwoQubitState:
    """Werner-type mixture around the rotated Bell state (CHSH-adapted),
    shared like :func:`werner_state`."""
    return _werner_mixture("rotated", v)


def fidelity_to_pure(state: TwoQubitState, phi: np.ndarray) -> float:
    """<phi| rho |phi>, clamped to [0, 1] after an imaginary-part check."""
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    value = np.vdot(phi, state.matrix @ phi)
    if abs(value.imag) > 1e-12:
        raise ValueError(f"fidelity has imaginary part {value.imag:.3e}")
    return float(min(1.0, max(0.0, value.real)))


def product_expectation(rho: np.ndarray, op_a: np.ndarray, op_b: np.ndarray) -> complex:
    """tr((op_a x op_b) rho) for a density matrix on the op_a x op_b split,
    without forming the Kronecker product."""
    d_a, d_b = op_a.shape[0], op_b.shape[0]
    r4 = rho.reshape(d_a, d_b, d_a, d_b)
    return complex(np.einsum("ac,bd,abcd->", op_a.T, op_b.T, r4))


# ---------------------------------------------------------------------------
# Measurement models


@dataclass
class MeasurementModel:
    """Two-setting, two-outcome projective model for the untrusted side(s).

    ``bob_projectors[y][b]`` is the projector for Bob's setting y and
    outcome b; setting 0 plays the role of the Z-type measurement and
    setting 1 the X-type one (observable = 2 E_{0|y} - identity).  In the
    fully untrusted configuration Alice gets her own family
    ``alice_projectors[x][a]``.

    A model is not changed after construction, and the shared ideal
    models' read-only projector arrays enforce this: ``derived`` memoizes
    operators built from it (the extraction products, and the protocol
    simulator's per-setting expectation stacks).
    """

    bob_dim: int
    bob_projectors: np.ndarray
    alice_dim: int | None = None
    alice_projectors: np.ndarray | None = None
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.bob_projectors = np.asarray(self.bob_projectors, dtype=complex)
        _check_projector_family(self.bob_projectors, self.bob_dim)
        if (self.alice_projectors is None) != (self.alice_dim is None):
            raise ValueError("alice_dim and alice_projectors must come together")
        if self.alice_projectors is not None:
            self.alice_projectors = np.asarray(self.alice_projectors, dtype=complex)
            _check_projector_family(self.alice_projectors, self.alice_dim)

    @property
    def device_independent(self) -> bool:
        return self.alice_projectors is not None

    def bob_observable(self, setting: int) -> np.ndarray:
        return 2.0 * self.bob_projectors[setting][0] - np.eye(self.bob_dim)

    def alice_observable(self, setting: int) -> np.ndarray:
        if self.alice_projectors is None:
            raise ValueError("model has no untrusted Alice side")
        return 2.0 * self.alice_projectors[setting][0] - np.eye(self.alice_dim)

    def extended(self, aux_dim: int) -> "MeasurementModel":
        """Act trivially on an extra ancilla of dimension ``aux_dim`` on Bob."""
        eye = np.eye(aux_dim)
        proj = np.array(
            [[np.kron(self.bob_projectors[y][b], eye) for b in (0, 1)] for y in (0, 1)]
        )
        return MeasurementModel(
            self.bob_dim * aux_dim, proj, self.alice_dim, self.alice_projectors
        )


def _check_projector_family(projectors: np.ndarray, dim: int) -> None:
    if projectors.shape != (2, 2, dim, dim):
        raise ValueError(f"projector family must have shape (2, 2, {dim}, {dim})")
    eye = np.eye(dim)
    for y in (0, 1):
        total = np.zeros((dim, dim), dtype=complex)
        for b in (0, 1):
            e = projectors[y][b]
            if np.max(np.abs(e - e.conj().T)) > 1e-10:
                raise ValueError("projector is not Hermitian")
            if np.max(np.abs(e @ e - e)) > 1e-10:
                raise ValueError("projector is not idempotent")
            total += e
        if np.max(np.abs(total - eye)) > 1e-10:
            raise ValueError("projectors do not sum to identity")


def ideal_model(device_independent: bool = False) -> MeasurementModel:
    """Exact Pauli model on qubits (extend afterwards for a larger Bob):
    setting 0 measures sigma_Z, setting 1 sigma_X.  One shared model per
    trust setting, with read-only projector arrays."""
    return _ideal_model(bool(device_independent))


@functools.lru_cache(maxsize=None)
def _ideal_model(device_independent: bool) -> MeasurementModel:
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    proj = np.array(
        [
            [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)],
            [np.outer(plus, plus.conj()), np.outer(minus, minus.conj())],
        ]
    )
    proj.flags.writeable = False
    if device_independent:
        return MeasurementModel(2, proj, 2, proj)
    return MeasurementModel(2, proj)


def random_projective_model(bob_dim, rng, alice_dim=None) -> MeasurementModel:
    """Haar-random rank-r two-outcome projective model on each setting."""

    def family(dim):
        proj = np.empty((2, 2, dim, dim), dtype=complex)
        for y in (0, 1):
            u = _haar_unitary(dim, rng)
            rank = int(rng.integers(1, dim))
            d = np.zeros(dim)
            d[:rank] = 1.0
            e = u @ np.diag(d) @ u.conj().T
            proj[y][0] = _hermitize(e)
            proj[y][1] = _hermitize(np.eye(dim) - e)
        return proj

    if alice_dim is None:
        return MeasurementModel(bob_dim, family(bob_dim))
    return MeasurementModel(bob_dim, family(bob_dim), alice_dim, family(alice_dim))


def _haar_unitary(dim: int, rng) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_random_vector(dim: int, rng) -> np.ndarray:
    """Haar-random pure state via Gaussian normalization."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def partial_trace_bob(rho: np.ndarray, d_a: int, d_b: int, op_b: np.ndarray) -> np.ndarray:
    """tr_B[(1 x op_b) rho] as a d_a x d_a matrix."""
    r4 = rho.reshape(d_a, d_b, d_a, d_b)
    return np.einsum("bc,acdb->ad", op_b, r4)


def _as_density(state) -> np.ndarray:
    if isinstance(state, TwoQubitState):
        return state.matrix
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return np.outer(arr, arr.conj())
    return arr


# ---------------------------------------------------------------------------
# Ancilla-swap extraction


def _extraction_kraus(observable_z: np.ndarray, observable_x: np.ndarray) -> list[np.ndarray]:
    """Kraus pair of the swap extraction channel built from the device's
    setting-0 (Z-type) and setting-1 (X-type) observables.

    The ancilla circuit (controlled-Z, Hadamard, controlled-X on the
    device operators) reduces to K0 = E, K1 = X (1 - E) with
    E = (1 + Z)/2; for ideal Paulis it is a literal swap.
    """
    dim = observable_z.shape[0]
    e = 0.5 * (np.eye(dim) + observable_z)
    return [e, observable_x @ (np.eye(dim) - e)]


def _extraction_products(model: MeasurementModel, party: str) -> list:
    """``products[i][j] = K_j^dag K_i`` of one party's extraction Kraus
    pair, built once per model and kept in ``model.derived``."""
    key = ("extraction_products", party)
    products = model.derived.get(key)
    if products is None:
        observable = model.bob_observable if party == "bob" else model.alice_observable
        kraus = _extraction_kraus(observable(0), observable(1))
        products = model.derived[key] = [[kraus[j].conj().T @ kraus[i] for j in (0, 1)] for i in (0, 1)]
    return products


def swap_isometry_extract(state, model: MeasurementModel) -> TwoQubitState:
    """Apply the swap extraction to the untrusted side(s) of the model and
    return the two-qubit marginal on the ancilla register(s).

    A one-sided model extracts Bob only (trusted Alice remains the first
    qubit); a fully untrusted one (`MeasurementModel.device_independent`)
    extracts both parties onto fresh ancillas.
    """
    rho = _as_density(state)
    if not model.device_independent:
        d_b = model.bob_dim
        d_a = rho.shape[0] // d_b
        if d_a * d_b != rho.shape[0] or d_a != 2:
            raise ValueError("one-sided extraction expects a qubit on the trusted side")
        products = _extraction_products(model, "bob")
        out = np.zeros((4, 4), dtype=complex)
        for i in (0, 1):
            for j in (0, 1):
                # Output index is 2a + ancilla, so Alice stays the leading qubit.
                out[i::2, j::2] = partial_trace_bob(rho, d_a, d_b, products[i][j])
        return TwoQubitState(out)
    d_a, d_b = model.alice_dim, model.bob_dim
    if d_a * d_b != rho.shape[0]:
        raise ValueError("state dimension does not match the model")
    pa, pb = _extraction_products(model, "alice"), _extraction_products(model, "bob")
    out = np.empty((4, 4), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                for l in (0, 1):
                    out[2 * i + j, 2 * k + l] = product_expectation(rho, pa[i][k], pb[j][l])
    return TwoQubitState(out)


# ---------------------------------------------------------------------------
# Teleportation

#: Columns: Phi+, Psi+, Phi-, Psi- with Pauli corrections I, X, Z, XZ.
_BELL_BASIS = np.array(
    [[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]], dtype=complex
) * (1.0 / np.sqrt(2.0))
_CORRECTIONS = np.array([ID2, SIGMA_X, SIGMA_Z, SIGMA_X @ SIGMA_Z])


def teleport_average_fidelity(resource: TwoQubitState, n_inputs: int, rng) -> float:
    """Mean teleportation fidelity over Haar-random pure input qubits,
    drawn from ``rng`` as ``n_inputs`` calls of ``haar_random_vector(2, rng)``
    would draw them."""
    if n_inputs < 1:
        raise ValueError("n_inputs must be at least 1")
    rho = resource.matrix.reshape(2, 2, 2, 2)  # indices (a, b, a', b')
    z = rng.standard_normal((n_inputs, 2, 2))
    phi = z[:, 0] + 1j * z[:, 1]
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    beta = _BELL_BASIS.T.reshape(4, 2, 2)  # (outcome, input, alice-half)
    # Unnormalized Bob state per input and outcome after projecting
    # (input x alice) on beta_k, then Bob's Pauli correction.
    amp = np.einsum("nc,kca->nka", phi, beta.conj())
    bob = np.einsum("nka,nke,abed->nkbd", amp, amp.conj(), rho)
    corrected = _CORRECTIONS @ bob @ _CORRECTIONS.conj().transpose(0, 2, 1)
    total = np.einsum("nb,nkbd,nd->", phi.conj(), corrected, phi).real
    return float(total / n_inputs)
