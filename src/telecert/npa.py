"""Operator-word algebra and moment-matrix construction.

Rows of the moment matrix are canonical products of the untrusted
operators: Bob's outcome-0 projectors in the one-sided setting, and
dichotomic Z/X observables per party in the fully untrusted setting.
The fidelity functionals of the swap extraction and the inequality
functionals are derived symbolically from the same circuit algebra used
by :mod:`telecert.qcore`, so the two routes can be cross-checked
numerically entry by entry.

Which cells of the moment matrix carry the same moment is held as
integer labels: an entry id per word pair (its canonical key), a complex
label per scalar cell and a real label per scalar cell, each numbered in
the sorted order of the tuples it stands for.  The equality constraints,
the real reduction, the symmetry check and the SDPA export all read them.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import qcore

SETTING_1SDI = "1sdi"
SETTING_DI = "di"

OBJECTIVES = {
    SETTING_1SDI: ("state", "ZB", "XB"),
    SETTING_DI: ("state", "ZAZB", "XAXB", "ZAXB"),
}

INEQUALITIES = ("steering", "chsh")

# Symbol table: projector alphabet for the one-sided setting (outcome-0
# projectors of Bob's two settings), observable alphabet for both parties
# in the fully untrusted setting.
_PROJ_SYMBOLS = {"E00": 0, "E01": 1}
_OBS_SYMBOLS = {"Z": 0, "X": 1}


#: Most float64 entries the companion of an SDPA file may hold in the
#: solver's Schur workspace (`sdp._SchurBlock`), one product of the matrix
#: dimension squared per free moment.  A file's n x n matrix has at most
#: n(n+1)/2 free moments, when no tie joins two cells, so the reader
#: refuses a header whose n exceeds that bound before reading any entry:
#: it admits the 81x81 fully untrusted problem, about 174 MB.  The dense
#: equality rows of a folded file (`sdp.fold_ties`) share the bound.
MAX_WORKSPACE_ENTRIES = 81**2 * (81 * 82 // 2)


class MissingWordError(ValueError):
    """A functional references a moment absent from the word set."""


def _reduce_projector(seq) -> tuple:
    out = []
    for s in seq:
        if out and out[-1] == s:
            continue  # idempotence: EE = E
        out.append(s)
    return tuple(out)


def _reduce_observable(seq) -> tuple:
    out = []
    for s in seq:
        if out and out[-1] == s:
            out.pop()  # involution: ZZ = XX = identity
        else:
            out.append(s)
    return tuple(out)


@dataclass(frozen=True)
class OperatorWord:
    """Canonical-form product of untrusted operators, tagged by party."""

    setting: str
    alice: tuple = ()
    bob: tuple = ()

    def __post_init__(self):
        if self.setting == SETTING_1SDI:
            if self.alice:
                raise ValueError("one-sided words carry Bob symbols only")
            object.__setattr__(self, "bob", _reduce_projector(self.bob))
        elif self.setting == SETTING_DI:
            object.__setattr__(self, "alice", _reduce_observable(self.alice))
            object.__setattr__(self, "bob", _reduce_observable(self.bob))
        else:
            raise ValueError(f"unknown setting {self.setting!r}")

    @classmethod
    def from_symbols(cls, setting: str, symbols) -> "OperatorWord":
        """Build a word from party-tagged symbols such as ("B", "E00") or
        ("A", "Z"); cross-party commutation puts Alice before Bob."""
        alice, bob = [], []
        for party, name in symbols:
            if setting == SETTING_1SDI:
                if party != "B" or name not in _PROJ_SYMBOLS:
                    raise ValueError(f"symbol ({party}, {name}) not in the projector alphabet")
                bob.append(_PROJ_SYMBOLS[name])
            else:
                if name not in _OBS_SYMBOLS:
                    raise ValueError(f"symbol ({party}, {name}) not in the observable alphabet")
                (alice if party == "A" else bob).append(_OBS_SYMBOLS[name])
        return cls(setting, tuple(alice), tuple(bob))

    @property
    def key(self) -> tuple:
        return (self.alice, self.bob)

    @property
    def length(self) -> int:
        return len(self.alice) + len(self.bob)

    def adjoint(self) -> "OperatorWord":
        return OperatorWord(self.setting, self.alice[::-1], self.bob[::-1])

    def symbols(self) -> list:
        names_p = {v: k for k, v in _PROJ_SYMBOLS.items()}
        names_o = {v: k for k, v in _OBS_SYMBOLS.items()}
        if self.setting == SETTING_1SDI:
            return [("B", names_p[s]) for s in self.bob]
        return [("A", names_o[s]) for s in self.alice] + [("B", names_o[s]) for s in self.bob]


def _alternating(max_length: int) -> list[tuple]:
    words = [()]
    for length in range(1, max_length + 1):
        for start in (0, 1):
            words.append(tuple((start + k) % 2 for k in range(length)))
    return words


def generate_words(setting: str, max_local_length: int) -> list[OperatorWord]:
    """All distinct canonical words up to the local length cap, in graded
    lexicographic order."""
    if max_local_length < 1:
        raise ValueError("max_local_length must be at least 1")
    locals_ = _alternating(max_local_length)
    if setting == SETTING_1SDI:
        words = [OperatorWord(setting, (), b) for b in locals_]
    elif setting == SETTING_DI:
        words = [OperatorWord(setting, a, b) for a in locals_ for b in locals_]
    else:
        raise ValueError(f"unknown setting {setting!r}")
    return sorted(words, key=lambda w: (w.length, w.alice, w.bob))


# ---------------------------------------------------------------------------
# Word polynomials: sparse real-linear combinations of canonical words.


def _poly_mul(p: dict, q: dict, reduce) -> dict:
    out: dict = {}
    for wp, cp in p.items():
        for wq, cq in q.items():
            w = reduce(wp + wq)
            out[w] = out.get(w, 0.0) + cp * cq
    return {w: c for w, c in out.items() if abs(c) > 1e-15}


def _poly_adjoint(p: dict) -> dict:
    return {w[::-1]: c for w, c in p.items()}


def _kraus_polys_projector() -> list[dict]:
    # K0 = E, K1 = X (1 - E) with E the setting-0 projector and
    # X = 2 E' - 1 the setting-1 observable.
    e0 = {(0,): 1.0}
    x = {(1,): 2.0, (): -1.0}
    k1 = _poly_mul(x, {(): 1.0, (0,): -1.0}, _reduce_projector)
    return [e0, k1]


def _kraus_polys_observable() -> list[dict]:
    # Same channel written over Z/X observable words: E = (1 + Z)/2.
    k0 = {(): 0.5, (0,): 0.5}
    k1 = _poly_mul({(1,): 1.0}, {(): 0.5, (0,): -0.5}, _reduce_observable)
    return [k0, k1]


_OBS_MATRICES = {0: qcore.SIGMA_Z, 1: qcore.SIGMA_X}


def steering_fidelity_functional(objective: str) -> dict:
    """Extraction-fidelity functional for the one-sided setting.

    Returns {bob_word: 2x2 coefficient matrix C}; the value on an
    assemblage is sum_w sum_ij C_w[i, j] tau_w[i, j].
    """
    if objective not in OBJECTIVES[SETTING_1SDI]:
        raise ValueError(f"unknown one-sided objective {objective!r}")
    kraus = _kraus_polys_projector()
    sandwich = None
    if objective == "ZB":
        sandwich = {(0,): 2.0, (): -1.0}
    elif objective == "XB":
        sandwich = {(1,): 2.0, (): -1.0}
    coeffs: dict = {}
    for i in (0, 1):
        for j in (0, 1):
            poly = _poly_mul(_poly_adjoint(kraus[j]), kraus[i], _reduce_projector)
            if sandwich is not None:
                poly = _poly_mul(_poly_mul(sandwich, poly, _reduce_projector), sandwich, _reduce_projector)
            for word, coef in poly.items():
                cw = coeffs.setdefault(word, np.zeros((2, 2)))
                if objective == "XB":
                    # Trusted conjugation by sigma_X permutes basis labels.
                    cw[1 - i, 1 - j] += 0.5 * coef
                elif objective == "ZB":
                    # Trusted conjugation by sigma_Z flips off-diagonal signs.
                    cw[i, j] += 0.5 * coef * (-1.0) ** (i + j)
                else:
                    cw[i, j] += 0.5 * coef
    return {w: c for w, c in coeffs.items() if np.max(np.abs(c)) > 1e-15}


def di_fidelity_functional(objective: str) -> dict:
    """Extraction-fidelity functional for the fully untrusted setting.

    Returns {(alice_word, bob_word): coefficient}; the value on a model
    is sum coef * <A_word x B_word>.
    """
    if objective not in OBJECTIVES[SETTING_DI]:
        raise ValueError(f"unknown device-independent objective {objective!r}")
    kraus = _kraus_polys_observable()
    target = qcore.rotated_bell_vector().real
    sand_a = sand_b = None
    if objective != "state":
        sand_a = {(0,) if objective[0] == "Z" else (1,): 1.0}
        sand_b = {(0,) if objective[2] == "Z" else (1,): 1.0}
        pauli_a = _OBS_MATRICES[0 if objective[0] == "Z" else 1]
        pauli_b = _OBS_MATRICES[0 if objective[2] == "Z" else 1]
        target = (np.kron(pauli_a, pauli_b) @ target).real
    coeffs: dict = {}
    for i, j, k, l in itertools.product((0, 1), repeat=4):
        poly_a = _poly_mul(_poly_adjoint(kraus[k]), kraus[i], _reduce_observable)
        poly_b = _poly_mul(_poly_adjoint(kraus[l]), kraus[j], _reduce_observable)
        if sand_a is not None:
            poly_a = _poly_mul(_poly_mul(sand_a, poly_a, _reduce_observable), sand_a, _reduce_observable)
            poly_b = _poly_mul(_poly_mul(sand_b, poly_b, _reduce_observable), sand_b, _reduce_observable)
        weight = target[2 * i + j] * target[2 * k + l]
        if abs(weight) < 1e-15:
            continue
        for wa, ca in poly_a.items():
            for wb, cb in poly_b.items():
                key = (wa, wb)
                coeffs[key] = coeffs.get(key, 0.0) + weight * ca * cb
    return {k: c for k, c in coeffs.items() if abs(c) > 1e-15}


def steering_inequality_functional() -> dict:
    """<sigma_Z x Z_B> + <sigma_X x X_B> in assemblage coefficients."""
    return {
        (): np.array([[-1.0, -1.0], [-1.0, 1.0]]),
        (0,): np.array([[2.0, 0.0], [0.0, -2.0]]),
        (1,): np.array([[0.0, 2.0], [2.0, 0.0]]),
    }


def inequality_functional(setting: str, inequality: str) -> dict:
    if inequality not in INEQUALITIES:
        raise ValueError(f"unknown inequality {inequality!r}")
    if setting == SETTING_1SDI:
        base = steering_inequality_functional()
        if inequality == "steering":
            return base
        # CHSH as a steering witness: same correlators scaled by sqrt(2).
        return {w: np.sqrt(2.0) * c for w, c in base.items()}
    if inequality != "chsh":
        raise ValueError("the fully untrusted setting uses the CHSH inequality")
    return {
        ((0,), (0,)): 1.0,
        ((0,), (1,)): 1.0,
        ((1,), (0,)): 1.0,
        ((1,), (1,)): -1.0,
    }


def fidelity_functional(setting: str, objective: str) -> dict:
    if setting == SETTING_1SDI:
        return steering_fidelity_functional(objective)
    return di_fidelity_functional(objective)


# ---------------------------------------------------------------------------
# Moment evaluation against explicit models (the substitution oracle).


def _local_operator(setting: str, party: str, word: tuple, model: qcore.MeasurementModel) -> np.ndarray:
    if setting == SETTING_1SDI:
        dim = model.bob_dim
        op = np.eye(dim, dtype=complex)
        for s in word:
            op = op @ model.bob_projectors[s][0]
        return op
    dim = model.alice_dim if party == "A" else model.bob_dim
    op = np.eye(dim, dtype=complex)
    for s in word:
        obs = model.alice_observable(s) if party == "A" else model.bob_observable(s)
        op = op @ obs
    return op


def evaluate_moments(setting: str, state, model: qcore.MeasurementModel, keys) -> dict:
    """Moments for the given canonical word keys on an explicit model.

    One-sided keys map to 2x2 trusted-side blocks, fully untrusted keys
    to complex scalars.
    """
    rho = qcore._as_density(state)
    out = {}
    if setting == SETTING_1SDI:
        d_b = model.bob_dim
        d_a, rem = divmod(rho.shape[0], d_b)
        if rem or d_a != 2:
            raise ValueError(
                f"state dimension {rho.shape[0]} does not match a qubit x {d_b} split"
            )
        cache: dict = {}
        for key in keys:
            _, bob = key
            if bob not in cache:
                cache[bob] = _local_operator(setting, "B", bob, model)
            out[key] = qcore.partial_trace_bob(rho, d_a, d_b, cache[bob])
        return out
    cache_a: dict = {}
    cache_b: dict = {}
    for key in keys:
        wa, wb = key
        if wa not in cache_a:
            cache_a[wa] = _local_operator(setting, "A", wa, model)
        if wb not in cache_b:
            cache_b[wb] = _local_operator(setting, "B", wb, model)
        out[key] = qcore.product_expectation(rho, cache_a[wa], cache_b[wb])
    return out


def evaluate_functional(setting: str, functional: dict, moments: dict) -> float:
    """Real value of a functional on a moment assignment; the imaginary
    part must cancel (it does for Hermitian-consistent moments)."""
    total = 0.0 + 0.0j
    if setting == SETTING_1SDI:
        for word, cw in functional.items():
            tau = moments[((), word)]
            total += np.sum(cw * tau)
    else:
        for key, coef in functional.items():
            total += coef * moments[key]
    if abs(total.imag) > 1e-9:
        raise ValueError(f"functional value has imaginary part {total.imag:.3e}")
    return float(total.real)


def functional_keys(setting: str, functional: dict) -> list:
    if setting == SETTING_1SDI:
        return [((), w) for w in functional]
    return list(functional)


# ---------------------------------------------------------------------------
# The moment problem.


def _entry_table(setting: str, words) -> tuple[list, np.ndarray]:
    """The distinct canonical keys canon(col^dag row) of a word list, in
    sorted order, and the m x m array of their positions: the entry id
    of each (row, col) pair of words.

    One party's part of the key depends only on the two local words, of
    which a word list has few, so each pair of distinct local words is
    reduced once per party, into a product table whose ids follow the
    sorted order of the products.  (Alice id, Bob id) pairs then sort as
    the (Alice word, Bob word) keys do."""
    reduce = _reduce_projector if setting == SETTING_1SDI else _reduce_observable
    code, products = 0, []
    for local in ([w.alice for w in words], [w.bob for w in words]):
        distinct = sorted(set(local))
        table = [[reduce(col[::-1] + row) for row in distinct] for col in distinct]
        values = sorted(set(itertools.chain.from_iterable(table)))
        ids = np.array([[values.index(word) for word in line] for line in table])
        at = np.array([distinct.index(word) for word in local])
        # entry (k, l) holds the product of column word l with row word k
        code = code * len(values) + ids[at[None, :], at[:, None]]
        products.append(values)
    codes, entry_ids = np.unique(code, return_inverse=True)
    alice, bob = products
    keys = [(alice[c // len(bob)], bob[c % len(bob)]) for c in codes.tolist()]
    return keys, entry_ids.reshape(code.shape)


def _cell_labels(entry_ids: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Complex and real labels of the scalar cells of a moment matrix.

    Scalar cell (b k + i, b l + j) of block size b carries the complex
    moment (key, i, j) with key the entry id at (k, l), labelled
    (entry id * b + i) * b + j, which orders as (key, i, j) does.  Its
    mirror cell carries the adjoint moment (adjoint key, j, i); a real
    class joins the two.  Real labels number the classes in the order of
    the smaller of their two complex labels.
    """
    place = np.arange(block)
    complex_ = (entry_ids[:, None, :, None] * block + place[:, None, None]) * block + place
    complex_ = complex_.reshape(block * len(entry_ids), -1)
    _, real = np.unique(np.minimum(complex_, complex_.T), return_inverse=True)
    return complex_, real.reshape(complex_.shape)


def _tied_pairs(labels: np.ndarray, every: bool) -> tuple[np.ndarray, np.ndarray]:
    """Positions (a, b), a < b, that carry equal labels, label by label in
    increasing order: every such pair, in lexicographic order, when
    ``every``; else each later position of a label with its first."""
    order = np.argsort(labels, kind="stable")
    tied = labels[order]
    start = np.flatnonzero(np.r_[True, tied[1:] != tied[:-1]])
    size = np.diff(np.r_[start, len(order)])
    at = np.arange(len(order))
    if every:
        later = np.repeat(start + size, size) - at - 1
        first = np.repeat(at, later)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    else:
        first = np.repeat(start, size)
        first, second = first[first != at], at[first != at]
    return order[first], order[second]


@dataclass
class MomentProblem:
    """Symbolic moment matrix plus objective/inequality data.

    ``keys`` are the distinct canonical word keys canon(col^dag row) of
    the word pairs, sorted, and ``entry_ids[k, l]`` is the position in
    ``keys`` of the key of cell block (k, l); one-sided problems have 2x2
    trusted-side blocks (block=2), fully untrusted ones scalar entries
    (block=1).
    """

    setting: str
    words: list
    objective: str
    inequality: str
    violation: float
    block: int = field(init=False, compare=False)
    dim: int = field(init=False, compare=False)
    keys: list = field(init=False, compare=False, repr=False)
    entry_ids: np.ndarray = field(init=False, compare=False, repr=False)
    p_coeffs: dict = field(init=False, compare=False, repr=False)
    q_coeffs: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.block = 2 if self.setting == SETTING_1SDI else 1
        self.dim = self.block * len(self.words)
        if not any(w.key == ((), ()) for w in self.words):
            raise ValueError("word list must contain the identity word")
        self.keys, self.entry_ids = _entry_table(self.setting, self.words)
        self.p_coeffs = fidelity_functional(self.setting, self.objective)
        self.q_coeffs = inequality_functional(self.setting, self.inequality)
        needed = set(functional_keys(self.setting, self.p_coeffs))
        needed |= set(functional_keys(self.setting, self.q_coeffs))
        missing = needed - set(self.keys)
        if missing:
            raise MissingWordError(f"moment matrix lacks required words: {sorted(missing)}")

    # --- constraints -------------------------------------------------------

    def equality_chains(self) -> np.ndarray:
        """Deduplicated equality constraints: each extra cell of a complex
        class tied to the class's first cell in row-major order, as an
        array of ((row, col), (row, col)) pairs."""
        complex_, _ = _cell_labels(self.entry_ids, self.block)
        pairs = np.stack(_tied_pairs(complex_.ravel(), every=False), axis=1)
        return np.stack(np.divmod(pairs, self.dim), axis=-1)

    def generated_equality_count(self) -> int:
        """Number of generated equality constraints.

        Convention: one constraint per unordered pair of distinct scalar
        cells of the full moment matrix that the automation identifies as
        carrying the same moment (idempotence/involution reductions plus
        cross-party commutation); conjugate-mirror duplicates are counted
        once because the matrix is Hermitian by construction.
        """
        complex_, _ = _cell_labels(self.entry_ids, self.block)
        sizes = np.bincount(complex_.ravel())
        return int(np.sum(sizes * (sizes - 1) // 2))

    def functional_items(self, functional: dict) -> tuple[np.ndarray, np.ndarray]:
        """A functional's terms as (complex labels, coefficients), in the
        order of its items."""
        if self.setting == SETTING_1SDI:
            items = [(((), w), i, j, c[i, j]) for w, c in functional.items() for i, j in np.argwhere(np.abs(c) > 1e-15)]
        else:
            items = [(key, 0, 0, coef) for key, coef in functional.items()]
        b = self.block
        labels = [(bisect.bisect_left(self.keys, key) * b + i) * b + j for key, i, j, _ in items]
        return np.array(labels, dtype=np.intp), np.array([coef for *_, coef in items])


def build_moment_problem(
    setting: str,
    words,
    objective: str,
    inequality: str,
    violation: float,
) -> MomentProblem:
    """Assemble the moment problem for one fidelity objective constrained
    to a given violation level."""
    if objective not in OBJECTIVES[setting]:
        raise ValueError(f"objective {objective!r} not available for {setting}")
    return MomentProblem(setting, list(words), objective, inequality, float(violation))


def instantiate_gamma(model: qcore.MeasurementModel, state, words) -> np.ndarray:
    """Numeric Hermitian moment matrix of an explicit (state, model) pair."""
    if not words:
        raise ValueError("need at least one word")
    setting = words[0].setting
    keys, entry_ids = _entry_table(setting, words)
    # one moment per key, in key order: a scalar, or a 2x2 one-sided block
    moments = np.array(list(evaluate_moments(setting, state, model, keys).values()), dtype=complex)
    gamma = moments[entry_ids]
    if setting == SETTING_1SDI:
        gamma = gamma.transpose(0, 2, 1, 3).reshape(2 * len(words), 2 * len(words))
    return gamma


def check_gamma(problem: MomentProblem, gamma: np.ndarray, tol: float = 1e-10) -> dict:
    """Constraint residuals and eigenvalue floor of a numeric moment matrix."""
    rows, cols = problem.equality_chains().T
    tied = gamma[rows, cols]
    worst = float(np.max(np.abs(tied[0] - tied[1]), initial=0.0))
    herm = float(np.max(np.abs(gamma - gamma.conj().T)))
    min_eig = float(np.linalg.eigvalsh(0.5 * (gamma + gamma.conj().T)).min())
    return {
        "max_equality_residual": worst,
        "hermiticity": herm,
        "min_eigenvalue": min_eig,
        "ok": worst <= tol and herm <= tol and min_eig >= -1e-9,
    }


# ---------------------------------------------------------------------------
# Real reduction: parametrize the Hermitian moment matrix by its free real
# moments.  Conjugating every operator in an explicit model conjugates the
# moment matrix without changing the (real-coefficient) objective and
# inequality values, so the optimization may be restricted to real
# symmetric moment matrices; adjoint word pairs then share one value.


@dataclass
class ReducedProblem:
    """The moment problem over its free real moments, one per real class.

    ``label[r, c]`` is the real class of scalar cell (r, c) (see
    `_cell_labels`); p, q and norm are the objective, the inequality and
    the normalization as vectors over the classes.
    """

    problem: MomentProblem
    label: np.ndarray
    p: np.ndarray
    q: np.ndarray
    norm: np.ndarray

    @property
    def dim(self) -> int:
        return self.problem.dim

    def assemble(self, y: np.ndarray) -> np.ndarray:
        return y[self.label]


def reduce_problem(problem: MomentProblem) -> ReducedProblem:
    complex_, label = _cell_labels(problem.entry_ids, problem.block)
    # The real class of each complex label, read at its first cell; every
    # key fills a whole block, so the labels run over 0..max without gaps.
    _, cell = np.unique(complex_, return_index=True)
    real = label.ravel()[cell]
    classes = int(label.max()) + 1

    def vector_from(labels, coefs) -> np.ndarray:
        vec = np.zeros(classes)
        np.add.at(vec, real[labels], coefs)
        return vec

    p = vector_from(*problem.functional_items(problem.p_coeffs))
    q = vector_from(*problem.functional_items(problem.q_coeffs))
    # The identity key ((), ()) sorts first: its diagonal places (0, i, i).
    b = problem.block
    norm = vector_from(np.arange(b) * (b + 1), np.ones(b))
    return ReducedProblem(problem, label, p, q, norm)


def _class_action(reduced: ReducedProblem, word_image: np.ndarray, word_sign: np.ndarray):
    """The action on the real classes of the signed row permutation that
    sends row k to word_sign[k] times row word_image[k]: (class_image,
    class_sign), or None unless it maps the cells of every class onto the
    cells of one class with one sign and keeps p, q and norm up to that
    sign.  Cell (r, c) goes to (word_image[r], word_image[c]) with sign
    word_sign[r] word_sign[c]."""
    image = reduced.label[np.ix_(word_image, word_image)]
    sign = np.outer(word_sign, word_sign)
    class_image = np.empty(len(reduced.p), dtype=np.intp)
    class_image[reduced.label] = image
    class_sign = np.empty(len(reduced.p))
    class_sign[reduced.label] = sign
    sizes = np.bincount(reduced.label.ravel())
    # The map is a bijection on cells, so the image of a class inside one
    # class of the same size is that whole class.
    if not (
        np.array_equal(class_image[reduced.label], image)
        and np.array_equal(class_sign[reduced.label], sign)
        and np.array_equal(sizes[class_image], sizes)
    ):
        return None
    if any(not np.array_equal(vec[class_image] * class_sign, vec) for vec in (reduced.p, reduced.q, reduced.norm)):
        return None
    return class_image, class_sign


def symmetry_group(reduced: ReducedProblem):
    """The symmetries of a reduced problem among the Alice<->Bob swap
    (a, b) -> (b, a) and the global sign flip (A, B) -> (-A, -B).

    A symmetry is a signed word permutation: the swap sends word k to the
    word of swapped parts with sign +1, the flip sends it to itself with
    sign (-1)^length.  Each is checked exactly (`_class_action`): the word
    list is closed under it, each class maps onto one class with one sign,
    and p, q and norm are invariant up to that sign.  Returns
    (word_image, word_sign, class_image, class_sign), one row per element
    of the group found, element t the product of the generators at the set
    bits of t; row 0 is the identity.  One-sided problems get the trivial
    group.  Averaging an optimum over the group gives an optimum whose
    moments are equal up to the sign on each class orbit, and zero on a
    class an element maps onto itself with sign -1.
    """
    problem = reduced.problem
    n = problem.dim
    elements = [(np.arange(n), np.ones(n))]
    candidates = []
    if problem.setting == SETTING_DI:
        flip = (-1.0) ** np.array([w.length for w in problem.words])
        position = {w.key: k for k, w in enumerate(problem.words)}
        swapped = [position.get((w.bob, w.alice)) for w in problem.words]
        candidates = [(np.arange(n), flip)]
        if None not in swapped:
            swap = np.array(swapped, dtype=np.intp)
            candidates = [(swap, np.ones(n)), (np.arange(n), flip), (swap, flip)]
    for image, sign in candidates:
        known = any(np.array_equal(image, i) and np.array_equal(sign, s) for i, s in elements)
        if not known and _class_action(reduced, image, sign) is not None:
            # candidate after each element: row k goes to s[k] sign[i[k]] image[i[k]]
            elements += [(image[i], s * sign[i]) for i, s in elements]
    actions = [_class_action(reduced, i, s) for i, s in elements]
    return tuple(np.array(part) for part in (*zip(*elements), *zip(*actions)))


# ---------------------------------------------------------------------------
# Serialization: word lists ("npa/1") and sparse SDPA files.


def words_to_json(words) -> dict:
    return {
        "schema": "npa/1",
        "setting": words[0].setting if words else None,
        "words": [w.symbols() for w in words],
    }


def export_sdpa(problem: MomentProblem, path, constraints: str = "generated") -> dict:
    """Write the real reduction of the problem as a sparse SDPA file.

    The variable is the real symmetric moment matrix (one block of the
    moment dimension), which has the same optimum as the Hermitian one
    (the conjugation argument above :class:`ReducedProblem`).  The objective, the violation level and
    the normalization read one upper-triangle cell of each real class;
    the equality constraints tie the upper-triangle cells of each class,
    as a chain to its first cell (``deduplicated``) or as every pair
    (``generated``).

    SDPA-dual semantics: max tr(F0 Y) s.t. tr(Fi Y) = c_i, Y >= 0, with
    F0 = -(objective reader), so the file's dual optimum equals minus the
    certified minimum; the first comment line records the convention.
    Returns a summary dict (counts).
    """
    if constraints not in ("generated", "deduplicated"):
        raise ValueError("constraints must be 'generated' or 'deduplicated'")
    reduced = reduce_problem(problem)
    rows, cols = np.triu_indices(problem.dim)
    upper = reduced.label[rows, cols]
    first, other = _tied_pairs(upper, every=constraints == "generated")
    # Matrix 0 reads the objective, 1 the violation level and 2 the
    # normalization, each class at its first upper-triangle cell (they are
    # in row-major order); each further matrix ties a pair of cells.
    readers = np.stack([-reduced.p, reduced.q, reduced.norm])
    matno, cls = np.nonzero(readers)
    _, reads = np.unique(upper, return_index=True)
    matno, cell, weight = (
        np.r_[matno, np.repeat(3 + np.arange(len(first)), 2)],
        np.r_[reads[cls], np.stack([first, other], axis=1).ravel()],
        np.r_[readers[matno, cls], np.tile([1.0, -1.0], len(first))],
    )
    order = np.lexsort((cell, matno))
    matno, r, c, weight = matno[order], rows[cell[order]], cols[cell[order]], weight[order]
    # tr(F Gamma) = weight * Gamma[r, c] on symmetric Gamma
    value = np.where(r == c, weight, 0.5 * weight)

    meta = {
        "schema": "npa-sdpa/2",
        "setting": problem.setting,
        "objective": problem.objective,
        "inequality": problem.inequality,
        "violation": repr(float(problem.violation)),
        "words": [w.symbols() for w in problem.words],
        "constraints": constraints,
    }
    c_values = [repr(float(problem.violation)), "1.0"] + ["0.0"] * len(first)
    lines = [
        '"telecert moment problem; dual optimum = -(minimum objective value); '
        'variable is the real symmetric moment matrix',
        '"meta ' + json.dumps(meta, separators=(",", ":"), sort_keys=True),
        f"{len(c_values)}",
        "1",
        f"{problem.dim}",
        " ".join(c_values),
    ]
    lines.extend(
        f"{k} 1 {i} {j} {x!r}"
        for k, i, j, x in zip(matno.tolist(), (r + 1).tolist(), (c + 1).tolist(), value.tolist())
    )
    with open(path, "w") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")
    return {
        "constraints_written": len(c_values),
        "equality_pairs": len(first),
        "dimension": problem.dim,
    }


def read_sdpa_numeric(path):
    """Parse the numeric body of a sparse SDPA file into (objective C,
    (owner, rows, cols, values, b)): the A_i as the cells of their upper
    triangles in (matrix, row, column) order, the form `sdp.Constraints`
    takes, so that min tr(C X) s.t. tr(A_i X) = b_i, X >= 0 is the file's
    dual, for :func:`export_sdpa` files the certified minimum.  A lower
    entry sets its mirror cell, and a repeated one replaces the earlier
    value.  The header is checked against `MAX_WORKSPACE_ENTRIES` first.
    """
    with open(path) as handle:
        rows = [line for line in map(str.strip, handle) if line and not line.startswith(('"', "*"))]
    if len(rows) < 4:
        raise ValueError("file ends before the SDPA header is complete")
    m = int(rows[0].split()[0])
    nblocks = int(rows[1].split()[0])
    sizes = [abs(int(tok.strip("{},"))) for tok in rows[2].replace(",", " ").split()][:nblocks]
    if len(sizes) != nblocks:
        raise ValueError(f"block size line lists {len(sizes)} sizes for {nblocks} blocks")
    if nblocks < 1 or 0 in sizes:
        raise ValueError(f"block size line {rows[2]!r}: every block needs a size of at least 1")
    dim = sum(sizes)
    entries = dim**2 * (dim * (dim + 1) // 2)
    if entries > MAX_WORKSPACE_ENTRIES:
        raise ValueError(
            f"file declares a {dim}x{dim} matrix: its companion may have {dim * (dim + 1) // 2} free moments, "
            f"whose Schur workspace would hold {entries} float64 entries ({entries * 8 / 1e9:.2f} GB); "
            f"the solver accepts at most {MAX_WORKSPACE_ENTRIES} ({MAX_WORKSPACE_ENTRIES * 8 / 1e9:.2f} GB)"
        )
    c_values = [float(tok) for tok in rows[3].replace(",", " ").split()]
    if len(c_values) != m:
        raise ValueError("constraint value line does not match the header")
    body = rows[4:]
    width = np.fromiter(map(len, map(str.split, body)), np.intp, len(body))
    if np.any(width != 5):
        k = int(np.argmax(width != 5))
        raise ValueError(f"entry {body[k]!r}: expected 5 fields, got {width[k]}")
    try:
        table = np.array(" ".join(body).split(), dtype=float).reshape(-1, 5)
    except ValueError:  # numpy names the token, not its line
        for line in body:
            try:
                np.array(line.split(), dtype=float)
            except ValueError as exc:
                raise ValueError(f"entry {line!r}: {exc}") from None
    matno, blk, i, j, val = table.T
    # Checked here: numpy would wrap a 0 or negative index to the far end.
    block = np.clip(np.nan_to_num(blk), 1, nblocks).astype(np.intp) - 1
    start, size = np.cumsum([0] + sizes)[block], np.array(sizes)[block]
    faults = np.array([~((0 <= matno) & (matno <= m)), ~((1 <= blk) & (blk <= nblocks)),
                       ~((1 <= i) & (i <= size) & (1 <= j) & (j <= size)), np.modf(table[:, :4])[0].any(axis=1)])
    if np.any(faults):
        k = int(np.argmax(faults.any(axis=0)))
        matno_k, blk_k = body[k].split()[:2]
        reason = [f"matrix number {matno_k} outside [0, {m}]", f"block {blk_k} outside [1, {nblocks}]",
                  f"index outside [1, {size[k]}]", "matrix number, block and indices must be integers"]
        raise ValueError(f"entry {body[k]!r}: {reason[int(np.argmax(faults[:, k]))]}")
    r, c = np.sort([start + i - 1, start + j - 1], axis=0).astype(np.intp)
    # a repeated cell keeps its last value, the first one of the reversed lines
    key, last = np.unique(((matno.astype(np.intp) * dim + r) * dim + c)[::-1], return_index=True)
    owner, r, c, val = key // (dim * dim), key // dim % dim, key % dim, val[::-1][last]
    objective, top = np.zeros((dim, dim)), owner == 0
    objective[r[top], c[top]] = objective[c[top], r[top]] = val[top]
    return -objective, (owner[~top] - 1, r[~top], c[~top], val[~top], np.array(c_values))
