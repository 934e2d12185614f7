import hashlib
import json

import numpy as np
import pytest

from telecert import cert, npa, qcore as qc


def word(setting, *symbols):
    return npa.OperatorWord.from_symbols(setting, list(symbols))


def real_moments(red, gamma):
    """The free real moments of a model's moment matrix, whose cells of
    one real class carry one value."""
    y = np.empty(len(red.p))
    y[red.label] = gamma.real
    return y


def assert_sdpa_meta(path, prob, violation, constraints):
    """The file's metadata line records the exported moment problem."""
    line = next(l for l in path.read_text().splitlines() if l.startswith('"meta '))
    assert json.loads(line[len('"meta '):]) == {
        "schema": "npa-sdpa/2",
        "setting": prob.setting,
        "objective": prob.objective,
        "inequality": prob.inequality,
        "violation": repr(float(violation)),
        "words": json.loads(json.dumps(npa.words_to_json(prob.words)["words"])),
        "constraints": constraints,
    }


def test_canonicalize_projector_idempotence():
    w = word("1sdi", ("B", "E00"), ("B", "E00"))
    assert w.bob == (0,)
    # the reduced form is a fixpoint of the constructor
    assert npa.OperatorWord(w.setting, w.alice, w.bob) == w


def test_canonicalize_observable_involution():
    w = word("di", ("A", "Z"), ("A", "Z"))
    assert w.alice == () and w.bob == ()


def test_canonicalize_cross_party_commutation():
    w = word("di", ("B", "Z"), ("A", "X"), ("A", "Z"))
    assert w.alice == (1, 0) and w.bob == (0,)
    # matrix oracle: Alice and Bob operators act on separate factors, so
    # the party-sorted product is the same 4x4 matrix
    za, xa = qc.SIGMA_Z, qc.SIGMA_X
    lhs = np.kron(np.eye(2), za) @ np.kron(xa @ za, np.eye(2))
    rhs = np.kron(xa @ za, za)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_mixed_alphabet_rejected():
    with pytest.raises(ValueError):
        word("1sdi", ("A", "Z"))
    with pytest.raises(ValueError):
        word("1sdi", ("B", "Z"))
    with pytest.raises(ValueError):
        word("di", ("B", "E00"))


def test_canonicalization_confluence():
    # reference reducer applying one randomly chosen applicable rewrite at
    # a time must land on the same canonical form
    rng = np.random.default_rng(42)

    def random_order_reduce(seq, involution):
        seq = list(seq)
        while True:
            sites = [i for i in range(len(seq) - 1) if seq[i] == seq[i + 1]]
            if not sites:
                return tuple(seq)
            i = int(rng.choice(sites))
            if involution:
                del seq[i : i + 2]
            else:
                del seq[i]

    for _ in range(10_000):
        length = int(rng.integers(0, 9))
        seq = tuple(int(s) for s in rng.integers(0, 2, length))
        assert random_order_reduce(seq, False) == npa._reduce_projector(seq)
        assert random_order_reduce(seq, True) == npa._reduce_observable(seq)


def test_generate_words_counts():
    w1 = npa.generate_words("1sdi", 1)
    assert [w.bob for w in w1] == [(), (0,), (1,)]

    # brute-force oracle: enumerate all symbol strings up to the cap and
    # deduplicate canonical forms
    def brute(setting, cap):
        seen = set()
        for length in range(cap + 1):
            for bits in range(2**length):
                seq = tuple((bits >> k) & 1 for k in range(length))
                reduced = (
                    npa._reduce_projector(seq) if setting == "1sdi" else npa._reduce_observable(seq)
                )
                if len(reduced) <= cap:
                    seen.add(reduced)
        return seen

    w3 = npa.generate_words("1sdi", 3)
    assert len(w3) == 7
    assert {w.bob for w in w3} == brute("1sdi", 3)

    wd = npa.generate_words("di", 4)
    assert len(wd) == 81
    locals_a = {w.alice for w in wd}
    assert locals_a == brute("di", 4)
    assert len(locals_a) == 9
    with pytest.raises(ValueError):
        npa.generate_words("1sdi", 0)


def test_word_ordering_graded_lex():
    words = npa.generate_words("1sdi", 3)
    lengths = [w.length for w in words]
    assert lengths == sorted(lengths)
    assert words[0].key == ((), ())


# ---------------------------------------------------------------------------
# Golden functional coefficients (frozen from the derivation; the overall
# factor 1/2 of the fidelity expressions is folded into the tables).


def test_steering_state_functional_golden():
    f = npa.steering_fidelity_functional("state")
    assert np.allclose(f[((), (0,))], [[0.5, 0.0], [0.0, -0.5]])
    assert np.allclose(f[((), ())], [[0.0, 0.0], [0.0, 0.5]])
    assert np.allclose(f[((), (1, 0))], [[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(f[((), (0, 1))], [[0.0, 0.0], [1.0, 0.0]])
    assert np.allclose(f[((), (0, 1, 0))], [[0.0, -1.0], [-1.0, 0.0]])
    assert set(f) == {((), ()), ((), (0,)), ((), (1, 0)), ((), (0, 1)), ((), (0, 1, 0))}


def test_steering_zb_equals_state_functional():
    state = npa.steering_fidelity_functional("state")
    zb = npa.steering_fidelity_functional("ZB")
    assert set(zb) == set(state)
    for w in state:
        assert np.allclose(zb[w], state[w], atol=1e-14)


def test_steering_xb_functional_golden():
    f = npa.steering_fidelity_functional("XB")
    assert np.allclose(f[((), (1, 0, 1, 0, 1))], [[0.0, -4.0], [-4.0, 0.0]])
    assert np.allclose(f[((), (1, 0, 1))], [[-2.0, 2.0], [2.0, 2.0]])
    assert np.allclose(f[((), ())], [[0.5, 0.0], [0.0, 0.0]])
    assert np.allclose(f[((), (0,))], [[-0.5, 0.0], [0.0, 0.5]])
    assert np.allclose(f[((), (0, 1, 0, 1))], [[0.0, 2.0], [2.0, 0.0]])
    assert np.allclose(f[((), (1, 0, 1, 0))], [[0.0, 2.0], [2.0, 0.0]])


def test_di_state_functional_golden():
    f = npa.di_fidelity_functional("state")
    s2 = np.sqrt(2.0)
    assert f[((), ())] == pytest.approx(0.25)
    assert f[((0,), (0,))] == pytest.approx(1 / (4 * s2))
    assert f[((0,), (1,))] == pytest.approx(1 / (8 * s2))
    assert f[((1,), (0,))] == pytest.approx(1 / (8 * s2))
    assert f[((1,), (1,))] == pytest.approx(-1 / (16 * s2))
    assert f[((0, 1), (0, 1))] == pytest.approx(-1 / 16)
    assert f[((1, 0), (1, 0))] == pytest.approx(-1 / 16)
    assert f[((1, 0), (0, 1))] == pytest.approx(1 / 16)
    assert f[((0, 1), (1, 0))] == pytest.approx(1 / 16)
    assert f[((0, 1, 0), (0, 1, 0))] == pytest.approx(-1 / (16 * s2))
    assert f[((0, 1, 0), (0,))] == pytest.approx(-1 / (8 * s2))
    assert f[((0,), (0, 1, 0))] == pytest.approx(-1 / (8 * s2))
    assert f[((0, 1, 0), (1,))] == pytest.approx(1 / (16 * s2))
    assert f[((1,), (0, 1, 0))] == pytest.approx(1 / (16 * s2))
    assert len(f) == 14


def test_di_zz_equals_state_functional():
    state = npa.di_fidelity_functional("state")
    zz = npa.di_fidelity_functional("ZAZB")
    assert set(zz) == set(state)
    for key in state:
        assert zz[key] == pytest.approx(state[key], abs=1e-14)


def test_functionals_match_direct_extraction():
    rng = np.random.default_rng(31)
    for objective in ("state", "ZB", "XB"):
        func = npa.steering_fidelity_functional(objective)
        keys = npa.functional_keys("1sdi", func)
        for _ in range(10):
            d = int(rng.choice([2, 4]))
            psi = qc.haar_random_vector(2 * d, rng)
            model = qc.random_projective_model(d, rng)
            moments = npa.evaluate_moments("1sdi", psi, model, keys)
            via = npa.evaluate_functional("1sdi", func, moments)
            if objective == "state":
                psi2 = psi
            else:
                pauli = qc.SIGMA_Z if objective == "ZB" else qc.SIGMA_X
                setting = 0 if objective == "ZB" else 1
                psi2 = np.kron(pauli, model.bob_observable(setting)) @ psi
            direct = qc.fidelity_to_pure(
                qc.swap_isometry_extract(psi2, model), qc.bell_vector()
            )
            assert via == pytest.approx(direct, abs=1e-9)


def test_ideal_model_objective_values():
    # ideal configuration reaches objective 1 and the maximal violation
    words = npa.generate_words("1sdi", 3)
    red = npa.build_moment_problem("1sdi", words, "state", "steering")
    gamma = npa.instantiate_gamma(qc.ideal_model(), qc.bell_vector(), words)
    y = real_moments(red, gamma)
    for objective in ("state", "ZB", "XB"):
        r = npa.build_moment_problem("1sdi", words, objective, "steering")
        assert r.p @ real_moments(r, gamma) == pytest.approx(1.0, abs=1e-12)
    assert red.q @ y == pytest.approx(2.0, abs=1e-12)

    wd = npa.generate_words("di", 4)
    gd = npa.instantiate_gamma(
        qc.ideal_model(device_independent=True), qc.rotated_bell_vector(), wd
    )
    for objective in ("state", "ZAZB", "XAXB", "ZAXB"):
        r = npa.build_moment_problem("di", wd, objective, "chsh")
        yd = real_moments(r, gd)
        assert r.p @ yd == pytest.approx(1.0, abs=1e-12)
        assert r.q @ yd == pytest.approx(2 * np.sqrt(2), abs=1e-12)


def test_werner_purification_objective_value(purify_with_bob_ancilla):
    v = 0.69
    words = npa.generate_words("1sdi", 3)
    red = npa.build_moment_problem("1sdi", words, "state", "steering")
    vec, _ = purify_with_bob_ancilla(qc.werner_state(v))
    gamma = npa.instantiate_gamma(qc.ideal_model().extended(4), vec, words)
    y = real_moments(red, gamma)
    assert red.p @ y == pytest.approx((1 + 3 * v) / 4, abs=1e-10)
    assert red.q @ y == pytest.approx(2 * v, abs=1e-10)


def test_missing_word_error():
    words = npa.generate_words("1sdi", 1)  # too short for the length-5 moments
    with pytest.raises(npa.MissingWordError):
        npa.build_moment_problem("1sdi", words, "XB", "steering")


def test_instantiate_gamma_ideal_structure():
    words = npa.generate_words("1sdi", 3)
    gamma = npa.instantiate_gamma(qc.ideal_model(), qc.bell_vector(), words)
    # identity-row block tau_{0|0} in the Z eigenbasis
    k = [w.bob for w in words].index((0,))
    block = gamma[0:2, 2 * k : 2 * k + 2]
    assert np.allclose(block, np.diag([0.5, 0.0]), atol=1e-12)
    # diagonal blocks are contractions: trace at most one
    for k in range(len(words)):
        assert np.trace(gamma[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]).real <= 1 + 1e-10


def test_gamma_constraints_hold_on_random_models():
    rng = np.random.default_rng(8)
    words = npa.generate_words("1sdi", 3)
    prob = npa.build_moment_problem("1sdi", words, "state", "steering")
    for _ in range(8):
        d = int(rng.choice([2, 4]))
        psi = qc.haar_random_vector(2 * d, rng)
        model = qc.random_projective_model(d, rng)
        gamma = npa.instantiate_gamma(model, psi, words)
        report = npa.check_gamma(prob, gamma)
        assert report["ok"], report
        for k in range(len(words)):
            block = gamma[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
            assert np.trace(block).real <= 1 + 1e-10

    wd = npa.generate_words("di", 3)
    probd = npa.build_moment_problem("di", wd, "state", "chsh")
    for _ in range(4):
        psi = qc.haar_random_vector(4, rng)
        model = qc.random_projective_model(2, rng, alice_dim=2)
        gamma = npa.instantiate_gamma(model, psi, wd)
        assert npa.check_gamma(probd, gamma)["ok"]


def test_dimension_mismatch_rejected():
    words = npa.generate_words("1sdi", 2)
    with pytest.raises(ValueError):
        npa.instantiate_gamma(qc.ideal_model(), qc.haar_random_vector(6, np.random.default_rng(0)), words)


def test_fully_untrusted_moments_need_alice_side():
    # a model without Alice's measurements, and a state that does not
    # split over the two sides, are refused by name before any word
    # operator is built
    rng = np.random.default_rng(0)
    psi = qc.haar_random_vector(4, rng)
    words = npa.generate_words("di", 2)
    keys = npa.functional_keys("di", npa.fidelity_functional("di", "state"))
    for model, state, message in (
        (qc.random_projective_model(2, rng), psi, "no untrusted Alice side"),
        (qc.random_projective_model(2, rng, alice_dim=2), qc.haar_random_vector(6, rng), "dimension 6 does not match a 2 x 2 split"),
    ):
        with pytest.raises(ValueError, match=message):
            npa.evaluate_moments("di", state, model, keys)
        with pytest.raises(ValueError, match=message):
            npa.instantiate_gamma(model, state, words)


def test_reduced_assembly_round_trip(purify_with_bob_ancilla):
    words = npa.generate_words("1sdi", 3)
    red = npa.build_moment_problem("1sdi", words, "state", "steering")
    vec, _ = purify_with_bob_ancilla(qc.werner_state(0.81))
    gamma = npa.instantiate_gamma(qc.ideal_model().extended(4), vec, words)
    y = real_moments(red, gamma)
    # real moments reassemble to the real part of the instantiated matrix
    assert np.max(np.abs(red.assemble(y) - gamma.real)) < 1e-10


def test_equality_counts_di_measurement():
    wd = npa.generate_words("di", 4)
    prob = npa.build_moment_problem("di", wd, "XAXB", "chsh")
    assert prob.dim == 81
    assert len(prob.keys) == 289  # scalar entries: one complex class per word key
    assert len(prob.equality_chains()) == 6272
    assert prob.generated_equality_count() == 116280
    assert prob.generated_equality_count() > 20000


def test_export_import_round_trip(tmp_path):
    words = npa.generate_words("1sdi", 3)
    prob = npa.build_moment_problem("1sdi", words, "state", "steering")
    path = tmp_path / "problem.dat-s"
    info = npa.export_sdpa(prob, path, 2 - 0.13)
    assert info["dimension"] == 14
    assert_sdpa_meta(path, prob, 2 - 0.13, "generated")
    # header bookkeeping: constraint count in the file matches the summary
    lines = [l for l in path.read_text().splitlines() if not l.startswith('"')]
    assert int(lines[0]) == info["constraints_written"]
    c_line = lines[3].split()
    assert len(c_line) == info["constraints_written"]
    assert float(c_line[0]) == pytest.approx(2 - 0.13)
    assert float(c_line[1]) == 1.0


def test_export_deduplicated_variant(tmp_path):
    words = npa.generate_words("1sdi", 2)
    prob = npa.build_moment_problem("1sdi", words, "state", "steering")
    path = tmp_path / "dedup.dat-s"
    info = npa.export_sdpa(prob, path, 1.8, constraints="deduplicated")
    assert_sdpa_meta(path, prob, 1.8, "deduplicated")
    full = npa.export_sdpa(prob, tmp_path / "full.dat-s", 1.8, constraints="generated")
    assert info["constraints_written"] < full["constraints_written"]


def test_words_json_round_trip():
    for setting, cap in (("1sdi", 3), ("di", 2)):
        words = npa.generate_words(setting, cap)
        doc = npa.words_to_json(words)
        assert doc["schema"] == "npa/1"
        doc = json.loads(json.dumps(doc))
        assert [
            npa.OperatorWord.from_symbols(doc["setting"], [tuple(sym) for sym in symbols])
            for symbols in doc["words"]
        ] == words


@pytest.mark.parametrize("constraints", ["generated", "deduplicated"])
@pytest.mark.parametrize(
    "setting, objective, inequality, eps, cap",
    [
        ("1sdi", "state", "steering", 0.1, 3),
        ("1sdi", "XB", "steering", 0.06, 3),
        ("1sdi", "ZB", "chsh", 0.1, 3),
        ("di", "state", "chsh", 0.1, 2),
    ],
    ids=["1sdi-state-steering", "1sdi-XB-steering", "1sdi-ZB-chsh", "di-state-chsh-cap2"],
)
def test_file_route_matches_reduced_solution(tmp_path, setting, objective, inequality, eps, cap, constraints):
    # the exported file and the in-memory reduction pose one problem: the
    # file's ties fold into the real classes, and its minimum is the bound
    from telecert import sdp

    words = npa.generate_words(setting, cap)
    prob = npa.build_moment_problem(setting, words, objective, inequality)
    violation = cert.max_violation(setting, inequality) - eps
    path = tmp_path / "p.dat-s"
    npa.export_sdpa(prob, path, violation, constraints=constraints)
    objective_matrix, constraints = npa.read_sdpa_numeric(path)
    problem = sdp.SdpInstance(objective_matrix, sdp.Constraints(*constraints))
    companion, offset, _ = sdp.companion_instance(*sdp.fold_ties(problem))
    file_sol = sdp.solve(companion)
    assert file_sol.status == "optimal"
    result = sdp.solve_moment_problems([(prob, violation)])[0]
    assert offset - file_sol.primal_objective == pytest.approx(result.bound, abs=1e-6)


@pytest.mark.extended
def test_di_measurement_export_constraint_count(tmp_path):
    # the written header must carry the full generated constraint list
    words = npa.generate_words("di", 4)
    prob = npa.build_moment_problem("di", words, "XAXB", "chsh")
    path = tmp_path / "di.dat-s"
    info = npa.export_sdpa(prob, path, 2 * np.sqrt(2) - 0.1)
    assert info["constraints_written"] > 20000
    assert info["equality_pairs"] == 47700
    header_m = int(next(l for l in path.read_text().splitlines() if not l.startswith('"')))
    assert header_m == info["constraints_written"]
    assert_sdpa_meta(path, prob, 2 * np.sqrt(2) - 0.1, "generated")
    # both forms fit the reader's limits, and fold into the 185 real
    # classes with the violation and normalization rows left over
    from telecert import sdp

    dedup = npa.export_sdpa(prob, tmp_path / "dedup.dat-s", 2 * np.sqrt(2) - 0.1, constraints="deduplicated")
    assert (dedup["constraints_written"], dedup["dimension"]) == (3138, 81)
    for written in (path, tmp_path / "dedup.dat-s"):
        objective, cells = npa.read_sdpa_numeric(written)
        label, _, e, _, _ = sdp.fold_ties(sdp.SdpInstance(objective, sdp.Constraints(*cells)))
        assert label.max() + 1 == 185 and e.shape == (2, 185)


def test_entry_keys_conjugate_symmetric():
    # the moment identity at (k, l) pairs with (l, k) under the adjoint
    for setting, cap in (("1sdi", 3), ("di", 2)):
        words = npa.generate_words(setting, cap)
        prob = npa.build_moment_problem(setting, words, "state", "steering" if setting == "1sdi" else "chsh")
        m = len(words)
        for k in range(m):
            for l in range(m):
                alice, bob = prob.keys[prob.entry_ids[l, k]]
                assert prob.keys[prob.entry_ids[k, l]] == (alice[::-1], bob[::-1])
    w = word("di", ("A", "Z"), ("A", "X"), ("B", "Z"))
    assert (w.alice[::-1], w.bob[::-1]) == ((1, 0), (0,))


@pytest.mark.parametrize(
    "setting, words",
    [("1sdi", npa.generate_words("1sdi", cap)) for cap in (1, 2, 3)]
    + [("di", npa.generate_words("di", cap)) for cap in (1, 2, 3)]
    + [("di", npa.generate_words("di", 3) + [npa.OperatorWord("di", (0, 1, 0, 1), ())])],
    ids=["1sdi-cap1", "1sdi-cap2", "1sdi-cap3", "di-cap1", "di-cap2", "di-cap3", "di-lopsided"],
)
def test_cell_labels_match_tuple_reference(setting, words):
    # per-cell tuple keys: canon(col^dag row) through the word constructor
    b = 2 if setting == "1sdi" else 1
    entry = [
        [npa.OperatorWord(setting, col.alice[::-1] + row.alice, col.bob[::-1] + row.bob).key for col in words]
        for row in words
    ]
    keys, entry_ids = npa._entry_table(setting, words)
    assert keys == sorted({key for row in entry for key in row})
    assert [[keys[v] for v in row] for row in entry_ids.tolist()] == entry
    cell = [[(entry[r // b][c // b], r % b, c % b) for c in range(b * len(words))] for r in range(b * len(words))]
    real = [[min(cell[r][c], cell[c][r]) for c in range(len(cell))] for r in range(len(cell))]

    def ranks(grid):
        order = {value: n for n, value in enumerate(sorted({value for row in grid for value in row}))}
        return [[order[value] for value in row] for row in grid]

    complex_labels, real_labels = npa._cell_labels(entry_ids, b)
    assert complex_labels.tolist() == ranks(cell)
    assert real_labels.tolist() == ranks(real)
    try:
        problem = npa.build_moment_problem(setting, words, "state", "steering" if b == 2 else "chsh")
    except npa.MissingWordError:
        return  # cap 1 words are too short for the fidelity functional
    assert problem.keys == keys and np.array_equal(problem.entry_ids, entry_ids)
    assert problem.label.tolist() == ranks(real)


def test_identity_word_required():
    words = [w for w in npa.generate_words("1sdi", 2) if w.length > 0]
    with pytest.raises(ValueError):
        npa.build_moment_problem("1sdi", words, "state", "steering")


@pytest.mark.parametrize("setting", ["1sdi", "di"])
def test_functionals_and_moments_are_word_key_blocks(setting):
    # one shape in both settings: {(alice_word, bob_word): b x b block}
    b = 2 if setting == "1sdi" else 1
    functionals = [npa.fidelity_functional(setting, o) for o in npa.OBJECTIVES[setting]]
    functionals += [npa.inequality_functional(setting, i) for i in npa.INEQUALITIES if (setting, i) != ("di", "steering")]
    rng = np.random.default_rng(5)
    psi = qc.haar_random_vector(4, rng)
    model = qc.random_projective_model(2, rng, alice_dim=None if b == 2 else 2)
    for functional in functionals:
        keys = npa.functional_keys(setting, functional)
        assert keys == list(functional)
        moments = npa.evaluate_moments(setting, psi, model, keys)
        for blocks in (functional, moments):
            assert list(blocks) == keys
            for (alice, bob), block in blocks.items():
                assert isinstance(alice, tuple) and isinstance(bob, tuple) and block.shape == (b, b)
                assert alice == () or b == 1


def reduction_digest(problem) -> str:
    """SHA-256 of a problem's real reduction (p, q, norm, label) and its
    symmetry group, each array with its shape, integers as little-endian
    int64 and floats as float64, so that no platform integer width enters."""
    digest = hashlib.sha256()
    for array in (problem.p, problem.q, problem.norm, problem.label, *problem.group):
        array = np.asarray(array)
        array = array.astype("<i8" if array.dtype.kind in "iu" else "<f8")
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "setting, inequality, objective, cap, expected",
    [
        ("1sdi", "steering", "state", 3, "5cbff518cd190c4031a1f063ebb3a1b97a6416991633deaeaa604d619e4fff5a"),
        ("1sdi", "steering", "ZB", 3, "5cbff518cd190c4031a1f063ebb3a1b97a6416991633deaeaa604d619e4fff5a"),
        ("1sdi", "steering", "XB", 3, "8dcb488140d2539f88dafcabc734a4e646a9d5e60ab919b1f0b7edfd0d076a73"),
        ("1sdi", "chsh", "state", 3, "6370ef62544c9e9d45725bd17b85f98e4424cff5646b19acc919aed9612ef938"),
        ("1sdi", "chsh", "ZB", 3, "6370ef62544c9e9d45725bd17b85f98e4424cff5646b19acc919aed9612ef938"),
        ("1sdi", "chsh", "XB", 3, "40e3fee6cdbea4cad219d01ace7a23099582066c1c6eaee02c01f6da8505ec63"),
        ("di", "chsh", "state", 4, "70544db20b42e9088e3b07e5b112586d6ee7c5b4ea383eedd2f6721368f664c7"),
        ("di", "chsh", "ZAZB", 4, "70544db20b42e9088e3b07e5b112586d6ee7c5b4ea383eedd2f6721368f664c7"),
        ("di", "chsh", "XAXB", 4, "0e4e9d0006f62989b47c43aa751b1216fcb54c9dd1e082e855033073b81c9002"),
        ("di", "chsh", "ZAXB", 4, "f5463dfc0ed04b2da922c9b62d56b9c65116ecfa9cdabef6f195b66e82e5c089"),
        ("di", "chsh", "state", 3, "e4fc2c333723224748c7fc7937815c87dd1421d5ccaa2378c185aec9c6ea757e"),
        ("di", "chsh", "ZAZB", 3, "e4fc2c333723224748c7fc7937815c87dd1421d5ccaa2378c185aec9c6ea757e"),
        ("di", "chsh", "XAXB", 3, "a47112bdfebaaf78f75ef75210f8a15e0efa2c16fa874e503988ac422957e917"),
        ("di", "chsh", "ZAXB", 3, "5484027d4bea5399908cbafd4f780325707a2934ac90001d7155ffa82fc94a46"),
    ],
)
def test_reduced_rows_and_group_are_pinned(setting, inequality, objective, cap, expected):
    # The reduction every solve and export reads, bit for bit: the default
    # word caps (1sdi 3, di 3) and the fully untrusted cap 4, which
    # `--word-cap 4` and criterion 2 use.  A moved coefficient bit shows
    # here before it moves a solved point.
    from telecert import sdp

    assert cap == sdp.DEFAULT_WORD_CAP[setting] or (setting, cap) == ("di", 4)
    problem = npa.build_moment_problem(setting, npa.generate_words(setting, cap), objective, inequality)
    assert reduction_digest(problem) == expected


def test_sdpa_error_paths(tmp_path):
    plain = tmp_path / "plain.dat-s"
    plain.write_text("2\n1\n2\n1.0 2.0\n1 1 1 1 1.0\n2 1 2 2 1.0\n")
    objective, (owner, rows, cols, values, rhs) = npa.read_sdpa_numeric(plain)
    assert objective.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert [owner.tolist(), rows.tolist(), cols.tolist(), values.tolist(), rhs.tolist()] == [
        [0, 1], [0, 1], [0, 1], [1.0, 1.0], [1.0, 2.0]
    ]
    broken = tmp_path / "broken.dat-s"
    broken.write_text("3\n1\n2\n1.0 2.0\n")  # header claims 3, c-line has 2
    with pytest.raises(ValueError):
        npa.read_sdpa_numeric(broken)
    broken.write_text("2\n1\n2\n")  # no c-line
    with pytest.raises(ValueError, match="header is complete"):
        npa.read_sdpa_numeric(broken)
    broken.write_text("1\n2\n2\n1.0\n1 2 1 1 1.0\n")  # two blocks, one size
    with pytest.raises(ValueError, match="1 sizes for 2 blocks"):
        npa.read_sdpa_numeric(broken)
    # a zero-size block, alone or beside another, and no block at all
    for header in ("1\n1\n0\n1.0\n", "1\n2\n2 0\n1.0\n1 1 1 1 1.0\n", "1\n0\n0\n1.0\n"):
        broken.write_text(header)
        with pytest.raises(ValueError, match="block size line .*every block needs a size of at least 1"):
            npa.read_sdpa_numeric(broken)
    words = npa.generate_words("1sdi", 2)
    prob = npa.build_moment_problem("1sdi", words, "state", "steering")
    with pytest.raises(ValueError):
        npa.export_sdpa(prob, tmp_path / "x.dat-s", 1.9, constraints="everything")


def test_sdpa_reader_matches_cell_reference(tmp_path):
    # Two blocks (3 and 4) and five constraint matrices, written once in
    # order and once shuffled, with a third of the entries given below the
    # diagonal and a quarter given first with a stale value: both read to
    # the reference arrays, the cells in (matrix, row, column) order.
    rng = np.random.default_rng(7)
    sizes, m = (3, 4), 5
    offsets = np.cumsum((0,) + sizes)
    entries = {}
    for matno in range(m + 1):
        for _ in range(6):
            blk = int(rng.integers(1, 3))
            i, j = sorted(int(x) for x in rng.integers(1, sizes[blk - 1] + 1, size=2))
            entries[matno, blk, i, j] = float(rng.uniform(-1.0, 1.0))
    objective = np.zeros((7, 7))
    cells = []
    for (matno, blk, i, j), val in sorted(entries.items()):
        r, c = offsets[blk - 1] + i - 1, offsets[blk - 1] + j - 1
        if matno == 0:
            objective[r, c] = objective[c, r] = -val
        else:
            cells.append((matno - 1, r, c, val))
    owner, rows, cols, values = (np.array(a) for a in zip(*cells))
    rhs = rng.uniform(-1.0, 1.0, m)
    head = f"{m}\n2\n{{3, 4}}\n" + " ".join(repr(float(b)) for b in rhs) + "\n"
    ordered = [f"{matno} {blk} {i} {j} {val!r}" for (matno, blk, i, j), val in entries.items()]
    shuffled = []
    for n in rng.permutation(len(entries)):
        (matno, blk, i, j), val = list(entries.items())[n]
        if rng.random() < 0.25:
            shuffled.append(f"{matno} {blk} {i} {j} {val + 1.0!r}")
        if rng.random() < 0.33:
            i, j = j, i
        shuffled.append(f"{matno} {blk} {i} {j} {val!r}")
    assert len(shuffled) > len(ordered)
    for body in (ordered, shuffled):
        path = tmp_path / "cells.dat-s"
        path.write_text(head + "\n".join(body) + "\n")
        got_objective, got = npa.read_sdpa_numeric(path)
        assert np.array_equal(got_objective, objective)
        for a, b in zip(got, (owner, rows, cols, values, rhs)):
            assert np.array_equal(a, b)


def test_swap_symmetry_detection(altered):
    words = npa.generate_words("di", 4)
    identity = np.arange(len(words))
    parity = (-1.0) ** np.array([w.length for w in words])
    for objective in ("state", "ZAZB", "XAXB"):
        reduced = npa.build_moment_problem("di", words, objective, "chsh")
        word_image, word_sign, class_image, class_sign = reduced.group
        # identity, swap, flip and swap plus flip
        assert len(word_image) == 4
        assert np.array_equal(word_image[0], identity) and np.all(word_sign[0] == 1.0)
        swap = word_image[1]
        # an involution of the 81 words fixing the 9 with equal local words
        assert np.all(word_sign[1] == 1.0)
        assert np.array_equal(swap[swap], identity)
        assert [words[k].alice for k in np.flatnonzero(swap == identity)] == [
            words[k].bob for k in np.flatnonzero(swap == identity)
        ]
        assert np.count_nonzero(swap == identity) == 9
        assert np.array_equal(class_image[1][class_image[1]], np.arange(185))
        assert len(np.unique(np.minimum(np.arange(185), class_image[1]))) == 101
        # the flip fixes every word and class, with sign (-1)^length
        assert np.array_equal(word_image[2], identity) and np.array_equal(word_sign[2], parity)
        assert np.array_equal(class_image[2], np.arange(185))
        assert np.count_nonzero(class_sign[2] < 0) == 80
        assert np.array_equal(word_image[3], swap) and np.array_equal(word_sign[3], parity)
    # a class whose cells the swap sends into two classes, and the flip
    # with two signs
    image = class_image[1]
    moved = np.flatnonzero((image != np.arange(185)) & (class_sign[2] > 0))
    u = moved[0]
    w = next(v for v in moved if v not in (u, image[u]))
    label = reduced.label.copy()
    cell_u, cell_w = np.flatnonzero(label == u)[0], np.flatnonzero(label == w)[0]
    label.flat[cell_u], label.flat[cell_w] = w, u
    word_image, word_sign, _, _ = npa.symmetry_group(altered(reduced, label=label))
    assert np.array_equal(word_image, [identity, identity]) and np.array_equal(word_sign, [np.ones(81), parity])
    odd = np.flatnonzero(class_sign[2] < 0)[0]
    label.flat[np.flatnonzero(label == odd)[0]] = u
    assert len(npa.symmetry_group(altered(reduced, label=label))[0]) == 1
    # ZAXB becomes XAZB under the swap, and keeps only the flip
    zaxb = npa.build_moment_problem("di", words, "ZAXB", "chsh")
    word_image, word_sign, _, _ = zaxb.group
    assert np.array_equal(word_image, [identity, identity]) and np.array_equal(word_sign, [np.ones(81), parity])
    # an odd objective term keeps the flip out, and the swap with it unless
    # the term's swap image is there too
    position = {w.key: k for k, w in enumerate(words)}
    za, zb = (reduced.label[position[key], 0] for key in (((0,), ()), ((), (0,))))
    for terms, order in (([za], 1), ([za, zb], 2)):
        p = reduced.p.copy()
        p[terms] = 0.3
        word_image, word_sign, _, _ = npa.symmetry_group(altered(reduced, p=p))
        assert len(word_image) == order and np.all(word_sign == 1.0)
    # a word whose swap image is not in the list: the flip alone
    lopsided = npa.generate_words("di", 3) + [npa.OperatorWord("di", (0, 1, 0, 1), ())]
    reduced = npa.build_moment_problem("di", lopsided, "state", "chsh")
    assert len(reduced.group[0]) == 2
    # one-sided problems have the trivial group
    one_sided = npa.build_moment_problem("1sdi", npa.generate_words("1sdi", 3), "state", "steering")
    word_image, word_sign, class_image, class_sign = one_sided.group
    assert np.array_equal(word_image, [np.arange(14)]) and np.array_equal(word_sign, np.ones((1, 14)))
    assert np.array_equal(class_image, [np.arange(len(one_sided.p))]) and np.all(class_sign == 1.0)
