from itertools import product

import numpy as np
import pytest

from recoupler import (
    PRESET_NAMES,
    CapacityError,
    DimensionError,
    PauliString,
    PauliSum,
    UnsupportedGeneratorError,
    ValidationError,
    background_hamiltonian,
    build_exchange,
    commutes,
    conjugate,
    mul,
    preset_model,
    single,
    to_matrix,
    toggled_generator,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense(letters, power=0):
    m = np.array([[1.0 + 0j]])
    for c in letters:  # spin 1 least significant
        m = np.kron(MATS[c], m)
    return (1j**power) * m


def dense_sum(s):
    """The kron realization of a PauliSum: the exact oracle for to_matrix."""
    out = np.zeros((2**s.n, 2**s.n), dtype=complex)
    for letters, coeff in s:
        out += coeff * dense(letters)
    return out


def all_strings(n):
    return [PauliString("".join(s), k) for s in product("IXYZ", repeat=n) for k in range(4)]


def random_string(rng, n):
    return PauliString("".join(rng.choice(list("IXYZ"), size=n)), int(rng.integers(4)))


class TestMul:
    def test_single_qubit_xy(self):
        p = mul(PauliString("X"), PauliString("Y"))
        assert p == PauliString("Z", 1)  # X Y = i Z

    def test_sitewise_product(self):
        p = mul(PauliString("XI"), PauliString("XZ"))
        assert p == PauliString("IZ", 0)

    def test_phase_group_closure(self):
        iz = PauliString("Z", 1)
        assert mul(iz, iz) == PauliString("I", 2)  # (iZ)^2 = -I

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            mul(PauliString("X"), PauliString("XZ"))

    def test_associative_and_phase_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            p, q, r = (random_string(rng, n) for _ in range(3))
            assert mul(mul(p, q), r) == mul(p, mul(q, r))

    def test_matches_dense(self):
        for n in (1, 2):  # every string pair, every phase
            strings = all_strings(n)
            for p, q in product(strings, strings):
                got = mul(p, q)
                want = dense(p.letters, p.power) @ dense(q.letters, q.power)
                assert np.array_equal(dense(got.letters, got.power), want), (p, q)


class TestCommutes:
    @pytest.mark.parametrize(
        "a,b,expect",
        [("XI", "IZ", True), ("X", "Z", False), ("XZ", "ZX", True)],
    )
    def test_examples(self, a, b, expect):
        assert commutes(PauliString(a), PauliString(b)) is expect

    def test_exhaustive_vs_dense(self):
        for n in (1, 2, 3):
            strings = ["".join(s) for s in product("IXYZ", repeat=n)]
            for a in strings:
                for b in strings:
                    ma, mb = dense(a), dense(b)
                    dense_comm = bool(np.linalg.norm(ma @ mb - mb @ ma) < 1e-12)
                    assert commutes(PauliString(a), PauliString(b)) is dense_comm

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            commutes(PauliString("XX"), PauliString("X"))


class TestLetters:
    def test_string_rejects_unknown_letters(self):
        with pytest.raises(ValidationError, match="invalid Pauli letters 'AB'"):
            PauliString("AB")

    @pytest.mark.parametrize("letters", ["A", "x", " "])
    def test_sum_rejects_unknown_letters(self, letters):
        with pytest.raises(ValidationError, match="invalid Pauli letters"):
            PauliSum(1, {letters: 1.0})


class TestPauliSum:
    def test_merges_and_drops(self):
        s = PauliSum(1, {"X": 0.5}) + PauliSum(1, {"X": -0.5})
        assert len(s) == 0
        t = PauliSum(1, {"X": 1e-15})
        assert len(t) == 0

    def test_hermitian_iff_real(self):
        assert PauliSum(2, {"XZ": 1.5, "II": -2.0}).is_hermitian()
        assert not PauliSum(2, {"XZ": 1.5j}).is_hermitian()

    def test_product_matches_dense(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = 3
            a = _random_sum(rng, n)
            b = _random_sum(rng, n)
            assert np.allclose(to_matrix(a @ b), to_matrix(a) @ to_matrix(b), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            PauliSum(2, {"X": 1.0})
        with pytest.raises(DimensionError):
            PauliSum(1, {"X": 1.0}) + PauliSum(2, {"XX": 1.0})


def _random_sum(rng, n, terms=4):
    out = PauliSum.zero(n)
    for _ in range(terms):
        coeff = complex(rng.normal(), rng.normal())
        out = out + PauliSum.from_string(random_string(rng, n), coeff)
    return out


class TestConjugate:
    def test_anticommuting_flips_at_half_pi(self):
        a = PauliSum.from_string(single(1, 1, "X"))
        b = PauliSum.from_string(single(1, 1, "Z"))
        assert conjugate(a, np.pi / 2, b) == -1.0 * b

    def test_commuting_unchanged(self):
        a = PauliSum.from_string(single(2, 1, "X"))
        b = PauliSum.from_string(single(2, 2, "Z"))
        assert conjugate(a, np.pi / 2, b) == b

    def test_quarter_turn(self):
        a = PauliSum.from_string(single(1, 1, "X"))
        b = PauliSum.from_string(single(1, 1, "Z"))
        got = conjugate(a, np.pi / 4, b)
        assert got == -1.0 * PauliSum.from_string(single(1, 1, "Y"))

    def test_matches_dense_conjugation(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            letters = "".join(rng.choice(list("IXYZ"), size=n))
            sign = float(rng.choice([1.0, -1.0]))
            a = PauliSum(n, {letters: sign})
            b = _random_sum(rng, n)
            theta = float(rng.uniform(-np.pi, np.pi))
            u = expm(-1j * theta * to_matrix(a))
            want = u @ to_matrix(b) @ u.conj().T
            assert np.linalg.norm(to_matrix(conjugate(a, theta, b)) - want) < 1e-12

    def test_rejects_multi_string_generator(self):
        a = PauliSum(1, {"X": 1.0, "Z": 1.0})
        b = PauliSum.from_string(single(1, 1, "Z"))
        with pytest.raises(UnsupportedGeneratorError):
            conjugate(a, np.pi / 2, b)

    def test_rejects_non_unit_coefficient(self):
        a = PauliSum(1, {"X": 0.5})
        b = PauliSum.from_string(single(1, 1, "Z"))
        with pytest.raises(UnsupportedGeneratorError):
            conjugate(a, np.pi / 2, b)


class TestToMatrix:
    def test_identity(self):
        assert np.array_equal(to_matrix(PauliString("I")), np.eye(2))

    def test_sigma_z_convention(self):
        # |up> = |0> is the +1 eigenvector
        assert np.array_equal(to_matrix(PauliString("Z")), np.diag([1.0, -1.0]))

    def test_flip_flop_matrix_elements(self):
        from recoupler import build_T

        t = to_matrix(build_T(2, 1, 2))
        want = np.zeros((4, 4))
        want[2, 1] = want[1, 2] = 1.0  # |ud><du| + |du><ud|; spin 1 least significant
        assert np.allclose(t, want, atol=1e-15)

    def test_homomorphism(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            p, q = random_string(rng, n), random_string(rng, n)
            pq = mul(p, q)
            lhs = to_matrix(PauliSum.from_string(pq))
            rhs = to_matrix(PauliSum.from_string(p)) @ to_matrix(PauliSum.from_string(q))
            assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_capacity_error(self, monkeypatch):
        monkeypatch.setenv("RECOUPLER_MAX_SPINS", "6")
        with pytest.raises(CapacityError):
            to_matrix(PauliString("I" * 7))
        monkeypatch.setenv("RECOUPLER_MAX_SPINS", "8")
        to_matrix(PauliString("I" * 7))  # now fits

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_equals_kron_oracle_on_preset_generators(self, preset):
        for n in (2, 4, 6, 8):
            model = preset_model(preset, n)
            gens = [background_hamiltonian(model), build_exchange(model)]
            gens += [toggled_generator(model, h) for h in sorted(model.controllable)]
            for gen in gens:
                assert np.array_equal(to_matrix(gen), dense_sum(gen)), (preset, n, gen)

    def test_equals_kron_oracle_on_random_complex_sums(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            s = _random_sum(rng, n, terms=int(rng.integers(1, 12)))
            assert np.array_equal(to_matrix(s), dense_sum(s)), s
