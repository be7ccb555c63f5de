import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from recoupler import (
    PRESET_NAMES,
    SYMMETRIC,
    CapacityError,
    CodeSpec,
    DimensionError,
    PauliSum,
    UnsupportedGeneratorError,
    ValidationError,
    background_hamiltonian,
    conjugate,
    preset_model,
    to_matrix,
    toggled_generator,
)
from recoupler.encoding import code_states
from recoupler.pauli import coset_blocks, coset_index, coset_rows, split_central
from recoupler.pauli import x_basis, x_span

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense(letters):
    m = np.array([[1.0 + 0j]])
    for c in letters:  # spin 1 least significant
        m = np.kron(MATS[c], m)
    return m


def dense_sum(s):
    """The kron realization of a PauliSum: the exact oracle for to_matrix."""
    out = np.zeros((2**s.n, 2**s.n), dtype=complex)
    for letters, coeff in s.terms.items():
        out += coeff * dense(letters)
    return out


def one(letters, power=0):
    """The phased string i**power * letters as a one-term sum."""
    return PauliSum(len(letters), {letters: 1j**power})


def all_strings(n):
    return [one("".join(s), k) for s in product("IXYZ", repeat=n) for k in range(4)]


def random_string(rng, n):
    return one("".join(rng.choice(list("IXYZ"), size=n)), int(rng.integers(4)))


class TestProduct:
    def test_single_qubit_xy(self):
        assert (one("X") @ one("Y")).terms == {"Z": 1j}  # X Y = i Z

    def test_sitewise_product(self):
        assert (one("XI") @ one("XZ")).terms == {"IZ": 1.0}

    def test_phase_group_closure(self):
        iz = one("Z", 1)
        assert (iz @ iz).terms == {"I": -1.0}  # (iZ)^2 = -I

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            one("X") @ one("XZ")

    def test_associative_and_phase_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            p, q, r = (random_string(rng, n) for _ in range(3))
            assert ((p @ q) @ r).terms == (p @ (q @ r)).terms

    def test_matches_dense(self):
        for n in (1, 2):  # every string pair, every phase
            strings = all_strings(n)
            for p, q in product(strings, strings):
                got = p @ q
                assert len(got) == 1, (p, q)
                assert np.array_equal(dense_sum(got), dense_sum(p) @ dense_sum(q)), (p, q)


class TestCommutation:
    @pytest.mark.parametrize(
        "a,b,expect",
        [("XI", "IZ", True), ("X", "Z", False), ("XZ", "ZX", True)],
    )
    def test_examples(self, a, b, expect):
        assert (one(a).commutator(one(b)).norm() == 0) is expect

    def test_exhaustive_vs_dense(self):
        for n in (1, 2, 3):
            strings = ["".join(s) for s in product("IXYZ", repeat=n)]
            for a in strings:
                for b in strings:
                    ma, mb = dense(a), dense(b)
                    dense_comm = bool(np.linalg.norm(ma @ mb - mb @ ma) < 1e-12)
                    assert (one(a).commutator(one(b)).norm() == 0) is dense_comm, (a, b)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            one("XX").commutator(one("X"))


class TestLetters:
    def test_rejects_unknown_letters(self):
        with pytest.raises(ValidationError, match="invalid Pauli letters 'AB'"):
            PauliSum(2, {"AB": 1.0})

    @pytest.mark.parametrize("letters", ["A", "x", " "])
    def test_sum_rejects_unknown_letters(self, letters):
        with pytest.raises(ValidationError, match="invalid Pauli letters"):
            PauliSum(1, {letters: 1.0})

    def test_letters_round_trip(self):
        for n in (1, 2, 3):
            for s in product("IXYZ", repeat=n):
                letters = "".join(s)
                p = PauliSum(n, {letters: 0.5})
                assert p.terms == {letters: 0.5}
                assert list(p) == [(letters, 0.5)]
                assert p.coeff(letters) == 0.5

    def test_coeff_lookup(self):
        s = PauliSum(2, {"XZ": 1.5, "YI": -2j})
        assert s.coeff("YI") == -2j and s.coeff("ZZ") == 0
        assert s.arrays.coeffs.tolist() == [1.5, -2j]
        with pytest.raises(DimensionError):
            s.coeff("X")
        with pytest.raises(ValidationError, match="invalid Pauli letters 'AB'"):
            s.coeff("AB")

    def test_repr_sorted_by_letters(self):
        s = PauliSum(2, {"ZI": 1.0, "XY": -0.5j})
        assert repr(s) == "(0-0.5j)*XY + (1+0j)*ZI"  # no negative zero
        assert repr(PauliSum.zero(3)) == "PauliSum(n=3, 0)"


class TestPauliSum:
    def test_merges_and_drops(self):
        s = PauliSum(1, {"X": 0.5}) + PauliSum(1, {"X": -0.5})
        assert len(s) == 0
        t = PauliSum(1, {"X": 1e-15})
        assert len(t) == 0

    def test_keeps_nan(self):
        s = PauliSum(1, {"Z": float("nan")})
        assert len(s) == 1 and np.isnan(s.coeff("Z"))

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
        out = out + coeff * random_string(rng, n)
    return out


class TestConjugate:
    def test_anticommuting_flips_at_half_pi(self):
        a = one("X")
        b = one("Z")
        assert conjugate(a, np.pi / 2, b) == -1.0 * b

    def test_commuting_unchanged(self):
        a = one("XI")
        b = one("IZ")
        assert conjugate(a, np.pi / 2, b) == b

    def test_quarter_turn(self):
        a = one("X")
        b = one("Z")
        got = conjugate(a, np.pi / 4, b)
        assert got == -1.0 * one("Y")

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
        b = one("Z")
        with pytest.raises(UnsupportedGeneratorError):
            conjugate(a, np.pi / 2, b)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            conjugate(one("X"), np.pi / 2, one("ZZ"))

    def test_rejects_non_unit_coefficient(self):
        a = PauliSum(1, {"X": 0.5})
        b = one("Z")
        with pytest.raises(UnsupportedGeneratorError):
            conjugate(a, np.pi / 2, b)


class TestToMatrix:
    def test_identity(self):
        assert np.array_equal(to_matrix(one("I")), np.eye(2))

    def test_sigma_z_convention(self):
        # |up> = |0> is the +1 eigenvector
        assert np.array_equal(to_matrix(one("Z")), np.diag([1.0, -1.0]))

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
            lhs = to_matrix(p @ q)
            rhs = to_matrix(p) @ to_matrix(q)
            assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_capacity_error(self, monkeypatch):
        monkeypatch.setenv("RECOUPLER_MAX_SPINS", "6")
        with pytest.raises(CapacityError):
            to_matrix(one("I" * 7))
        monkeypatch.setenv("RECOUPLER_MAX_SPINS", "8")
        to_matrix(one("I" * 7))  # now fits

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_equals_kron_oracle_on_preset_generators(self, preset):
        for n in (2, 4, 6, 8):
            model = preset_model(preset, n)
            full = replace(model, controllable=frozenset())  # every coupling always on
            gens = [background_hamiltonian(model), background_hamiltonian(full)]
            gens += [toggled_generator(model, h) for h in sorted(model.controllable)]
            for gen in gens:
                assert np.array_equal(to_matrix(gen), dense_sum(gen)), (preset, n, gen)

    def test_equals_kron_oracle_on_random_complex_sums(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            s = _random_sum(rng, n, terms=int(rng.integers(1, 12)))
            assert np.array_equal(to_matrix(s), dense_sum(s)), s


def _scattered(states, blocks):
    """The 2**n x 2**n matrix whose restriction to each coset states[c] is blocks[c]."""
    out = np.zeros((states.size, states.size), dtype=complex)
    for rows, block in zip(states, blocks):
        out[np.ix_(rows, rows)] = block
    return out


def coset_split(s, rows, basis):
    """(at, blocks) of `s` over the cosets of the span of `basis` = x_basis(s) in `rows`:
    `coset_index`, then `coset_blocks` of its states, as `_evolve` composes them."""
    at, states = coset_index(rows, basis)
    return at, coset_blocks(s.arrays, states, basis)


def every_block(s):
    """coset_split over every basis state."""
    return coset_split(s, np.arange(2**s.n), x_basis(s.arrays))


def affine_starts(rng, n):
    """A random affine space c0 ^ C of n-spin states in random order, as a code is: each
    coset of a span meets it in as many states, as `coset_rows` requires of its starts."""
    c = x_span(x_basis(_random_sum(rng, n, terms=int(rng.integers(0, 3))).arrays))
    return rng.permutation(c ^ int(rng.integers(0, 2**n)))


class TestCosetBlocks:
    def test_random_complex_sums_scatter_back_to_the_matrix(self):
        rng = np.random.default_rng(17)
        for n in range(1, 7):
            for _ in range(12):
                s = _random_sum(rng, n, terms=int(rng.integers(0, 9)))
                states, blocks = every_block(s)
                assert sorted(states.ravel()) == list(range(2**n)), s
                assert np.array_equal(_scattered(states, blocks), to_matrix(s)), s

    def test_rows_keep_only_the_cosets_inside_them(self):
        rng = np.random.default_rng(18)
        for n in range(1, 7):
            for _ in range(12):
                s = _random_sum(rng, n, terms=int(rng.integers(0, 6)))
                wider = x_basis(s.arrays, _random_sum(rng, n, terms=int(rng.integers(0, 3))).arrays)
                starts = affine_starts(rng, n)
                rows = coset_rows(wider, starts)[0]
                at, blocks = coset_split(s, rows, x_basis(s.arrays))
                states = rows[at]
                assert sorted(states.ravel()) == list(rows), s
                assert set(starts) <= set(rows), s
                full = to_matrix(s)
                for coset, block in zip(states, blocks):
                    assert np.array_equal(block, full[np.ix_(coset, coset)]), s
                    outside = np.setdiff1d(np.arange(2**n), coset)
                    assert not full[np.ix_(outside, coset)].any(), s

    def test_x_basis_is_reduced_and_spans_every_x_mask(self):
        rng = np.random.default_rng(19)
        for n in range(1, 7):
            sums = [_random_sum(rng, n, terms=int(rng.integers(0, 5))) for _ in range(3)]
            basis = x_basis(*(t.arrays for t in sums))
            for bit, vec in basis.items():
                assert vec >> bit & 1 and all(not other >> bit & 1 for other in basis.values()
                                              if other != vec)
            span = coset_rows(basis, np.zeros(1, dtype=np.int64))[0]
            assert len(set(span.tolist())) == span.size == 2 ** len(basis)
            masks = {sum(1 << i for i, c in enumerate(k) if c in "XY") for t in sums for k in t.terms}
            assert masks <= set(span.tolist())
            starts = affine_starts(rng, n)
            rows = coset_rows(basis, starts)[0]
            assert rows.tolist() == sorted(set((starts[:, None] ^ span).ravel().tolist()))

    def test_coset_rows_give_each_coset_a_row_of_its_starts_in_start_order(self):
        rng = np.random.default_rng(20)
        for n in range(1, 7):
            sums = [_random_sum(rng, n, terms=int(rng.integers(0, 4))) for _ in range(2)]
            basis = x_basis(*(t.arrays for t in sums))
            span = x_span(basis)
            for starts in (np.arange(2**n), affine_starts(rng, n)):
                rows, cosets = coset_rows(basis, starts)
                assert rows.tolist() == sorted(set((starts[:, None] ^ span).ravel().tolist()))
                assert sorted(cosets.ravel().tolist()) == list(range(starts.size))
                assert len({min(starts[held[0]] ^ span) for held in cosets}) == len(cosets)
                for held in cosets:  # every start of the coset, in start order
                    coset = starts[held[0]] ^ span
                    assert held.tolist() == np.flatnonzero(np.isin(starts, coset)).tolist()
            # the register's cosets each hold all 2**r of their states
            assert coset_rows(basis, np.arange(2**n))[1].shape == (2**n // span.size, span.size)

    def test_coset_rows_allocate_nothing_register_sized(self):
        # 16 code states of 8 spins and one flip of spins 25 and 26: n = 26, where a
        # mark per register state would take 64 MiB
        code, flip = code_states(CodeSpec(SYMMETRIC, 8)), 1 << 24 | 1 << 25
        tracemalloc.start()
        try:
            rows, cosets = coset_rows({25: flip}, code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak} bytes"
        assert rows.tolist() == sorted([*code.tolist(), *(code ^ flip).tolist()])
        assert cosets.tolist() == [[i] for i in np.argsort(code)]

    def test_central_terms_are_a_number_per_coset_and_the_rest_sees_only_rep_and_seen(self):
        rng = np.random.default_rng(21)
        central_terms = shared = 0
        for n in range(1, 7):
            for _ in range(12):
                s = _random_sum(rng, n, terms=int(rng.integers(1, 9)))
                basis = x_basis(s.arrays)
                central, rest, seen = split_central(s.arrays, basis)
                assert len(central.x) + len(rest.x) == len(s.arrays.x), s
                assert not central.x.any() and not seen & sum(1 << bit for bit in basis), s
                _, states = coset_index(np.arange(2**n), basis)
                scalars = coset_blocks(central, states, basis)
                assert np.array_equal(scalars, scalars[:, :1, :1] * np.eye(states.shape[1])), s
                blocks = coset_blocks(rest, states, basis)
                assert np.allclose(blocks + scalars, every_block(s)[1], atol=1e-14), s
                reps = states[:, 0]
                for c, rep in enumerate(reps):
                    same = (reps & seen) == (rep & seen)
                    assert (blocks[same] == blocks[c]).all(), s
                    shared += same.sum() - 1
                central_terms += len(central.x)
        assert central_terms and shared  # both halves of the split are exercised

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_empty_sum_is_one_zero_per_state(self, n):
        states, blocks = every_block(PauliSum.zero(n))
        assert states.shape == (2**n, 1) and sorted(states.ravel()) == list(range(2**n))
        assert blocks.shape == (2**n, 1, 1) and not blocks.any()

    def test_block_size_is_two_to_the_x_mask_rank(self):
        diagonal = PauliSum(4, {"ZZII": 0.3, "IIZI": -1.0, "IIII": 2.0})
        pulses = PauliSum(4, {"XXII": 0.5, "YYII": 0.5, "IIXX": 0.5, "IIYY": -0.5, "ZIIZ": 1.0})
        dependent = PauliSum(4, {"XXII": 1.0, "IXXI": 1.0, "XIXI": 1.0})  # rank 2, not 3
        for s, rank in ((diagonal, 0), (pulses, 2), (dependent, 2), (one("XYZX"), 1)):
            states, blocks = every_block(s)
            assert states.shape == (2 ** (4 - rank), 2**rank), s
            assert blocks.shape == (2 ** (4 - rank), 2**rank, 2**rank), s

    def test_rows_must_be_a_union_of_cosets(self):
        # X on spin 1 pairs state 0 with state 1, which the rows leave out
        spin_1, spin_2 = PauliSum(2, {"XI": 1.0}), PauliSum(2, {"IX": 1.0})
        with pytest.raises(ValidationError, match="rows are not a union of cosets of the span"):
            coset_index(np.array([0]), x_basis(spin_1.arrays))
        with pytest.raises(ValidationError, match="rows are not a union of cosets of the span"):
            coset_index(np.array([0, 1]), x_basis(spin_2.arrays))
        at, blocks = coset_split(spin_2, np.array([1, 3]), x_basis(spin_2.arrays))
        assert at.tolist() == [[0, 1]] and np.array_equal(blocks, [[[0, 1], [1, 0]]])
