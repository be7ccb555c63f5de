import tracemalloc

import numpy as np
import pytest

from recoupler import (
    ANTISYMMETRIC,
    SYMMETRIC,
    CodeSpec,
    DimensionError,
    PauliSum,
    ValidationError,
    code_isometry,
    decode,
    encode,
    fidelity,
    logical_matrix,
    r_x,
    r_z,
    restrict,
    t_x,
    t_z,
    to_matrix,
)
from recoupler.encoding import code_states

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def pstr(n, sites):
    letters = ["I"] * n
    for i, a in sites.items():
        letters[i - 1] = a
    return PauliSum(n, {"".join(letters): 1.0})


def code_index(spec, logical):
    """Physical basis index of logical state |logical>, one bit pair at a time: the
    per-index oracle for `code_states`."""
    pats = {SYMMETRIC: ((0, 1), (1, 0)), ANTISYMMETRIC: ((0, 0), (1, 1))}[spec.sector]
    idx = 0
    for m in range(spec.n_logical):
        b1, b2 = pats[(logical >> m) & 1]
        idx |= b1 << (2 * m)
        idx |= b2 << (2 * m + 1)
    return idx


def projector(spec):
    """V V^dag for the code isometry V."""
    v = code_isometry(spec)
    return v @ v.conj().T


class TestProjector:
    @pytest.mark.parametrize(
        "sector,n,rank", [(SYMMETRIC, 2, 2), (ANTISYMMETRIC, 2, 2), (SYMMETRIC, 4, 4)]
    )
    def test_rank_and_idempotence(self, sector, n, rank):
        spec = CodeSpec(sector, n)
        v = code_isometry(spec)
        assert np.array_equal(v.conj().T @ v, np.eye(rank))
        p = projector(spec)
        assert np.linalg.matrix_rank(p) == rank
        assert np.allclose(p @ p, p, atol=1e-14)
        assert np.allclose(p, p.conj().T, atol=1e-14)

    @pytest.mark.parametrize("sector", [SYMMETRIC, ANTISYMMETRIC])
    def test_code_states_match_code_index(self, sector):
        for n in (2, 4, 6, 12):
            spec = CodeSpec(sector, n)
            want = [code_index(spec, logical) for logical in range(2 ** (n // 2))]
            assert code_states(spec).tolist() == want
            assert code_isometry(spec)[want, range(len(want))].tolist() == [1.0] * len(want)

    def test_code_states_are_built_once_and_read_only(self):
        states = code_states(CodeSpec(ANTISYMMETRIC, 6))
        assert code_states(CodeSpec(ANTISYMMETRIC, 6)) is states
        with pytest.raises(ValueError, match="read-only"):
            states[0] = 1
        assert code_states(CodeSpec(ANTISYMMETRIC, 6)).tolist() == [0, 3, 12, 15, 48, 51, 60, 63]

    def test_symmetric_two_spin_span(self):
        p = projector(CodeSpec(SYMMETRIC, 2))
        # spans |ud> (index 2) and |du> (index 1)
        assert np.allclose(np.diag(p), [0, 1, 1, 0])

    def test_antisymmetric_two_spin_span(self):
        p = projector(CodeSpec(ANTISYMMETRIC, 2))
        assert np.allclose(np.diag(p), [1, 0, 0, 1])


class TestEncodeDecode:
    def test_encode_basis_state(self):
        spec = CodeSpec(SYMMETRIC, 4)
        psi = encode(spec, np.array([1, 0, 0, 0]))
        # |0_L 0_L> = |ud ud>: bits (0,1,0,1) -> index 10
        assert psi[10] == 1.0 and np.linalg.norm(psi) == 1.0
        assert code_index(spec, 0) == 10

    def test_roundtrip_isometry(self):
        rng = np.random.default_rng(21)
        spec = CodeSpec(ANTISYMMETRIC, 4)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        out, leak = decode(spec, encode(spec, psi))
        assert leak == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(out, psi)

    def test_full_leakage(self):
        spec = CodeSpec(SYMMETRIC, 4)
        psi = np.zeros(16)
        psi[8] = 1.0  # |uuud>: pair 1 in the antisymmetric sector
        out, leak = decode(spec, psi)
        assert out is None and leak == 1.0

    def test_code_state_has_zero_leakage(self):
        # read off the entries outside the code states, not as sqrt(1 - |P psi|^2)
        out, leak = decode(CodeSpec(SYMMETRIC, 2), [0, 1, 1, 0])
        assert leak == 0.0 and np.allclose(out, [np.sqrt(0.5)] * 2)

    def test_partial_leakage(self):
        spec = CodeSpec(SYMMETRIC, 2)
        psi = np.zeros(4, dtype=complex)
        psi[2] = np.sqrt(0.75)  # in-code |ud>
        psi[0] = 0.5  # out-of-code |uu>
        out, leak = decode(spec, psi)
        assert leak == pytest.approx(0.5)
        assert np.allclose(out, [1.0, 0.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_entries_decode_without_overflow(self):
        spec = CodeSpec(SYMMETRIC, 2)  # code states |ud> = 2 and |du> = 1
        for huge, phase in ((1e308, 1), (1.7e308 + 1.7e308j, (1 + 1j) / np.sqrt(2)), (-1e300j, -1j)):
            out, leak = decode(spec, [0, huge, huge, 0])
            assert np.allclose(out, np.full(2, np.sqrt(0.5) * phase), rtol=0, atol=1e-15)
            assert leak == 0.0
        # a power-of-two scale changes nothing, down to subnormal entries
        psi = np.array([0.25, 1 - 2j, 0.5j, 3.0])
        want_out, want_leak = decode(spec, psi)
        for scale in (2.0**1000, 2.0**-1070):
            out, leak = decode(spec, psi * scale)
            assert np.array_equal(out, want_out) and leak == want_leak

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(1, np.inf)])
    def test_non_finite_states_raise(self, bad):
        spec = CodeSpec(SYMMETRIC, 2)
        with pytest.raises(ValidationError, match="physical state has a non-finite entry"):
            decode(spec, [0, 1, bad, 0])
        with pytest.raises(ValidationError, match="physical state has a non-finite entry"):
            decode(spec, [bad, 1, 0, 0])  # outside the code space too
        with pytest.raises(ValidationError, match="logical state has a non-finite entry"):
            encode(spec, [1, bad])

    def test_dimension_checks(self):
        spec = CodeSpec(SYMMETRIC, 4)
        with pytest.raises(DimensionError):
            encode(spec, np.zeros(3))
        with pytest.raises(DimensionError):
            decode(spec, np.zeros(8))


class TestLogicalMatrix:
    def test_tz_is_logical_Z(self):
        spec = CodeSpec(SYMMETRIC, 2)
        got = logical_matrix(t_z(2, 1), spec)
        assert np.allclose(got, Z)

    def test_tx_is_logical_X(self):
        spec = CodeSpec(SYMMETRIC, 2)
        got = logical_matrix(t_x(2, 1), spec)
        assert np.allclose(got, X)

    def test_r_family_on_antisymmetric(self):
        spec = CodeSpec(ANTISYMMETRIC, 2)
        assert np.allclose(logical_matrix(r_z(2, 1), spec), Z)
        assert np.allclose(logical_matrix(r_x(2, 1), spec), X)

    def test_spin_count_mismatch(self):
        with pytest.raises(DimensionError, match="operator acts on 4 spins, code has 2"):
            logical_matrix(t_x(4, 1), CodeSpec(SYMMETRIC, 2))

    def test_dense_matrix_rejected(self):
        with pytest.raises(ValidationError, match="logical_matrix takes a PauliSum, got ndarray"):
            logical_matrix(to_matrix(t_x(2, 1)), CodeSpec(SYMMETRIC, 2))

    def test_interpair_zz_compresses_to_minus_zz(self):
        spec = CodeSpec(SYMMETRIC, 4)
        got = logical_matrix(pstr(4, {2: "Z", 3: "Z"}), spec)
        assert np.allclose(got, -np.kron(Z, Z))

    def test_interpair_zz_on_antisymmetric_is_plus_zz(self):
        spec = CodeSpec(ANTISYMMETRIC, 4)
        got = logical_matrix(pstr(4, {2: "Z", 3: "Z"}), spec)
        assert np.allclose(got, np.kron(Z, Z))


class TestAlgebra:
    @pytest.mark.parametrize("n_logical", [1, 2, 3])
    def test_logical_pauli_algebra(self, n_logical):
        n = 2 * n_logical
        spec = CodeSpec(SYMMETRIC, n)
        for m in range(1, n_logical + 1):
            xm = logical_matrix(t_x(n, m), spec)
            zm = logical_matrix(t_z(n, m), spec)
            dim = 2**n_logical
            assert np.allclose(xm @ zm, -zm @ xm, atol=1e-14)
            assert np.allclose(xm @ xm, np.eye(dim), atol=1e-14)
            assert np.allclose(zm @ zm, np.eye(dim), atol=1e-14)

    def test_cross_family_commutation_full_space(self):
        for a in (t_x(4, 1), t_z(4, 1)):
            for b in (r_x(4, 1), r_z(4, 1)):
                assert a.commutator(b).norm() == 0.0

    def test_different_slots_commute_and_factorize(self):
        spec = CodeSpec(SYMMETRIC, 4)
        x1 = logical_matrix(t_x(4, 1), spec)
        z2 = logical_matrix(t_z(4, 2), spec)
        assert np.allclose(x1 @ z2, z2 @ x1)
        assert np.allclose(x1, np.kron(np.eye(2), X))  # slot 1 least significant
        assert np.allclose(z2, np.kron(Z, np.eye(2)))
        prod = logical_matrix(t_x(4, 1) @ t_z(4, 2), spec)
        assert np.allclose(prod, np.kron(Z, X))

    def test_tx_squared_is_pair_projector_not_identity(self):
        # the involution premise holds only on the code space
        sq = to_matrix(t_x(2, 1) @ t_x(2, 1))
        assert np.allclose(sq, projector(CodeSpec(SYMMETRIC, 2)))
        assert not np.allclose(sq, np.eye(4))

    def test_isometry_orthonormal(self):
        for sector in (SYMMETRIC, ANTISYMMETRIC):
            v = code_isometry(CodeSpec(sector, 6))
            assert np.allclose(v.conj().T @ v, np.eye(8))


def _unitary(rng, dim):
    return np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]


class TestIsometryOracle:
    """Compression picks the code states by index; the dense isometry V stays the oracle."""

    @pytest.mark.parametrize("sector", [SYMMETRIC, ANTISYMMETRIC])
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_picking_code_states_equals_the_isometry_products(self, sector, n):
        rng = np.random.default_rng(n + 100 * (sector == SYMMETRIC))
        spec = CodeSpec(sector, n)
        v, dim, k = code_isometry(spec), 2**n, 2 ** (n // 2)
        psi = rng.normal(size=k) + 1j * rng.normal(size=k)
        assert np.array_equal(encode(spec, psi), v @ psi)
        phys = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amps, leak = decode(spec, phys)
        want = v.conj().T @ (phys / np.linalg.norm(phys))
        assert np.array_equal(amps, want / np.linalg.norm(want))
        residual = np.linalg.norm(phys - v @ v.conj().T @ phys) / np.linalg.norm(phys)
        assert leak == pytest.approx(residual, rel=0, abs=1e-14)
        letters = ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(6)]
        op = PauliSum(n, {w: rng.normal() + 1j * rng.normal() for w in letters})
        assert np.array_equal(logical_matrix(op, spec), v.conj().T @ to_matrix(op) @ v)

        def oracle(u):
            uv = u @ v
            b = v.conj().T @ uv
            return b, np.linalg.norm(uv - v @ b) / np.sqrt(k)

        # U is unitary on the code states and some others, the identity elsewhere, so
        # U V is zero outside those rows; the all-rows case is the full-height U V
        code = code_states(spec)
        others = np.setdiff1d(np.arange(dim), code)
        some = np.union1d(code, rng.choice(others, size=len(others) // 3))
        for rows in (some, np.arange(dim)):
            u = np.eye(dim, dtype=complex)
            u[np.ix_(rows, rows)] = _unitary(rng, rows.size)
            want_b, want_leak = oracle(u)
            for got_b, got_leak in (restrict(u, spec), restrict((u @ v)[rows], spec, rows)):
                assert np.array_equal(got_b, want_b)
                # the Frobenius norm's summation order follows the BLAS kernel
                assert got_leak == pytest.approx(want_leak, rel=0, abs=1e-14)

    def test_wrong_shapes_raise_dimension_error(self):
        spec = CodeSpec(SYMMETRIC, 4)
        u = _unitary(np.random.default_rng(3), 16)
        uv = u @ code_isometry(spec)
        for bad in (np.eye(8), u[:, :15], u[0], uv):  # uv: full-height U V without rows
            with pytest.raises(DimensionError, match=r"takes 16 x 16 or \(len\(rows\), 4\)"):
                restrict(bad, spec)
        with pytest.raises(DimensionError, match=r"4\), got \(8, 8\)$"):
            fidelity(np.eye(8), np.eye(4), spec)
        with pytest.raises(DimensionError):
            restrict(uv[1:], spec, np.arange(16))
        with pytest.raises(DimensionError):
            restrict(uv, spec, np.arange(15))

    def test_encode_decode_peak_memory_at_fourteen_spins(self):
        spec = CodeSpec(SYMMETRIC, 14)
        psi = np.full(2**7, 2**-3.5, dtype=complex)
        tracemalloc.start()
        try:
            amps, leak = decode(spec, encode(spec, psi))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.allclose(amps, psi) and leak == 0.0
        assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MB"
