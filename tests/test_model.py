import dataclasses
import hashlib
import json

import numpy as np
import pytest

from recoupler import (
    FREE_EVOLUTION,
    PRESET_NAMES,
    ConnectivityError,
    ControllabilityError,
    Coupling,
    ExchangeModel,
    TermHandle,
    ValidationError,
    background_hamiltonian,
    build_H0,
    build_R,
    build_T,
    build_zz,
    heis,
    j_minus,
    j_plus,
    j_z,
    model_from_dict,
    model_to_dict,
    preset_model,
    r_x,
    r_z,
    sigma_x,
    t_x,
    t_z,
    to_matrix,
    toggled_generator,
    verify_gate,
)
from recoupler import model as model_module
from recoupler.verifier import STANDARD_GATES

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def two_site(n, i, j, m):
    out = np.array([[1.0 + 0j]])
    for s in range(1, n + 1):
        out = np.kron(m if s in (i, j) else I2, out)
    return out


class TestBuilders:
    def test_T_dense(self):
        t = to_matrix(build_T(2, 1, 2))
        want = np.zeros((4, 4))
        want[1, 2] = want[2, 1] = 1.0  # |du>=1, |ud>=2
        assert np.allclose(t, want)

    def test_R_dense(self):
        r = to_matrix(build_R(2, 1, 2))
        want = np.zeros((4, 4))
        want[0, 3] = want[3, 0] = 1.0  # |uu><dd| + |dd><uu|
        assert np.allclose(r, want)

    def test_T_R_commute(self):
        t, r = to_matrix(build_T(2, 1, 2)), to_matrix(build_R(2, 1, 2))
        assert np.linalg.norm(t @ r - r @ t) < 1e-14

    @pytest.mark.parametrize(
        "eps,checks",
        [
            ((1.0, 1.0), {"Z" + "I": 0.5, "IZ": 0.5}),
            ((2.0, 0.0), {"ZI": 1.0}),
        ],
    )
    def test_H0(self, eps, checks):
        h = build_H0(eps)
        for letters, coeff in checks.items():
            assert h.coeff(letters) == pytest.approx(coeff)

    def test_H0_degenerate_pair_is_Rz(self):
        assert build_H0((1.0, 1.0)) == r_z(2, 1)

    def test_eps_pm_arithmetic(self):
        m = preset_model("xy", 4, epsilon=(3.0, 1.0, 2.0, 0.0))
        assert m.eps_minus(1) == pytest.approx(1.0)
        assert m.eps_minus(2) == pytest.approx(1.0)
        assert m.eps_plus(1) == pytest.approx(2.0)
        assert m.eps_plus(2) == pytest.approx(1.0)


class TestBuildExchange:
    """The exchange terms, read as the background of a model with nothing
    controllable and (where H0 must vanish) zero epsilon."""

    def test_heisenberg_pair_form(self):
        # displayed-J = 1 preset stores jx = jy = jz = 1/2; pair term is T + ZZ/2
        preset = preset_model("heisenberg", 2)
        m = ExchangeModel(preset.kind, 2, (0.0, 0.0), preset.couplings, frozenset())
        h = background_hamiltonian(m)
        want = to_matrix(build_T(2, 1, 2) + 0.5 * build_zz(2, 1, 2))
        assert np.allclose(to_matrix(h), want, atol=1e-14)

    def test_matches_axial_rewriting_of_pauli_form(self):
        # J^- R + J^+ T + J^z ZZ == sum_alpha J^alpha sigma^alpha sigma^alpha
        rng = np.random.default_rng(3)
        for _ in range(10):
            jx, jy, jz = rng.normal(size=3)
            model = ExchangeModel(
                "xxz_symmetric", 2, (0.0, 0.0), {(1, 2): Coupling(jx, jx, jz)}, frozenset()
            )
            got = to_matrix(background_hamiltonian(model))
            want = (
                jx * two_site(2, 1, 2, X) + jx * two_site(2, 1, 2, Y) + jz * two_site(2, 1, 2, Z)
            )
            assert np.linalg.norm(got - want) < 1e-12

    def test_xy_pair_is_jplus_times_T(self):
        model = ExchangeModel(
            "xy", 2, (0.0, 0.0), {(1, 2): Coupling(1.0, 1.0, 0.0)}, frozenset()
        )
        got = to_matrix(background_hamiltonian(model))
        want = two_site(2, 1, 2, X) + two_site(2, 1, 2, Y)  # = 2 T = J^+ T
        assert np.linalg.norm(got - want) < 1e-14

    def test_zero_couplings_empty(self):
        model = ExchangeModel(
            "xy", 2, (0.0, 0.0), {(1, 2): Coupling(0.0, 0.0, 0.0)}, frozenset()
        )
        assert len(background_hamiltonian(model)) == 0


class TestValidation:
    def test_kind_constraints(self):
        cases = [
            ("heisenberg", Coupling(0.5, 0.5, 0.25), "pair (1,2): heisenberg requires "
             "jx = jy = jz (got Coupling(jx=0.5, jy=0.5, jz=0.25))"),
            ("xy", Coupling(0.5, 0.5, 0.35), "pair (1,2): xy requires jx = jy and jz = 0 "
             "(got Coupling(jx=0.5, jy=0.5, jz=0.35))"),
            ("xxz_symmetric", Coupling(0.5, -0.5, 0.35), "pair (1,2): xxz_symmetric requires "
             "jx = jy (got Coupling(jx=0.5, jy=-0.5, jz=0.35))"),
            ("xxz_antisymmetric", Coupling(0.5, 0.5, 0.35), "pair (1,2): xxz_antisymmetric "
             "requires jx = -jy (got Coupling(jx=0.5, jy=0.5, jz=0.35))"),
            ("nmr_ising", Coupling(0.5, 0.0, 0.25), "pair (1,2): nmr_ising allows only jz "
             "couplings (got Coupling(jx=0.5, jy=0.0, jz=0.25))"),
            ("ising", Coupling(), "unknown model kind 'ising'"),
            (["xy"], Coupling(), "unknown model kind ['xy']"),
        ]
        for kind, coupling, message in cases:
            with pytest.raises(ValidationError) as exc:
                ExchangeModel(kind, 2, (1, 1), {(1, 2): coupling}, frozenset())
            assert str(exc.value) == message

    def test_odd_spins_rejected(self):
        with pytest.raises(ValidationError):
            ExchangeModel("xy", 3, (1, 1, 1), {}, frozenset())

    def test_epsilon_length(self):
        with pytest.raises(ValidationError):
            ExchangeModel("xy", 2, (1,), {}, frozenset())

    @pytest.mark.parametrize("bad", [["a", 1, 1, 1], [None, 1, 1, 1], 5, [10**400, 1, 1, 1]])
    def test_wrong_typed_epsilon_rejected(self, bad):
        with pytest.raises(ValidationError, match="^epsilon must be a sequence of numbers, got "):
            preset_model("xy", 4, bad)

    def test_wrong_typed_json_epsilon_keeps_its_message(self):
        for data in ({"preset": "xy", "epsilon": ["a", 1, 1, 1]},
                     {"kind": "xy", "n_spins": 2, "epsilon": [None, 1], "couplings": []}):
            with pytest.raises(ValidationError, match="^malformed model JSON: "):
                model_from_dict(data)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_epsilon_rejected(self, bad):
        with pytest.raises(ValidationError, match="epsilon must be finite"):
            ExchangeModel("xy", 2, (1.0, bad), {}, frozenset())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coupling_rejected(self, bad):
        # NaN would otherwise fail the kind constraint with a misleading message
        with pytest.raises(ValidationError, match="couplings must be finite"):
            ExchangeModel("heisenberg", 2, (1, 1), {(1, 2): Coupling(bad, bad, bad)}, frozenset())

    def test_require_controllable_messages(self):
        m = preset_model("electrons_on_helium", 4)
        with pytest.raises(ConnectivityError) as exc:
            m.require_controllable(j_plus(1, 3))
        assert str(exc.value) == "spins (1,3) are not coupled in this model"
        with pytest.raises(ControllabilityError) as exc:
            m.require_controllable(j_minus(1, 2))
        assert str(exc.value) == (
            "handle j_minus(1,2) is not controllable in model 'electrons_on_helium'"
        )
        m.require_controllable(j_plus(1, 2))

    def test_controllable_must_reference_pairs(self):
        with pytest.raises(ValidationError):
            ExchangeModel(
                "xy", 2, (1, 1), {(1, 2): Coupling()}, frozenset({j_plus(1, 3)})
            )

    def test_handle_parse_roundtrip(self):
        for h in (j_plus(1, 2), j_minus(2, 3), j_z(1, 4), heis(3, 4), sigma_x(2),
                  TermHandle("epsilon", 1), TermHandle("free_evolution")):
            assert TermHandle.parse(str(h)) == h

    @pytest.mark.parametrize("kind, indices, message", [
        ("j_plus", (2, 1), r"j_plus needs a pair i<j, got \(2,1\)"),
        ("heis", (1,), r"heis needs a pair i<j, got \(1,None\)"),
        ("j_z", (None, 2), r"j_z needs a pair i<j, got \(None,2\)"),
        ("sigma_x", (1, 2), r"sigma_x needs a single site, got \(1,2\)"),
        ("epsilon", (None, 2), r"epsilon needs a single site, got \(None,2\)"),
        ("free_evolution", (1,), r"free_evolution takes no indices, got \(1,None\)"),
        ("bogus", (1,), r"unknown handle kind 'bogus'"),
        (["j_plus"], (1, 2), r"unknown handle kind \['j_plus'\]"),
    ])
    def test_a_handle_takes_as_many_indices_as_its_kind(self, kind, indices, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            TermHandle(kind, *indices)

    def test_handle_parse_rejects_garbage(self):
        with pytest.raises(ValidationError):
            TermHandle.parse("j_plus(2,1)")
        with pytest.raises(ValidationError):
            TermHandle.parse("bogus(1,2)")


class TestPresets:
    def test_table_rows(self):
        rows = {
            "spin_dots": "heisenberg",
            "donor_atoms": "heisenberg",
            "quantum_hall": "xy",
            "cavity": "xy",
            "exciton_dots": "xy",
            "electrons_on_helium": "xxz_symmetric",
        }
        for name, kind in rows.items():
            m = preset_model(name, 4)
            assert m.kind == kind
            assert m.name == name

    def test_electrons_on_helium_only_jplus(self):
        m = preset_model("electrons_on_helium", 4)
        assert m.is_controllable(j_plus(1, 2))
        assert not m.is_controllable(j_z(1, 2))
        assert not m.is_controllable(j_minus(1, 2))
        assert not m.is_controllable(sigma_x(1))

    def test_heisenberg_presets_expose_heis(self):
        m = preset_model("spin_dots", 4)
        assert m.is_controllable(heis(2, 3))
        assert not m.is_controllable(j_plus(2, 3))

    def test_xy_presets_have_next_nearest(self):
        m = preset_model("quantum_hall", 4)
        assert m.has_pair(1, 3)
        assert m.is_controllable(j_plus(1, 3))

    def test_unknown_preset(self):
        with pytest.raises(ValidationError):
            preset_model("bogus", 4)

    @pytest.mark.parametrize("n_spins", [4.0, "4", True, None])
    def test_spin_count_must_be_an_integer(self, n_spins):
        with pytest.raises(ValidationError, match=f"n_spins must be an integer, got {n_spins!r}"):
            preset_model("xy", n_spins)
        assert preset_model("xy", np.int64(4)).n_spins == 4

    def test_every_preset_matches_its_golden_digest(self):
        """Couplings, their order, terms, magnitude and generators of every preset."""
        digest = hashlib.sha256()
        for name in PRESET_NAMES:
            for n in (2, 4, 6, 8, 10):
                m = preset_model(name, n)
                digest.update(json.dumps(model_to_dict(m)).encode())
                digest.update(repr(list(m.couplings.items())).encode())
                digest.update(repr(list(background_hamiltonian(m))).encode())
                digest.update(float.hex(m.background_magnitude()).encode())
                for handle in sorted(m.controllable - {FREE_EVOLUTION}):
                    digest.update(repr(list(toggled_generator(m, handle))).encode())
        assert digest.hexdigest() == (
            "81456a0216e3428ee2325448646ac1570a2b76b2bde08c5ac1657bce3ab1fda8"
        )


class TestToggledGenerator:
    def test_jz_on_electrons_on_helium_violates(self):
        m = preset_model("electrons_on_helium", 4)
        with pytest.raises(ControllabilityError):
            toggled_generator(m, j_z(1, 2))

    def test_jplus_gives_T(self):
        m = preset_model("electrons_on_helium", 4)
        assert toggled_generator(m, j_plus(1, 2)) == build_T(4, 1, 2)

    def test_heis_gives_exchange_pair(self):
        m = preset_model("spin_dots", 4)
        got = 0.7 * toggled_generator(m, heis(2, 3))
        want = 0.7 * (build_T(4, 2, 3) + 0.5 * build_zz(4, 2, 3))
        assert got == want

    def test_per_spin_epsilon_violates_everywhere_by_default(self):
        for name in ("spin_dots", "quantum_hall", "cavity", "electrons_on_helium"):
            m = preset_model(name, 4)
            with pytest.raises(ControllabilityError):
                toggled_generator(m, TermHandle("epsilon", 1))

    def test_sigma_x_only_on_nmr(self):
        nmr = preset_model("nmr", 2)
        got = 2.0 * toggled_generator(nmr, sigma_x(1))
        assert got.coeff("XI") == pytest.approx(2.0)
        with pytest.raises(ControllabilityError):
            toggled_generator(preset_model("xy", 4), sigma_x(1))

    def test_uncoupled_pair_is_connectivity_error(self):
        m = preset_model("electrons_on_helium", 4)
        with pytest.raises(ConnectivityError):
            toggled_generator(m, j_plus(1, 4))

    @pytest.mark.parametrize("handle", [j_plus(3, 5), j_minus(3, 5), j_z(3, 5), heis(3, 5)])
    def test_out_of_range_pair_is_connectivity_error(self, handle):
        with pytest.raises(ConnectivityError, match=r"spins \(3,5\) are not coupled"):
            toggled_generator(preset_model("spin_dots", 4), handle)

    def test_free_evolution_includes_fixed_couplings(self):
        m = preset_model("electrons_on_helium", 4)
        h = toggled_generator(m, TermHandle("free_evolution"))
        # epsilon terms present, fixed jz present, controllable J+ absent
        assert h.coeff("ZIII") != 0
        assert h.coeff("ZZII") == pytest.approx(0.35)
        assert h.coeff("XXII") == 0
        # heisenberg presets switch whole pairs off
        hh = toggled_generator(preset_model("spin_dots", 4), TermHandle("free_evolution"))
        assert hh.coeff("ZZII") == 0


def exact(s):
    """A PauliSum's terms (letters stand one to one for (x, z) keys) and
    coefficients, in order, for exact comparison."""
    return s.n, list(s)


# always-on flip-flops: the next-nearest xy pairs cannot be switched
ALWAYS_ON_FLIP_FLOPS = {
    "kind": "xy",
    "n_spins": 6,
    "epsilon": [2.0, 1.8, 1.6, 1.4, 1.2, 1.0],
    "couplings": [{"i": i, "j": j, "jx": 0.5, "jy": 0.5}
                  for i, j in [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3), (2, 4)]],
    "controllable": ["j_plus(1,2)", "j_plus(2,3)", "j_plus(3,4)", "j_plus(4,5)",
                     "j_plus(5,6)", "free_evolution"],
}


class TestStoredTerms:
    @pytest.mark.parametrize(
        "name, n",
        [(name, n) for name in PRESET_NAMES for n in (4, 6, 8)] + [("json", 6)],
    )
    def test_stored_terms_equal_a_fresh_build(self, name, n):
        model = model_from_dict(ALWAYS_ON_FLIP_FLOPS) if name == "json" else preset_model(name, n)
        handles = sorted(model.controllable)
        background = background_hamiltonian(model)
        generators = [toggled_generator(model, h) for h in handles]
        for gate in STANDARD_GATES.values():  # verdicts must leave the stored terms as built
            verify_gate(gate, model, mode="realistic", ratio=10.0)
        fresh = dataclasses.replace(model)
        want = build_H0(fresh.epsilon)
        builders = {"j_plus": build_T, "j_minus": build_R, "j_z": build_zz}
        for coeff, kind, i, j in model_module._pair_terms(fresh):
            want = want + coeff * builders[kind](n, i, j)
        assert background_hamiltonian(model) is background
        assert exact(background) == exact(want)
        assert model.background_magnitude() == fresh.background_magnitude()
        for handle, generator in zip(handles, generators):
            assert toggled_generator(model, handle) is generator
            assert exact(generator) == exact(model_module._build_generator(fresh, handle))
        if name == "json":
            assert background.coeff("XIXIII") == 0.5  # the always-on flip-flop T_13

    def test_replaced_model_gets_its_own_background(self):
        model = preset_model("electrons_on_helium", 4)
        background = background_hamiltonian(model)
        doubled = dataclasses.replace(model, epsilon=tuple(2 * e for e in model.epsilon))
        assert background_hamiltonian(doubled).coeff("ZIII") == doubled.epsilon[0] / 2
        assert doubled.background_magnitude() == max(doubled.epsilon)
        assert background_hamiltonian(model) is background
        assert background.coeff("ZIII") == model.epsilon[0] / 2
        assert model.background_magnitude() == max(model.epsilon)

    def test_failed_handles_raise_on_every_call(self):
        model = preset_model("electrons_on_helium", 4)
        for _ in range(2):
            with pytest.raises(ConnectivityError, match=r"spins \(1,4\) are not coupled"):
                toggled_generator(model, j_plus(1, 4))
            with pytest.raises(ControllabilityError, match=r"handle j_z\(1,2\) is not"):
                toggled_generator(model, j_z(1, 2))

    def test_model_inputs_are_read_only(self):
        couplings = {(1, 2): Coupling(0.5, 0.5, 0.35), (2, 3): Coupling(0.5, 0.5, 0.35)}
        model = ExchangeModel("xxz_symmetric", 4, [1.0, 0.8, 0.6, 0.4], couplings,
                              {j_plus(1, 2)}, "copy")
        background = exact(background_hamiltonian(model))
        with pytest.raises(TypeError):
            model.couplings[(1, 2)] = Coupling()
        given = dict(couplings)
        couplings[(1, 2)] = Coupling(0.5, 0.5, 0.0)
        couplings[(3, 4)] = Coupling(0.5, 0.5, 0.35)
        assert model.couplings == given
        assert exact(background_hamiltonian(dataclasses.replace(model))) == background
        assert model.epsilon == (1.0, 0.8, 0.6, 0.4)
        assert model.controllable == frozenset({j_plus(1, 2)})


class TestStructuralProperties:
    def test_block_rewriting_of_intra_pair_hamiltonian(self):
        # with inter-pair couplings and all J^z off, H0 + Hex equals
        # sum_m eps_m^- T_m^z + J_m^+ T_m^x + eps_m^+ R_m^z + J_m^- R_m^x exactly
        rng = np.random.default_rng(5)
        for _ in range(5):
            eps = tuple(rng.uniform(0.1, 2.0, size=4))
            jx = rng.uniform(-1, 1, size=2)
            jy = rng.uniform(-1, 1, size=2)
            model = ExchangeModel(
                "xxz_symmetric", 4, eps,
                {
                    (1, 2): Coupling(jx[0], jx[0], 0.0),
                    (3, 4): Coupling(jx[1], jx[1], 0.0),
                },
                frozenset(),
            )
            lhs = background_hamiltonian(model)
            rhs = sum(
                (
                    model.eps_minus(m) * t_z(4, m)
                    + model.coupling(2 * m - 1, 2 * m).j_plus * t_x(4, m)
                    + model.eps_plus(m) * r_z(4, m)
                    + model.coupling(2 * m - 1, 2 * m).j_minus * r_x(4, m)
                )
                for m in (1, 2)
            )
            assert np.linalg.norm(to_matrix(lhs) - to_matrix(rhs)) < 1e-12

    def test_block_rewriting_with_intra_jz_is_constant_per_sector(self):
        from recoupler import CodeSpec, SYMMETRIC, ANTISYMMETRIC, logical_matrix

        eps = (1.6, 1.4, 1.2, 1.0)
        model = ExchangeModel(
            "xxz_symmetric", 4, eps,
            {(1, 2): Coupling(0.4, 0.4, 0.3), (3, 4): Coupling(0.2, 0.2, 0.5)},
            frozenset(),
        )
        lhs = background_hamiltonian(model)
        rhs = sum(
            (
                model.eps_minus(m) * t_z(4, m)
                + model.coupling(2 * m - 1, 2 * m).j_plus * t_x(4, m)
                + model.eps_plus(m) * r_z(4, m)
            )
            for m in (1, 2)
        )
        diff = lhs - rhs
        for sector in (SYMMETRIC, ANTISYMMETRIC):
            blk = logical_matrix(diff, CodeSpec(sector, 4))
            assert np.linalg.norm(blk - blk[0, 0] * np.eye(4)) < 1e-12

    def test_sector_decoupling_every_preset(self):
        # each coupled pair's term never connects that pair's odd- and
        # even-parity sectors; elements are exactly zero
        for name in ("spin_dots", "donor_atoms", "quantum_hall", "cavity",
                     "exciton_dots", "electrons_on_helium"):
            model = preset_model(name, 4)
            n = model.n_spins
            for (i, j), c in model.couplings.items():
                term = (
                    c.j_minus * build_R(n, i, j)
                    + c.j_plus * build_T(n, i, j)
                    + c.jz * build_zz(n, i, j)
                )
                mat = to_matrix(term)
                dim = 2**n
                for a in range(dim):
                    for b in range(dim):
                        pa = ((a >> (i - 1)) & 1) ^ ((a >> (j - 1)) & 1)
                        pb = ((b >> (i - 1)) & 1) ^ ((b >> (j - 1)) & 1)
                        if pa != pb:
                            assert mat[a, b] == 0.0

    def test_background_magnitude(self):
        m = preset_model("electrons_on_helium", 4)
        # largest epsilon is 1.6; fixed jz = 0.35; controllable J+ excluded
        assert m.background_magnitude() == pytest.approx(max(m.epsilon))


class TestJson:
    def test_roundtrip(self):
        m = preset_model("electrons_on_helium", 4)
        m2 = model_from_dict(json.loads(json.dumps(model_to_dict(m))))
        assert m2 == m

    def test_legacy_h0_mode_key_is_ignored(self):
        data = model_to_dict(preset_model("cavity", 4))
        assert "h0_mode" not in data
        assert model_from_dict({**data, "h0_mode": "global"}) == model_from_dict(data)

    def test_preset_shortcut(self):
        m = model_from_dict({"preset": "quantum_hall", "n_spins": 6})
        assert m.kind == "xy" and m.n_spins == 6

    @pytest.mark.parametrize("n_spins, want", [("6", 6), (4.0, 4), (4.5, None), (True, None)])
    def test_preset_and_plain_n_spins_agree(self, n_spins, want):
        def outcome(data):
            try:
                return model_from_dict(data).n_spins
            except ValidationError as exc:
                return str(exc)

        plain = {**model_to_dict(preset_model("xy", want or 4)), "n_spins": n_spins}
        got = outcome({"preset": "xy", "n_spins": n_spins})
        assert got == outcome(plain)
        bad = f"malformed model JSON: n_spins: index must be an integer, got {n_spins!r}"
        assert got == (want or bad)

    @pytest.mark.parametrize(
        "epsilon", [["1.6", "1.4", "1.2", "1.0"], [2, 1, 3, 4], [1.6, "1.4", 1, 1.0]]
    )
    def test_preset_and_plain_energies_agree(self, epsilon):
        plain = model_from_dict({**model_to_dict(preset_model("xy", 4)), "epsilon": epsilon})
        preset = model_from_dict({"preset": "xy", "epsilon": epsilon})
        assert preset == plain and preset.epsilon == tuple(float(e) for e in epsilon)
        assert all(type(e) is float for e in preset.epsilon + plain.epsilon)  # 2 is 2.0, too

    @pytest.mark.parametrize("form", ["preset", "plain"])
    def test_a_bool_energy_is_malformed_in_both_forms(self, form):
        data = {"preset": "xy"} if form == "preset" else model_to_dict(preset_model("xy", 4))
        bad = "malformed model JSON: expected a number, got True"
        with pytest.raises(ValidationError, match=bad):
            model_from_dict({**data, "epsilon": [True, 1.4, 1.2, 1.0]})

    def test_malformed(self):
        with pytest.raises(ValidationError):
            model_from_dict({"kind": "xy"})
