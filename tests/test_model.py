import json

import numpy as np
import pytest

from recoupler import (
    ConnectivityError,
    ControllabilityError,
    Coupling,
    ExchangeModel,
    TermHandle,
    ValidationError,
    build_H0,
    build_R,
    build_T,
    build_exchange,
    build_zz,
    epsilon_handle,
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
)

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
    def test_heisenberg_pair_form(self):
        # displayed-J = 1 preset stores jx = jy = jz = 1/2; pair term is T + ZZ/2
        m = preset_model("heisenberg", 2)
        h = build_exchange(m)
        want = to_matrix(build_T(2, 1, 2) + 0.5 * build_zz(2, 1, 2))
        assert np.allclose(to_matrix(h), want, atol=1e-14)

    def test_matches_axial_rewriting_of_pauli_form(self):
        # J^- R + J^+ T + J^z ZZ == sum_alpha J^alpha sigma^alpha sigma^alpha
        rng = np.random.default_rng(3)
        for _ in range(10):
            jx, jy, jz = rng.normal(size=3)
            model = ExchangeModel(
                "xxz_symmetric", 2, (1.0, 0.5),
                {(1, 2): Coupling(jx, jx, jz)},
                frozenset({j_plus(1, 2)}),
            )
            got = to_matrix(build_exchange(model))
            want = (
                jx * two_site(2, 1, 2, X) + jx * two_site(2, 1, 2, Y) + jz * two_site(2, 1, 2, Z)
            )
            assert np.linalg.norm(got - want) < 1e-12

    def test_xy_pair_is_jplus_times_T(self):
        model = ExchangeModel(
            "xy", 2, (1.0, 0.5), {(1, 2): Coupling(1.0, 1.0, 0.0)}, frozenset()
        )
        got = to_matrix(build_exchange(model))
        want = two_site(2, 1, 2, X) + two_site(2, 1, 2, Y)  # = 2 T = J^+ T
        assert np.linalg.norm(got - want) < 1e-14

    def test_zero_couplings_empty(self):
        model = ExchangeModel(
            "xy", 2, (1.0, 0.5), {(1, 2): Coupling(0.0, 0.0, 0.0)}, frozenset()
        )
        assert len(build_exchange(model)) == 0


class TestValidation:
    def test_kind_constraints(self):
        with pytest.raises(ValidationError):
            ExchangeModel("xy", 2, (1, 1), {(1, 2): Coupling(1, 1, 0.5)}, frozenset())
        with pytest.raises(ValidationError):
            ExchangeModel("heisenberg", 2, (1, 1), {(1, 2): Coupling(1, 1, 0.5)}, frozenset())
        with pytest.raises(ValidationError):
            ExchangeModel("xxz_antisymmetric", 2, (1, 1), {(1, 2): Coupling(1, 1, 0.5)}, frozenset())

    def test_odd_spins_rejected(self):
        with pytest.raises(ValidationError):
            ExchangeModel("xy", 3, (1, 1, 1), {}, frozenset())

    def test_epsilon_length(self):
        with pytest.raises(ValidationError):
            ExchangeModel("xy", 2, (1,), {}, frozenset())

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
                  epsilon_handle(1), TermHandle("free_evolution")):
            assert TermHandle.parse(str(h)) == h

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
                toggled_generator(m, epsilon_handle(1))

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
            lhs = build_H0(eps) + build_exchange(model)
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
        lhs = build_H0(eps) + build_exchange(model)
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

    def test_malformed(self):
        with pytest.raises(ValidationError):
            model_from_dict({"kind": "xy"})
