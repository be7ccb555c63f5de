import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from recoupler import (
    CapacityError,
    CodeSpec,
    ControllabilityError,
    FREE_EVOLUTION,
    PauliSum,
    PulseSchedule,
    PulseStep,
    SYMMETRIC,
    ValidationError,
    WindowTarget,
    apply_schedule,
    background_hamiltonian,
    build_zz,
    compile_gate,
    fidelity,
    j_plus,
    nmr_ising_schedule,
    nmr_z_rotation_schedule,
    preset_model,
    propagator,
    r_z,
    restrict,
    schedule_from_dict,
    schedule_to_dict,
    sigma_x,
    t_z,
    to_matrix,
    toggled_generator,
)
from recoupler.evolution import _exponential, _generator
from recoupler.pauli import to_blocks, x_basis
from recoupler.verifier import STANDARD_GATES


def pstr(n, sites):
    letters = ["I"] * n
    for i, a in sites.items():
        letters[i - 1] = a
    return PauliSum(n, {"".join(letters): 1.0})


def random_hermitian_sum(rng, n, terms=5):
    out = PauliSum.zero(n)
    for _ in range(terms):
        letters = "".join(rng.choice(list("IXYZ"), size=n))
        out = out + PauliSum(n, {letters: float(rng.normal())})
    return out


class TestPropagator:
    def test_zero_generator(self):
        assert np.allclose(propagator(PauliSum.zero(2), 3.7), np.eye(4))

    def test_sigma_z_pi(self):
        u = propagator(pstr(1, {1: "Z"}), np.pi)
        assert np.allclose(u, -np.eye(2), atol=1e-14)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            propagator(PauliSum(1, {"X": 1j}), 1.0)
        with pytest.raises(ValidationError, match="takes a PauliSum"):
            propagator(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_nan_defect_rejected(self):
        # a NaN coefficient makes the whole propagator NaN; the unitarity guard must see it
        with pytest.raises(ValidationError, match="lost unitarity"):
            propagator(PauliSum(1, {"Z": float("nan")}), 1.0)

    @pytest.mark.parametrize("terms", [{"XX": 1e308, "YY": 1e308}, {"ZI": float("inf")}])
    def test_overflowing_generator_rejected(self, terms):
        with pytest.raises(ValidationError, match="overflows"):
            propagator(PauliSum(2, terms), 1.0)

    def test_matches_scaling_and_squaring(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            h = random_hermitian_sum(rng, n)
            t = float(rng.uniform(-2, 2))
            got = propagator(h, t)
            want = expm(-1j * to_matrix(h) * t)
            assert np.linalg.norm(got - want) < 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(32)
        h = random_hermitian_sum(rng, 3)
        u = propagator(h, 1.3)
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-12


class TestBatchedExponential:
    """One eigh serves every group of a generator; each group rebuilds its own phases
    and keeps its own unitarity defect."""

    @staticmethod
    def stack(blocks):
        a = np.random.default_rng(33).normal(size=(blocks, 2, 2, 2)) @ [1, 1j]
        return a + a.conj().swapaxes(-1, -2)

    def test_nan_group_raises_beside_a_good_one(self):
        h, t, owner = self.stack(3), np.array([0.4, 0.4, 1.3]), np.array([0, 0, 1])
        assert np.allclose(_exponential(*np.linalg.eigh(h), t, owner)[2], expm(-1.3j * h[2]))
        h[2, 0, 0] = np.nan
        with pytest.raises(ValidationError, match=r"lost unitarity \(defect nan\)"):
            _exponential(*np.linalg.eigh(h), t, owner)
        with pytest.raises(ValidationError, match=r"lost unitarity \(defect nan\)"):
            _exponential(*np.linalg.eigh(h[::-1]), t[::-1], owner[::-1])
        good = _exponential(*np.linalg.eigh(h[:2]), t[:2], owner[:2])
        assert np.allclose(good[1], expm(-0.4j * h[1]))

    @pytest.mark.parametrize("defects, message", [
        ((0.8e-10, 0.8e-10), None),  # as one norm over the stack: 1.13e-10, over the bound
        ((0.0, 1.2e-10), r"lost unitarity \(defect 1\.20e-10\)"),
        ((1.2e-10, 0.0), r"lost unitarity \(defect 1\.20e-10\)"),
    ])
    def test_each_group_is_checked_on_its_own(self, defects, message):
        # eigenvectors scaled by s give a 2 x 2 block u^dag u = s^4 I, defect (s^4 - 1) sqrt(2)
        scale = (1 + np.array(defects) / np.sqrt(2)) ** 0.25
        evals, evecs = np.linalg.eigh(self.stack(2))
        t, owner = np.array([0.4, 1.3]), np.array([0, 1])
        if message is None:
            _exponential(evals, evecs * scale[:, None, None], t, owner)
        else:
            with pytest.raises(ValidationError, match=message):
                _exponential(evals, evecs * scale[:, None, None], t, owner)

    def test_a_shared_eigendecomposition_keeps_each_groups_own_defect(self):
        # two groups of one generator: the same eigenvectors and eigenvalues, each with
        # its own t; a NaN t gives NaN phases in its own group only
        evals, evecs = np.linalg.eigh(self.stack(1))
        shared = np.repeat(evals, 2, axis=0), np.repeat(evecs, 2, axis=0)
        owner = np.array([0, 1])
        u = _exponential(*shared, np.array([0.4, -0.4]), owner)
        assert np.allclose(u[0] @ u[1], np.eye(2), atol=1e-14)
        for t in ([0.4, np.nan], [np.nan, 0.4]):
            with pytest.raises(ValidationError, match=r"lost unitarity \(defect nan\)"):
                _exponential(*shared, np.array(t), owner)


class TestApplySchedule:
    def test_empty_schedule_is_identity(self):
        m = preset_model("electrons_on_helium", 4)
        u = apply_schedule(PulseSchedule((), {}), m)
        assert np.array_equal(u, np.eye(16))

    def test_spin_cap_checked_before_allocation(self, monkeypatch):
        # 2**40 basis states: the identity alone would not fit in memory
        with pytest.raises(CapacityError, match="40 spins exceeds dense cap 12"):
            apply_schedule(PulseSchedule((), {}), preset_model("xy", 40))
        monkeypatch.setenv("RECOUPLER_MAX_SPINS", "2")
        with pytest.raises(CapacityError, match="4 spins exceeds dense cap 2"):
            apply_schedule(PulseSchedule((), {}), preset_model("xy", 4))

    def test_groups_update_the_columns_without_temporaries(self):
        # one spare buffer beside the columns: no gather or product array per group
        m = preset_model("xy", 10)
        schedule = compile_gate(STANDARD_GATES["cphase"], m, SYMMETRIC)
        tracemalloc.start()
        try:
            u = apply_schedule(schedule, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * u.nbytes, f"peak {peak / u.nbytes:.2f} x u.nbytes"

    def test_nmr_four_step_rotation(self):
        m = preset_model("nmr", 2)
        tau = 0.9
        u = apply_schedule(nmr_z_rotation_schedule(tau, spin=1), m)
        # kept term: the other spin's splitting, doubled
        eps2_nmr = m.epsilon[1] / 2
        want = expm(-2j * tau * eps2_nmr * to_matrix(pstr(2, {2: "Z"})))
        assert np.linalg.norm(u - want) < 1e-10

    def test_nmr_six_step_ising(self):
        m = preset_model("nmr", 2)
        tau = 0.6
        u = apply_schedule(nmr_ising_schedule(tau), m)
        want = expm(-2j * tau * m.coupling(1, 2).jz * to_matrix(pstr(2, {1: "Z", 2: "Z"})))
        assert np.linalg.norm(u - want) < 1e-10

    def test_parallel_group_equals_serial_product(self):
        m = preset_model("quantum_hall", 4)
        a = PulseStep(j_plus(1, 2), angle=0.4)
        b = PulseStep(j_plus(3, 4), angle=-0.8)
        joint = apply_schedule(PulseSchedule(((a, b),), {}), m)
        split = apply_schedule(PulseSchedule(((a,), (b,)), {}), m)
        assert np.linalg.norm(joint - split) < 1e-12

    def test_overlapping_supports_rejected(self):
        m = preset_model("quantum_hall", 4)
        a = PulseStep(j_plus(1, 2), angle=0.4)
        b = PulseStep(j_plus(2, 3), angle=0.4)
        with pytest.raises(ValidationError):
            apply_schedule(PulseSchedule(((a, b),), {}), m)

    def test_free_evolution_alone_in_group(self):
        with pytest.raises(ValidationError):
            PulseSchedule(
                ((PulseStep(FREE_EVOLUTION, duration=1.0), PulseStep(j_plus(1, 2), angle=0.1)),),
                {},
            )

    def test_rightmost_group_acts_first(self):
        m = preset_model("nmr", 2)
        px = PulseStep(sigma_x(1), angle=np.pi / 2)
        pz_free = PulseStep(FREE_EVOLUTION, duration=0.3)
        u = apply_schedule(PulseSchedule(((px,), (pz_free,)), {}), m)
        want = apply_schedule(PulseSchedule(((px,),), {}), m) @ apply_schedule(
            PulseSchedule(((pz_free,),), {}), m
        )
        assert np.linalg.norm(u - want) < 1e-13

    def test_controllability_propagates(self):
        m = preset_model("electrons_on_helium", 4)
        from recoupler import j_z

        sched = PulseSchedule(((PulseStep(j_z(2, 3), angle=0.2),),), {})
        with pytest.raises(ControllabilityError):
            apply_schedule(sched, m)

    def test_first_invalid_group_in_schedule_order_raises(self):
        # generators are built and checked in schedule order before any exponential,
        # though the groups act on the columns rightmost first
        m = preset_model("electrons_on_helium", 4)
        from recoupler import j_z

        uncontrollable = (PulseStep(j_z(2, 3), angle=0.2),)
        mixed = (
            PulseStep(j_plus(1, 2), angle=0.3, mode="ideal"),
            PulseStep(j_plus(3, 4), angle=0.3, mode="realistic"),
        )
        with pytest.raises(ControllabilityError, match=r"j_z\(2,3\)"):
            apply_schedule(PulseSchedule((uncontrollable, mixed), {}), m, ratio=10.0)
        with pytest.raises(ValidationError, match="different modes"):
            apply_schedule(PulseSchedule((mixed, uncontrollable), {}), m, ratio=10.0)

    def test_determinism(self):
        m = preset_model("electrons_on_helium", 4)
        sched = nmr_z_rotation_schedule(0.5)
        nmr = preset_model("nmr", 2)
        u1 = apply_schedule(sched, nmr)
        u2 = apply_schedule(sched, nmr)
        assert np.array_equal(u1, u2)

    def test_realistic_needs_ratio(self):
        m = preset_model("electrons_on_helium", 4)
        sched = PulseSchedule(((PulseStep(j_plus(1, 2), angle=0.3),),), {})
        with pytest.raises(ValidationError):
            apply_schedule(sched, m, mode="realistic")

    @pytest.mark.parametrize("ratio", [0.0, -1.0, float("nan"), float("inf")])
    def test_realistic_rejects_bad_ratio(self, ratio):
        m = preset_model("electrons_on_helium", 4)
        sched = PulseSchedule(((PulseStep(j_plus(1, 2), angle=0.3),),), {})
        with pytest.raises(ValidationError, match="finite positive strength ratio"):
            apply_schedule(sched, m, mode="realistic", ratio=ratio)

    def test_realistic_converges_to_ideal(self):
        m = preset_model("electrons_on_helium", 4)
        sched = PulseSchedule(((PulseStep(j_plus(1, 2), angle=0.3),),), {})
        ideal = apply_schedule(sched, m, mode="ideal")
        prev = np.inf
        for r in (1e2, 1e4, 1e6):
            real = apply_schedule(sched, m, mode="realistic", ratio=r)
            d = np.linalg.norm(real - ideal)
            assert d < prev
            prev = d
        assert prev < 1e-4

    def test_ideal_free_window_targets_single_term(self):
        m = preset_model("electrons_on_helium", 4)
        step = PulseStep(FREE_EVOLUTION, duration=2.0, target=WindowTarget("t_z", 1))
        u = apply_schedule(PulseSchedule(((step,),), {}), m)
        from recoupler import t_z

        want = propagator(m.eps_minus(1) * t_z(4, 1), 2.0)
        assert np.linalg.norm(u - want) < 1e-12
        # realistic override evolves the full background instead
        u_real = apply_schedule(PulseSchedule(((step,),), {}), m, mode="realistic", ratio=10.0)
        assert np.linalg.norm(u_real - u) > 1e-3


class TestRestrict:
    def test_identity(self):
        spec = CodeSpec(SYMMETRIC, 4)
        block, leak = restrict(np.eye(16), spec)
        assert np.allclose(block, np.eye(4))
        assert leak == 0.0

    def test_interpair_zz_phase(self):
        spec = CodeSpec(SYMMETRIC, 4)
        u = propagator(pstr(4, {2: "Z", 3: "Z"}), np.pi / 4)
        block, leak = restrict(u, spec)
        z = np.diag([1.0, -1.0])
        want = expm(+1j * np.pi / 4 * np.kron(z, z))
        assert leak < 1e-14
        assert np.linalg.norm(block - want) < 1e-12

    def test_bare_heisenberg_leaks(self):
        spec = CodeSpec(SYMMETRIC, 4)
        j23 = 0.8
        h23 = j23 * sum(pstr(4, {2: a, 3: a}) for a in "XYZ")
        u = propagator(h23, 1.0 / j23)
        _, leak = restrict(u, spec)
        assert leak > 0.1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_block_or_leakage_raises(self, bad):
        spec = CodeSpec(SYMMETRIC, 2)  # code states 2 and 1; 0 and 3 leak
        with pytest.raises(ValidationError, match="code block or its leakage is not finite"):
            restrict(np.full((4, 4), bad), spec)
        for row in range(4):  # in a code row it reaches the block, elsewhere the leakage
            uv = np.zeros((4, 2), dtype=complex)
            uv[[2, 1], [0, 1]] = 1.0
            uv[row, 1] = bad
            with pytest.raises(ValidationError, match="not finite"):
                restrict(uv, spec, np.arange(4))
            u = np.eye(4, dtype=complex)
            u[row, 1] = bad
            with pytest.raises(ValidationError, match="not finite"):
                fidelity(u, np.eye(2), spec)


def _dense(terms, n):
    """The 2**n x 2**n matrix of term arrays, assembled from their blocks."""
    at, blocks = to_blocks(terms, np.arange(2**n), x_basis(terms))
    out = np.zeros((2**n, 2**n), dtype=complex)
    for states, block in zip(at, blocks):
        out[np.ix_(states, states)] = block
    return out


class TestGeneratorTerms:
    """Each key's term arrays against the generator summed as a PauliSum."""

    @pytest.mark.parametrize("preset", ["electrons_on_helium", "heisenberg", "xy", "nmr"])
    def test_every_key_shape_matches_the_summed_generator(self, preset):
        model = preset_model(preset, 6)
        background = background_hamiltonian(model)
        handles = sorted(h for h in model.controllable if h != FREE_EVOLUTION)
        first = handles[0]
        second = next(h for h in handles if not {h.i, h.j} & {first.i, first.j} - {None})
        strength = 100.0 * model.background_magnitude()
        keys = [
            (None, ()),
            (WindowTarget("t_z", 2), ()),
            (WindowTarget("r_z", 1), ()),
            (WindowTarget("zz", 3, 4), ()),
            ("background", ()),
            (None, ((first, 1.0),)),
            (None, ((first, 1.0), (second, -0.37))),
            ("background", ((first, strength),)),
            ("background", ((first, -strength), (second, strength))),
        ]
        for key in keys:
            base, pairs = key
            want = PauliSum.zero(6)
            if base is not None:
                want = background if base == "background" else base.term(model)
            for handle, c in pairs:
                want = want + c * toggled_generator(model, handle)
            got, want = _dense(_generator(key, model, background), 6), to_matrix(want)
            # summed in another order: within rounding of the largest entry
            assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, np.max(np.abs(want))), key

    def test_single_terms_are_the_model_owned_arrays(self):
        model = preset_model("electrons_on_helium", 6)
        background = background_hamiltonian(model)
        handle = j_plus(1, 2)
        assert _generator(("background", ()), model, background) is background.arrays
        assert _generator((None, ((handle, 1.0),)), model, background) is (
            toggled_generator(model, handle).arrays
        )
        target = WindowTarget("t_z", 1)
        assert target.term(model) is target.term(model)
        assert not background.arrays.coeffs.flags.writeable


class TestScheduleJson:
    def test_roundtrip_bitwise(self):
        sched = nmr_ising_schedule(0.7123456789012345)
        data = json.loads(json.dumps(schedule_to_dict(sched)))
        again = schedule_from_dict(data)
        assert again == sched
        assert json.dumps(schedule_to_dict(again)) == json.dumps(schedule_to_dict(sched))

    def test_malformed(self):
        with pytest.raises(ValidationError):
            schedule_from_dict({"groups": [[{"angle": 1.0}]]})

    def test_step_validation(self):
        with pytest.raises(ValidationError):
            PulseStep(j_plus(1, 2))  # pulse without angle
        with pytest.raises(ValidationError):
            PulseStep(FREE_EVOLUTION, duration=-1.0)
        with pytest.raises(ValidationError):
            WindowTarget.parse("bogus(1)")
        with pytest.raises(ValidationError, match="must be a WindowTarget"):
            PulseStep(FREE_EVOLUTION, duration=1.0, target="t_z(1)")
        with pytest.raises(ValidationError):
            schedule_from_dict(
                {"groups": [[{"handle": "free_evolution", "duration": 1.0, "target": "bogus(1)"}]]}
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"angle": float("nan")},
            {"angle": float("inf")},
            {"strength": float("inf"), "duration": 1.0},
            {"strength": 2.0, "duration": float("nan")},
            {"strength": 1e200, "duration": 1e200},  # finite factors, infinite angle
        ],
    )
    def test_non_finite_pulse_rejected(self, kwargs):
        # JSON strength x duration becomes the angle, which must be finite
        with pytest.raises(ValidationError, match="angle must be finite"):
            schedule_from_dict({"groups": [[{"handle": "j_plus(1,2)", **kwargs}]]})

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_free_window_rejected(self, duration):
        with pytest.raises(ValidationError, match="duration must be finite"):
            schedule_from_dict({"groups": [[{"handle": "free_evolution", "duration": duration}]]})

    def test_strength_times_duration_equals_angle(self):
        m = preset_model("quantum_hall", 4)
        by_angle = PulseStep(j_plus(1, 2), angle=0.6)
        data = {"groups": [[{"handle": "j_plus(1,2)", "strength": 3.0, "duration": 0.2}]]}
        (by_pair,), = schedule_from_dict(data).groups
        assert by_pair.angle == pytest.approx(0.6)
        assert by_pair.duration is None  # the angle alone carries the pulse
        ua = apply_schedule(PulseSchedule(((by_angle,),), {}), m)
        ub = apply_schedule(PulseSchedule(((by_pair,),), {}), m)
        assert np.linalg.norm(ua - ub) < 1e-14

    def test_strength_duration_json_roundtrip(self):
        data = {
            "groups": [[{"handle": "j_plus(1,2)", "strength": 3.0, "duration": 0.2}]],
            "metadata": {},
        }
        sched = schedule_from_dict(data)
        assert sched.groups[0][0].angle == pytest.approx(0.6)
        again = schedule_from_dict(schedule_to_dict(sched))
        assert again == sched

    def test_concatenation_matrix_order(self):
        nmr = preset_model("nmr", 2)
        a = nmr_z_rotation_schedule(0.4)
        b = nmr_ising_schedule(0.2)
        combined = PulseSchedule(a.groups + b.groups, {})
        assert combined.step_count_serial == a.step_count_serial + b.step_count_serial
        ua = apply_schedule(a, nmr)
        ub = apply_schedule(b, nmr)
        assert np.linalg.norm(apply_schedule(combined, nmr) - ua @ ub) < 1e-12


class TestWindowTarget:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["t_z", "r_z", "zz"]), i=st.integers(0, 99), j=st.integers(0, 99))
    def test_parse_str_round_trip(self, kind, i, j):
        t = WindowTarget(kind, i, j if kind == "zz" else None)
        assert WindowTarget.parse(str(t)) == t

    def test_string_form(self):
        assert str(WindowTarget("t_z", 1)) == "t_z(1)"
        assert str(WindowTarget("r_z", 2)) == "r_z(2)"
        assert str(WindowTarget("zz", 2, 3)) == "zz(2,3)"

    @pytest.mark.parametrize("text", ["bogus(1)", "t_z(1,2)", "zz(1)", "t_z(x)", " t_z(1)", 5, None])
    def test_parse_rejects(self, text):
        with pytest.raises(ValidationError, match="bad free-evolution target"):
            WindowTarget.parse(text)

    @pytest.mark.parametrize("kind, i, j", [("t_z", 1, 2), ("zz", 1, None), ("x_z", 1, None)])
    def test_constructor_rejects(self, kind, i, j):
        with pytest.raises(ValidationError, match="bad free-evolution target"):
            WindowTarget(kind, i, j)

    def test_coefficient_and_term_per_kind(self):
        m = preset_model("electrons_on_helium", 6, epsilon=(1.0, 1.3, 0.7, 1.1, 0.9, 0.2))
        cases = [
            (WindowTarget("t_z", 2), m.eps_minus(2), m.eps_minus(2) * t_z(6, 2)),
            (WindowTarget("r_z", 3), m.eps_plus(3), m.eps_plus(3) * r_z(6, 3)),
            (WindowTarget("zz", 4, 5), m.coupling(4, 5).jz, m.coupling(4, 5).jz * build_zz(6, 4, 5)),
        ]
        for target, coeff, term in cases:
            assert target.coefficient(m) == coeff
            assert target.term(m) == term


class TestRealisticRatio:
    """The ratio is checked once per call, before any group runs."""

    FREE = PulseSchedule(((PulseStep(FREE_EVOLUTION, duration=0.3),),), {})

    @pytest.mark.parametrize("ratio", [None, 0.0, -1.0, float("nan"), float("inf")])
    def test_free_windows_alone_need_ratio(self, ratio):
        m = preset_model("xy", 4)
        with pytest.raises(ValidationError, match="finite positive strength ratio"):
            apply_schedule(self.FREE, m, mode="realistic", ratio=ratio)

    def test_realistic_step_tag_needs_ratio(self):
        m = preset_model("xy", 4)
        tagged = PulseSchedule(
            ((PulseStep(FREE_EVOLUTION, duration=0.3, mode="realistic"),),), {}
        )
        with pytest.raises(ValidationError, match="finite positive strength ratio"):
            apply_schedule(tagged, m)
        assert apply_schedule(tagged, m, mode="ideal").shape == (16, 16)
        assert apply_schedule(tagged, m, ratio=10.0).shape == (16, 16)

    def test_ideal_ignores_ratio(self):
        m = preset_model("xy", 4)
        assert apply_schedule(self.FREE, m, mode="ideal").shape == (16, 16)

    PULSE = PulseSchedule(((PulseStep(j_plus(1, 2), angle=0.5),),), {})

    def test_overflowing_strength_rejected(self):
        m = preset_model("xy", 4, epsilon=(1e308, -1e308, 1e308, -1e308))
        with pytest.raises(ValidationError, match="strength 10 x 1e\\+308 overflows"):
            apply_schedule(self.PULSE, m, mode="realistic", ratio=10.0)
        assert apply_schedule(self.PULSE, m).shape == (16, 16)  # ideal pulses ignore it

    def test_zero_strength_rejected(self):
        m = preset_model("xy", 4, epsilon=(0.0,) * 4)  # no background scale
        with pytest.raises(ValidationError, match="strength is zero"):
            apply_schedule(self.PULSE, m, mode="realistic", ratio=10.0)
        u = apply_schedule(self.FREE, m, mode="realistic", ratio=10.0)
        assert np.array_equal(u, np.eye(16))
