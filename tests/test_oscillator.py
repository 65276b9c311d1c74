import numpy as np
import pytest

from bundleqm.classical import OscillatorParams
from bundleqm.errors import NotNormalizedError, ResolutionInsufficientError
from bundleqm.oscillator import (EvolvingState, charge_density,
                                 coordinate_hamiltonian_matrix, eigenstate, energy,
                                 evolve_schrodinger, hamiltonian_apply, husimi,
                                 laplacian_consistency, spectrum, winding_charges)
from bundleqm.polarizations import FockState, bargmann_inverse, hermite_basis
from bundleqm.sections import DoubledSection, LineSection

import oracles

DEFAULT = OscillatorParams()


class TestHamiltonianApply:
    def test_vacuum_scaled_by_half(self):
        out = hamiltonian_apply(FockState([1.0]), DEFAULT)
        assert np.array_equal(out.coeffs, [0.5])

    def test_n3_omega2_scale_7(self):
        out = hamiltonian_apply(eigenstate(3), OscillatorParams(omega=2.0))
        assert out.coeffs[3] == 7.0

    def test_linearity(self):
        rng = np.random.default_rng(0)
        c1 = rng.normal(size=6) + 1j * rng.normal(size=6)
        c2 = rng.normal(size=6) + 1j * rng.normal(size=6)
        a, b = 1.2 - 0.3j, 0.4j
        lhs = hamiltonian_apply(FockState(a * c1 + b * c2), DEFAULT).coeffs
        rhs = (a * hamiltonian_apply(FockState(c1), DEFAULT).coeffs
               + b * hamiltonian_apply(FockState(c2), DEFAULT).coeffs)
        assert np.max(np.abs(lhs - rhs)) < 1e-14

    def test_same_action_for_both_charges(self):
        c = np.array([0.3, 0.2j, 0.1])
        plus = hamiltonian_apply(FockState(c, +1), DEFAULT).coeffs
        minus = hamiltonian_apply(FockState(c, -1), DEFAULT).coeffs
        assert np.array_equal(plus, minus)


class TestSpectrum:
    def test_levels(self):
        levels = spectrum(5, DEFAULT)
        particle = [lv for lv in levels if lv.q_v == +1]
        anti = [lv for lv in levels if lv.q_v == -1]
        assert [lv.E for lv in particle] == [n + 0.5 for n in range(6)]
        assert [lv.E for lv in anti] == [n + 0.5 for n in range(6)]
        assert [lv.q_l for lv in anti] == [-n for n in range(6)]

    def test_energy_helper(self):
        assert energy(5, DEFAULT) == 5.5

    def test_degeneracy_exact(self):
        params = OscillatorParams(m=0.7, omega=2.3)
        for n in range(11):
            assert energy(n, params) == params.omega * (n + 0.5)


class TestEigenstate:
    def test_vacuum(self):
        state = eigenstate(0)
        assert np.array_equal(state.coeffs, [1.0])
        assert hamiltonian_apply(state, DEFAULT).coeffs[0] == 0.5

    def test_antiparticle_quantum_numbers(self):
        state = eigenstate(5, -1)
        q_l, q_v = winding_charges(state)
        assert (q_l, q_v) == (-5, -1)
        assert energy(5, DEFAULT) == 5.5

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            eigenstate(-1)


class TestEvolveSchrodinger:
    def test_full_period_gives_minus_one(self):
        for n in (0, 1, 4):
            ev = EvolvingState(eigenstate(n))
            out = evolve_schrodinger(ev, 2 * np.pi / DEFAULT.omega, DEFAULT)
            assert out.state.coeffs[n] == pytest.approx(-1.0, abs=1e-12)

    def test_zero_dt_is_identity(self):
        c = np.array([0.6, 0.8j])
        out = evolve_schrodinger(EvolvingState(FockState(c)), 0.0, DEFAULT)
        assert np.array_equal(out.state.coeffs, c)
        assert out.t == 0.0

    def test_conjugation_oracle(self):
        rng = np.random.default_rng(1)
        c = rng.normal(size=7) + 1j * rng.normal(size=7)
        dt = 0.83
        plus = evolve_schrodinger(EvolvingState(FockState(np.conj(c), +1)), dt, DEFAULT)
        minus = evolve_schrodinger(EvolvingState(FockState(c, -1)), dt, DEFAULT)
        assert np.max(np.abs(np.conj(plus.state.coeffs) - minus.state.coeffs)) < 1e-14

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        c = rng.normal(size=12) + 1j * rng.normal(size=12)
        state = FockState(c / np.linalg.norm(c))
        out = evolve_schrodinger(EvolvingState(state), 7.7, DEFAULT)
        assert out.state.norm_sq() == pytest.approx(1.0, rel=1e-14)

    def test_frequency_sign_flip(self):
        ev = EvolvingState(eigenstate(1))
        paper = evolve_schrodinger(ev, 0.4, DEFAULT).state.coeffs[1]
        physics = evolve_schrodinger(ev, 0.4, DEFAULT, frequency_sign=-1).state.coeffs[1]
        assert physics == np.conj(paper)

    def test_crank_nicolson_oracle_agrees(self):
        # coordinate-rep stepper vs the diagonal Fock phases
        c = np.array([1.0, 1.0]) / np.sqrt(2.0)
        t_final = np.pi / 2
        x = np.linspace(-10, 10, 2001)
        start = bargmann_inverse(FockState(c), x, DEFAULT)
        evolved = evolve_schrodinger(EvolvingState(FockState(c)), t_final, DEFAULT)
        expected = bargmann_inverse(evolved.state, x, DEFAULT)
        stepped = oracles.crank_nicolson(start.values, x, DEFAULT, t_final, 4000)
        assert np.max(np.abs(stepped - expected.values)) < 1e-4

    def test_doubled_section_evolves_componentwise(self):
        # Eq-1.4-style superposition: components evolve with their own charge,
        # cross terms never enter the norm
        cp = np.array([0.6, 0.0, 0.48j])
        cm = np.array([0.64j])
        dt = 1.234
        ep = evolve_schrodinger(EvolvingState(FockState(cp, +1)), dt, DEFAULT)
        em = evolve_schrodinger(EvolvingState(FockState(cm, -1)), dt, DEFAULT)
        before = DoubledSection(cp, np.concatenate([cm, [0, 0]]))
        after = DoubledSection(ep.state.coeffs, np.concatenate([em.state.coeffs, [0, 0]]))
        assert np.sum(after.norm_sq()) == pytest.approx(np.sum(before.norm_sq()), rel=1e-14)
        norm_plus = np.sum(np.abs(ep.state.coeffs) ** 2)
        norm_minus = np.sum(np.abs(em.state.coeffs) ** 2)
        assert np.sum(after.norm_sq()) == pytest.approx(norm_plus + norm_minus, rel=1e-14)


class TestWindingCharges:
    def test_pure_levels(self):
        assert winding_charges(eigenstate(3, +1)) == (3, +1)
        assert winding_charges(eigenstate(3, -1)) == (-3, -1)
        assert winding_charges(eigenstate(0, +1)) == (0, +1)
        assert winding_charges(eigenstate(0, -1)) == (0, -1)

    def test_mixture_reports_occupancies(self):
        state = FockState(np.array([0.6, 0.0, 0.8]))
        report, q_v = winding_charges(state)
        assert q_v == +1
        assert report == {0: pytest.approx(0.36), 2: pytest.approx(0.64)}


class TestHusimi:
    def test_vacuum_at_origin(self):
        q = husimi(eigenstate(0), np.array([0.0]), np.array([0.0]))
        assert abs(q[0, 0] - 1.0 / np.pi) < 1e-12

    def test_n1_zero_at_origin_max_on_unit_circle(self):
        # calculus oracle: max of r^2 e^{-r^2}/pi is 1/(pi e) at r = 1
        q0 = husimi(eigenstate(1), np.array([0.0]), np.array([0.0]))
        assert q0[0, 0] == 0.0
        q1 = husimi(eigenstate(1), np.array([1.0]), np.array([0.0]))
        assert q1[0, 0] == pytest.approx(1.0 / (np.pi * np.e), rel=1e-12)

    @pytest.mark.parametrize("n", range(11))
    def test_unit_mass(self, n):
        u = np.linspace(-8, 8, 257)
        q = husimi(eigenstate(n), u, u)
        total = np.trapezoid(np.trapezoid(q, u, axis=1), u)
        assert abs(total - 1.0) < 1e-6

    def test_positivity(self):
        rng = np.random.default_rng(3)
        c = rng.normal(size=8) + 1j * rng.normal(size=8)
        u = np.linspace(-6, 6, 101)
        q = husimi(FockState(c / np.linalg.norm(c)), u, u)
        assert np.min(q) >= 0.0

    def test_charge_mirror_is_reflection(self):
        c = np.array([0.5, 0.5j, np.sqrt(0.5)])
        u = np.linspace(-4, 4, 81)
        qp = husimi(FockState(c, +1), u, u)
        qm = husimi(FockState(c, -1), u, u)
        assert np.max(np.abs(qm - qp[:, ::-1])) < 1e-14


class TestChargeDensity:
    def test_particle_total(self):
        _, total = charge_density(eigenstate(2, +1))
        assert total == 1.0

    def test_antiparticle_total(self):
        density, total = charge_density(eigenstate(2, -1))
        assert total == -1.0
        assert np.all(density <= 0.0)

    def test_line_section_totals(self):
        x = np.linspace(-10, 10, 4001)
        for q in (+1, -1):
            sec = LineSection(axis="x", coords=x,
                              values=hermite_basis(0, x, DEFAULT)[0], charge=q)
            density, total = charge_density(sec)
            assert abs(total - q) < 1e-6
            assert np.all(q * density >= 0.0)

    def test_zero_amplitude_region_contributes_zero(self):
        x = np.linspace(-10, 10, 4001)
        vals = hermite_basis(0, x, DEFAULT)[0].astype(complex)
        vals[x > 5.0] = 0.0
        sec = LineSection(axis="x", coords=x, values=vals)
        density, _ = charge_density(sec)
        assert np.all(density[x > 5.0] == 0.0)

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            charge_density(FockState([2.0]))


class TestLaplacianConsistency:
    def test_ground_state_eigenvalue(self):
        report = laplacian_consistency(0, DEFAULT)
        assert abs(report.measured - (-1.0)) < 1e-3

    def test_n2_eigenvalue(self):
        report = laplacian_consistency(2, DEFAULT)
        assert abs(report.measured - (-5.0)) < 1e-3
        assert report.expected == -5.0

    def test_hamiltonian_eigenvalue(self):
        report = laplacian_consistency(2, DEFAULT)
        assert abs(report.hamiltonian_eigenvalue - 2.5) < 1e-3

    def test_antiparticle_mirror(self):
        report = laplacian_consistency(1, DEFAULT, charge=-1)
        assert abs(report.measured - (-3.0)) < 1e-3

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            laplacian_consistency(9, DEFAULT)

    def test_resolution_insufficient(self):
        with pytest.raises(ResolutionInsufficientError):
            laplacian_consistency(2, DEFAULT, half_width=3.0, h=0.75)

    @pytest.mark.parametrize("params", [DEFAULT, OscillatorParams(m=0.5, omega=4.0)])
    def test_agrees_with_complex_form(self, params):
        # grad_x^2 + grad_p^2/w^4 against the eight-derivative
        # grad_z grad_zbar + grad_zbar grad_z oracle, on a coarser grid
        for n in range(9):
            for q in (+1, -1):
                measured = laplacian_consistency(n, params, h=2e-2, charge=q).measured
                ref = oracles.laplacian_zzbar_reference(n, params, h=2e-2, charge=q)
                assert abs(measured - ref) <= 1e-12 * abs(ref), (n, q)


class TestStoneVonNeumann:
    def test_coordinate_matrix_reproduces_fock_spectrum(self):
        mat = coordinate_hamiltonian_matrix(10, DEFAULT)
        evals = np.sort(np.linalg.eigvalsh(mat))
        expected = np.arange(11) + 0.5
        assert np.max(np.abs(evals - expected)) < 1e-6

    def test_scaled_parameters(self):
        params = OscillatorParams(m=2.0, omega=1.5)
        mat = coordinate_hamiltonian_matrix(6, params, half_width=8.0)
        evals = np.sort(np.linalg.eigvalsh(mat))
        expected = params.omega * (np.arange(7) + 0.5)
        assert np.max(np.abs(evals - expected)) < 1e-6
