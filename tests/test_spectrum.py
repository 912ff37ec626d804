import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from defectcyl import (
    Classification,
    EnergyLevel,
    PhysicalParams,
    QuantumNumbers,
    ZeroApproxMode,
    bessel_zero,
    classification_disagreements,
    classify,
    critical_radius,
    radial_energy,
    spectrum_table,
    total_energy,
    zero_approx_table,
)
from defectcyl import specfun

import oracles


def make_params(**overrides):
    base = dict(mass=0.5, coupling=1.0, half_separation=2.0, deficit=1.0, radius=5.0, hbar=1.0)
    base.update(overrides)
    return PhysicalParams(**base)


class TestRadialEnergy:
    def test_mcmahon_unit_radius(self):
        p = make_params(radius=1.0)
        expected = math.pi**2 * 0.75**2  # 5.551652...
        assert radial_energy(p, QuantumNumbers(0, 0), ZeroApproxMode.MCMAHON) == pytest.approx(
            expected, rel=1e-15
        )
        assert expected == pytest.approx(5.551652475612764, rel=1e-12)

    def test_exact_unit_radius(self):
        p = make_params(radius=1.0)
        got = radial_energy(p, QuantumNumbers(0, 0), ZeroApproxMode.EXACT)
        assert got == pytest.approx(2.404825557695773**2, abs=1e-9)
        assert got == pytest.approx(5.783185962946785, abs=1e-9)

    def test_inverse_square_radius_scaling(self):
        qn = QuantumNumbers(0, 0)
        e1 = radial_energy(make_params(radius=1.0), qn, ZeroApproxMode.EXACT)
        e2 = radial_energy(make_params(radius=2.0), qn, ZeroApproxMode.EXACT)
        assert e2 == pytest.approx(e1 / 4.0, rel=1e-14)
        assert e2 == pytest.approx(1.445796490736696, abs=1e-9)

    def test_inverse_mass_scaling(self):
        qn = QuantumNumbers(1, 2)
        e1 = radial_energy(make_params(mass=0.5), qn)
        e2 = radial_energy(make_params(mass=1.0), qn)
        assert e2 == pytest.approx(e1 / 2.0, rel=1e-14)

    def test_deficit_enters_through_order(self):
        qn = QuantumNumbers(2, 0)
        shallow = radial_energy(make_params(deficit=0.5), qn)  # order 4
        flat = radial_energy(make_params(deficit=1.0), qn)  # order 2
        surplus = radial_energy(make_params(deficit=2.0), qn)  # order 1
        assert shallow > flat > surplus


class TestTotalEnergy:
    def test_far_wells_plateau(self):
        p = make_params(half_separation=1e3, radius=10.0)
        total = total_energy(p, QuantumNumbers(0, 0), EnergyLevel.GROUND, ZeroApproxMode.MCMAHON)
        radial = math.pi**2 * 0.75**2 / 100.0
        assert total == pytest.approx(radial - 0.25, rel=1e-12)
        assert total == pytest.approx(-0.19448347524387236, rel=1e-10)

    def test_large_radius_leaves_well_energy(self):
        p = make_params(radius=1e6)
        total = total_energy(p, QuantumNumbers(0, 0), EnergyLevel.GROUND)
        assert total == pytest.approx(-0.3073912681439491, abs=1e-9)
        assert total < 0.0

    def test_excited_requires_existence(self):
        p = make_params(half_separation=0.9)
        with pytest.raises(ValueError, match="excited state does not exist"):
            total_energy(p, QuantumNumbers(0, 0), EnergyLevel.EXCITED)

    def test_zero_at_critical_radius(self):
        p = make_params()
        qn = QuantumNumbers(1, 2)
        pinned = replace(p, radius=critical_radius(p, qn, EnergyLevel.GROUND))
        total = total_energy(pinned, qn, EnergyLevel.GROUND, ZeroApproxMode.MCMAHON)
        radial = radial_energy(pinned, qn, ZeroApproxMode.MCMAHON)
        assert abs(total) <= 1e-9 * radial


class TestCriticalRadius:
    def test_roundtrip_grid(self):
        for deficit in (0.5, 1.0, 2.0):
            p = make_params(deficit=deficit)
            for level in (EnergyLevel.GROUND, EnergyLevel.EXCITED):
                for n in range(4):
                    for m in range(4):
                        qn = QuantumNumbers(n, m)
                        pinned = replace(p, radius=critical_radius(p, qn, level))
                        total = total_energy(pinned, qn, level, ZeroApproxMode.MCMAHON)
                        radial = radial_energy(pinned, qn, ZeroApproxMode.MCMAHON)
                        assert abs(total) <= 1e-9 * radial

    def test_decreasing_in_deficit_for_nonzero_n(self):
        qn = QuantumNumbers(2, 0)
        r_half = critical_radius(make_params(deficit=0.5), qn)
        r_two = critical_radius(make_params(deficit=2.0), qn)
        assert r_half > r_two

    def test_independent_of_deficit_for_n_zero(self):
        qn = QuantumNumbers(0, 1)
        values = {critical_radius(make_params(deficit=b), qn) for b in (0.5, 1.0, 2.0)}
        assert len(values) == 1

    def test_excited_smaller_binding_larger_radius(self):
        p = make_params()
        qn = QuantumNumbers(0, 0)
        # weaker binding of the excited level needs a larger cylinder to cancel
        assert critical_radius(p, qn, EnergyLevel.EXCITED) > critical_radius(
            p, qn, EnergyLevel.GROUND
        )


class TestClassify:
    def test_reference_origin_everything_positive(self):
        p = make_params()
        ref = QuantumNumbers(0, 0)
        for n in range(4):
            for m in range(4):
                if (n, m) == (0, 0):
                    continue
                assert classify(p, ref, QuantumNumbers(n, m)) is Classification.POSITIVE

    def test_reference_zero_one_cases(self):
        p = make_params()
        ref = QuantumNumbers(0, 1)
        assert classify(p, ref, QuantumNumbers(0, 0)) is Classification.BOUND
        assert classify(p, ref, QuantumNumbers(1, 0)) is Classification.BOUND
        assert classify(p, ref, QuantumNumbers(2, 0)) is Classification.ZERO
        assert classify(p, ref, QuantumNumbers(0, 2)) is Classification.POSITIVE
        assert classify(p, ref, QuantumNumbers(3, 0)) is Classification.POSITIVE

    def test_reference_classifies_itself_zero(self):
        p = make_params(deficit=0.7)
        ref = QuantumNumbers(2, 1)
        assert classify(p, ref, QuantumNumbers(2, 1)) is Classification.ZERO

    def test_degeneracy_with_fractional_deficit(self):
        # with B = 1/2, one angular quantum weighs as much as one radial one
        p = make_params(deficit=0.5)
        ref = QuantumNumbers(0, 1)
        assert classify(p, ref, QuantumNumbers(1, 0)) is Classification.ZERO
        # and with B = 1/4 it weighs twice as much
        p = make_params(deficit=0.25)
        ref = QuantumNumbers(0, 2)
        assert classify(p, ref, QuantumNumbers(1, 0)) is Classification.ZERO

    def test_excited_level_requires_existence(self):
        p = make_params(half_separation=0.9)
        with pytest.raises(ValueError, match="excited state"):
            classify(p, QuantumNumbers(0, 0), QuantumNumbers(1, 0), EnergyLevel.EXCITED)

    def test_sign_agreement_at_reference_radius(self):
        p = make_params()
        ref = QuantumNumbers(0, 1)
        pinned = replace(p, radius=critical_radius(p, ref, EnergyLevel.GROUND))
        for n in range(4):
            for m in range(4):
                qn = QuantumNumbers(n, m)
                cls = classify(p, ref, qn)
                total = total_energy(pinned, qn, EnergyLevel.GROUND, ZeroApproxMode.MCMAHON)
                radial = radial_energy(pinned, qn, ZeroApproxMode.MCMAHON)
                if cls is Classification.ZERO:
                    assert abs(total) <= 1e-9 * radial
                elif cls is Classification.BOUND:
                    assert total < 0
                else:
                    assert total > 0


class TestSpectrumTable:
    def test_single_level_below_threshold(self):
        p = make_params(half_separation=0.9)
        table = spectrum_table(p, 0, 0)
        assert len(table) == 1
        assert table[0].level is EnergyLevel.GROUND

    def test_both_levels_count(self):
        table = spectrum_table(make_params(), 1, 1)
        assert len(table) == 8

    def test_sorted_by_n_m_level(self):
        table = spectrum_table(make_params(), 2, 1)
        key = [(e.qn.n, e.qn.m, e.level is EnergyLevel.EXCITED) for e in table]
        assert key == sorted(key)

    def test_total_is_radial_plus_axial(self):
        for entry in spectrum_table(make_params(), 2, 2):
            assert entry.total_energy == entry.radial_energy + entry.z_energy

    def test_mcmahon_radial_monotone_in_combined_index(self):
        p = make_params(deficit=0.8)
        table = spectrum_table(p, 3, 3, ZeroApproxMode.MCMAHON)
        ground = [e for e in table if e.level is EnergyLevel.GROUND]
        ground.sort(key=lambda e: e.qn.n / (2 * p.deficit) + e.qn.m)
        radials = [e.radial_energy for e in ground]
        assert all(a < b for a, b in zip(radials, radials[1:]))

    def test_classification_consistent_with_sign(self):
        for entry in spectrum_table(make_params(radius=8.0), 3, 3):
            if entry.classification is Classification.ZERO:
                assert abs(entry.total_energy) <= 1e-9 * entry.radial_energy
            elif entry.classification is Classification.BOUND:
                assert entry.total_energy < 0
            else:
                assert entry.total_energy > 0

    def test_mode_echoed(self):
        for mode in ZeroApproxMode:
            for entry in spectrum_table(make_params(), 1, 0, mode):
                assert entry.mode is mode

    def test_bound_count_grows_with_radius(self):
        counts = []
        for radius in (1.0, 2.0, 4.0, 8.0, 16.0):
            table = spectrum_table(make_params(radius=radius), 6, 6)
            counts.append(sum(1 for e in table if e.total_energy < 0))
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] > counts[0]

    def test_zero_classification_at_critical_radius(self):
        p = make_params()
        qn = QuantumNumbers(0, 0)
        pinned = replace(p, radius=critical_radius(p, qn, EnergyLevel.GROUND))
        table = spectrum_table(pinned, 0, 0, ZeroApproxMode.MCMAHON)
        ground_row = [e for e in table if e.level is EnergyLevel.GROUND][0]
        assert ground_row.classification is Classification.ZERO

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError):
            spectrum_table(make_params(), -1, 0)

    def test_rows_match_standalone_radial_energy(self):
        p = make_params(deficit=0.8)
        for mode in ZeroApproxMode:
            for entry in spectrum_table(p, 5, 7, mode):
                assert entry.radial_energy == radial_energy(p, entry.qn, mode)


@pytest.fixture
def jnu_calls(monkeypatch):
    """Count the bessel_j calls made through specfun's module namespace."""
    calls = [0]
    real = specfun.bessel_j

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(specfun, "bessel_j", counted)
    return calls


class TestWorkCeilings:
    # bessel_j calls measured on these inputs. A ceiling may go down as the
    # code gets cheaper; raising one needs a stated reason in CHANGES.md.
    def test_reference_table(self, jnu_calls):
        spectrum_table(make_params(deficit=0.8), 10, 10)
        assert jnu_calls[0] <= 1382

    def test_zero_approx_grid(self, jnu_calls):
        zero_approx_table(6.0, 10, 0.5)
        assert jnu_calls[0] <= 1638

    def test_classification_disagreements(self, jnu_calls):
        reference = QuantumNumbers(0, 3)
        classification_disagreements(make_params(deficit=0.8), reference, EnergyLevel.GROUND, 10, 10)
        assert jnu_calls[0] <= 1382


_FRESH_ZERO_COUNT = """
from defectcyl import specfun
real, calls = specfun.bessel_j, []
specfun.bessel_j = lambda *args: calls.append(args) or real(*args)
specfun.bessel_zero(1.0, 3)
print(len(calls))
"""


@pytest.fixture(scope="module")
def fresh_zero_count():
    """bessel_j calls that bessel_zero(1.0, 3) makes in a new interpreter."""
    src = os.path.dirname(os.path.dirname(specfun.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_ZERO_COUNT], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return int(done.stdout)


class TestZeroWalkScope:
    # make_params() has deficit 1, so its tables walk order 1.0; a walk that
    # outlived its table would make the later bessel_zero(1.0, 3) cheaper.
    def test_no_walk_outlives_a_table(self, jnu_calls, fresh_zero_count):
        spectrum_table(make_params(), 10, 10)
        jnu_calls[0] = 0
        bessel_zero(1.0, 3)
        assert jnu_calls[0] == fresh_zero_count

    def test_no_walk_outlives_a_failed_table(self, monkeypatch, jnu_calls, fresh_zero_count):
        counted = specfun.bessel_j

        def failing(*args):
            if jnu_calls[0] == 1000:
                raise OverflowError("injected")
            return counted(*args)

        monkeypatch.setattr(specfun, "bessel_j", failing)
        with pytest.raises(OverflowError, match="injected"):
            spectrum_table(make_params(), 10, 10)
        monkeypatch.setattr(specfun, "bessel_j", counted)
        jnu_calls[0] = 0
        bessel_zero(1.0, 3)
        assert jnu_calls[0] == fresh_zero_count

    def test_threads_build_the_same_tables_as_serial_runs(self):
        params = [
            make_params(deficit=deficit, radius=radius)
            for deficit, radius in ((0.5, 4.0), (0.8, 5.0), (1.0, 6.0), (1.3, 7.0), (2.0, 9.0), (1.0, 3.0))
        ]
        serial = [spectrum_table(p, 6, 8) for p in params]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(spectrum_table, p, 6, 8) for p in params]
                threaded = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(previous)
        assert threaded == serial


class TestModeGap:
    def test_energy_gap_envelope(self):
        # radial energies square the zeros, doubling the relative estimate
        # error: worst (40.6%) at the first zero of order six
        rows = zero_approx_table(6.0, 10, 0.5)
        energy_rel = []
        for nu, m, exact, approx, _ in rows:
            energy_rel.append(((nu, m), abs(approx**2 - exact**2) / exact**2))
        worst_pair, worst = max(energy_rel, key=lambda t: t[1])
        assert worst_pair == (6.0, 0)
        assert worst == pytest.approx(0.4058, abs=1e-3)
        late = [rel for (nu, m), rel in energy_rel if m == 10]
        assert max(late) < 0.02


class TestClassificationDisagreements:
    def test_edge_states_reported(self):
        # exact zeros land the two zero-locus states on opposite sides of the
        # closed-form boundary: (0,1) slightly unbound, (2,0) slightly bound
        p = make_params()
        ref = QuantumNumbers(0, 1)
        mismatches = classification_disagreements(p, ref, EnergyLevel.GROUND, 3, 3)
        assert mismatches == [QuantumNumbers(0, 1), QuantumNumbers(2, 0)]

    def test_no_disagreement_far_from_boundary(self):
        p = make_params()
        ref = QuantumNumbers(0, 1)
        mismatches = classification_disagreements(p, ref, EnergyLevel.GROUND, 3, 3)
        assert QuantumNumbers(0, 0) not in mismatches
        assert QuantumNumbers(3, 3) not in mismatches

    def test_ground_audit_at_huge_coupling(self):
        # c = 1e16: the audit also solves the excited level, which saturates there
        p = make_params(coupling=1e16)
        assert isinstance(classification_disagreements(p, QuantumNumbers(0, 1), EnergyLevel.GROUND, 2, 2), list)
