import defectcyl

# The public API, spelled out: adding or removing a name must change this list.
PUBLIC_NAMES = [
    "BesselEval",
    "BoundState",
    "Classification",
    "EnergyLevel",
    "EvalMethod",
    "PhysicalParams",
    "QuantumNumbers",
    "SpectrumEntry",
    "ZeroApproxMode",
    "bessel_j",
    "bessel_j_derivative",
    "bessel_order",
    "bessel_zero",
    "classification_disagreements",
    "classify",
    "coupling_strength_parameter",
    "critical_radius",
    "excited_state",
    "ground_state",
    "radial_energy",
    "spectrum_table",
    "total_energy",
    "validate",
    "zero_approx_table",
]


def test_public_names_are_pinned():
    assert sorted(defectcyl.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in defectcyl.__all__:
        assert getattr(defectcyl, name) is not None
