"""The public surface: every exported name resolves, retired names stay
gone, and the physics is configured by EnsembleParams alone."""

import dataclasses
import importlib
import inspect

import pytest

import dicke_therm

# the modules that declare __all__
MODULES = ["core", "correlators", "asymptotics", "dynamics", "sweep", "exceptions"]
# the modules whose __all__ the package re-exports, in this order
EXPORTED = ["core", "correlators", "asymptotics", "dynamics", "exceptions"]

# name -> module it was removed from
REMOVED = {
    "g1_intensity": "correlators",
    "liouvillian_apply": "dynamics",
    "MismatchedDimensions": "exceptions",
    "read_report_csv": "sweep",
    "read_sweep_csv": "sweep",
    "RateModel": "dynamics",
    "NonPositiveFrequency": "exceptions",
    "sweep_points": "sweep",
    "parse_config_file": "sweep",
    "validate_params": "core",
    "ratio_from_log_g1": "correlators",
    "LadderCoeffs": "core",
}

# (module, function, the retired keyword it no longer takes): separate
# bath rates, a spectrum apart from the ensemble, a classification
# tolerance, validation tolerances, a copying logsumexp, a one-coupling
# ladder kernel, a per-coupling switch for the G2 sum
RETIRED_KEYWORDS = [
    ("dynamics", "ThermalLiouvillian", "rates"),
    ("dynamics", "integrate", "rates"),
    ("dynamics", "steady_state_residual", "rates"),
    ("dynamics", "default_step", "rates"),
    ("correlators", "correlators_from_log_sums", "tol"),
    ("correlators", "g2_zero", "tol"),
    ("correlators", "steady_state_correlators", "tol"),
    ("correlators", "classify_statistics", "tol"),
    ("core", "thermal_state", "spectrum"),
    ("asymptotics", "validate_asymptotics", "tolerances"),
    ("core", "logsumexp_rows", "in_place"),
    ("correlators", "ladder_log_sums", "eta"),
    ("correlators", "ladder_log_sums", "pairs"),
    ("correlators", "ladder_log_sums", "calls"),
]


def module(name):
    return importlib.import_module(f"dicke_therm.{name}")


@pytest.mark.parametrize("name", ["", *MODULES])
def test_all_entries_resolve(name):
    mod = module(name) if name else dicke_therm
    assert mod.__all__
    for entry in mod.__all__:
        assert hasattr(mod, entry), f"{mod.__name__}.{entry}"


def test_package_exports_its_modules_all():
    expected = ["__version__", *(e for m in EXPORTED for e in module(m).__all__)]
    assert dicke_therm.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in EXPORTED:
        for entry in module(name).__all__:
            assert getattr(dicke_therm, entry) is getattr(module(name), entry)


@pytest.mark.parametrize("name, home", sorted(REMOVED.items()))
def test_removed_names_are_gone(name, home):
    assert not hasattr(module(home), name)
    assert not hasattr(dicke_therm, name)
    assert all(name not in module(m).__all__ for m in MODULES)


@pytest.mark.parametrize("home, name, keyword", RETIRED_KEYWORDS)
def test_no_retired_keywords(home, name, keyword):
    assert keyword not in inspect.signature(getattr(module(home), name)).parameters


def test_surviving_signatures():
    assert list(inspect.signature(dicke_therm.default_step).parameters) == ["params"]
    assert next(iter(inspect.signature(dicke_therm.g2_zero).parameters)) == "state"
    assert list(inspect.signature(dicke_therm.ladder_log_sums).parameters) == [
        "n_atoms", "xs", "etas"]
    assert hasattr(dicke_therm.ThermalLiouvillian(dicke_therm.EnsembleParams(2)), "dim")


@pytest.mark.parametrize(
    "cls, field",
    [(dicke_therm.StepControl, "max_trace_drift"), (dicke_therm.AsymptoticReport, "tolerances")],
)
def test_retired_fields(cls, field):
    assert field not in {f.name for f in dataclasses.fields(cls)}


def test_sweep_config_has_no_as_dict():
    # sidecars serialise the config with dataclasses.asdict
    assert not hasattr(dicke_therm.sweep.SweepConfig, "as_dict")
