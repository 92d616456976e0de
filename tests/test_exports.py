"""The public names: every exported name resolves, the package exports
exactly its submodules' names, and result types hold only what they compute."""

import dataclasses

import dseries as ds
from dseries import cfrac, criterion, errors, realsource, sumengine

SUBMODULES = (realsource, cfrac, criterion, sumengine)


def test_every_exported_name_resolves():
    for module in (ds, *SUBMODULES):
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_package_exports_the_union_of_its_submodules():
    error_names = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    expected = {"__version__"} | error_names
    for module in SUBMODULES:
        expected |= set(module.__all__)
    assert len(ds.__all__) == len(set(ds.__all__))
    assert set(ds.__all__) == expected


def test_result_types_hold_only_computed_values():
    # the caller's M, the mode called, the drift's sign and the weight's
    # text are written by the CLI
    for cls, names in [
        (ds.PartialSumResult, ("value", "rounding_bound")),
        (ds.DriftPrediction, ("magnitude", "error_allowance")),
        (ds.FDescriptor, ("p",)),
    ]:
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
