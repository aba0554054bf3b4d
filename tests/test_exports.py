"""The package root re-exports every library module's ``__all__``."""

import ast
import inspect

import pytest

import eitprism
from eitprism import config, experiment, medium, rays, waves

MODULES = [medium, rays, waves, experiment, config]

# The names the root exported before it was built from the modules' lists.
FORMER_EXPORTS = """
    ControlField MediumParams complex_chi eta grad_index index_profile rabi_at
    re_chi refractive_index Trajectory deflection_estimate exit_angle trace_ray
    AliasingError Grid1D GuardBandError TransverseField ZeroPowerError
    beam_width centered_grid centroid far_field_moments gaussian_beam_field
    make_gaussian_probe power propagate_free propagate_medium transmission
    ProbeSpec Scene SweepRow angular_dispersion default_scene detuning_sweep
    estimate_parameters run_point spectral_resolution RunConfig ConfigError
    parse_config scene_from_config serialize_config
""".split()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_names_are_root_names(module):
    for name in module.__all__:
        assert getattr(eitprism, name) is getattr(module, name), name


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_definitions_are_in_module_all(module):
    tree = ast.parse(inspect.getsource(module))
    defined = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]
    assert [name for name in defined if name not in module.__all__] == []


def test_root_all():
    names = eitprism.__all__
    assert len(names) == len(set(names))
    assert "__version__" in names
    assert [name for name in FORMER_EXPORTS if name not in names] == []
    assert len(FORMER_EXPORTS) == 42
