"""The public surface keeps fixed settings fixed: no field or parameter sets them."""

import dataclasses
import inspect

from fraccert import chains, constants, dirichlet, hypotheses, liouville, operator, profiles


def _fields(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


def test_fixed_settings_are_neither_fields_nor_parameters():
    assert _fields(operator.QuadSpec) == ["rel_tol", "abs_tol", "kink_radii"]
    assert _fields(chains.SamplePolicy) == ["points", "exterior_span"]
    assert "truncation_radius" not in _fields(dirichlet.GridProblem)
    assert not hasattr(liouville, "AnnulusSampler")
    assert not hasattr(profiles, "SignVariant")  # the branch alone picks the fundamental solution
    removed = {
        constants.choose_constants: {"quad", "probe_points"},
        liouville.proof_quantity_trace: {"quad", "c_bar", "c_multiplier", "mu", "sampler"},
        liouville.power_symbol: {"quad"},
        liouville.annulus_inf: {"sampler"},
        liouville.verify_growth_bounds: {"sampler", "case"},
        dirichlet.verify_hopf_ratio: {"stability_tol"},
        dirichlet.verify_qsmp: {"stability_tol"},
        hypotheses.check_f2: {"k_max"},
        hypotheses.check_f3prime: {"j_max"},
        hypotheses.check_f4prime: {"j_max"},
        hypotheses.check_f2prime: {"boxes", "decades"},
        hypotheses.h_of_k: {"decades"},
        profiles.RadialProfile.jumps: {"rel_tol"},
        profiles.make_fundamental: {"sign_variant"},
    }
    for fn, names in removed.items():
        assert not names & set(inspect.signature(fn).parameters), fn.__qualname__
    # the annulus sampler is a point count, with the defaults it had
    assert inspect.signature(liouville.annulus_inf).parameters["points"].default == 400
    assert inspect.signature(liouville.verify_growth_bounds).parameters["points"].default == 200
