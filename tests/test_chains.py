import dataclasses

import numpy as np
import pytest

import fraccert.chains
from fraccert.chains import (ChainId, SamplePolicy, Verdict, chain_info, fit_rate,
                             measure_rate, verify_chain)
from fraccert.constants import choose_constants
from fraccert.errors import ConfigurationError
from fraccert.operator import QuadSpec, eval_radial
from fraccert.params import FracParams
from fraccert.profiles import BarrierConstants, constant_profile

P_POS = FracParams(1, 0.75)
P_LOG = FracParams(1, 0.5)
P_NEG = FracParams(3, 0.5)
FAST = SamplePolicy(points=60)


@pytest.fixture(scope="module")
def lvc_constants():
    return choose_constants("LVC", P_POS, r0=2.0, r=20.0)


@pytest.fixture(scope="module")
def nbbn_constants():
    return choose_constants("NBBN", P_LOG, r0=2.0, r=20.0)


@pytest.fixture(scope="module")
def nitu_constants():
    return choose_constants("NITU", P_NEG, r0=2.0, r=20.0)


def test_sign_chain_combined_barrier_negative(lvc_constants):
    rep = verify_chain(ChainId.LVC, P_POS, lvc_constants, FAST)
    assert rep.verdict is Verdict.PASS
    _, vals, errs = np.asarray(rep.samples).T
    assert np.all(vals + 2 * errs < 0.0)


def test_log_branch_sign_chain(nbbn_constants):
    rep = verify_chain(ChainId.NBBN, P_LOG, nbbn_constants, FAST)
    assert rep.verdict is Verdict.PASS


def test_decaying_branch_sign_chain(nitu_constants):
    rep = verify_chain(ChainId.NITU, P_NEG, nitu_constants, FAST)
    assert rep.verdict is Verdict.PASS


def test_exterior_log_chain_negative():
    bc = BarrierConstants(base_radius=2.0, outer_radius=20.0)
    rep = verify_chain(ChainId.CA1_00, P_LOG, bc, FAST)
    assert rep.verdict is Verdict.PASS


def test_doubling_bump_never_flips_pass(lvc_constants, nbbn_constants, nitu_constants):
    ri_constants = choose_constants("RI", P_NEG, r0=2.0, r=20.0)
    for chain, params, consts, bigger in (
        (ChainId.LVC, P_POS, lvc_constants,
         lvc_constants.with_updates(power_bump_coef=2 * lvc_constants.power_bump_coef)),
        (ChainId.NBBN, P_LOG, nbbn_constants,
         nbbn_constants.with_updates(log_bump_coef=2 * nbbn_constants.log_bump_coef)),
        (ChainId.NITU, P_NEG, nitu_constants,
         nitu_constants.with_updates(plateau_height=2 * nitu_constants.plateau_height)),
        (ChainId.RI, P_NEG, ri_constants,
         ri_constants.with_updates(shell_coef=2 * ri_constants.shell_coef)),
    ):
        assert verify_chain(chain, params, consts, FAST).verdict is Verdict.PASS
        assert verify_chain(chain, params, bigger, FAST).verdict is Verdict.PASS


def test_constant_profile_gives_zero_through_chain_machinery():
    prof = constant_profile(3.0)
    for x in (2.5, 7.0, 19.0):
        ov = eval_radial(prof, x, P_POS, QuadSpec(rel_tol=1e-8))
        assert ov.value == pytest.approx(0.0, abs=1e-12)


def test_bound_chains_fit_stable_constants():
    bc = BarrierConstants(base_radius=2.0, outer_radius=20.0)
    for chain, params in ((ChainId.CA3D, P_POS), (ChainId.CA3Q, P_NEG),
                          (ChainId.CA1F, P_NEG), (ChainId.CA10, P_NEG)):
        rep = verify_chain(chain, params, bc, SamplePolicy(points=40))
        assert rep.verdict is Verdict.PASS, (chain, rep.notes)
        assert rep.fitted_constant is not None and rep.fitted_constant > 0.0


def test_negative_bound_chains(nitu_constants):
    rep = verify_chain(ChainId.CA3P, P_NEG, nitu_constants, SamplePolicy(points=40))
    assert rep.verdict is Verdict.PASS
    assert rep.fitted_constant > 0.0  # normalized by the plateau amplitude
    rep2 = verify_chain(ChainId.CA1AA, P_NEG, nitu_constants, SamplePolicy(points=40))
    assert rep2.verdict is Verdict.PASS
    rep3 = verify_chain(ChainId.CA10L, P_NEG, nitu_constants, SamplePolicy(points=40))
    assert rep3.verdict is Verdict.PASS and rep3.fitted_constant > 0.0


def test_log_branch_bound_chains(nbbn_constants):
    rep = verify_chain(ChainId.CAR3PP, P_LOG, nbbn_constants, SamplePolicy(points=40))
    assert rep.verdict is Verdict.PASS
    rep2 = verify_chain(ChainId.CAR3PR, P_LOG, nbbn_constants, SamplePolicy(points=40))
    assert rep2.verdict is Verdict.PASS and rep2.fitted_constant > 0.0


def test_rate_slopes():
    bc = BarrierConstants(base_radius=2.0, outer_radius=20.0)
    grid = [10.0, 31.6, 100.0, 316.0, 1000.0]
    fit = measure_rate(ChainId.CA3D, P_POS, bc, grid, points_per_r=16)
    assert fit.slope == pytest.approx(-1.0, abs=0.15)
    fit2 = measure_rate(ChainId.CA3Q, P_NEG, bc, grid, points_per_r=16)
    assert fit2.slope == pytest.approx(-2 * P_NEG.s, abs=0.15)


@pytest.mark.parametrize("chain", [ChainId.LVC, ChainId.CA1_00])
def test_measure_rate_on_a_sign_chain_raises(chain):
    bc = BarrierConstants(base_radius=2.0, outer_radius=20.0)
    with pytest.raises(ConfigurationError, match="no rate envelope"):
        measure_rate(chain, P_POS, bc, [10.0, 100.0], points_per_r=16)


def test_fit_rate_exact_laws():
    rs = [10.0, 31.6, 100.0, 316.0, 1000.0]
    fit = fit_rate(rs, [3.0 / r for r in rs])
    assert fit.constant == pytest.approx(3.0, rel=1e-12)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.residual < 1e-12

    vals = [np.log(2 * r) / r for r in rs]
    fit2 = fit_rate(rs, vals, rate=lambda r: np.log(2 * r) / r)
    expected_slope = (np.log(vals[-1]) - np.log(vals[0])) / (np.log(rs[-1]) - np.log(rs[0]))
    assert fit2.slope == pytest.approx(expected_slope, abs=0.05)
    assert fit2.ratio_spread == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_handles_signed_values():
    rs = [10.0, 40.0, 160.0, 640.0]
    fit = fit_rate(rs, [-5.0 / r for r in rs])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.constant == pytest.approx(5.0, rel=1e-12)


def test_fit_rate_input_validation():
    with pytest.raises(ConfigurationError):
        fit_rate([1.0, 2.0, 3.0], [1.0, 0.5, 0.3])  # not a decade
    with pytest.raises(ConfigurationError):
        fit_rate([1.0, 10.0, 100.0, 1000.0], [1.0, 0.0, 0.1, 0.01])


def test_vask_requires_sign_radius():
    bc = BarrierConstants(base_radius=2.0, outer_radius=20.0)
    with pytest.raises(ConfigurationError):
        verify_chain(ChainId.VASK, P_NEG, bc, FAST)


def test_chain_info_table_complete():
    for chain in ChainId:
        info = chain_info(chain)
        assert info.kind in ("sign", "bound")
        assert info.region in ("annulus", "annulus_out", "exterior_unit",
                               "exterior_2r", "exterior_sign")


def test_choose_constants_rejects_degenerate_radii():
    with pytest.raises(ConfigurationError):
        choose_constants("LVC", P_POS, r0=2.0, r=1.0)


def test_chosen_constants_carry_safety_margin(lvc_constants):
    # halving the chosen bump amplitude must still leave a working combination
    # (the selection applied a factor-2 cushion)
    halved = lvc_constants.with_updates(power_bump_coef=0.55 * lvc_constants.power_bump_coef)
    rep = verify_chain(ChainId.LVC, P_POS, halved, FAST)
    assert rep.verdict is Verdict.PASS


# choose_constants with the envelope probes on the integral over rho (r0 = 2, r = 20); each moved
# within the combined bars of its probes: RI by 4e-4 relative (its probe at |x| = 800 had a 4 % bar
# on the spherical means), VASK by 8e-7, the others by at most 1e-7.  With the profiles' origin and
# tail zones by the kernel's series, NBBN moved by 1e-7 relative, the others by at most 5e-11; with the
# tail series from rho = 2r, VASK and RI by 6e-12 and 2e-12 relative (bars 3e-5 and 8e-6 relative before); with
# [r/2, 2r] by the power multiplier where it holds no breakpoint, each by at most 0.21 of the combined bars
_CHOSEN = {
    ("LVC", 1, 0.75): {"power_bump_coef": 5.513960347255037},
    ("NBBN", 1, 0.5): {"log_bump_coef": 9.98038886084237},
    ("NITU", 3, 0.5): {"plateau_height": 7.171550832985888},
    ("VASK", 3, 0.5): {"indicator_coef": 3.6921601394193657, "exterior_sign_radius": 12.148948366554817},
    ("RI", 3, 0.5): {"shell_coef": 760.1200880528468},
    ("LVC", 1, 0.8): {"power_bump_coef": 5.519112016462621},
}


@pytest.mark.parametrize("chain,n,s", list(_CHOSEN))
def test_choose_constants_pinned(chain, n, s):
    got = dataclasses.asdict(choose_constants(chain, FracParams(n, s), r0=2.0, r=20.0))
    want = dataclasses.asdict(BarrierConstants(base_radius=2.0, outer_radius=20.0,
                                               **_CHOSEN[(chain, n, s)]))
    assert got.keys() == want.keys()
    for key, value in want.items():
        if value is None:
            assert got[key] is None, key
        else:
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


def test_sign_chain_parts_are_opposite_bound_chains():
    fields = {f.name for f in dataclasses.fields(BarrierConstants)}
    paired = [chain for chain in ChainId if chain_info(chain).parts]
    assert {c.value for c in paired} == {"LVC", "NBBN", "NITU", "RI", "VASK"}
    for chain in ChainId:
        info = chain_info(chain)
        if info.constant is not None:
            assert info.constant in fields, chain
        if info.parts is None:
            continue
        assert info.kind == "sign" and info.constant is not None
        positive, negative = (chain_info(part) for part in info.parts)
        assert positive.kind == negative.kind == "bound"
        assert (positive.envelope_sign, negative.envelope_sign) == (+1, -1)
        assert positive.rate is not None and negative.rate is not None


def test_choose_constants_rejects_chains_without_parts():
    for chain in ("CA3D", "CA1_00", "nonsense"):
        with pytest.raises(ConfigurationError):
            choose_constants(chain, P_POS)


# bound chains on stubbed engine values v = scale_i * envelope with bars err * envelope at the two working radii:
# (chain, scales, err, verdict, note); CA3D is a positive envelope, CA3PR a negative one
_BOUND_VERDICTS = [
    (ChainId.CA3D, (1.0, 2.0), 0.0, Verdict.FAIL, "envelope constant unstable across radii: 1 vs 2"),
    (ChainId.CA3PR, (-1e-3, -1e-3), 1.0, Verdict.INCONCLUSIVE,
     "negative envelope constant not resolved above error bars"),
]


@pytest.mark.parametrize("chain,scales,err,verdict,note", _BOUND_VERDICTS,
                         ids=[row[0].value for row in _BOUND_VERDICTS])
def test_bound_chain_verdicts_from_the_envelope_constants(monkeypatch, chain, scales, err, verdict, note):
    def stub(probes, params, policy, quad):
        out = []
        for (spec, c), scale in zip(probes, scales):
            xs = np.geomspace(c.base_radius, 2.0 * c.outer_radius, 8)
            rate = spec.rate(xs, c.outer_radius, params)
            out.append((xs, scale * rate, err * rate, np.ones(xs.size, dtype=bool)))
        return out

    monkeypatch.setattr(fraccert.chains, "_barriers_on_regions", stub)
    rep = verify_chain(chain, P_POS, BarrierConstants(2.0, 20.0), FAST)
    assert rep.verdict is verdict
    assert rep.notes == (note,)
