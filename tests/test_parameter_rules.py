"""One check per parameter rule, the same refusal at every site that takes the parameter.

Each rule is written once, in the module that owns the parameter: the
window in ``signals``, the rate, depth, harmonic, phase offset and trial
count in ``pointproc``, whole cycles in ``signals``. The models, the
synthesis and ``ExperimentConfig`` call that check, so each refuses every
bad value with a ``DomainError`` naming the value. The PLV laws take the
phase and the rate model they describe, so those objects' checks are
theirs; each law reads its window from the phase, so the window rule is
checked at every law, and the closed forms also check whole cycles.
"""

import math
import re

import numpy as np
import pytest

from spikefield.errors import DomainError
from spikefield.harness import ExperimentConfig
from spikefield.pointproc import (
    HomogeneousRate,
    SinusoidRate,
    SpikeData,
    VonMisesRate,
    fourth_moment_oracle,
    simulate_poisson,
)
from spikefield.signals import LinearPhase, _check_whole_cycles, synthesize_oscillations
from spikefield.unicoupling import (
    plv_asymptotics_sinusoid,
    plv_asymptotics_vonmises,
    plv_law_numeric,
)

_PHASE = LinearPhase(1.0, 5.0)


def _rng():
    return np.random.default_rng(0)


# rule -> (bad values, {site: build it with the value})
_RULES = {
    "window": ((0.0, -1.0, math.nan, math.inf), {
        "LinearPhase": lambda w: LinearPhase(1.0, w),
        "SinusoidRate": lambda w: SinusoidRate(20.0, 0.3, 1, 0.0, w),
        "SpikeData": lambda w: SpikeData(w, [[[]]]),
        "simulate_poisson": lambda w: simulate_poisson(HomogeneousRate(20.0), w, 1, _rng()),
        "fourth_moment_oracle": lambda w: fourth_moment_oracle(1, 1, 1, 1, rate=1.0, horizon=w),
        "plv_law_numeric": lambda w: plv_law_numeric(LinearPhase(1.0, w), HomogeneousRate(20.0)),
        "vonmises-law": lambda w: plv_asymptotics_vonmises(LinearPhase(1.0, w), HomogeneousRate(20.0)),
        "sinusoid-law": lambda w: plv_asymptotics_sinusoid(
            LinearPhase(1.0, w), SinusoidRate(20.0, 0.3, 1, 0.0, 5.0)),
        "synthesis": lambda w: synthesize_oscillations([3.0], w, 1 / 64, 0.0, 1, _rng()),
        "univar-null": lambda w: ExperimentConfig("univar-null", window=w),
        "sinusoid-uncoupled": lambda w: ExperimentConfig("sinusoid-uncoupled", window=w),
        "multivar-null": lambda w: ExperimentConfig("multivar-null", window=w),
        "moment-oracle": lambda w: ExperimentConfig("moment-oracle", window=w),
        "bias-curve": lambda w: ExperimentConfig("bias-curve", windows=(0.5, w)),
    }),
    "rate": ((0.0, -1.0, math.nan, math.inf), {
        "HomogeneousRate": HomogeneousRate,
        "VonMisesRate": lambda r: VonMisesRate(r, 0.5, 0.0, _PHASE),
        "SinusoidRate": lambda r: SinusoidRate(r, 0.3, 1, 0.0, 5.0),
        **{name: lambda r, name=name: ExperimentConfig(name, rate0=r) for name in (
            "univar-null", "univar-coupled", "bias-curve", "sinusoid-uncoupled",
            "multivar-null", "multivar-coupled", "moment-oracle")},
    }),
    "depth": ((1.5, -0.5, math.nan), {
        "SinusoidRate": lambda d: SinusoidRate(20.0, d, 1, 0.0, 5.0),
        "sinusoid-uncoupled": lambda d: ExperimentConfig("sinusoid-uncoupled", depth=d),
    }),
    "harmonic": ((0, 1.5), {
        "SinusoidRate": lambda h: SinusoidRate(20.0, 0.3, h, 0.0, 5.0),
        "sinusoid-uncoupled-rate": lambda h: ExperimentConfig("sinusoid-uncoupled", rate_harmonic=h),
        "sinusoid-uncoupled-phase": lambda h: ExperimentConfig(
            "sinusoid-uncoupled", rate_harmonic=5, phase_harmonic=h),
    }),
    # At kappa = 0 a unit is homogeneous and reads no offset; a given one is
    # held to the same rule all the same (pointproc._locked_rate).
    "phase-offset": ((math.nan, math.inf), {
        "VonMisesRate": lambda o: VonMisesRate(20.0, 0.5, o, _PHASE),
        "SinusoidRate": lambda o: SinusoidRate(20.0, 0.3, 1, o, 5.0),
        "univar-coupled": lambda o: ExperimentConfig("univar-coupled", phase_offset=o),
        "sinusoid-uncoupled": lambda o: ExperimentConfig("sinusoid-uncoupled", phase_offset=o),
        "multivar-coupled": lambda o: ExperimentConfig("multivar-coupled", phase_offset=o),
        "multivar-coupled-kappa-0": lambda o: ExperimentConfig(
            "multivar-coupled", kappa=0.0, phase_offset=o),
        "univar-coupled-kappa-0": lambda o: ExperimentConfig(
            "univar-coupled", kappa=0.0, phase_offset=o),
    }),
    # At least one trial, and no more than numpy's array of one int64 per trial holds.
    "trials": ((0, -1, 2**60 - 1, 2**70), {
        "simulate_poisson": lambda k: simulate_poisson(HomogeneousRate(20.0), 1.0, k, _rng()),
        **{name: lambda k, name=name: ExperimentConfig(name, trials=k) for name in (
            "univar-null", "univar-coupled", "bias-curve", "sinusoid-uncoupled",
            "multivar-null", "multivar-coupled", "moment-oracle")},
    }),
}

_CASES = [(rule, site, value) for rule, (values, sites) in _RULES.items()
          for site in sites for value in values]


@pytest.mark.parametrize("rule, site, value", _CASES,
                         ids=[f"{rule}-{site}-{value}" for rule, site, value in _CASES])
def test_every_site_refuses_a_bad_value(rule, site, value):
    with pytest.raises(DomainError, match=re.escape(f"got {value!r}")):
        _RULES[rule][1][site](value)


# A field an experiment does not read is refused as unread, whatever its value:
# univar-null's unit is homogeneous, so no draw and no law reads its offset.
@pytest.mark.parametrize("name, field", [("univar-null", "phase_offset")])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_an_unread_field_is_refused(name, field, value):
    with pytest.raises(DomainError, match=re.escape(f"{name} reads no field(s) ['{field}']")):
        ExperimentConfig(name, **{field: value})


# A window that is not a whole number of cycles of the phase (f*T = 6.5, 58.3, 137.5).
@pytest.mark.parametrize("build", [
    lambda: _check_whole_cycles(LinearPhase(1.3, 5.0)),
    lambda: plv_asymptotics_vonmises(LinearPhase(1.3, 5.0), HomogeneousRate(20.0)),
    lambda: plv_asymptotics_sinusoid(LinearPhase(1.3, 5.0), SinusoidRate(20.0, 0.3, 1, 0.0, 5.0)),
    lambda: ExperimentConfig("univar-null", frequency=1.3),
    lambda: ExperimentConfig("univar-coupled", window=5.3, frequency=11.0),
    lambda: ExperimentConfig("multivar-null", components=(11.0, 12.5)),
    lambda: ExperimentConfig("multivar-coupled", components=(11.5,)),
], ids=["phase", "vonmises-law", "sinusoid-law", "univar-null", "univar-coupled",
        "multivar-null", "multivar-coupled"])
def test_every_site_refuses_partial_cycles(build):
    with pytest.raises(DomainError, match=r"must hold an integer number of cycles of .* Hz, got f\*T="):
        build()


# A phase that turns through less than half a cycle has a PLV near 1, not the laws'
# limit: zero cycles are refused as a whole number too few (f*T = 5e-12, 1.1e-11).
@pytest.mark.parametrize("build", [
    lambda: _check_whole_cycles(LinearPhase(1e-12, 5.0)),
    lambda: plv_asymptotics_vonmises(LinearPhase(1e-12, 5.0), HomogeneousRate(20.0)),
    lambda: plv_asymptotics_sinusoid(LinearPhase(1e-12, 5.0), SinusoidRate(20.0, 0.3, 1, 0.0, 5.0)),
    lambda: ExperimentConfig("univar-null", frequency=1e-12),
    lambda: ExperimentConfig("multivar-null", components=(11.0, 1e-12)),
], ids=["phase", "vonmises-law", "sinusoid-law", "univar-null", "multivar-null"])
def test_every_site_refuses_a_phase_of_no_cycle(build):
    with pytest.raises(DomainError, match=r"holds no whole cycle of 1e-12 Hz, got f\*T="):
        build()
