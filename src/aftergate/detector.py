"""Physical model of a GHz-gated InGaAs avalanche photodiode.

The detector is described by two intra-gate profiles: a trigger profile
(probability that a photogenerated carrier starts an avalanche as a function
of arrival time within the gate) and a gain profile (normalized charge an
avalanche acquires before the gate closes). Clicks follow a charge-threshold
law: the number of triggered avalanches is Poisson, and the discriminator
fires when the summed normalized charge crosses the discrimination level.
Carriers that fail to contribute can be captured by one of two trap
populations (heterointerface or multiplication layer) and released in later
gates, producing delayed detection events.

All times are picoseconds, all energies eV, all probabilities dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Boltzmann constant in eV per kelvin.
K_BOLTZMANN_EV = 8.617e-5


@dataclass(frozen=True)
class Environment:
    """Operating point at which trap lifetimes are evaluated."""

    temperature: float  # kelvin

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be positive, got {self.temperature}")


# The capture parameters trap_loading reads from the species in each
# DetectorParams slot; a species must leave the other slot's at 0.
CAPTURE_PARAMS = {
    "interface_trap": ("capture_fraction_photo",),
    "multiplication_trap": ("capture_per_avalanche_charge",
                            "retention_strength"),
}


@dataclass(frozen=True)
class TrapSpecies:
    """One carrier-trapping population; the DetectorParams slot holding it
    (interface_trap or multiplication_trap) sets its role.

    The release lifetime follows an Arrhenius law
    tau(T) = lifetime_prefactor * exp(activation_energy / (k_B T)).

    capture_fraction_photo (interface only) applies to photogenerated holes
    that fail to cross into the multiplication region within their gate;
    capture_per_avalanche_charge applies per unit of normalized avalanche
    charge, and retention_strength steers how much more charge stays trapped
    when the gate closes early (low gain), as 1 + retention_strength * (1 -
    gain); both are multiplication only (CAPTURE_PARAMS).
    """

    activation_energy: float  # eV
    lifetime_prefactor: float  # ps
    capture_fraction_photo: float = 0.0
    capture_per_avalanche_charge: float = 0.0
    retention_strength: float = 0.0

    def __post_init__(self):
        if self.activation_energy < 0 or not math.isfinite(self.activation_energy):
            raise ValueError("activation_energy must be finite and >= 0")
        if not self.lifetime_prefactor > 0:
            raise ValueError("lifetime_prefactor must be > 0")
        if not (0.0 <= self.capture_fraction_photo <= 1.0):
            raise ValueError("capture_fraction_photo must lie in [0, 1]")
        if not self.capture_per_avalanche_charge >= 0:
            raise ValueError("capture_per_avalanche_charge must be >= 0")
        if not self.retention_strength >= 0:
            raise ValueError("retention_strength must be >= 0")


@dataclass(frozen=True)
class GateTiming:
    """Periodic gating clock. The period is derived from the frequency;
    frequency and width may be arrays, one clock per element."""

    gating_frequency: float  # Hz
    gate_width: float  # ps

    def __post_init__(self):
        if np.any(self.gating_frequency <= 0):
            raise ValueError("gating_frequency must be > 0")
        if not np.all(np.isfinite(self.gating_frequency)):
            raise ValueError("gating_frequency must be finite and > 0")
        period, width = np.broadcast_arrays(self.gate_period, self.gate_width)
        bad = ~((0.0 < width) & (width < period))
        if bad.any():
            raise ValueError(
                f"gate_width must lie in (0, period={period[bad][0]:.6g} ps), "
                f"got {width[bad][0]}"
            )

    @property
    def gate_period(self) -> float:
        return 1.0e12 / self.gating_frequency

    def delays(self, delays) -> np.ndarray:
        """The delays as a float array, checked to lie within one period,
        [0, gate_period) ps, of every clock; NaN does not."""
        d = np.asarray(delays, dtype=float)
        if not np.all((d >= 0.0) & (d < self.gate_period)):
            raise ValueError(f"delay grid must lie within "
                             f"[0, {np.min(self.gate_period):g}) ps")
        return d

    def one_clock(self, delay) -> float:
        """delays() of one delay, as a float; an array clock raises."""
        d = self.delays(delay)
        if np.ndim(self.gate_period) or np.ndim(self.gate_width):
            raise ValueError("this entry point takes one gating clock")
        return float(d)


def _flat_top(delay, flat, edge, floor):
    """Intra-gate profile: 1 on [0, flat), a raised-cosine fall to floor
    over the next `edge` ps, then floor; floor before the gate opens."""
    t = np.asarray(delay, dtype=float)
    fall = 0.5 * (1.0 + np.cos(np.pi * np.clip((t - flat) / edge, 0.0, 1.0)))
    # an explicit 1.0: floor + (1 - floor) can round away from 1
    out = np.where(t < flat, 1.0, floor + (1.0 - floor) * fall)
    return np.where(t < 0.0, floor, out)


@dataclass(frozen=True)
class DetectorParams:
    """Full detector description.

    The trigger profile is a flat top followed by a raised-cosine trailing
    edge; its values are normalized so that the shape is 1 at the optimal
    delay and the Poisson avalanche rate is flux * detection_efficiency there.
    trigger_peak is the physical per-carrier trigger probability at the
    optimum and only enters trap loading (the fraction 1 - trigger_peak of
    carriers never crosses and is available for interface capture).

    The gain profile is a flat top with a raised-cosine decline to gain_floor;
    the discriminator needs ceil(discrimination_threshold / gain) simultaneous
    avalanches for a click, which is the origin of end-of-gate superlinearity.
    """

    timing: GateTiming
    detection_efficiency: float
    discrimination_threshold: float
    dark_count_prob: float
    afterpulse_prob: float
    interface_trap: TrapSpecies
    multiplication_trap: TrapSpecies
    trigger_peak: float = 0.85
    trigger_flat_fraction: float = 0.57
    gain_flat_fraction: float = 0.36
    gain_edge_fraction: float = 0.63
    gain_floor: float = 0.10
    afterpulse_spread_gates: int = 100

    def __post_init__(self):
        if not (0.0 <= self.detection_efficiency <= 1.0):
            raise ValueError("detection_efficiency must lie in [0, 1]")
        if not self.discrimination_threshold > 0:
            raise ValueError("discrimination_threshold must be > 0")
        if not (0.0 <= self.dark_count_prob < 1.0):
            raise ValueError("dark_count_prob must lie in [0, 1)")
        if not (0.0 <= self.afterpulse_prob < 1.0):
            raise ValueError("afterpulse_prob must lie in [0, 1)")
        if not (0.0 < self.trigger_peak <= 1.0):
            raise ValueError("trigger_peak must lie in (0, 1]")
        if not (0.0 < self.gain_floor <= 1.0):
            raise ValueError("gain_floor must lie in (0, 1]")
        for frac in (self.trigger_flat_fraction, self.gain_flat_fraction,
                     self.gain_edge_fraction):
            if not (0.0 < frac <= 1.0):
                raise ValueError("profile fractions must lie in (0, 1]")
        for slot in CAPTURE_PARAMS:
            species = getattr(self, slot)
            for other, names in CAPTURE_PARAMS.items():
                for name in names:
                    if other != slot and getattr(species, name) != 0.0:
                        raise ValueError(f"{slot} never reads {name}; "
                                         f"it must be 0")
        if not self.afterpulse_spread_gates >= 1:
            raise ValueError("afterpulse_spread_gates must be >= 1")

    # -- intra-gate profiles (vectorized over delay) --

    def trigger_shape(self, delay):
        """Normalized trigger shape, 1 on the flat top, 0 beyond the gate."""
        w = self.timing.gate_width
        return _flat_top(delay, self.trigger_flat_fraction * w,
                         (1.0 - self.trigger_flat_fraction) * w, 0.0)

    def trigger_probability(self, delay):
        """Physical per-carrier avalanche trigger probability."""
        return self.trigger_peak * self.trigger_shape(delay)

    def gain(self, delay):
        """Normalized avalanche gain; gain_floor outside the gate window."""
        w = self.timing.gate_width
        return _flat_top(delay, self.gain_flat_fraction * w,
                         self.gain_edge_fraction * w, self.gain_floor)

    def threshold_count(self, delay):
        """Avalanches needed for a click; ties at exact equality click."""
        ratio = self.discrimination_threshold / self.gain(delay)
        # the 1e-12 guard keeps exact integer ratios from rounding up
        return np.maximum(np.ceil(ratio - 1e-12), 1.0)

    def mean_avalanches(self, mean_flux, delay):
        """Poisson mean of triggered avalanches for a pulse at this delay."""
        return mean_flux * self.detection_efficiency * self.trigger_shape(delay)


@dataclass(frozen=True)
class PulseSpec:
    """One optical pulse: Poissonian flux and delay from the gate start."""

    mean_flux: float
    delay: float = 0.0  # ps

    def __post_init__(self):
        _check_flux(self.mean_flux)


# ---------------------------------------------------------------------------
# analytic operations
# ---------------------------------------------------------------------------


def _check_flux(mean_flux) -> None:
    f = np.asarray(mean_flux, dtype=float)
    if not np.all((f >= 0.0) & (f < np.inf)):
        raise ValueError("mean flux must be finite and >= 0")


def trap_lifetime(species: TrapSpecies, env: Environment) -> float:
    """Arrhenius release lifetime in ps at the environment temperature;
    math.inf (no release) where the exponential overflows, or where k_B T
    underflows to 0 under a positive activation energy."""
    if species.activation_energy == 0:
        return species.lifetime_prefactor
    kt = K_BOLTZMANN_EV * env.temperature
    if kt == 0:
        return math.inf
    try:
        return species.lifetime_prefactor * math.exp(
            species.activation_energy / kt)
    except OverflowError:
        return math.inf


def poisson_tail(k, lam) -> np.ndarray:
    """P(N >= k) for N ~ Poisson(lam), elementwise over broadcast k and lam.

    k holds integers >= 1 and lam values >= 0. The tail is the regularized
    incomplete gamma function P(k, lam) of DLMF §8.4; its complement Q(k, lam)
    is the Poisson head sum over j < k (DLMF 8.4.10). Where lam >= k the tail
    is 1 minus the head, summed down from pmf(k-1); elsewhere it is summed up
    from pmf(k). Each first term is exp(n log(lam) - lam - lgamma(n + 1)),
    so no e^-lam factor underflows on its own. lgamma runs once per
    distinct k, for both branches, before k is broadcast against lam.
    """
    k, lam = np.asarray(k, dtype=float), np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError("Poisson mean must be >= 0")
    distinct, index = np.unique(k, return_inverse=True)
    ks = distinct.tolist()
    index = index.reshape(k.shape)
    fact_down = np.array([math.lgamma((n - 1.0) + 1.0) for n in ks])[index]
    fact_up = np.array([math.lgamma(n + 1.0) for n in ks])[index]
    k, lam = np.broadcast_arrays(k, lam)
    down = lam >= k
    first = np.where(down, k - 1.0, k)
    with np.errstate(divide="ignore"):
        pmf = np.exp(first * np.log(lam) - lam
                     - np.where(down, fact_down, fact_up))
    out = np.empty(k.shape)
    out[down] = 1.0 - _series(pmf[down], lambda j, k, lam: (k - j) / lam,
                              k[down], lam[down])
    out[~down] = _series(pmf[~down], lambda j, k, lam: lam / (k + j),
                         k[~down], lam[~down])
    return out


def _series(term, ratio, k, lam):
    """term * (1 + r(1) + r(1) r(2) + ...) to 1e-17 relative, elementwise
    over 1-D arrays, where r(j) = ratio(j, k, lam).

    The loop runs until every element converges. Once term <= 1e-17 * total
    it is below half an ulp of total and later terms are smaller (|r| < 1),
    so the extra terms an element takes while others converge round away:
    each element keeps the bits it has when evaluated alone, however the
    elements are batched."""
    total = term
    j = 1
    while np.any(term > 1e-17 * total):
        term = term * ratio(j, k, lam)
        total = total + term
        j += 1
    return total


def click_probability_array(det: DetectorParams, mean_flux, delays) -> np.ndarray:
    """Target-gate click probability over an array of delays.

    mean_flux may be an array that broadcasts against delays, e.g. a column
    of fluxes for a (flux, delay) grid. Every delay must lie within one
    gate period, and the flux must be finite and >= 0.
    """
    d = det.timing.delays(delays)
    _check_flux(mean_flux)
    lam = det.mean_avalanches(mean_flux, d)
    n_th = det.threshold_count(d)
    p_light = poisson_tail(n_th, lam)
    return 1.0 - (1.0 - p_light) * (1.0 - det.dark_count_prob)


def click_probability(det: DetectorParams, pulse: PulseSpec) -> float:
    """Analytic click probability of the gate the pulse addresses.

    Poisson avalanche count with mean flux*efficiency*shape(delay), click iff
    the count reaches the gain-dependent threshold; dark counts are folded in
    as an independent Bernoulli event.
    """
    d = det.timing.one_clock(pulse.delay)
    return float(click_probability_array(det, pulse.mean_flux, d))


def trap_loading(det: DetectorParams, mean_flux, delays):
    """Expected (interface, multiplication) trap populations charged by a
    pulse of this mean flux at each delay; both broadcast.

    Interface: photogenerated holes that fail to cross the heterobarrier
    within the gate, times the capture fraction. Multiplication: expected
    normalized avalanche charge times the per-charge capture coefficient and
    an end-of-gate retention factor (more charge stays trapped when the gate
    closes before the avalanche fully develops). Both scale linearly in flux.
    Every delay must lie within one gate period, and the flux must be
    finite and >= 0.
    """
    d = det.timing.delays(delays)
    _check_flux(mean_flux)
    carriers = mean_flux * det.detection_efficiency
    pop_if = (carriers * det.interface_trap.capture_fraction_photo
              * (1.0 - det.trigger_probability(d)))
    lam = det.mean_avalanches(mean_flux, d)
    g = det.gain(d)
    mult = det.multiplication_trap
    pop_m = (mult.capture_per_avalanche_charge * lam * g
             * (1.0 + mult.retention_strength * (1.0 - g)))
    return pop_if, pop_m


def delayed_release_mean(det: DetectorParams, mean_flux, delays,
                         env: Environment, gate_offset=1) -> np.ndarray:
    """Expected released-and-triggering carriers in the gate `gate_offset`
    periods after a pulse at each delay; delays and offsets broadcast.

    Each species contributes its population x (survival to the gate start
    minus survival to the gate end) x the peak trigger probability.
    """
    offs = np.asarray(gate_offset, dtype=float)
    if not np.all(offs >= 1):
        raise ValueError("gate_offset must be >= 1 (the target gate is "
                         "handled by click_probability)")
    d = np.asarray(delays, dtype=float)
    start = offs * det.timing.gate_period - d
    width = det.timing.gate_width
    total = 0.0
    for species, pop in zip((det.interface_trap, det.multiplication_trap),
                            trap_loading(det, mean_flux, d)):
        tau = trap_lifetime(species, env)
        total = total + pop * (np.exp(-start / tau)
                               - np.exp(-(start + width) / tau))
    return total * det.trigger_peak


def delayed_click_probability_arrays(det: DetectorParams, mean_flux,
                                     delays, env: Environment,
                                     gate_offset=1) -> np.ndarray:
    """Click probability from trap release in the gate `gate_offset` later:
    Poisson(mean) >= 1, folded with the dark count probability."""
    mean = delayed_release_mean(det, mean_flux, delays, env, gate_offset)
    return 1.0 - np.exp(-mean) * (1.0 - det.dark_count_prob)


def afterpulse_background(det: DetectorParams, mean_detected):
    """Flat per-gate afterpulse background: the mean detected probability
    per gate, which may be an array (one value per clock), times
    afterpulse_prob and spread over afterpulse_spread_gates gates."""
    return det.afterpulse_prob * mean_detected / det.afterpulse_spread_gates
