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
from enum import Enum

import numpy as np

# Boltzmann constant in eV per kelvin.
K_BOLTZMANN_EV = 8.617e-5


class TrapKind(Enum):
    INTERFACE = "interface"
    MULTIPLICATION = "multiplication"


@dataclass(frozen=True)
class Environment:
    """Operating point at which lifetimes and profiles are evaluated.

    The excess bias is expressed as a fraction of the breakdown overdrive and
    is held constant across temperatures when lifetimes are compared on an
    Arrhenius plot.
    """

    temperature: float  # kelvin
    excess_bias_fraction: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not (0.0 < self.excess_bias_fraction <= 1.0):
            raise ValueError("excess_bias_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class TrapSpecies:
    """One carrier-trapping population.

    The release lifetime follows an Arrhenius law
    tau(T) = lifetime_prefactor * exp(activation_energy / (k_B T)).

    capture_fraction_photo applies to photogenerated holes that fail to cross
    into the multiplication region within their gate; capture_per_avalanche_charge
    applies per unit of normalized avalanche charge and is meaningful only for
    the multiplication species. retention_strength steers how much more charge
    stays trapped when the gate closes early (low gain), as
    1 + retention_strength * (1 - gain).
    """

    kind: TrapKind
    activation_energy: float  # eV
    lifetime_prefactor: float  # ps
    capture_fraction_photo: float = 0.0
    capture_per_avalanche_charge: float = 0.0
    retention_strength: float = 0.0

    def __post_init__(self):
        if self.activation_energy < 0 or not math.isfinite(self.activation_energy):
            raise ValueError("activation_energy must be finite and >= 0")
        if self.lifetime_prefactor <= 0:
            raise ValueError("lifetime_prefactor must be > 0")
        if not (0.0 <= self.capture_fraction_photo <= 1.0):
            raise ValueError("capture_fraction_photo must lie in [0, 1]")
        if self.capture_per_avalanche_charge < 0:
            raise ValueError("capture_per_avalanche_charge must be >= 0")
        if self.retention_strength < 0:
            raise ValueError("retention_strength must be >= 0")
        if self.kind is TrapKind.INTERFACE and self.capture_per_avalanche_charge != 0.0:
            raise ValueError("interface species cannot capture avalanche charge")


@dataclass(frozen=True)
class GateTiming:
    """Periodic gating clock. The period is derived from the frequency."""

    gating_frequency: float  # Hz
    gate_width: float  # ps

    def __post_init__(self):
        if self.gating_frequency <= 0:
            raise ValueError("gating_frequency must be > 0")
        if not (0.0 < self.gate_width < self.gate_period):
            raise ValueError(
                f"gate_width must lie in (0, period={self.gate_period:.6g} ps), "
                f"got {self.gate_width}"
            )

    @property
    def gate_period(self) -> float:
        return 1.0e12 / self.gating_frequency


def _raised_cosine(u):
    """Smooth 1 -> 0 ramp over u in [0, 1]."""
    return 0.5 * (1.0 + np.cos(np.pi * np.clip(u, 0.0, 1.0)))


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
        if self.discrimination_threshold <= 0:
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
        if self.interface_trap.kind is not TrapKind.INTERFACE:
            raise ValueError("interface_trap must have kind INTERFACE")
        if self.multiplication_trap.kind is not TrapKind.MULTIPLICATION:
            raise ValueError("multiplication_trap must have kind MULTIPLICATION")
        if self.afterpulse_spread_gates < 1:
            raise ValueError("afterpulse_spread_gates must be >= 1")

    # -- intra-gate profiles (vectorized over delay) --

    def trigger_shape(self, delay):
        """Normalized trigger shape, 1 on the flat top, 0 beyond the gate."""
        t = np.asarray(delay, dtype=float)
        w = self.timing.gate_width
        flat = self.trigger_flat_fraction * w
        edge = (1.0 - self.trigger_flat_fraction) * w
        out = np.where(t < flat, 1.0,
                       np.where(t < w, _raised_cosine((t - flat) / edge), 0.0))
        return np.where(t < 0.0, 0.0, out)

    def trigger_probability(self, delay):
        """Physical per-carrier avalanche trigger probability."""
        return self.trigger_peak * self.trigger_shape(delay)

    def gain(self, delay):
        """Normalized avalanche gain; gain_floor outside the gate window."""
        t = np.asarray(delay, dtype=float)
        w = self.timing.gate_width
        flat = self.gain_flat_fraction * w
        edge = self.gain_edge_fraction * w
        inner = np.where(
            t < flat, 1.0,
            np.where(t < flat + edge,
                     self.gain_floor + (1.0 - self.gain_floor)
                     * _raised_cosine((t - flat) / edge),
                     self.gain_floor))
        return np.where(t < 0.0, self.gain_floor, inner)

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
        if self.mean_flux < 0 or not math.isfinite(self.mean_flux):
            raise ValueError("mean_flux must be finite and >= 0")

    def validate_against(self, timing: GateTiming) -> None:
        if not (0.0 <= self.delay < timing.gate_period):
            raise ValueError(
                f"delay {self.delay} outside [0, {timing.gate_period}) ps")


# ---------------------------------------------------------------------------
# analytic operations
# ---------------------------------------------------------------------------


def trap_lifetime(species: TrapSpecies, env: Environment) -> float:
    """Arrhenius release lifetime in ps at the environment temperature."""
    return species.lifetime_prefactor * math.exp(
        species.activation_energy / (K_BOLTZMANN_EV * env.temperature))


def survival_fraction(species: TrapSpecies, env: Environment, elapsed) -> float:
    """Fraction of trapped carriers still trapped after `elapsed` ps."""
    el = np.asarray(elapsed, dtype=float)
    if np.any(el < 0) or not np.all(np.isfinite(el)):
        raise ValueError("elapsed must be finite and >= 0")
    out = np.exp(-el / trap_lifetime(species, env))
    return float(out) if np.isscalar(elapsed) or out.ndim == 0 else out


def poisson_tail(k, lam) -> np.ndarray:
    """P(N >= k) for N ~ Poisson(lam), elementwise over broadcast k and lam.

    k holds integers >= 1 and lam values >= 0. The tail is the regularized
    incomplete gamma function P(k, lam) of DLMF §8.4, whose complement
    Q(k, lam) is the Poisson head sum e^-lam sum_{j<k} lam^j / j!
    (DLMF 8.4.10). Where lam >= k the tail is not small, so it is taken as
    1 minus the head sum. Where lam < k it is summed directly as
    pmf(k) * (1 + lam/(k+1) + lam^2/((k+1)(k+2)) + ...), whose terms fall
    geometrically, until a term drops below 1e-17 of the sum. Both sums
    start from e^-lam, which underflows to 0 for lam above about 745; the
    result then stays exact only while k is far below lam.
    """
    k, lam = np.broadcast_arrays(np.asarray(k, dtype=float),
                                 np.asarray(lam, dtype=float))
    if np.any(lam < 0):
        raise ValueError("Poisson mean must be >= 0")
    out = np.empty(k.shape)
    head = lam >= k
    k_h, lam_h = k[head], lam[head]
    term = np.exp(-lam_h)
    total = term
    for j in range(1, int(k_h.max(initial=1))):
        term = term * lam_h / j
        total = total + np.where(j < k_h, term, 0.0)
    out[head] = 1.0 - total

    upper = ~head
    k_u, lam_u = k[upper], lam[upper]
    pmf = np.exp(-lam_u)
    for j in range(1, int(k_u.max(initial=0)) + 1):
        pmf = np.where(j <= k_u, pmf * lam_u / j, pmf)
    term = total = pmf
    j = 1
    while np.any(term > 1e-17 * total):
        term = term * lam_u / (k_u + j)
        total = total + term
        j += 1
    out[upper] = total
    return out


def click_probability_array(det: DetectorParams, mean_flux, delays) -> np.ndarray:
    """Target-gate click probability over an array of delays.

    mean_flux may be an array that broadcasts against delays, e.g. a column
    of fluxes for a (flux, delay) grid.
    """
    d = np.asarray(delays, dtype=float)
    lam = det.mean_avalanches(mean_flux, d)
    if not np.all(np.isfinite(lam)):
        raise ValueError("non-finite avalanche rate")
    n_th = det.threshold_count(d)
    p_light = poisson_tail(n_th, lam)
    return 1.0 - (1.0 - p_light) * (1.0 - det.dark_count_prob)


def click_probability(det: DetectorParams, pulse: PulseSpec) -> float:
    """Analytic click probability of the gate the pulse addresses.

    Poisson avalanche count with mean flux*efficiency*shape(delay), click iff
    the count reaches the gain-dependent threshold; dark counts are folded in
    as an independent Bernoulli event.
    """
    pulse.validate_against(det.timing)
    return float(click_probability_array(det, pulse.mean_flux, pulse.delay))


def trap_loading(det: DetectorParams, mean_flux, delays):
    """Expected (interface, multiplication) trap populations charged by a
    pulse of this mean flux at each delay; both broadcast.

    Interface: photogenerated holes that fail to cross the heterobarrier
    within the gate, times the capture fraction. Multiplication: expected
    normalized avalanche charge times the per-charge capture coefficient and
    an end-of-gate retention factor (more charge stays trapped when the gate
    closes before the avalanche fully develops). Both scale linearly in flux.
    """
    d = np.asarray(delays, dtype=float)
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


def afterpulse_background(det: DetectorParams, base_probabilities) -> float:
    """Flat per-gate afterpulse background, proportional to the mean detected
    rate and spread over afterpulse_spread_gates gates."""
    mean_det = float(np.mean(base_probabilities))
    return det.afterpulse_prob * mean_det / det.afterpulse_spread_gates
