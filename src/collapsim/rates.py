"""Cross-model rate calculators: environmental-decoherence comparison,
bound-state excitation rates, and the gravity-linked reduction rate.

All CGS in, CGS out; hbar enters explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import CollapseParams
from .units import G_NEWTON_CGS, HBAR_CGS


@dataclass(frozen=True)
class DecoherenceSource:
    """One scattering environment: flux, cross section, transfer length.

    ``provenance`` tags where the numbers come from; reference-only rows
    (no reproducible formula) set ``reference_only``.
    """

    name: str
    flux: float | None             # [1/(cm^2 s)]
    cross_section: float | None    # [cm^2]
    l_eff: float | None            # [cm]
    tau_reference: float | None = None
    provenance: str = ""
    reference_only: bool = False


def decoherence_rates(source: DecoherenceSource) -> tuple[float, float]:
    """(tau, Delta) for a scattering source: Lambda = sigma Phi,
    tau = 1/Lambda, Delta = Lambda / l_eff^2.

    Zero flux or cross section gives (inf, 0): no decoherence.
    """
    if source.flux is None or source.cross_section is None or source.l_eff is None:
        raise ValueError(f"source {source.name!r} is missing inputs")
    rate = source.cross_section * source.flux
    if rate == 0.0:
        return np.inf, 0.0
    return 1.0 / rate, rate / source.l_eff**2


def localization_decoherence_rate(params: CollapseParams) -> float:
    """The localization analogue of Delta: alpha * lambda / 2.

    Follows from tau = 1/lambda and l_eff = (alpha/2)^(-1/2); ties the
    comparison table to the model constants exactly.
    """
    return 0.5 * params.alpha * params.lambda_rate


def excitation_rate_qmsl(params: CollapseParams, kappa: float) -> float:
    """Hitting-induced excitation/dissociation rate of a Gaussian bound
    state of inverse width kappa: lambda * (1 - P_ND) with
    P_ND = 1/sqrt(1 + alpha/4 kappa^2); ~ lambda*alpha/(8 kappa^2) for
    tight binding."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    x = params.alpha / (4.0 * kappa**2)
    # 1 - 1/sqrt(1+x), cancellation-free for x ~ 1e-15
    one_minus_pnd = -np.expm1(-0.5 * np.log1p(x))
    return params.lambda_rate * one_minus_pnd


def sphere_interaction_energy(
    mass: float, radius: float, separation: float, g_newton: float = G_NEWTON_CGS
) -> float:
    """Newtonian interaction energy of two uniform spheres of equal mass
    and radius at center separation d (closed-form overlap integral).

    U(0) = -(6/5) G M^2 / R; U(d >= 2R) = -G M^2 / d.
    """
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    if radius <= 0 or mass <= 0:
        raise ValueError("mass and radius must be positive")
    if separation >= 2.0 * radius:
        return -g_newton * mass**2 / separation
    xi = separation / radius
    bracket = 6.0 / 5.0 - 0.5 * xi**2 + (3.0 / 16.0) * xi**3 - xi**5 / 160.0
    return -g_newton * mass**2 / radius * bracket


def diosi_rate(
    mass: float,
    radius: float,
    separation: float,
    hbar: float = HBAR_CGS,
    g_newton: float = G_NEWTON_CGS,
) -> float:
    """Gravity-linked reduction rate Gamma(Delta) = [U(Delta) - U(0)]/hbar
    for a superposition of two center-of-mass positions of a homogeneous
    sphere; zero at zero separation."""
    u0 = sphere_interaction_energy(mass, radius, 0.0, g_newton)
    ud = sphere_interaction_energy(mass, radius, separation, g_newton)
    return (ud - u0) / hbar
