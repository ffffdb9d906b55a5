"""CGS constants of the closed-form calculators.

Trajectory runs work in natural units (hbar = 1) at desk scale, so that
collapse rates of order 1e-16 1/s rescale to O(1) without float
underflow; the closed-form calculators take CGS values directly, with
the constants below.
"""

HBAR_CGS = 1.054571817e-27
"""Reduced Planck constant [erg s]."""

ERG_PER_EV = 1.602176634e-12
G_NEWTON_CGS = 6.67430e-8
"""Newton constant [cm^3 g^-1 s^-2]."""

NUCLEON_MASS_G = 1.67262192e-24
ELECTRON_MASS_G = 9.1093837015e-28
