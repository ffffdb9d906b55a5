"""Internal natural units (hbar = 1) and conversion to/from CGS.

Simulations run in natural units so that collapse rates of order
1e-16 1/s can be rescaled to O(1) without float underflow; a
:class:`UnitSystem` converts magnitudes to and from CGS.  The closed-form
calculators take CGS values directly, with the constants below.
"""

from __future__ import annotations

from dataclasses import dataclass

HBAR_CGS = 1.054571817e-27
"""Reduced Planck constant [erg s]."""

ERG_PER_EV = 1.602176634e-12
G_NEWTON_CGS = 6.67430e-8
"""Newton constant [cm^3 g^-1 s^-2]."""

NUCLEON_MASS_G = 1.67262192e-24
ELECTRON_MASS_G = 9.1093837015e-28

_KINDS = ("length", "time", "mass", "rate", "energy", "energy-rate", "coupling")


@dataclass(frozen=True)
class UnitSystem:
    """Conversion factors between internal units and CGS.

    Parameters
    ----------
    length_unit : float
        cm per internal length unit.
    time_unit : float
        s per internal time unit.
    mass_unit : float
        g per internal mass unit.  If constructed via :meth:`natural`, it
        is derived so that the physical hbar equals 1 internal action unit.
    hbar : float
        Action scale used by the dynamics, 1 in natural units.
    coupling_dim : int
        Spatial dimension d giving the diffusion coupling units
        length^d / time (3 for the physical model, 1 on grids).
    """

    length_unit: float
    time_unit: float
    mass_unit: float
    hbar: float = 1.0
    coupling_dim: int = 3

    def __post_init__(self) -> None:
        for name in ("length_unit", "time_unit", "mass_unit", "hbar"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")

    @classmethod
    def natural(
        cls, length_unit: float = 1.0, time_unit: float = 1.0, coupling_dim: int = 3
    ) -> "UnitSystem":
        """Unit system with hbar = 1: the mass unit is fixed by the length
        and time units through mass*length^2/time = hbar."""
        mass_unit = HBAR_CGS * time_unit / length_unit**2
        return cls(length_unit, time_unit, mass_unit, 1.0, coupling_dim)

    def factor(self, kind: str) -> float:
        """CGS magnitude of one internal unit of the given quantity kind."""
        if kind == "length":
            return self.length_unit
        if kind == "time":
            return self.time_unit
        if kind == "mass":
            return self.mass_unit
        if kind == "rate":
            return 1.0 / self.time_unit
        if kind == "energy":
            return self.mass_unit * self.length_unit**2 / self.time_unit**2
        if kind == "energy-rate":
            return self.mass_unit * self.length_unit**2 / self.time_unit**3
        if kind == "coupling":
            return self.length_unit**self.coupling_dim / self.time_unit
        raise ValueError(f"unknown quantity kind {kind!r}; expected one of {_KINDS}")

    def to_cgs(self, value: float, kind: str) -> float:
        return value * self.factor(kind)

    def from_cgs(self, value: float, kind: str) -> float:
        return value / self.factor(kind)


def cgs_convert(value: float, kind: str, direction: str, units: UnitSystem) -> float:
    """Convert ``value`` between internal and CGS units.

    ``direction`` is ``"to_cgs"`` or ``"from_cgs"``.
    """
    if direction == "to_cgs":
        return units.to_cgs(value, kind)
    if direction == "from_cgs":
        return units.from_cgs(value, kind)
    raise ValueError(f"unknown direction {direction!r}")
