"""Reference decoherence-source table (stored inputs, not derived).

Cross sections are back-derived from the published (flux, tau) pairs and
shipped with provenance tags; the quantum-gravity row has no reproducible
formula and is reference-only.
"""

from __future__ import annotations

import csv
from importlib import resources

from .rates import DecoherenceSource

LOCALIZATION_TABLE_DELTA_REFERENCE = 1e-6
"""Published order of the localization-model Delta for a free electron
[cm^-2 s^-1]."""


def _parse_float(text: str) -> float | None:
    text = text.strip()
    return float(text) if text else None


def load_decoherence_sources() -> list[DecoherenceSource]:
    """Sources from the bundled reference table."""
    # a path under the package, so that reading the table imports no ``_data`` package
    path = resources.files(__package__) / "_data" / "decoherence_sources.csv"
    out = []
    with path.open("r", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            out.append(
                DecoherenceSource(
                    name=row["name"],
                    flux=_parse_float(row["flux_cm2s"]),
                    cross_section=_parse_float(row["cross_section_cm2"]),
                    l_eff=_parse_float(row["l_eff_cm"]),
                    tau_reference=_parse_float(row["tau_electron_s"]),
                    provenance=row["provenance"],
                    reference_only=row["reference_only"].strip() == "1",
                )
            )
    return out
