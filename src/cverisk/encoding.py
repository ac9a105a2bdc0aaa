"""Numeric encodings that place categorical vector attributes on [0, 1].

The exploitability encodings are the CVSS v3.1 base coefficients normalized
by each metric's maximum, so the most exposed category always encodes to 1.0.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .vector import (
    AttackComplexity,
    AttackVector,
    CvssVector,
    ImpactLevel,
    PrivilegesRequired,
    Scope,
    UserInteraction,
)

# CVSS v3.1 coefficients: AV {N .85, A .62, L .55, P .2}, AC {L .77, H .44},
# PR scope-unchanged {N .85, L .62, H .27}, UI {N .85, R .62}.
DEFAULT_PHI: Mapping[AttackVector, float] = {
    AttackVector.NETWORK: 1.0,
    AttackVector.ADJACENT: 0.62 / 0.85,
    AttackVector.LOCAL: 0.55 / 0.85,
    AttackVector.PHYSICAL: 0.2 / 0.85,
}
DEFAULT_PSI: Mapping[AttackComplexity, float] = {
    AttackComplexity.LOW: 1.0,
    AttackComplexity.HIGH: 0.44 / 0.77,
}
DEFAULT_OMEGA: Mapping[PrivilegesRequired, float] = {
    PrivilegesRequired.NONE: 1.0,
    PrivilegesRequired.LOW: 0.62 / 0.85,
    PrivilegesRequired.HIGH: 0.27 / 0.85,
}
#: Impact-level values are fixed by the scoring model and not configurable.
ETA: Mapping[ImpactLevel, float] = {
    ImpactLevel.NONE: 0.0,
    ImpactLevel.LOW: 0.22,
    ImpactLevel.HIGH: 0.56,
}
# User interaction and scope carry no weight of their own in the composite
# score; they are encoded only so the factor matrix can include them.
UI_ENCODING: Mapping[UserInteraction, float] = {
    UserInteraction.NONE: 1.0,
    UserInteraction.REQUIRED: 0.62 / 0.85,
}
SCOPE_ENCODING: Mapping[Scope, float] = {
    Scope.UNCHANGED: 0.0,
    Scope.CHANGED: 1.0,
}

FACTOR_NAMES = ("AV", "AC", "PR", "UI", "S", "C", "I", "A")
#: Each ``AttributeMaps`` field and the enum whose every member it maps.
MAP_ENUMS: Mapping[str, type] = {
    "phi": AttackVector,
    "psi": AttackComplexity,
    "omega": PrivilegesRequired,
    "eta": ImpactLevel,
}


def _check_map(name: str, mapping: Mapping, enum: type) -> None:
    for member in enum:
        if member not in mapping:
            raise ValueError(f"{name} is missing a value for {member.name}")
        value = mapping[member]
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name}[{member.name}] = {value} lies outside [0, 1]")


@dataclass(frozen=True)
class AttributeMaps:
    """Per-category numeric maps for the exploitability attributes.

    ``eta`` travels with the bundle for completeness but must keep the fixed
    impact values {None: 0, Low: 0.22, High: 0.56}.
    """

    phi: Mapping[AttackVector, float] = field(default_factory=lambda: dict(DEFAULT_PHI))
    psi: Mapping[AttackComplexity, float] = field(default_factory=lambda: dict(DEFAULT_PSI))
    omega: Mapping[PrivilegesRequired, float] = field(default_factory=lambda: dict(DEFAULT_OMEGA))
    eta: Mapping[ImpactLevel, float] = field(default_factory=lambda: dict(ETA))

    def __post_init__(self) -> None:
        for name, enum in MAP_ENUMS.items():
            if name == "eta" and dict(self.eta) != dict(ETA):
                raise ValueError("eta must map None/Low/High to 0/0.22/0.56")
            _check_map(name, getattr(self, name), enum)


DEFAULT_MAPS = AttributeMaps()


def encode_factors(v: CvssVector, maps: AttributeMaps = DEFAULT_MAPS) -> tuple[float, ...]:
    """Encode one vector as eight reals in [0, 1], ordered like FACTOR_NAMES."""
    return (
        maps.phi[v.av],
        maps.psi[v.ac],
        maps.omega[v.pr],
        UI_ENCODING[v.ui],
        SCOPE_ENCODING[v.scope],
        maps.eta[v.c],
        maps.eta[v.i],
        maps.eta[v.a],
    )
