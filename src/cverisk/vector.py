"""Parsing, validation, and serialization of CVSS v3.1 base vector strings."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

STRICT_PREFIX = "CVSS:3.1"
LENIENT_PREFIXES = (STRICT_PREFIX, "CVSS:3.0")


class VectorError(ValueError):
    """A vector string failed to parse. Exactly one subclass is raised per defect."""


class BadPrefixError(VectorError):
    def __init__(self, found: str) -> None:
        super().__init__(f"expected {STRICT_PREFIX!r} prefix, found {found!r}")
        self.found = found


class MissingMetricError(VectorError):
    def __init__(self, name: str) -> None:
        super().__init__(f"base metric {name} is missing")
        self.name = name


class DuplicateMetricError(VectorError):
    def __init__(self, name: str) -> None:
        super().__init__(f"base metric {name} appears more than once")
        self.name = name


class UnknownMetricValueError(VectorError):
    def __init__(self, name: str, code: str) -> None:
        super().__init__(f"metric {name} has no value {code!r}")
        self.name = name
        self.code = code


class TrailingGarbageError(VectorError):
    def __init__(self, offset: int, token: str) -> None:
        super().__init__(f"unrecognized content {token!r} at offset {offset}")
        self.offset = offset
        self.token = token


class AttackVector(Enum):
    NETWORK = "N"
    ADJACENT = "A"
    LOCAL = "L"
    PHYSICAL = "P"


class AttackComplexity(Enum):
    LOW = "L"
    HIGH = "H"


class PrivilegesRequired(Enum):
    NONE = "N"
    LOW = "L"
    HIGH = "H"


class UserInteraction(Enum):
    NONE = "N"
    REQUIRED = "R"


class Scope(Enum):
    UNCHANGED = "U"
    CHANGED = "C"


class ImpactLevel(Enum):
    NONE = "N"
    LOW = "L"
    HIGH = "H"


@dataclass(frozen=True)
class CvssVector:
    """The eight base metrics of one CVSS v3.1 vector.

    ``code`` numbers the 2,592 valid vectors 0..2591: a mixed-radix integer
    whose digits are the metrics' positions in their enums, AV most
    significant, so canonical enumeration order is code order.
    """

    av: AttackVector
    ac: AttackComplexity
    pr: PrivilegesRequired
    ui: UserInteraction
    scope: Scope
    c: ImpactLevel
    i: ImpactLevel
    a: ImpactLevel
    code: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        code = 0
        for (attr, _), radix in zip(_METRICS.values(), _RADICES):
            code = code * radix + _ORDINAL[getattr(self, attr)]
        object.__setattr__(self, "code", code)


# Canonical metric order; doubles as the serialization order.
_METRICS: dict[str, tuple[str, type[Enum]]] = {
    "AV": ("av", AttackVector),
    "AC": ("ac", AttackComplexity),
    "PR": ("pr", PrivilegesRequired),
    "UI": ("ui", UserInteraction),
    "S": ("scope", Scope),
    "C": ("c", ImpactLevel),
    "I": ("i", ImpactLevel),
    "A": ("a", ImpactLevel),
}

METRIC_NAMES = tuple(_METRICS)
_ORDINAL = {member: k for _, enum in _METRICS.values() for k, member in enumerate(enum)}
_RADICES = tuple(len(enum) for _, enum in _METRICS.values())
# Place value of each metric's digit in a code: (864, 432, 144, 72, 36, 12, 4, 1).
_PLACES = tuple(math.prod(_RADICES[k + 1 :]) for k in range(len(_RADICES)))
# Each valid token, e.g. "AV:N" -> (metric position, digit * place value).
_TOKENS = {
    f"{name}:{member.value}": (k, digit * _PLACES[k])
    for k, (name, (_, enum)) in enumerate(_METRICS.items())
    for digit, member in enumerate(enum)
}
_ALL_SEEN = (1 << len(_METRICS)) - 1
# One shared vector per code, built on first use.
_VECTORS: dict[int, CvssVector] = {}


def metric_labels(name: str) -> tuple[str, ...]:
    """Display labels of metric ``name``'s values (AttackVector.NETWORK ->
    'Network'), in the order of its code digit."""
    return tuple(m.name.capitalize() for m in _METRICS[name][1])


def metric_level(code, name: str):
    """Position of metric ``name``'s value in its enum, read from a vector
    code; ``code`` may be an int or an integer numpy array."""
    k = METRIC_NAMES.index(name)
    return code // _PLACES[k] % _RADICES[k]


def _vector(code: int) -> CvssVector:
    return CvssVector(
        *(
            list(enum)[code // place % radix]
            for (_, enum), place, radix in zip(_METRICS.values(), _PLACES, _RADICES)
        )
    )


def _token_error(prefix: str, parts: list[str], seen: int) -> VectorError:
    """The error for the first token of ``parts`` not in ``_TOKENS``; ``seen``
    is the bitmask of the metrics before it. Each of those set one new bit,
    so their count is the token's index."""
    index = seen.bit_count()
    token = parts[index]
    name, colon, code = token.partition(":")
    if not colon or name not in _METRICS:
        offset = len(prefix) + 1 + sum(len(part) + 1 for part in parts[:index])
        return TrailingGarbageError(offset, token)
    if seen >> METRIC_NAMES.index(name) & 1:
        return DuplicateMetricError(name)
    return UnknownMetricValueError(name, code)


def parse_vector(s: str, lenient: bool = False) -> CvssVector:
    """Parse a CVSS v3.1 base vector string.

    Metrics may appear in any order but each base metric must appear exactly
    once; metric names and value codes are case-sensitive. With ``lenient``
    a ``CVSS:3.0`` prefix is also accepted (the base metric grammar is
    identical between the two revisions).

    Strings with one code return the same frozen ``CvssVector``.

    Raises the ``VectorError`` subclass naming the first defect found:
    ``BadPrefixError``, ``TrailingGarbageError`` (unrecognized token),
    ``DuplicateMetricError``, ``UnknownMetricValueError``, or
    ``MissingMetricError``.
    """
    prefix, sep, rest = s.partition("/")
    allowed = LENIENT_PREFIXES if lenient else (STRICT_PREFIX,)
    if prefix not in allowed:
        raise BadPrefixError(prefix)
    if not sep:
        raise MissingMetricError(METRIC_NAMES[0])

    seen = code = 0
    parts = rest.split("/")
    for token in parts:
        hit = _TOKENS.get(token)
        if hit is None:
            raise _token_error(prefix, parts, seen)
        k, value = hit
        if seen >> k & 1:
            raise DuplicateMetricError(METRIC_NAMES[k])
        seen |= 1 << k
        code += value

    if seen != _ALL_SEEN:
        raise MissingMetricError(next(n for k, n in enumerate(METRIC_NAMES) if not seen >> k & 1))
    vector = _VECTORS.get(code)
    if vector is None:  # setdefault keeps the first one built under a race
        vector = _VECTORS.setdefault(code, _vector(code))
    return vector


def serialize_vector(v: CvssVector) -> str:
    """Serialize to the canonical AV/AC/PR/UI/S/C/I/A order."""
    parts = [STRICT_PREFIX]
    for name, (field, _) in _METRICS.items():
        parts.append(f"{name}:{getattr(v, field).value}")
    return "/".join(parts)
