"""Parsing, validation, and serialization of CVSS v3.1 base vector strings."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

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
        for (attr, _), members in zip(_METRICS.values(), _MEMBERS):
            code = code * len(members) + members.index(getattr(self, attr))
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
# Each metric's members in enum order, so a code digit indexes its value.
_MEMBERS = tuple(tuple(enum) for _, enum in _METRICS.values())
_RADICES = tuple(len(members) for members in _MEMBERS)
# Place value of each metric's digit in a code: (648, 324, 108, 54, 27, 9, 3, 1).
_PLACES = tuple(math.prod(_RADICES[k + 1 :]) for k in range(len(_RADICES)))
VECTOR_COUNT = math.prod(_RADICES)  # 2,592 valid vectors, codes 0..2591
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
    digits = (code // place % radix for place, radix in zip(_PLACES, _RADICES))
    return CvssVector(*(members[digit] for members, digit in zip(_MEMBERS, digits)))


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
    return vector_of(code)


def vector_of(code: int) -> CvssVector:
    """The shared ``CvssVector`` of a code 0..2591, as ``parse_vector`` returns it."""
    vector = _VECTORS.get(code)
    if vector is None:  # setdefault keeps the first one built under a race
        vector = _VECTORS.setdefault(code, _vector(code))
    return vector


# Every string ``parse_vector`` accepts is 44 ASCII characters: an 8-character
# prefix, then 8 tokens each led by "/". The 4 bytes after each "/", read as
# one big-endian word, are a 4-character token or a 3-character token and the
# "/" that closes it; neither form contains the other.
_VECTOR_LENGTH = len(STRICT_PREFIX) + sum(len(name) + 3 for name in METRIC_NAMES)
_WORD_TOKENS = sorted(_TOKENS, key=lambda token: f"{token}/"[:4])
_WORDS = np.frombuffer("".join(f"{t}/"[:4] for t in _WORD_TOKENS).encode(), ">u4").astype(np.uint32)
_WORD_BITS = np.array([1 << _TOKENS[t][0] for t in _WORD_TOKENS], np.uint8)
_WORD_VALUES = np.array([_TOKENS[t][1] for t in _WORD_TOKENS], np.intp)
_BLOCK = 8192


def vector_codes(strings: Sequence[str], lenient: bool = False) -> np.ndarray:
    """``parse_vector(s, lenient).code`` for each string, or -1 where it raises.

    Recognizes the strings with array operations, in blocks of at most
    8,192; ``parse_vector`` stays the one source of the errors.
    """
    n = len(strings)
    codes = np.full(n, -1, dtype=np.intp)
    fits = np.fromiter(map(len, strings), np.intp, n) == _VECTOR_LENGTH
    fits &= np.fromiter(map(str.isascii, strings), bool, n)
    prefixes = "".join(LENIENT_PREFIXES if lenient else (STRICT_PREFIX,)).encode()
    prefixes = np.frombuffer(prefixes, np.uint64)
    slash = ord("/")
    candidates = np.flatnonzero(fits)
    for start in range(0, len(candidates), _BLOCK):
        block = candidates[start : start + _BLOCK]
        text = "".join([strings[k] for k in block.tolist()]).encode("ascii")
        # One row per string, closed by a "/" and zero-padded to 48 bytes, so
        # a word can be read after every "/".
        rows = np.zeros((len(block), 48), np.uint8)
        rows[:, :_VECTOR_LENGTH] = np.frombuffer(text, np.uint8).reshape(len(block), -1)
        rows[:, _VECTOR_LENGTH] = slash
        slashes = rows == slash
        # Each prefix is 8 bytes, one uint64; 8 "/" lead the tokens, 1 closes.
        ok = np.isin(rows.view(np.uint64)[:, 0], prefixes) & (slashes.sum(axis=1) == 9)
        rows, block = rows.ravel(), block[ok]
        # Offsets of the first byte of each row's 8 tokens in ``rows``.
        at = np.flatnonzero(slashes & ok[:, None]).reshape(-1, 9)[:, :8] + 1
        words = np.zeros(at.shape, np.uint32)
        for k in range(4):
            words = words << 8 | rows[at + k]
        found = np.minimum(np.searchsorted(_WORDS, words), len(_WORDS) - 1)
        ok = (_WORDS[found] == words).all(axis=1)
        ok &= np.bitwise_or.reduce(_WORD_BITS[found], axis=1) == _ALL_SEEN
        codes[block[ok]] = _WORD_VALUES[found[ok]].sum(axis=1)
    return codes


def serialize_vector(v: CvssVector) -> str:
    """Serialize to the canonical AV/AC/PR/UI/S/C/I/A order."""
    parts = [STRICT_PREFIX]
    for name, (field, _) in _METRICS.items():
        parts.append(f"{name}:{getattr(v, field).value}")
    return "/".join(parts)
