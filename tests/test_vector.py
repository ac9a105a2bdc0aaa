"""Vector string parsing, typed rejection, and canonical serialization."""

import random

import pytest
from hypothesis import given, strategies as st

from cverisk.vector import (
    AttackComplexity,
    AttackVector,
    BadPrefixError,
    CvssVector,
    DuplicateMetricError,
    ImpactLevel,
    MissingMetricError,
    PrivilegesRequired,
    Scope,
    TrailingGarbageError,
    UnknownMetricValueError,
    UserInteraction,
    METRIC_NAMES,
    VectorError,
    metric_labels,
    metric_level,
    parse_vector,
    serialize_vector,
)

from conftest import METRIC_CODES, all_vector_strings

CANONICAL = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"


def test_parse_canonical_example():
    v = parse_vector(CANONICAL)
    assert v == CvssVector(
        AttackVector.NETWORK,
        AttackComplexity.LOW,
        PrivilegesRequired.NONE,
        UserInteraction.NONE,
        Scope.UNCHANGED,
        ImpactLevel.HIGH,
        ImpactLevel.HIGH,
        ImpactLevel.HIGH,
    )


def test_parse_all_minimal_example():
    v = parse_vector("CVSS:3.1/AV:P/AC:H/PR:H/UI:R/S:C/C:N/I:N/A:N")
    assert v.av is AttackVector.PHYSICAL
    assert v.ac is AttackComplexity.HIGH
    assert v.pr is PrivilegesRequired.HIGH
    assert v.ui is UserInteraction.REQUIRED
    assert v.scope is Scope.CHANGED
    assert (v.c, v.i, v.a) == (ImpactLevel.NONE,) * 3


def test_metric_order_is_free():
    shuffled = "CVSS:3.1/A:H/S:U/AV:N/C:H/UI:N/PR:N/I:H/AC:L"
    assert parse_vector(shuffled) == parse_vector(CANONICAL)


def test_missing_metric():
    with pytest.raises(MissingMetricError) as info:
        parse_vector("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H")
    assert info.value.name == "A"


def test_prefix_only_reports_first_missing_metric():
    with pytest.raises(MissingMetricError) as info:
        parse_vector("CVSS:3.1")
    assert info.value.name == "AV"


def test_duplicate_metric():
    with pytest.raises(DuplicateMetricError) as info:
        parse_vector("CVSS:3.1/AV:N/AV:L/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    assert info.value.name == "AV"


def test_unknown_metric_value():
    with pytest.raises(UnknownMetricValueError) as info:
        parse_vector("CVSS:3.1/AV:X/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    assert (info.value.name, info.value.code) == ("AV", "X")


def test_codes_are_case_sensitive():
    with pytest.raises(UnknownMetricValueError):
        parse_vector("CVSS:3.1/AV:n/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    # a lowercased metric name is not a recognizable token at all
    with pytest.raises(TrailingGarbageError):
        parse_vector("CVSS:3.1/av:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")


def test_bad_prefix():
    with pytest.raises(BadPrefixError) as info:
        parse_vector("CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    assert info.value.found == "CVSS:3.0"
    with pytest.raises(BadPrefixError):
        parse_vector("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    with pytest.raises(BadPrefixError):
        parse_vector("")


def test_lenient_accepts_only_the_prior_minor_revision():
    v = parse_vector("CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", lenient=True)
    assert v == parse_vector(CANONICAL)
    with pytest.raises(BadPrefixError):
        parse_vector("CVSS:2.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", lenient=True)
    # lenient never changes the canonical output prefix
    assert serialize_vector(v).startswith("CVSS:3.1/")


def test_trailing_garbage_reports_offset_and_token():
    with pytest.raises(TrailingGarbageError) as info:
        parse_vector(CANONICAL + "/E:H")
    assert info.value.token == "E:H"
    assert info.value.offset == len(CANONICAL) + 1
    with pytest.raises(TrailingGarbageError) as info:
        parse_vector(CANONICAL + "/")
    assert info.value.token == ""


def test_errors_are_value_errors():
    for bad in ("", "CVSS:3.1", "CVSS:3.1/AV:N", "nonsense", CANONICAL + "/x"):
        with pytest.raises(VectorError) as info:
            parse_vector(bad)
        assert isinstance(info.value, ValueError)


def test_serialize_canonical_order():
    v = parse_vector("CVSS:3.1/A:H/S:C/AV:A/C:L/UI:R/PR:L/I:N/AC:H")
    assert serialize_vector(v) == "CVSS:3.1/AV:A/AC:H/PR:L/UI:R/S:C/C:L/I:N/A:H"


def test_roundtrip_every_combination():
    seen = set()
    for vs in all_vector_strings():
        v = parse_vector(vs)
        assert serialize_vector(v) == vs
        assert parse_vector(serialize_vector(v)) == v
        seen.add(v)
    assert len(seen) == 2592


def test_codes_number_every_vector_in_canonical_order():
    strings = list(all_vector_strings())
    vectors = [parse_vector(vs) for vs in strings]
    assert [v.code for v in vectors] == list(range(2592))
    for vs, v in zip(strings, vectors):
        letters = [token.split(":")[1] for token in vs.split("/")[1:]]
        members = (v.av, v.ac, v.pr, v.ui, v.scope, v.c, v.i, v.a)
        for name, (_, codes), letter, member in zip(METRIC_NAMES, METRIC_CODES, letters, members):
            level = metric_level(v.code, name)
            assert codes[level] == letter
            assert metric_labels(name)[level] == member.name.capitalize()


def test_code_ignores_metric_order_and_minor_revision():
    shuffled = "CVSS:3.1/A:H/S:U/AV:N/C:H/UI:N/PR:N/I:H/AC:L"
    old = "CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
    code = parse_vector(CANONICAL).code
    assert parse_vector(shuffled).code == code
    assert parse_vector(old, lenient=True).code == code


@given(st.data())
def test_parse_is_order_insensitive(data):
    tokens = [
        f"{name}:{data.draw(st.sampled_from(codes), label=name)}"
        for name, codes in METRIC_CODES
    ]
    canonical = "CVSS:3.1/" + "/".join(tokens)
    perm = data.draw(st.permutations(tokens))
    assert parse_vector("CVSS:3.1/" + "/".join(perm)) == parse_vector(canonical)


def test_fuzzed_invalid_strings_raise_typed_errors():
    """Constructive corruption of valid vectors: every mutant must raise a
    VectorError subclass, never succeed and never escape as another type."""
    rng = random.Random(1337)
    pool = list(all_vector_strings())
    for _ in range(1000):
        base = rng.choice(pool)
        mode = rng.randrange(6)
        if mode == 0:  # damage the prefix
            mutant = rng.choice(["CVSS:3.2", "cvss:3.1", "CVSS31", ""]) + base[8:]
        elif mode == 1:  # drop one metric
            parts = base.split("/")
            del parts[rng.randrange(1, len(parts))]
            mutant = "/".join(parts)
        elif mode == 2:  # duplicate one metric
            parts = base.split("/")
            parts.append(parts[rng.randrange(1, len(parts))])
            mutant = "/".join(parts)
        elif mode == 3:  # invalid value code
            parts = base.split("/")
            k = rng.randrange(1, len(parts))
            name = parts[k].split(":")[0]
            parts[k] = f"{name}:{rng.choice('XYZQ9x')}"
            mutant = "/".join(parts)
        elif mode == 4:  # append garbage
            mutant = base + rng.choice(["/E:H", "/XX", "//", "/AV", "/ "])
        else:  # mangle a separator
            k = rng.randrange(len(base))
            mutant = base[:k] + rng.choice(";,| ") + base[k + 1 :]
        try:
            parse_vector(mutant)
        except VectorError:
            continue
        raise AssertionError(f"mutant parsed but should not have: {mutant!r}")
