"""Vector string parsing, typed rejection, and canonical serialization."""

import random

import numpy as np
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
    vector_codes,
    vector_of,
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


# -- Differential check against the enum-based parser -----------------------

_METRIC_ENUMS = {
    "AV": ("av", AttackVector),
    "AC": ("ac", AttackComplexity),
    "PR": ("pr", PrivilegesRequired),
    "UI": ("ui", UserInteraction),
    "S": ("scope", Scope),
    "C": ("c", ImpactLevel),
    "I": ("i", ImpactLevel),
    "A": ("a", ImpactLevel),
}
_ERROR_ATTRS = ("found", "name", "code", "offset", "token")


def _reference_parse(s, lenient=False):
    """The two-pass parser that ``parse_vector`` replaced: an ``Enum`` call
    per token and a fresh ``CvssVector`` per string."""
    prefix, sep, rest = s.partition("/")
    allowed = ("CVSS:3.1", "CVSS:3.0") if lenient else ("CVSS:3.1",)
    if prefix not in allowed:
        raise BadPrefixError(prefix)
    if not sep:
        raise MissingMetricError("AV")
    fields = {}
    offset = len(prefix) + 1
    for token in rest.split("/"):
        name, colon, code = token.partition(":")
        if not colon or name not in _METRIC_ENUMS:
            raise TrailingGarbageError(offset, token)
        field, enum = _METRIC_ENUMS[name]
        if field in fields:
            raise DuplicateMetricError(name)
        try:
            fields[field] = enum(code)
        except ValueError:
            raise UnknownMetricValueError(name, code) from None
        offset += len(token) + 1
    for name, (field, _) in _METRIC_ENUMS.items():
        if field not in fields:
            raise MissingMetricError(name)
    return CvssVector(**fields)


def _outcome(parse, s, lenient):
    try:
        v = parse(s, lenient=lenient)
    except VectorError as exc:
        attrs = {a: getattr(exc, a) for a in _ERROR_ATTRS if hasattr(exc, a)}
        return type(exc), str(exc), attrs
    return CvssVector, v, v.code


def _mutants():
    """The 1,000 seeded mutants of ``test_fuzzed_invalid_strings_raise_typed_errors``."""
    rng = random.Random(1337)
    pool = list(all_vector_strings())
    for _ in range(1000):
        base = rng.choice(pool)
        mode = rng.randrange(6)
        if mode == 0:
            yield rng.choice(["CVSS:3.2", "cvss:3.1", "CVSS31", ""]) + base[8:]
        elif mode == 1:
            parts = base.split("/")
            del parts[rng.randrange(1, len(parts))]
            yield "/".join(parts)
        elif mode == 2:
            parts = base.split("/")
            parts.append(parts[rng.randrange(1, len(parts))])
            yield "/".join(parts)
        elif mode == 3:
            parts = base.split("/")
            k = rng.randrange(1, len(parts))
            name = parts[k].split(":")[0]
            parts[k] = f"{name}:{rng.choice('XYZQ9x')}"
            yield "/".join(parts)
        elif mode == 4:
            yield base + rng.choice(["/E:H", "/XX", "//", "/AV", "/ "])
        else:
            k = rng.randrange(len(base))
            yield base[:k] + rng.choice(";,| ") + base[k + 1 :]


def _token_soup(n, seed=2024):
    """Seeded strings of valid, misvalued, unknown and malformed tokens."""
    rng = random.Random(seed)
    valid = [f"{name}:{c}" for name, codes in METRIC_CODES for c in codes]
    names = [name for name, _ in METRIC_CODES]
    junk = ["", " ", "AV", "XX", "E:H", "av:N", "AV:N:N", ":N", "AV:", "S:u", "C :H", "A:HH"]
    prefixes = ["CVSS:3.1"] * 6 + ["CVSS:3.0"] * 3 + ["CVSS:3.2", "cvss:3.1", "", "CVSS:3.1 "]
    for _ in range(n):
        if rng.random() < 0.3:  # a full set, shuffled, with at most one defect
            tokens = [f"{name}:{rng.choice(codes)}" for name, codes in METRIC_CODES]
            rng.shuffle(tokens)
            k = rng.randrange(len(tokens) + 3)
            if k < len(tokens):
                tokens[k] = rng.choice([rng.choice(valid), rng.choice(junk),
                                        f"{rng.choice(names)}:{rng.choice('XNLHZ9')}"])
        else:
            tokens = []
            for _ in range(rng.randrange(12)):
                roll = rng.random()
                if roll < 0.75:
                    tokens.append(rng.choice(valid))
                elif roll < 0.88:
                    tokens.append(f"{rng.choice(names)}:{rng.choice('XYZQ9xnlh')}")
                else:
                    tokens.append(rng.choice(junk))
        prefix = rng.choice(prefixes)
        yield "/".join([prefix, *tokens]) if tokens or rng.random() < 0.5 else prefix


def test_parse_vector_matches_the_enum_reference_parser():
    rng = random.Random(7)
    inputs = []
    for vs in all_vector_strings():
        tokens = vs.split("/")[1:]
        rng.shuffle(tokens)
        shuffled = "/".join(["CVSS:3.1", *tokens])
        inputs += [vs, shuffled, "CVSS:3.0" + vs[8:], "CVSS:3.0" + shuffled[8:]]
    inputs += _mutants()
    inputs += _token_soup(20_000)

    counts = {}
    for s in inputs:
        for lenient in (False, True):
            expected = _outcome(_reference_parse, s, lenient)
            assert _outcome(parse_vector, s, lenient) == expected, (s, lenient)
            counts[expected[0]] = counts.get(expected[0], 0) + 1
    for kind in (CvssVector, BadPrefixError, MissingMetricError, DuplicateMetricError,
                 UnknownMetricValueError, TrailingGarbageError):
        assert counts.get(kind, 0) >= 100, (kind, counts)


def test_strings_with_one_code_share_one_frozen_vector():
    shuffled = "CVSS:3.1/A:H/S:U/AV:N/C:H/UI:N/PR:N/I:H/AC:L"
    old = "CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
    v = parse_vector(CANONICAL)
    assert parse_vector(shuffled) is v
    assert parse_vector(old, lenient=True) is v
    assert vector_of(v.code) is v
    direct = CvssVector(*(getattr(v, field) for field, _ in _METRIC_ENUMS.values()))
    assert direct is not v
    assert direct == v and direct.code == v.code
    with pytest.raises(AttributeError):
        v.av = AttackVector.LOCAL


def _codes(strings, lenient):
    """``parse_vector``'s code for each string, or -1 where it raises."""
    codes = []
    for s in strings:
        try:
            codes.append(parse_vector(s, lenient=lenient).code)
        except VectorError:
            codes.append(-1)
    return codes


def _assert_codes_match(strings, min_valid=0):
    for lenient in (False, True):
        expected = _codes(strings, lenient)
        got = vector_codes(strings, lenient)
        assert got.dtype == np.intp and got.shape == (len(strings),)
        mismatches = [(s, g, e) for s, g, e in zip(strings, got.tolist(), expected) if g != e]
        assert mismatches == [], (lenient, mismatches[:5])
        assert sum(code >= 0 for code in expected) >= min_valid


def test_vector_codes_reads_every_vector_in_any_order_under_both_prefixes():
    rng = random.Random(25)
    strings = []
    for vs in all_vector_strings():
        tokens = vs.split("/")[1:]
        orders = [tokens] + [rng.sample(tokens, len(tokens)) for _ in range(3)]
        strings += ["/".join([prefix, *order]) for order in orders for prefix in ("CVSS:3.1", "CVSS:3.0")]
    strict = vector_codes(strings)
    lenient = vector_codes(strings, lenient=True)
    expected = np.repeat(np.arange(2592), 8)
    assert (lenient == expected).all()
    assert (strict == np.where(np.arange(len(strings)) % 2 == 0, expected, -1)).all()
    _assert_codes_match(strings)


_EDIT_ALPHABET = "AVCIPRSUNLHX:/.013\u00e9 "


def test_vector_codes_matches_parse_vector_on_every_one_character_edit():
    rng = random.Random(2592)
    pool = list(all_vector_strings())
    strings = []
    for base in rng.sample(pool, 50):
        base = "/".join([base[:8], *rng.sample(base.split("/")[1:], 8)])
        for k in range(len(base) + 1):
            for c in _EDIT_ALPHABET:
                strings.append(base[:k] + c + base[k:])  # insertion
                if k < len(base):
                    strings.append(base[:k] + c + base[k + 1 :])  # substitution
            if k < len(base):
                strings.append(base[:k] + base[k + 1 :])  # deletion
    _assert_codes_match(strings, min_valid=50)


_PREFIXES = ["CVSS:3.1", "CVSS:3.0", "CVSS:3.2", "cvss:3.1", "", "CVSS:3.1 ", "CVSS:3.10"]
_JUNK = ["", " ", "AV", "XX", "E:H", "av:N", "AV:N:N", ":N", "AV:", "S:u", "A:HH", "C:H/", "AV:\u00e9"]
_TOKEN_LISTS = st.lists(
    st.sampled_from([f"{name}:{c}" for name, codes in METRIC_CODES for c in codes] + _JUNK),
    max_size=10,
) | st.tuples(
    *(st.sampled_from([f"{name}:{c}" for c in codes]) for name, codes in METRIC_CODES)
).flatmap(st.permutations)


@given(st.sampled_from(_PREFIXES), _TOKEN_LISTS)
def test_vector_codes_matches_parse_vector_on_token_lists(prefix, tokens):
    _assert_codes_match(["/".join([prefix, *tokens])])


def test_vector_codes_of_no_strings():
    codes = vector_codes([])
    assert codes.dtype == np.intp and codes.shape == (0,)


def test_vector_codes_rejects_non_ascii_strings_of_vector_length():
    strings = []
    for base in (CANONICAL, "CVSS:3.0/S:U/AV:N/C:H/AC:L/I:H/PR:N/UI:N/A:H"):
        for k in range(len(base)):
            for c in ("\u00e9", "\uff1a", "\uff0f", "\u0130"):
                strings.append(base[:k] + c + base[k + 1 :])
    assert all(len(s) == 44 and not s.isascii() for s in strings)
    assert (vector_codes(strings, lenient=True) == -1).all()
    _assert_codes_match(strings)


@pytest.mark.parametrize("n", [8192, 8193])
def test_vector_codes_across_the_block_boundary(n):
    """Blocks hold 8,192 strings of vector length; the strings around the
    boundary, valid or not, keep their own codes."""
    pool = list(all_vector_strings())
    strings = [pool[k % len(pool)] for k in range(n)]
    for k in range(n - 3, n, 2):
        strings[k] = strings[k].replace("/A:", "/X:")  # same length, no longer valid
    _assert_codes_match(strings, min_valid=n - 2)
