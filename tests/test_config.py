import pytest

from arago.config import (ConfigError, as_float, as_int, parse_kv,
                          serialize_kv)


def test_parse_basic():
    items = parse_kv("a.b = 1\nmode = poisson_ideal\n")
    assert items == {"a.b": "1", "mode": "poisson_ideal"}


def test_parse_comments_and_blanks():
    text = """
    # leading comment
    poisson.R = 500e-9  # trailing comment

    mode = farfield
    """
    items = parse_kv(text)
    assert items["poisson.R"] == "500e-9"
    assert items["mode"] == "farfield"
    assert len(items) == 2


def test_parse_preserves_order():
    items = parse_kv("z = 1\na = 2\n")
    assert list(items) == ["z", "a"]


def test_parse_rejects_duplicates():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv("a = 1\na = 2\n")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 2"):
        parse_kv("a = 1\nnot an assignment\n")


def test_parse_rejects_bad_key():
    with pytest.raises(ConfigError, match="malformed key"):
        parse_kv("a b = 1\n")
    with pytest.raises(ConfigError, match="malformed key"):
        parse_kv(".leading = 1\n")


def test_parse_rejects_empty_value():
    with pytest.raises(ConfigError, match="empty value"):
        parse_kv("a = \n")


def test_parse_rejects_empty_file():
    with pytest.raises(ConfigError, match="empty"):
        parse_kv("# only a comment\n\n")


def test_parse_non_string():
    with pytest.raises(ConfigError):
        parse_kv(None)


def test_value_may_contain_spaces():
    items = parse_kv("note = two words here\n")
    assert items["note"] == "two words here"


def test_serialize_canonical_form():
    text = serialize_kv({"b": "2", "a": "1"})
    assert text == "a = 1\nb = 2\n"
    assert "\r" not in text


def test_roundtrip_idempotent():
    items = {"poisson.R": "5e-07", "mode": "poisson_ideal", "grid.n_u": "600"}
    once = serialize_kv(items)
    twice = serialize_kv(parse_kv(once))
    assert once == twice


def test_as_float():
    items = {"x": "2.5", "bad": "abc", "big": "-inf", "nan": "nan"}
    assert as_float(items, "x") == 2.5
    assert as_float(items, "missing", default=7.0) == 7.0
    with pytest.raises(ConfigError, match="missing required key"):
        as_float(items, "missing")
    with pytest.raises(ConfigError, match="not a number"):
        as_float(items, "bad")
    for key in ("big", "nan"):
        with pytest.raises(ConfigError, match="not finite"):
            as_float(items, key)


def test_as_int():
    items = {"n": "241.0", "e": "2e3", "frac": "100.9", "half": "2.5",
             "big": "inf"}
    assert as_int(items, "n") == 241 and type(as_int(items, "n")) is int
    assert as_int(items, "e") == 2000
    assert as_int(items, "missing", default=600) == 600
    for key in ("frac", "half"):
        with pytest.raises(ConfigError, match="not an integer"):
            as_int(items, key)
    with pytest.raises(ConfigError, match="not finite"):
        as_int(items, "big")
