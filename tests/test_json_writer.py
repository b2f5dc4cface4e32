"""io.dumps against json's own indenting writer (the oracle dumps_stdlib):
the same bytes for any JSON-shaped value, and the same exception, type and
message, for a value json refuses. Files are read as UTF-8 whatever the
locale: under an ASCII locale a groupoid with non-ASCII labels validates,
its --json manifest has the bytes of a UTF-8 run, and the human-readable
report of a damaged one prints escapes, never a traceback. A byte order
mark or bytes that are not UTF-8 are refused with exit 2."""
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from bibucalc import cyclic_groupoid, io
from bibucalc.cli import main
from oracles import dumps_stdlib

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _outcome(write, value):
    """What a writer makes of value: its text, or the type and message of
    the exception it raises."""
    try:
        return write(value)
    except Exception as exc:
        return type(exc), str(exc)


class Record(dict):
    """A dict subclass: json writes it through its own items(), which here
    wraps each value in a list."""

    def items(self):
        return [(key, [value]) for key, value in super().items()]


# strings that look like the writer's own line breaks and brackets
TEXT = st.one_of(
    st.text(st.one_of(st.sampled_from('"\\[],: \n\t\x00\x1f\x7fé\ud800\U0001F600'),
                      st.characters()), max_size=6),
    st.just('"],\n    ["'), st.just("],\n      ["))
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2 ** 64), TEXT,
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
KEYS = st.one_of(TEXT, st.integers(), st.booleans(), st.none(), st.floats())
ROWS = st.one_of(
    st.lists(st.lists(TEXT, min_size=1, max_size=3), max_size=4),
    st.lists(st.lists(TEXT, max_size=2), max_size=4),
    st.lists(st.lists(SCALARS, max_size=3), max_size=4))
VALUES = st.recursive(
    st.one_of(SCALARS, ROWS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=3),
        st.dictionaries(TEXT, inner, max_size=3).map(Record)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(VALUES)
@example([["a", "b"], []])
@example({"comp": [[], ["a"]], "unit": Record(x="y")})
def test_dumps_writes_what_json_writes(value):
    assert _outcome(io.dumps, value) == _outcome(dumps_stdlib, value)


def _circular() -> list:
    loop: list = [["a"]]
    loop.append({"back": loop})
    return loop


REFUSED = {
    "set": {"a", "b"},
    "bytes": b"label",
    "object": object(),
    "tuple key": {("a", "b"): "c"},
    "unsortable keys": {"a": 1, 2: "b"},
    "set in a row": [["a", "b", {"c"}]],
    "bytes in a map": {"lM": {"x": b"y"}, "carrier": ["x"]},
    "circular": _circular(),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_dumps_refuses_what_json_refuses(name):
    expected = _outcome(dumps_stdlib, REFUSED[name])
    assert isinstance(expected, tuple)
    assert _outcome(io.dumps, REFUSED[name]) == expected


def test_save_json_writes_the_ascii_bytes(tmp_path):
    value = {"label": "é\U0001F600", "rows": [["a", "b", "c"]]}
    io.save_json(str(tmp_path / "v.json"), value)
    assert (tmp_path / "v.json").read_bytes() == dumps_stdlib(value).encode("ascii")


# ---------------------------------------------------------------------------
# locales

ASCII = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
UTF8 = {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}


def _cli(cwd, locale: dict, *argv) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONIOENCODING", "PYTHONUTF8", "PYTHONCOERCECLOCALE")}
    env.update(locale, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "bibucalc.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=120)


def _accented(damaged: bool) -> dict:
    """cyclic(2) with an e-acute on every label; damaged, its first
    composite is the other arrow."""
    def relabel(value):
        if isinstance(value, list):
            return [relabel(v) for v in value]
        if isinstance(value, dict):
            return {relabel(k): relabel(v) for k, v in value.items()}
        return value + "é"
    d = {key: relabel(value) for key, value in io.groupoid_to_json(cyclic_groupoid(2)).items()}
    if damaged:
        first = d["comp"][0]
        first[2] = next(a for a in d["arrows"] if a != first[2])
    return d


@pytest.fixture
def accented(tmp_path):
    for name, damaged in (("good.json", False), ("bad.json", True)):
        (tmp_path / name).write_text(json.dumps(_accented(damaged), ensure_ascii=False),
                                     encoding="utf-8")
    return tmp_path


def test_ascii_locale_reads_utf8_input(accented):
    ascii_run = _cli(accented, ASCII, "validate", "good.json", "--json")
    assert ascii_run.returncode == 0, ascii_run.stderr
    assert ascii_run.stdout == _cli(accented, UTF8, "validate", "good.json", "--json").stdout
    assert _cli(accented, ASCII, "validate", "good.json").returncode == 0


@pytest.mark.parametrize("argv", [[], ["--json"]], ids=["human", "json"])
def test_ascii_locale_reports_an_invalid_file(accented, argv):
    done = _cli(accented, ASCII, "validate", "bad.json", *argv)
    assert done.returncode == 1
    assert b"Traceback" not in done.stderr
    if not argv:
        assert b"\\xe9" in done.stdout


@pytest.mark.parametrize("name, data, message", [
    ("bom.json", b"\xef\xbb\xbf{}", "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ("latin1.json", '{"objects": ["é"]}'.encode("latin-1"), "'utf-8' codec can't decode byte 0xe9"),
])
def test_input_that_is_not_plain_utf8_is_refused(tmp_path, capsys, name, data, message):
    (tmp_path / name).write_bytes(data)
    assert main(["validate", str(tmp_path / name)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
