"""CLI fuzz gate: damaged copies of a gen-fixture bibundle file run through
the verbs that read one, and so do damaged group-spec, simplicial-set,
category and hom files. Every run must exit 0, 1 or 2, print no traceback
and write its manifest. Structural damage (dropped or retyped keys, non-string or
duplicate labels, repeated table rows, dangling or self references to
groupoid files) must exit 2 with an `error` in the manifest. Labels that
name nothing, and a table row, map key or list label dropped, make
`validate` exit 1, and the verbs that validate on ingest exit 2. A group
spec whose mu, e or i names another part's file is wired wrongly: every
verb that reads a spec, `validate` included, must exit 2 with an `error`
naming that part. So must a file nested deeper than the JSON decoder can
follow."""
import contextlib
import io as _io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from bibucalc import StructuralError, as_category, io, pair_groupoid
from bibucalc.cli import main
from bibucalc.generators import random_groupoid, random_hom
from bibucalc.groups import kronecker_finite
from bibucalc.simplicial import nerve

NAME = "damaged.json"
VERBS = [
    ["validate", NAME],
    ["principal", "--bibundle", NAME],
    ["pairing", "--bibundle", NAME],
    ["morita", "--bibundle", NAME],
    ["linking", "--groupoid", "--bibundle", NAME],
]
GROUPOIDS = ("leftGroupoid", "rightGroupoid")
# the fields of a bundle file and of a groupoid file, by shape
BUNDLE_FIELDS = {"carrier": "list", "lM": "map", "rM": "map",
                 "leftAct": "table", "rightAct": "table",
                 "leftGroupoid": "groupoid", "rightGroupoid": "groupoid"}
GROUPOID_FIELDS = {"objects": "list", "arrows": "list", "l": "map", "r": "map",
                   "inv": "map", "unit": "map", "comp": "table"}
WRONG_TYPES = [None, 0, 1.5, True, "x", [], {}]
NON_STRINGS = [None, 0, 1.5, True, [], {}]


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(_io.StringIO()):
        assert main(["gen-fixture", "--family", "kronecker_finite", "--n", "4", "--q", "2",
                     "--out", str(root)]) == 0
    return root, io.load_json(str(root / "kronecker_4_2_i.json"))


def _fields(d: dict, shapes: tuple[str, ...]) -> list[tuple[dict, str, str]]:
    """(object, key, shape) for the fields of the bundle and of its inline
    groupoids whose shape is one of shapes."""
    out = [(d, k, s) for k, s in BUNDLE_FIELDS.items() if s in shapes]
    for g in GROUPOIDS:
        out += [(d[g], k, s) for k, s in GROUPOID_FIELDS.items() if s in shapes]
    return out


@st.composite
def damaged(draw, original: dict) -> tuple[dict, bool]:
    """A damaged copy of a bundle file and whether the damage is structural."""
    d = json.loads(json.dumps(original))
    what = draw(st.sampled_from(["drop", "retype", "non-string", "duplicate",
                                 "reference", "dangling", "drop-entry"]))
    if what == "reference":
        d[draw(st.sampled_from(GROUPOIDS))] = draw(st.sampled_from([NAME, "missing.json", "."]))
        return d, True
    shapes = {
        "drop": ("list", "map", "table", "groupoid"),
        "retype": ("list", "map", "table", "groupoid"),
        "non-string": ("list", "map", "table"),
        "duplicate": ("list", "table"),
        "dangling": ("list", "map", "table"),
        "drop-entry": ("list", "map", "table"),
    }[what]
    obj, key, shape = draw(st.sampled_from(_fields(d, shapes)))
    value = obj[key]
    if what == "drop-entry":
        # one row of a table, one key of a map or one label of a list: the
        # file still parses, and what the loss leaves undefined or dangling
        # is a violation
        if shape == "map":
            del value[draw(st.sampled_from(sorted(value)))]
        else:
            del value[draw(st.integers(0, len(value) - 1))]
        return d, False
    if what == "drop":
        del obj[key]
    elif what == "retype":
        obj[key] = draw(st.sampled_from([v for v in WRONG_TYPES if type(v) is not type(value)]))
    elif what == "non-string":
        bad = draw(st.sampled_from(NON_STRINGS))
        if shape == "list":
            value[draw(st.integers(0, len(value) - 1))] = bad
        elif shape == "map":
            value[draw(st.sampled_from(sorted(value)))] = bad
        else:
            value[draw(st.integers(0, len(value) - 1))][draw(st.integers(0, 2))] = bad
    elif what == "duplicate":
        # a label listed twice, or a second row for a table key, with the
        # same value or another one
        copy = value[draw(st.integers(0, len(value) - 1))]
        if shape == "table":
            copy = copy[:2] + [draw(st.sampled_from([row[2] for row in value]))]
        value.insert(draw(st.integers(0, len(value))), copy)
    else:
        # a label that names nothing: a new list entry or map key, a map
        # value, a table value, or a new row with a key off the table
        if shape == "list":
            value.append("nowhere")
        elif shape == "map" and draw(st.booleans()):
            value["nowhere"] = value[draw(st.sampled_from(sorted(value)))]
        elif shape == "map":
            value[draw(st.sampled_from(sorted(value)))] = "nowhere"
        else:
            i, j = draw(st.integers(0, len(value) - 1)), draw(st.integers(0, 2))
            row = list(value[i])
            row[j] = "nowhere"
            if j == 2:
                value[i] = row
            else:
                value.append(row)
        return d, False
    return d, True


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json", "--out", "out"])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_damaged_files_keep_the_exit_code_contract(fixture, data):
    root, original = fixture
    d, structural = data.draw(damaged(original))
    with contextlib.chdir(root):
        io.save_json(NAME, d)
        for argv in VERBS:
            code, out, err = _run(argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            manifest = json.loads(out)
            if structural or argv[0] != "validate":
                assert code == 2, (argv, manifest)
                assert "error" in manifest["verdicts"]
            else:
                assert code == 1, (argv, manifest)
                assert manifest["verdicts"][NAME]["ok"] is False


SPEC_VERBS = [
    ["validate", NAME],
    ["preinverse", "--spec", NAME],
    ["coherence", "--spec", NAME],
    ["check-group", "--spec", NAME],
]
PARTS = ("mu", "e", "i")


@pytest.mark.parametrize("part, other", [(p, q) for p in PARTS for q in PARTS if p != q])
def test_wrongly_wired_group_spec_exits_2(fixture, part, other):
    root, _ = fixture
    with contextlib.chdir(root):
        spec = io.load_json("kronecker_4_2.json")
        spec[part] = spec[other]
        io.save_json(NAME, spec)
        for argv in SPEC_VERBS:
            code, out, err = _run(argv)
            assert code == 2, (argv, out)
            assert "Traceback" not in err
            assert f"group spec {part} " in json.loads(out)["verdicts"]["error"]


DEEP = {
    "array": "[" * 100_000 + "]" * 100_000,
    # a valid groupoid file with one extra key holding an array 5,000 deep
    "groupoid": io.dumps(io.groupoid_to_json(pair_groupoid(2))).replace(
        "{", '{"deep": ' + "[" * 5000 + "]" * 5000 + ", ", 1),
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deeply_nested_json_exits_2(tmp_path, name):
    with contextlib.chdir(tmp_path):
        with open(NAME, "w") as fh:
            fh.write(DEEP[name])
        with pytest.raises(StructuralError, match="nested too deeply"):
            io.load_json(NAME)
        for argv in VERBS + SPEC_VERBS[1:] + [["kan", "--sset", NAME, "--n", "2", "--i", "1"]]:
            code, out, err = _run(argv)
            assert code == 2, (argv, out)
            assert "Traceback" not in err
            assert "nested too deeply" in json.loads(out)["verdicts"]["error"]


# the other file kinds, each with the verbs that read it
KINDS = {
    "group-spec": (lambda: io.group_spec_to_json(kronecker_finite(2, 1)),
                   [["validate", NAME], ["check-group", "--spec", NAME],
                    ["preinverse", "--spec", NAME], ["coherence", "--spec", NAME]]),
    "sset": (lambda: io.sset_to_json(nerve(pair_groupoid(2), 2)),
             [["validate", NAME], ["kan", "--sset", NAME, "--n", "2", "--i", "1"]]),
    "category": (lambda: io.category_to_json(as_category(pair_groupoid(2))),
                 [["validate", NAME], ["kan", "--sset", NAME, "--n", "2", "--i", "0"]]),
    "hom": (lambda: io.hom_to_json(random_hom(random.Random(1),
                                              random_groupoid(random.Random(2), 2, 2, prefix="g"),
                                              random_groupoid(random.Random(3), 2, 2, prefix="h"))),
            [["validate", NAME], ["bundlize", "--hom", NAME]]),
}


def _nodes(tree) -> list[tuple]:
    """(container, key) for every value below the top of a JSON tree."""
    out = []
    for key, value in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
        out.append((tree, key))
        if isinstance(value, (dict, list)):
            out += _nodes(value)
    return out


@st.composite
def damaged_tree(draw, original: dict) -> dict:
    """A copy of a JSON file with one value anywhere in it dropped, retyped,
    replaced by a label that names nothing, duplicated or renamed."""
    d = json.loads(json.dumps(original))
    container, key = draw(st.sampled_from(_nodes(d)))
    value = container[key]
    what = draw(st.sampled_from(["drop", "retype", "dangling", "duplicate", "rename"]))
    if what == "drop":
        del container[key]
    elif what == "retype":
        container[key] = draw(st.sampled_from([v for v in WRONG_TYPES if type(v) is not type(value)]))
    elif what == "dangling":
        container[key] = "nowhere"
    elif isinstance(container, list):
        container.insert(key, json.loads(json.dumps(value)))
    elif what == "duplicate":
        container["nowhere"] = value
    else:
        container["nowhere"] = container.pop(key)
    return d


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_kinds")
    trees = {kind: build() for kind, (build, _) in KINDS.items()}
    with contextlib.chdir(root):
        for kind, (_, verbs) in KINDS.items():
            io.save_json(NAME, trees[kind])
            for argv in verbs:
                code, out, err = _run(argv)
                assert code == 0, (kind, argv, out, err)
    return root, trees


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_damaged_files_of_every_kind_keep_the_exit_code_contract(originals, kind, data):
    root, trees = originals
    d = data.draw(damaged_tree(trees[kind]))
    with contextlib.chdir(root):
        io.save_json(NAME, d)
        for argv in KINDS[kind][1]:
            code, out, err = _run(argv)
            assert code in (0, 1, 2), (argv, out)
            assert "Traceback" not in err
            manifest = json.loads(out)
            assert (code == 2) == ("error" in manifest["verdicts"]), (argv, manifest)
