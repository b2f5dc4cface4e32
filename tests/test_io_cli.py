import argparse
import builtins
import collections
import hashlib
import itertools
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from bibucalc import cli, io
from bibucalc.calculus import compose, diagonal_bibundle, identity_bibundle
from bibucalc.cli import main
from bibucalc.core import (
    StructuralError,
    GroupoidHom,
    cyclic_groupoid,
    pair_groupoid,
    validate_groupoid,
)
from bibucalc.generators import random_groupoid
from bibucalc.groups import kronecker_finite
from bibucalc.simplicial import nerve, poset_category


def test_groupoid_round_trip_and_stability():
    G = pair_groupoid(3)
    d = io.groupoid_to_json(G)
    assert io.groupoid_from_json(d) == G
    assert io.dumps(d) == io.dumps(io.groupoid_to_json(io.groupoid_from_json(d)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_random_groupoid_round_trip(seed):
    G = random_groupoid(random.Random(seed), max_objects=3, max_isotropy=3)
    assert io.groupoid_from_json(io.groupoid_to_json(G)) == G


def test_bibundle_round_trip_with_provenance():
    M = compose(identity_bibundle(cyclic_groupoid(3)), identity_bibundle(cyclic_groupoid(3)))
    d = io.bibundle_to_json(M, provenance="id ; id")
    assert d["provenance"] == "id ; id"
    M2 = io.bibundle_from_json(d)
    assert M2.carrier == M.carrier
    assert M2.left_table() == M.left_table()


def test_sset_round_trip():
    X = nerve(poset_category(2), 3)
    X2 = io.sset_from_json(io.sset_to_json(X))
    assert X2.levels == X.levels
    assert X2.face == X.face
    assert X2.degen == X.degen


def test_hom_round_trip():
    G = cyclic_groupoid(4)
    phi = GroupoidHom(G, G, {"*": "*"}, {str(k): str((2 * k) % 4) for k in range(4)})
    phi2 = io.hom_from_json(io.hom_to_json(phi))
    assert phi2.f1 == phi.f1


def test_group_spec_round_trip():
    data = kronecker_finite(2, 1)
    data2 = io.group_spec_from_json(io.group_spec_to_json(data))
    assert data2.base == data.base
    assert data2.i is not None


def test_path_references(tmp_path):
    G = cyclic_groupoid(2)
    io.save_json(str(tmp_path / "g.json"), io.groupoid_to_json(G))
    d = io.bibundle_to_json(identity_bibundle(G))
    d["leftGroupoid"] = "g.json"
    d["rightGroupoid"] = "g.json"
    path = io.save_json(str(tmp_path / "m.json"), d)
    kind, M = io.load_typed(path)
    assert kind == "bibundle"
    assert M == identity_bibundle(G)


def test_loader_rejects_invalid():
    d = io.groupoid_to_json(cyclic_groupoid(2))
    d["inv"]["1"] = "0"
    with pytest.raises(StructuralError):
        io.groupoid_from_json(d)
    assert validate_groupoid(io.groupoid_from_json(d, validate=False)).ok is False


def test_detect_kind():
    assert io.detect_kind(io.groupoid_to_json(cyclic_groupoid(2))) == "groupoid"
    assert io.detect_kind(io.category_to_json(poset_category(2))) == "category"
    assert io.detect_kind(io.bibundle_to_json(identity_bibundle(cyclic_groupoid(2)))) == "bibundle"
    assert io.detect_kind(io.sset_to_json(nerve(poset_category(2), 2))) == "sset"
    assert io.detect_kind(io.group_spec_to_json(kronecker_finite(2, 1))) == "group-spec"
    with pytest.raises(StructuralError):
        io.detect_kind({"what": "ever"})


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture
def idg(tmp_path):
    G = cyclic_groupoid(2)
    gpath = str(tmp_path / "g.json")
    io.save_json(gpath, io.groupoid_to_json(G))
    mpath = str(tmp_path / "idg.json")
    io.save_json(mpath, io.bibundle_to_json(identity_bibundle(G)))
    return gpath, mpath


def test_cli_principal_ok(idg):
    _, mpath = idg
    assert main(["principal", "--bibundle", mpath, "--side", "right"]) == 0
    assert main(["principal", "--bibundle", mpath, "--side", "left"]) == 0


def test_cli_morita_failure_writes_witness(tmp_path):
    dpath = str(tmp_path / "delta.json")
    io.save_json(dpath, io.bibundle_to_json(diagonal_bibundle(cyclic_groupoid(2))))
    assert main(["morita", "--bibundle", dpath, "--out", str(tmp_path)]) == 1
    witness = json.load(open(tmp_path / "morita_witness.json"))
    assert witness["ok"] is False


def test_cli_compose_and_validate(idg, tmp_path):
    _, mpath = idg
    assert main(["compose", "--left", mpath, "--right", mpath, "--out", str(tmp_path)]) == 0
    out = str(tmp_path / "composed.json")
    assert main(["validate", out]) == 0
    assert json.load(open(out))["provenance"].startswith("compose(")


def test_cli_validate_catches_broken_file(tmp_path):
    d = io.groupoid_to_json(cyclic_groupoid(2))
    d["inv"]["1"] = "0"
    bad = str(tmp_path / "bad.json")
    io.save_json(bad, d)
    assert main(["validate", bad, "--out", str(tmp_path)]) == 1
    assert (tmp_path / "validate_witness.json").exists()


def test_cli_check_identity(idg, tmp_path):
    gpath, _ = idg
    assert main(["check", "--groupoid", gpath, "--lhs", "tau ; tau",
                 "--rhs", "id * id", "--out", str(tmp_path)]) == 0
    assert main(["check", "--groupoid", gpath, "--lhs", "delta ; ev",
                 "--rhs", "id", "--out", str(tmp_path)]) == 1


def test_cli_eval_diagram_with_binding(idg, tmp_path):
    gpath, mpath = idg
    assert main(["eval-diagram", "--groupoid", gpath, "--bind", f"M={mpath}",
                 "M ; M", "--out", str(tmp_path)]) == 0
    kind, got = io.load_typed(str(tmp_path / "diagram.json"))
    assert kind == "bibundle"
    assert json.load(open(tmp_path / "diagram.json"))["provenance"] == "M ; M"


def test_cli_kan_poset_witness(tmp_path):
    spath = str(tmp_path / "nerve_poset.json")
    io.save_json(spath, io.sset_to_json(nerve(poset_category(2), 3)))
    assert main(["kan", "--sset", spath, "--n", "2", "--i", "1", "--strict"]) == 0
    assert main(["kan", "--sset", spath, "--n", "2", "--i", "0", "--out", str(tmp_path)]) == 1
    witness = json.load(open(tmp_path / "kan_witness.json"))
    assert witness["unfilled_horn"] == {"1": "(0,0)", "2": "(1,0)"}


def test_cli_kan_accepts_groupoid_file(idg):
    gpath, _ = idg
    assert main(["kan", "--sset", gpath, "--n", "3", "--i", "0", "--strict"]) == 0


def test_cli_gen_fixture_families(tmp_path):
    for argv in (["gen-fixture", "--family", "pair", "--n", "3"],
                 ["gen-fixture", "--family", "action", "--n", "2"],
                 ["gen-fixture", "--family", "random-groupoid", "--seed", "5"],
                 ["gen-fixture", "--family", "random-right-principal-bibundle", "--seed", "7"]):
        assert main(argv + ["--out", str(tmp_path)]) == 0
    produced = sorted(os.listdir(tmp_path))
    assert "pair3.json" in produced
    for name in produced:
        assert main(["validate", str(tmp_path / name)]) == 0
    assert len(json.load(open(tmp_path / "pair3.json"))["arrows"]) == 9


@pytest.mark.parametrize("family, n", [("trivial", -5), ("pair", -1)])
def test_cli_gen_fixture_refuses_a_negative_size(tmp_path, capsys, family, n):
    assert main(["gen-fixture", "--family", family, "--n", str(n), "--out", str(tmp_path), "--json"]) == 2
    assert "n >= 0" in json.loads(capsys.readouterr().out)["verdicts"]["error"]
    assert os.listdir(tmp_path) == []
    # the empty groupoid stays allowed
    assert main(["gen-fixture", "--family", family, "--n", "0", "--out", str(tmp_path)]) == 0
    assert json.load(open(tmp_path / f"{family}0.json"))["objects"] == []


@pytest.mark.parametrize("cap", [0, -2])
def test_cli_gen_fixture_refuses_a_max_size_below_one(tmp_path, capsys, cap):
    argv = ["gen-fixture", "--family", "random-groupoid", "--seed", "3", "--max-size", str(cap),
            "--out", str(tmp_path)]
    assert main(argv + ["--json"]) == 2
    error = json.loads(capsys.readouterr().out)["verdicts"]["error"]
    assert "--max-size" in error and "randrange" not in error
    assert os.listdir(tmp_path) == []
    assert main(argv) == 2
    assert "--max-size" in capsys.readouterr().err


def test_cli_gen_fixture_max_size_one_and_its_default(tmp_path):
    one, default = tmp_path / "one", tmp_path / "default"
    assert main(["gen-fixture", "--family", "random-groupoid", "--seed", "3", "--max-size", "1",
                 "--out", str(one)]) == 0
    assert len(json.load(open(one / "random_groupoid_3.json"))["objects"]) == 1
    # without the flag the cap is 3, as with --max-size 3
    for out, extra in ((default, []), (tmp_path / "three", ["--max-size", "3"])):
        assert main(["gen-fixture", "--family", "random-groupoid", "--seed", "3", "--out", str(out)] + extra) == 0
    assert open(default / "random_groupoid_3.json").read() == open(tmp_path / "three" / "random_groupoid_3.json").read()


def test_cli_gen_fixture_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen-fixture", "--family", "random-groupoid", "--seed", "11",
                     "--out", str(out)]) == 0
    fa, fb = (sorted(os.listdir(p))[0] for p in (a, b))
    assert open(a / fa).read() == open(b / fb).read()


def test_cli_check_group_kronecker(tmp_path, capsys):
    assert main(["gen-fixture", "--family", "kronecker_finite", "--n", "2", "--q", "1",
                 "--out", str(tmp_path)]) == 0
    spec = str(tmp_path / "kronecker_2_1.json")
    capsys.readouterr()
    assert main(["check-group", "--spec", spec, "--json"]) == 0
    first = capsys.readouterr().out
    report = json.loads(first)
    assert report["verdicts"]["group"] is True
    assert spec in report["inputs"]
    assert main(["check-group", "--spec", spec, "--json"]) == 0
    assert capsys.readouterr().out == first


def test_cli_preinverse_and_coherence(tmp_path):
    assert main(["gen-fixture", "--family", "kronecker_finite", "--n", "2", "--q", "1",
                 "--out", str(tmp_path)]) == 0
    spec = str(tmp_path / "kronecker_2_1.json")
    assert main(["preinverse", "--spec", spec, "--out", str(tmp_path)]) == 0
    kind, s = io.load_typed(str(tmp_path / "preinverse.json"))
    assert kind == "bibundle"
    assert main(["coherence", "--spec", spec]) == 0


@pytest.mark.parametrize("bound", [0, -1])
def test_cli_coherence_refuses_max_candidates_below_one(tmp_path, capsys, bound):
    assert main(["gen-fixture", "--family", "kronecker_finite", "--n", "2", "--q", "1",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    argv = ["coherence", "--spec", str(tmp_path / "kronecker_2_1.json"),
            "--max-candidates", str(bound), "--out", str(tmp_path / "out")]
    code, out, err = _run(argv + ["--json"], capsys)
    assert code == 2 and "Traceback" not in err
    error = json.loads(out)["verdicts"]["error"]
    assert "--max-candidates" in error and "islice" not in error
    code, _, err = _run(argv, capsys)
    assert code == 2 and "--max-candidates" in err
    assert not (tmp_path / "out" / "coherence_witness.json").exists()


@pytest.mark.parametrize("verb", ["check", "eval-diagram"])
def test_cli_refuses_a_deeply_nested_expression(idg, tmp_path, capsys, verb):
    gpath, _ = idg
    deep = "(" * 3000 + "id" + ")" * 3000
    argv = {"check": ["check", "--groupoid", gpath, "--lhs", deep, "--rhs", "id"],
            "eval-diagram": ["eval-diagram", "--groupoid", gpath, deep]}[verb]
    code, out, err = _run(argv + ["--json", "--out", str(tmp_path)], capsys)
    assert code == 2 and "Traceback" not in err
    assert "expression nested too deeply (at " in json.loads(out)["verdicts"]["error"]
    assert sorted(os.listdir(tmp_path)) == ["g.json", "idg.json"]


def test_cli_linking_verbs(idg, tmp_path):
    _, mpath = idg
    assert main(["linking", "--bibundle", mpath, "--category", "--out", str(tmp_path)]) == 0
    assert main(["linking", "--bibundle", mpath, "--groupoid", "--out", str(tmp_path)]) == 0
    kind, L = io.load_typed(str(tmp_path / "linking_groupoid.json"))
    assert kind == "groupoid"
    dpath = str(tmp_path / "delta.json")
    io.save_json(dpath, io.bibundle_to_json(diagonal_bibundle(cyclic_groupoid(2))))
    assert main(["linking", "--bibundle", dpath, "--groupoid", "--out", str(tmp_path)]) == 1


def test_cli_pairing_and_bundlize(idg, tmp_path):
    _, mpath = idg
    assert main(["pairing", "--bibundle", mpath, "--out", str(tmp_path)]) == 0
    G = cyclic_groupoid(2)
    phi = GroupoidHom(G, G, {"*": "*"}, {"0": "0", "1": "1"})
    hpath = str(tmp_path / "phi.json")
    io.save_json(hpath, io.hom_to_json(phi))
    assert main(["bundlize", "--hom", hpath, "--out", str(tmp_path)]) == 0
    assert main(["validate", str(tmp_path / "bundlized.json")]) == 0


def test_cli_usage_errors(tmp_path):
    garbage = str(tmp_path / "garbage.json")
    with open(garbage, "w") as fh:
        fh.write("nope")
    assert main(["principal", "--bibundle", garbage]) == 2
    assert main(["principal", "--bibundle", str(tmp_path / "missing.json")]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    gpath = str(tmp_path / "g.json")
    io.save_json(gpath, io.groupoid_to_json(cyclic_groupoid(2)))
    assert main(["compose", "--left", gpath, "--right", gpath]) == 2


@pytest.mark.parametrize("argv", [
    ["validate", "MISSING"],
    ["check-group", "--spec", "MISSING"],
    ["compose", "--left", "MISSING", "--right", "PRESENT"],
])
def test_cli_missing_input_under_json_writes_the_manifest(idg, tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.json")
    argv = [{"MISSING": missing, "PRESENT": idg[1]}.get(a, a) for a in argv]
    assert main(argv + ["--json"]) == 2
    out, err = capsys.readouterr()
    verdicts = json.loads(out)["verdicts"]
    assert "missing.json" in verdicts["error"]
    assert err.startswith("error: ") and "Traceback" not in err


def test_only_gen_fixture_takes_a_seed(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    io.save_json(gpath, io.groupoid_to_json(cyclic_groupoid(2)))
    for option in ("--seed", "--max-size"):
        with pytest.raises(SystemExit) as exc:
            main(["validate", option, "1", gpath])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: bibucalc") and f"unrecognized arguments: {option}" in err
    assert main(["validate", gpath]) == 0


@pytest.mark.parametrize("field, value", [("l", 5), ("objects", "01")])
def test_cli_validate_rejects_mistyped_fields(tmp_path, capsys, field, value):
    d = io.groupoid_to_json(cyclic_groupoid(3) if field == "l" else pair_groupoid(2))
    d[field] = value
    bad = str(tmp_path / "bad.json")
    io.save_json(bad, d)
    capsys.readouterr()
    assert main(["validate", bad, "--json"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    manifest = json.loads(captured.out)
    assert repr(field) in manifest["verdicts"]["error"]


def test_loaders_reject_mistyped_fields():
    G = io.groupoid_to_json(cyclic_groupoid(2))
    for field, value in (("arrows", [0, 1]), ("inv", {"0": 0, "1": "1"}),
                         ("unit", ["0"]), ("comp", 7), ("comp", [["0", "0", 0]])):
        with pytest.raises(StructuralError, match=repr(field)):
            io.groupoid_from_json({**G, field: value}, validate=False)
    C = io.category_to_json(poset_category(2))
    with pytest.raises(StructuralError, match="'r'"):
        io.category_from_json({**C, "r": None}, validate=False)
    M = io.bibundle_to_json(identity_bibundle(cyclic_groupoid(2)))
    for field, value in (("carrier", "01"), ("lM", 5), ("rM", {"0": ["*"]})):
        with pytest.raises(StructuralError, match=repr(field)):
            io.bibundle_from_json({**M, field: value}, validate=False)


def _swap_inv(G):
    G["inv"]["1"], G["inv"]["2"] = G["inv"]["2"], G["inv"]["1"]


def _drop_l(G):
    del G["l"]["1"]


@pytest.mark.parametrize("damage, code", [(_swap_inv, "inv-law"), (_drop_l, "l-missing")])
def test_cli_validate_checks_inline_groupoids(tmp_path, capsys, damage, code):
    d = io.bibundle_to_json(identity_bibundle(cyclic_groupoid(3)))
    damage(d["leftGroupoid"])
    bad = str(tmp_path / "bad.json")
    io.save_json(bad, d)
    capsys.readouterr()
    assert main(["validate", bad, "--json", "--out", str(tmp_path)]) == 1
    verdict = json.loads(capsys.readouterr().out)["verdicts"][bad]
    assert verdict["ok"] is False
    # the bundle's own tables are read through its groupoids, so they are
    # checked only once both groupoids are valid
    assert set(verdict["violations"]) == {"leftGroupoid"}
    assert code in {v["code"] for v in verdict["violations"]["leftGroupoid"]}
    assert main(["principal", "--bibundle", bad]) == 2


@pytest.mark.parametrize("field, value", [
    ("face", 5),
    ("degen", {"0": 7}),
    ("face", {"x": {}}),
    ("face", {"1": {"0": {"a": 1}}}),
    ("levels", [["a"], "bc"]),
])
def test_cli_validate_rejects_mistyped_sset_fields(tmp_path, capsys, field, value):
    d = io.sset_to_json(nerve(poset_category(2), 3))
    d[field] = value
    bad = str(tmp_path / "bad.json")
    io.save_json(bad, d)
    capsys.readouterr()
    assert main(["validate", bad, "--json"]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    manifest = json.loads(captured.out)
    assert repr(field) in manifest["verdicts"]["error"]


def test_cli_validate_checks_each_distinct_groupoid_once(tmp_path, capsys, monkeypatch):
    assert main(["gen-fixture", "--family", "kronecker_finite", "--n", "2", "--q", "1",
                 "--out", str(tmp_path)]) == 0
    spec = str(tmp_path / "kronecker_2_1.json")
    checked = []
    real = cli.validate_groupoid
    monkeypatch.setattr(cli, "validate_groupoid", lambda G: checked.append(G) or real(G))
    capsys.readouterr()
    assert main(["validate", spec, "--json"]) == 0
    verdict = json.loads(capsys.readouterr().out)["verdicts"][spec]
    assert verdict == {"kind": "group-spec", "ok": True, "violations": {}}
    # the base, G x G and the one-point G^0, though seven parts name a groupoid
    assert len(checked) == 3
    assert all(a != b for a, b in itertools.combinations(checked, 2))


def test_loaders_refuse_repeated_table_rows():
    d = io.bibundle_to_json(identity_bibundle(cyclic_groupoid(3)))
    g, m, _ = d["leftAct"][0]
    d["leftAct"].insert(0, [g, m, "2"])
    with pytest.raises(StructuralError, match=r"'leftAct' holds two rows for \['0', '0'\]"):
        io.bibundle_from_json(d, validate=False)
    G = io.groupoid_to_json(cyclic_groupoid(2))
    G["comp"].append(list(G["comp"][-1]))
    with pytest.raises(StructuralError, match="'comp' holds two rows"):
        io.groupoid_from_json(G, validate=False)


@pytest.mark.parametrize("table, row, code", [
    ("leftAct", ["1", "nowhere", "0"], "left-act-domain"),
    ("rightAct", ["0", "x", "0"], "right-act-domain"),
])
def test_cli_validate_refuses_action_rows_off_the_domain(tmp_path, capsys, table, row, code):
    d = io.bibundle_to_json(identity_bibundle(cyclic_groupoid(3)))
    d[table].append(row)
    bad = str(tmp_path / "bad.json")
    io.save_json(bad, d)
    capsys.readouterr()
    assert main(["validate", bad, "--json", "--out", str(tmp_path)]) == 1
    verdict = json.loads(capsys.readouterr().out)["verdicts"][bad]
    assert [v["code"] for v in verdict["violations"]["bibundle"]] == [code]
    assert main(["principal", "--bibundle", bad]) == 2


@pytest.mark.parametrize("table, code", [("leftAct", "left-act-missing"), ("rightAct", "right-act-missing")])
def test_cli_validate_reports_missing_action_rows(tmp_path, capsys, table, code):
    d = io.bibundle_to_json(identity_bibundle(cyclic_groupoid(3)))
    row = d[table].pop(4)
    bad = str(tmp_path / "bad.json")
    io.save_json(bad, d)
    capsys.readouterr()
    assert main(["validate", bad, "--json", "--out", str(tmp_path)]) == 1
    verdict = json.loads(capsys.readouterr().out)["verdicts"][bad]
    assert [(v["code"], v["witness"]) for v in verdict["violations"]["bibundle"]] == [(code, repr(tuple(row[:2])))]
    assert main(["principal", "--bibundle", bad, "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["verdicts"]["error"].startswith("bibundle file invalid: ")


def test_cli_refuses_repeated_json_keys(tmp_path, capsys):
    text = io.dumps(io.bibundle_to_json(identity_bibundle(cyclic_groupoid(3))))
    # a second lM entry for point "0", ahead of the real one
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write(text.replace('"lM": {', '"lM": {\n    "0": "nowhere",', 1))
    capsys.readouterr()
    assert main(["validate", bad, "--json"]) == 2
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["verdicts"]["error"] == "JSON object repeats the key '0'"
    assert main(["principal", "--bibundle", bad]) == 2


def _run(argv, capsys) -> tuple:
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once_and_reused_safely(idg, tmp_path, capsys, monkeypatch):
    gpath, mpath = idg
    dpath = str(tmp_path / "delta.json")
    io.save_json(dpath, io.bibundle_to_json(diagonal_bibundle(cyclic_groupoid(2))))
    out = ["--json", "--out", str(tmp_path / "out")]
    calls = [
        ["principal", "--bibundle", mpath, "--frobnicate"],
        ["check", "--groupoid", gpath, "--bind", f"M={mpath}", "--lhs", "M ; M", "--rhs", "M", *out],
        ["check", "--groupoid", gpath, "--bind", f"N={dpath}", "--lhs", "N", "--rhs", "N", *out],
        ["linking", "--bibundle", mpath, "--groupoid", *out],
        ["linking", "--bibundle", mpath, "--category", *out],
        ["principal", "--bibundle", dpath, "--side", "left", *out],
        ["principal", "--bibundle", dpath, *out],
    ]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    _run(["principal", "--bibundle", mpath], capsys)
    built.clear()
    shared = [_run(argv, capsys) for argv in calls]
    assert built == []
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_run(argv, capsys) for argv in calls]
    assert len(built) >= len(calls)
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 1, 0]
    assert sorted(json.loads(shared[2][1])["inputs"]) == sorted([gpath, dpath])


def test_manifest_command_keeps_arguments_equal_to_the_verb(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    io.save_json("validate", io.groupoid_to_json(cyclic_groupoid(2)))
    argv = ["validate", "validate", "--json", "--out", "validate"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["command"] == argv
    # read from the process arguments, too
    monkeypatch.setattr("sys.argv", ["bibucalc", *argv])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["command"] == argv


@pytest.mark.parametrize("argv", [
    ["validate", "G", "M", "BROKEN"],
    ["validate", "NOT_JSON"],
    ["compose", "--left", "M", "--right", "M2"],
    ["principal", "--bibundle", "NOT_JSON"],
    ["check-group", "--spec", "SPEC"],
])
def test_cli_reads_each_input_once(idg, tmp_path, capsys, monkeypatch, argv):
    gpath, mpath = idg
    paths = {"G": gpath, "M": mpath, "M2": str(tmp_path / "idg2.json"), "BROKEN": str(tmp_path / "broken.json"),
             "NOT_JSON": str(tmp_path / "not.json"), "SPEC": str(tmp_path / "spec.json")}
    with open(mpath, "rb") as fh:
        text = fh.read()
    with open(paths["M2"], "wb") as fh:
        fh.write(text)
    d = io.groupoid_to_json(cyclic_groupoid(2))
    d["inv"]["1"] = "0"
    io.save_json(paths["BROKEN"], d)
    with open(paths["NOT_JSON"], "wb") as fh:
        fh.write(b'{"objects": [')
    io.save_json(paths["SPEC"], io.group_spec_to_json(kronecker_finite(2, 1)))
    argv = [paths.get(a, a) for a in argv]
    opened = collections.Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened[file] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    main(argv + ["--json", "--out", str(tmp_path / "out")])
    monkeypatch.undo()
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    assert sorted(inputs) == sorted(a for a in argv if a in paths.values())
    for path, digest in inputs.items():
        assert opened[path] == 1
        with open(path, "rb") as fh:
            assert digest == hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("field, edit, key", [
    ("face", lambda t: t["1"].__setitem__("00", dict(t["1"]["0"])), "00"),
    ("face", lambda t: t.__setitem__("01", t.pop("1")), "01"),
    ("degen", lambda t: t.__setitem__("01", t.pop("1")), "01"),
], ids=["extra-face-index", "face-level-renamed", "degen-level-renamed"])
def test_sset_level_keys_must_be_canonical_decimal(tmp_path, capsys, field, edit, key):
    """A face or degeneracy key with a leading zero names the same integer
    as its canonical spelling; it is refused, naming the field and key,
    instead of replacing (or standing in for) that entry."""
    obj = io.sset_to_json(nerve(poset_category(3), 3))
    assert io.sset_to_json(io.sset_from_json(obj)) == obj
    good = str(tmp_path / "poset3_nerve.json")
    io.save_json(good, obj)
    assert main(["validate", good]) == 0
    edit(obj[field])
    bad = str(tmp_path / "damaged.json")
    io.save_json(bad, obj)
    capsys.readouterr()
    assert main(["validate", bad, "--json"]) == 2
    error = json.loads(capsys.readouterr().out)["verdicts"]["error"]
    assert f"field {field!r}" in error and f"key {key!r}" in error
    with pytest.raises(StructuralError, match="canonical decimal"):
        io.sset_from_json(obj)


@pytest.fixture(scope="module")
def kronecker_4_2_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("kron42")
    assert main(["gen-fixture", "--family", "kronecker_finite", "--n", "4", "--q", "2",
                 "--out", str(root)]) == 0
    return {part: str(root / f"kronecker_4_2_{part}.json") for part in ("groupoid", "mu", "i")}


@pytest.mark.parametrize("argv", [
    ["eval-diagram", "--bind", "x={mu}", "--bind", "x={i}", "x"],
    ["check", "--bind", "M={mu}", "--bind", "M={mu}", "--lhs", "M", "--rhs", "M"],
    ["check", "--bind", "id={i}", "--lhs", "id", "--rhs", "id"],
    *[["eval-diagram", "--bind", f"{name}={{mu}}", "id"] for name in ("tau", "delta", "eps", "ev", "cv")],
], ids=["repeated-eval", "repeated-check", "shadows-id", "shadows-tau", "shadows-delta", "shadows-eps",
        "shadows-ev", "shadows-cv"])
def test_bindings_refuse_a_repeated_or_built_in_name(kronecker_4_2_files, tmp_path, capsys, argv):
    files = kronecker_4_2_files
    argv = [a.format(**files) for a in argv]
    capsys.readouterr()
    code = main([argv[0], "--groupoid", files["groupoid"], *argv[1:], "--out", str(tmp_path), "--json"])
    assert code == 2
    assert "--bind" in json.loads(capsys.readouterr().out)["verdicts"]["error"]


def test_bindings_keep_the_bound_names(kronecker_4_2_files, tmp_path):
    files = kronecker_4_2_files
    assert main(["check", "--groupoid", files["groupoid"], "--bind", f"mu={files['mu']}",
                 "--bind", f"i={files['i']}", "--lhs", "(i * i) ; mu", "--rhs", "mu ; i",
                 "--out", str(tmp_path)]) in (0, 1)
    assert main(["eval-diagram", "--groupoid", files["groupoid"], "--bind", f"M={files['mu']}",
                 "--bind", f"N={files['i']}", "M ; N", "--out", str(tmp_path)]) == 0


def test_diagram_env_refuses_binding_a_built_in_name():
    G = kronecker_finite(2, 1).base
    for name in ("id", "tau", "delta", "eps", "ev", "cv"):
        with pytest.raises(cli.DiagramError, match="built-in"):
            cli.DiagramEnv(G, {name: identity_bibundle(G)})
    assert cli.DiagramEnv(G, {"M": identity_bibundle(G)}).resolve("M").bib is not None
