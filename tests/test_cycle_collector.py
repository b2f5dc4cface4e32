"""check_group, check_coherence and cli.main run with the cycle collector
paused (core.cycle_collector_paused). The pause skips collections that
would reclaim nothing, because nothing these verbs build holds a reference
cycle: a collection right after a verb finds no garbage, on every exit path.
The caller's collector setting comes back however the verb ends.

The no-cycle checks run with the collector off, so that no automatic
collection between the verb and the check can hide a cycle."""
import argparse
import gc
from pathlib import Path

import pytest

from bibucalc import GroupoidHom, StructuralError, io
from bibucalc import cli
from bibucalc.core import cycle_collector_paused
from bibucalc.groups import and_monoid_data, check_coherence, check_group, kronecker_finite

STEM = "kronecker_4_2"


def _set_collector(on: bool) -> None:
    if on:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector switched on or off for the test, and restored after."""
    was = gc.isenabled()
    _set_collector(request.param)
    yield request.param
    _set_collector(was)


@pytest.fixture
def collector_off():
    was = gc.isenabled()
    gc.disable()
    yield
    _set_collector(was)


def test_pause_restores_the_setting_on_every_exit_path(collector):
    with cycle_collector_paused():
        assert not gc.isenabled()
        with cycle_collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled() is collector
    with pytest.raises(ValueError):
        with cycle_collector_paused():
            raise ValueError("inside")
    assert gc.isenabled() is collector
    with cycle_collector_paused():
        gc.enable()  # a block that switches the collector on
    assert gc.isenabled() is collector

    @cycle_collector_paused()
    def seen() -> bool:
        return gc.isenabled()

    assert seen() is False and seen() is False
    assert gc.isenabled() is collector


def test_verbs_restore_the_setting(collector, tmp_path, capsys, monkeypatch):
    assert check_group(kronecker_finite(2, 1)).ok
    assert gc.isenabled() is collector
    with pytest.raises(StructuralError):
        check_coherence(kronecker_finite(2, 1), max_candidates=0)
    assert gc.isenabled() is collector
    with pytest.raises(SystemExit):
        cli.main(["no-such-verb"])
    assert gc.isenabled() is collector
    # check_group inside cli.main: the inner pause ends in the outer one
    assert cli.main(["gen-fixture", "--family", "kronecker_finite", "--n", "2", "--q", "1",
                     "--out", str(tmp_path)]) == 0
    seen = []

    def traced(data):
        seen.append(gc.isenabled())
        report = check_group(data)
        seen.append(gc.isenabled())
        return report

    monkeypatch.setattr(cli, "check_group", traced)
    assert cli.main(["check-group", "--spec", str(tmp_path / "kronecker_2_1.json")]) == 0
    assert seen == [False, False]
    assert gc.isenabled() is collector
    capsys.readouterr()


def test_main_builds_the_parser_before_the_pause(monkeypatch, tmp_path, capsys):
    """Building the parser leaves reference cycles, so a first call in a
    process builds it with the caller's collector still running."""
    seen = []
    add_argument = argparse.ArgumentParser.add_argument

    def recording(self, *args, **kwargs):
        seen.append(gc.isenabled())
        return add_argument(self, *args, **kwargs)

    was = gc.isenabled()
    gc.enable()
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
    cli.build_parser.cache_clear()
    try:
        assert cli.main(["gen-fixture", "--family", "trivial", "--n", "1", "--out", str(tmp_path)]) == 0
        assert gc.isenabled()
    finally:
        cli.build_parser.cache_clear()
        _set_collector(was)
    # every argument of every verb is added with the collector on
    assert len(seen) > 1 and all(seen)
    capsys.readouterr()


@pytest.mark.parametrize("verb, data", [
    (check_coherence, lambda: kronecker_finite(2, 1)),
    (check_coherence, lambda: kronecker_finite(3, 3)),
    (check_group, and_monoid_data),
], ids=["coherence-2-1", "coherence-3-3", "group-and-monoid"])
def test_group_verbs_leave_no_cycles(collector_off, verb, data):
    data = data()
    gc.collect()
    report = verb(data)
    assert report.ok is (verb is check_coherence)
    del report
    assert gc.collect() == 0


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """The (4,2) gen-fixture files, the identity hom of its base, and a file
    that is not JSON."""
    root = tmp_path_factory.mktemp("files")
    assert cli.main(["gen-fixture", "--family", "kronecker_finite", "--n", "4", "--q", "2",
                     "--out", str(root)]) == 0
    G = io.load_typed(str(root / f"{STEM}_groupoid.json"))[1]
    ident = GroupoidHom(G, G, {x: x for x in G.objects}, {g: g for g in G.arrows})
    io.save_json(str(root / "ident_hom.json"), io.hom_to_json(ident))
    (root / "malformed.json").write_text('{"objects": [')
    return root


def _verb_runs(root: Path) -> list[tuple[str, list[str], int]]:
    """(name, argv, exit code): every verb on the fixture files, a failing
    principality with its witness, and the exit-2 paths."""
    f = {k: str(root / f"{STEM}{k}.json") for k in ("", "_groupoid", "_mu", "_i", "_e")}
    spec, g, mu, i = f[""], f["_groupoid"], f["_mu"], f["_i"]
    return [
        ("validate", ["validate", g, mu, spec], 0),
        ("compose", ["compose", "--left", mu, "--right", i], 0),
        ("principal", ["principal", "--bibundle", mu, "--side", "right"], 0),
        ("principal-witness", ["principal", "--bibundle", mu, "--side", "left"], 1),
        ("pairing", ["pairing", "--bibundle", i], 0),
        ("linking", ["linking", "--groupoid", "--bibundle", i], 0),
        ("morita", ["morita", "--bibundle", i], 0),
        ("eval-diagram", ["eval-diagram", "--groupoid", g, "--bind", f"mu={mu}", "(mu * id) ; mu"], 0),
        ("check", ["check", "--groupoid", g, "--bind", f"mu={mu}",
                   "--lhs", "(mu * id) ; mu", "--rhs", "(id * mu) ; mu"], 0),
        ("bundlize", ["bundlize", "--hom", str(root / "ident_hom.json")], 0),
        ("check-group", ["check-group", "--spec", spec], 0),
        ("preinverse", ["preinverse", "--spec", spec], 0),
        ("coherence", ["coherence", "--spec", spec], 0),
        ("kan", ["kan", "--sset", g, "--n", "2", "--i", "1"], 0),
        ("gen-fixture", ["gen-fixture", "--family", "kronecker_finite", "--n", "4", "--q", "2"], 0),
        ("missing-file", ["validate", str(root / "missing.json")], 2),
        ("malformed-json", ["principal", "--bibundle", str(root / "malformed.json")], 2),
    ]


@pytest.mark.parametrize("name", [run[0] for run in _verb_runs(Path())])
def test_cli_verbs_leave_no_cycles(collector_off, fixture_files, tmp_path, capsys, name):
    _, argv, code = next(run for run in _verb_runs(fixture_files) if run[0] == name)
    gc.collect()
    assert cli.main(argv + ["--json", "--out", str(tmp_path)]) == code
    assert gc.collect() == 0
    assert not gc.isenabled()
    capsys.readouterr()


def test_cli_runs_cover_every_verb():
    verbs = {argv[0] for _, argv, _ in _verb_runs(Path())}
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "verb")
    assert verbs == set(subparsers.choices)
