import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from bibucalc import io, simplicial
from bibucalc.core import (
    StructuralError,
    as_category,
    cyclic_groupoid,
    finset,
    pair_groupoid,
    trivial_groupoid,
    validate_category,
)
from bibucalc.generators import random_groupoid
from bibucalc.simplicial import (
    HornFiller,
    TruncatedSSet,
    classify,
    horn_set,
    kan_check,
    nerve,
    poset_category,
    truncated_free_monoid,
    validate_sset,
)
from oracles import classify_two_calls, horn_set_scan, nerve_scan, validate_sset_scan


def test_nerve_of_discrete_groupoid_is_constant():
    X = nerve(trivial_groupoid(2), 3)
    assert [len(L) for L in X.levels] == [2, 2, 2, 2]
    assert validate_sset(X).ok


def test_nerve_chain_counts():
    X = nerve(cyclic_groupoid(2), 3)
    assert [len(L) for L in X.levels] == [1, 2, 4, 8]
    X = nerve(pair_groupoid(2), 2)
    assert [len(L) for L in X.levels] == [2, 4, 8]


def test_nerve_faces_compose_adjacent_arrows():
    G = cyclic_groupoid(3)
    X = nerve(G, 2)
    # the 2-chain (1, 1) has inner face the composite 2 and outer faces 1
    two_chain = "(1,1)"
    assert X.d(2, 0, two_chain) == "1"
    assert X.d(2, 2, two_chain) == "1"
    assert X.d(2, 1, two_chain) == G.comp[("1", "1")]


def test_nerve_degeneracies_insert_units():
    G = cyclic_groupoid(3)
    X = nerve(G, 3)
    assert X.s(0, 0, "*") == "0"
    assert X.s(1, 0, "1") == "(0,1)"
    assert X.s(1, 1, "1") == "(1,0)"


def test_nerve_requires_level_two():
    with pytest.raises(StructuralError):
        nerve(cyclic_groupoid(2), 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_nerve_of_random_groupoid_satisfies_simplicial_identities(seed):
    G = random_groupoid(random.Random(seed), max_objects=2, max_isotropy=2, n_comps=1)
    X = nerve(G, 3)
    assert validate_sset(X).ok


def test_validate_sset_catches_broken_face():
    X = nerve(cyclic_groupoid(2), 2)
    face = {k: dict(v) for k, v in X.face.items()}
    key = X.levels[2].elements[0]
    face[(2, 1)][key] = X.levels[1].elements[(X.levels[1].index(face[(2, 1)][key]) + 1) % 2]
    broken = TruncatedSSet(X.levels, face, X.degen)
    rep = validate_sset(broken)
    assert not rep.ok
    assert rep.first().kind == "axiom"


def test_horn_counts():
    assert len(horn_set(nerve(cyclic_groupoid(2), 3), 2, 1)) == 4
    assert len(horn_set(nerve(trivial_groupoid(1), 3), 2, 0)) == 1


def test_poset_horn_enumeration():
    P = nerve(poset_category(2), 3)
    hs = horn_set(P, 2, 0)
    # pairs of edges out of a common vertex: 2x2 at the bottom, 1 at the top
    assert len(hs) == 5
    for h in hs:
        a, b = h.face(1), h.face(2)
        assert P.d(1, 1, a) == P.d(1, 1, b)


def test_horn_set_range_errors():
    X = nerve(cyclic_groupoid(2), 2)
    with pytest.raises(StructuralError):
        horn_set(X, 3, 0)
    with pytest.raises(StructuralError):
        horn_set(X, 2, 3)


def test_horn_faces_of_simplices_are_horns():
    X = nerve(pair_groupoid(2), 3)
    for n in (2, 3):
        for i in range(n + 1):
            horns = {h.faces for h in horn_set(X, n, i)}
            for x in X.levels[n]:
                restriction = tuple((j, X.d(n, j, x)) for j in range(n + 1) if j != i)
                assert restriction in horns


@pytest.mark.parametrize("n", [2, 3, 4])
def test_groupoid_nerve_is_strict_kan(n):
    X = nerve(cyclic_groupoid(n), 3)
    for m in (2, 3):
        for i in range(m + 1):
            assert kan_check(X, m, i, strict=True).ok


def test_pair_groupoid_nerve_is_strict_kan():
    X = nerve(pair_groupoid(3), 3)
    for m in (2, 3):
        for i in range(m + 1):
            assert kan_check(X, m, i, strict=True).ok


def test_poset_nerve_inner_kan_outer_fails():
    P = nerve(poset_category(2), 3)
    assert kan_check(P, 2, 1, strict=True).ok
    assert kan_check(P, 3, 1, strict=True).ok
    assert kan_check(P, 3, 2, strict=True).ok
    rep = kan_check(P, 2, 0)
    assert not rep.ok
    assert rep.unfilled is not None
    # the witness horn pairs the identity at 0 with the arrow 0 -> 1
    assert rep.unfilled.face(1) == "(0,0)"
    assert rep.unfilled.face(2) == "(1,0)"


def test_truncated_free_monoid_kan_pattern():
    C = truncated_free_monoid(4)
    assert validate_category(C).ok
    F = nerve(C, 3)
    assert kan_check(F, 2, 1, strict=True).ok
    assert kan_check(F, 3, 1, strict=True).ok
    assert kan_check(F, 3, 2, strict=True).ok
    rep = kan_check(F, 2, 0)
    assert not rep.ok
    assert rep.unfilled is not None


def test_strict_failure_reports_overfilled_horn():
    # collapse two arrows onto the same faces by doctoring a nerve: the
    # two-object pair groupoid already has strictness, so instead check a
    # weakly-but-not-strictly fillable horn fails only the strict test
    X = nerve(pair_groupoid(2), 3)
    rep = kan_check(X, 2, 1, strict=True)
    assert rep.ok
    # degenerate example: a nerve where X_2 has duplicate restrictions cannot
    # arise from a category, so fake one by adding a copied simplex level
    levels = list(X.levels)
    face = {k: dict(v) for k, v in X.face.items()}
    degen = {k: dict(v) for k, v in X.degen.items()}
    dup = "dup"
    src = levels[3].elements[0]
    levels[3] = finset(list(levels[3].elements) + [dup])
    for i in range(4):
        face[(3, i)][dup] = face[(3, i)][src]
    fake = TruncatedSSet(tuple(levels), face, degen)
    rep = kan_check(fake, 3, 1, strict=True)
    assert not rep.ok
    assert rep.overfilled is not None
    horn, fillers = rep.overfilled
    assert set(fillers) == {src, dup}
    assert kan_check(fake, 3, 1, strict=False).ok


def test_classify_patterns():
    c = classify(nerve(cyclic_groupoid(3), 3))
    assert c.is_nerve_of_category
    assert c.is_1_groupoid_nerve
    assert c.single_vertex
    assert c.group_candidates and min(c.group_candidates) == 1

    c = classify(nerve(poset_category(2), 3))
    assert c.is_nerve_of_category
    assert not c.is_1_groupoid_nerve
    assert not c.group_candidates

    c = classify(nerve(pair_groupoid(2), 3))
    assert c.is_nerve_of_category
    assert c.is_1_groupoid_nerve
    assert not c.single_vertex
    assert not c.group_candidates


def test_classify_needs_level_three():
    with pytest.raises(StructuralError):
        classify(nerve(cyclic_groupoid(2), 2))


def test_nerve_accepts_plain_categories():
    C = as_category(cyclic_groupoid(2))
    X = nerve(C, 3)
    assert [len(L) for L in X.levels] == [1, 2, 4, 8]


# ---------------------------------------------------------------------------
# differentials against the scanning oracles


def _tables(tables) -> list:
    return [(key, list(t.items())) for key, t in tables.items()]


def _assert_same_nerve(X, Y) -> None:
    assert X.levels == Y.levels
    assert _tables(X.face) == _tables(Y.face)
    assert _tables(X.degen) == _tables(Y.degen)


def _assert_horns_match_scan(X, k: int, monkeypatch) -> None:
    reports = {}
    for n in range(2, k + 1):
        for i in range(n + 1):
            assert horn_set(X, n, i) == horn_set_scan(X, n, i)
            reports[(n, i)] = [kan_check(X, n, i, strict) for strict in (False, True)]
    monkeypatch.setattr(simplicial, "horn_set", horn_set_scan)
    for (n, i), got in reports.items():
        assert got == [kan_check(X, n, i, strict) for strict in (False, True)]


def _poset_nerve_from_file():
    return io.sset_from_json(io.sset_to_json(nerve(poset_category(3), 3)))


FIXED_SSETS = {
    "poset3": (lambda: nerve(poset_category(3), 4), 4),
    "monoid4": (lambda: nerve(truncated_free_monoid(4), 4), 4),
    "poset3-stored": (_poset_nerve_from_file, 3),
}


@pytest.mark.parametrize("name", FIXED_SSETS)
def test_horn_set_matches_scan_on_fixed_nerves(name, monkeypatch):
    build, k = FIXED_SSETS[name]
    _assert_horns_match_scan(build(), k, monkeypatch)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([3, 4]))
def test_horn_set_matches_scan_on_random_groupoid_nerves(seed, k):
    G = random_groupoid(random.Random(seed), max_objects=2, max_isotropy=2)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_horns_match_scan(nerve(G, k), k, monkeypatch)


@pytest.mark.parametrize("a, i", [(0, 1), (0, 2), (1, 0), (1, 1)])
def test_undefined_face_is_a_structural_error(a, i):
    X = nerve(poset_category(2), 3)
    face = {key: dict(t) for key, t in X.face.items()}
    x = X.levels[1].elements[-1]
    del face[(1, a)][x]
    broken = TruncatedSSet(X.levels, face, X.degen)
    message = f"face d_{a} undefined on level 1 at {x!r}"
    for check in (horn_set, horn_set_scan, kan_check):
        with pytest.raises(StructuralError, match=re.escape(message)):
            check(broken, 2, i)


@pytest.mark.parametrize("name, C", [
    ("poset3", poset_category(3)),
    ("monoid4", truncated_free_monoid(4)),
    ("cyclic3", cyclic_groupoid(3)),
    ("pair2", pair_groupoid(2)),
])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_nerve_matches_scan(name, C, k):
    _assert_same_nerve(nerve(C, k), nerve_scan(C, k))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([3, 4]))
def test_nerve_matches_scan_on_random_groupoids(seed, k):
    G = random_groupoid(random.Random(seed), max_objects=3, max_isotropy=2)
    _assert_same_nerve(nerve(G, k), nerve_scan(G, k))


def test_nerve_refuses_a_composite_off_the_chains():
    C = poset_category(2)
    comp = dict(C.comp)
    comp[("(1,1)", "(1,0)")] = "zz"
    with pytest.raises(StructuralError, match="no chain or composite"):
        nerve(type(C)(C.objects, C.arrows, C.l, C.r, comp, C.unit), 3)


def test_classify_asks_for_each_horn_set_once(monkeypatch):
    X = nerve(poset_category(3), 3)
    calls = []

    def counted(X, n, i):
        calls.append((n, i))
        return horn_set(X, n, i)

    monkeypatch.setattr(simplicial, "horn_set", counted)
    classify(X, 3)
    assert len(calls) == 7
    assert len(set(calls)) == 7


CLASSIFIED = {
    **FIXED_SSETS,
    "cyclic3": (lambda: nerve(cyclic_groupoid(3), 3), 3),
    "poset2": (lambda: nerve(poset_category(2), 3), 3),
    "pair2": (lambda: nerve(pair_groupoid(2), 3), 3),
}


@pytest.mark.parametrize("name", CLASSIFIED)
def test_classify_matches_two_call_oracle(name):
    build, k = CLASSIFIED[name]
    X = build()
    for level in range(3, k + 1):
        assert classify(X, level) == classify_two_calls(X, level)


# corrupted copies: one face value moved to another simplex of its level, one
# degeneracy value changed, one face entry deleted


def _copy_tables(X):
    return {key: dict(t) for key, t in X.face.items()}, {key: dict(t) for key, t in X.degen.items()}


def _moved_face(X, rng):
    face, degen = _copy_tables(X)
    n, i = rng.choice(sorted(face))
    x = rng.choice(X.levels[n].elements)
    others = [y for y in X.levels[n - 1].elements if y != face[(n, i)][x]]
    if others:
        face[(n, i)][x] = rng.choice(others)
    return TruncatedSSet(X.levels, face, degen)


def _changed_degeneracy(X, rng):
    face, degen = _copy_tables(X)
    n, j = rng.choice(sorted(degen))
    x = rng.choice(X.levels[n].elements)
    others = [y for y in X.levels[n + 1].elements if y != degen[(n, j)][x]]
    if others:
        degen[(n, j)][x] = rng.choice(others)
    return TruncatedSSet(X.levels, face, degen)


def _deleted_face(X, rng):
    face, degen = _copy_tables(X)
    n, i = rng.choice(sorted(face))
    del face[(n, i)][rng.choice(X.levels[n].elements)]
    return TruncatedSSet(X.levels, face, degen)


CORRUPTIONS = [_moved_face, _changed_degeneracy, _deleted_face]


def _assert_validation_matches_scan(X, rng) -> None:
    assert validate_sset(X) == validate_sset_scan(X)
    for corrupt in CORRUPTIONS:
        broken = corrupt(X, rng)
        assert validate_sset(broken) == validate_sset_scan(broken)


@pytest.mark.parametrize("name", CLASSIFIED)
def test_validate_sset_matches_scan_on_fixed_nerves(name):
    build, _ = CLASSIFIED[name]
    X = build()
    for seed in range(10):
        _assert_validation_matches_scan(X, random.Random(seed))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 3, 4]))
def test_validate_sset_matches_scan_on_random_groupoid_nerves(seed, k):
    rng = random.Random(seed)
    G = random_groupoid(rng, max_objects=2, max_isotropy=2)
    _assert_validation_matches_scan(nerve(G, k), rng)


def test_corruptions_are_seen():
    X = nerve(poset_category(3), 3)
    rng = random.Random(0)
    for corrupt in CORRUPTIONS:
        assert not validate_sset(corrupt(X, rng)).ok
