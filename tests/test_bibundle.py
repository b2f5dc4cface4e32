import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from bibucalc import (
    StructuralError,
    cyclic_groupoid,
    pair_groupoid,
    trivial_groupoid,
)
from bibucalc.bibundle import (
    NoPairing,
    Pairing,
    _orbit_pass,
    bibundle_from_tables,
    check_pairing_axioms,
    check_principal,
    compute_pairing,
    validate_bibundle,
)
from bibucalc.calculus import (
    bundlize,
    cv_bibundle,
    diagonal_bibundle,
    ev_bibundle,
    identity_bibundle,
    opposite_bibundle,
    terminal_bibundle,
)
from bibucalc.generators import random_bibundle, random_right_principal_bibundle
from bibucalc.groups import kronecker_finite
from bibucalc.labels import tup, untup

from oracles import (
    orbit_pass_scan,
    pairing_search,
    pairing_solutions,
    principality_scan,
    stabiliser_scan,
    validate_bibundle_scan,
)


@pytest.fixture(scope="module")
def cyc3():
    return cyclic_groupoid(3)


def test_identity_bibundle_is_biprincipal(cyc3):
    M = identity_bibundle(cyc3)
    assert validate_bibundle(M).ok
    assert check_principal(M, "right").ok
    assert check_principal(M, "left").ok


def test_generators_validate():
    for G in (trivial_groupoid(2), pair_groupoid(3), cyclic_groupoid(4)):
        for M in (
            identity_bibundle(G),
            diagonal_bibundle(G),
            terminal_bibundle(G),
            ev_bibundle(G),
            cv_bibundle(G),
        ):
            assert validate_bibundle(M).ok, (G, M)


def test_terminal_bibundle_right_principal_not_generally_left():
    G = cyclic_groupoid(2)
    e = terminal_bibundle(G)
    assert check_principal(e, "right").ok
    # the left action of Cyc(2) on the single object is not free
    left = check_principal(e, "left")
    assert not left.free


def test_ev_cv_not_right_principal_over_cyc2():
    G = cyclic_groupoid(2)
    ev = ev_bibundle(G)
    rep = check_principal(ev, "right")
    assert rep.surjective and not rep.ok
    cv = cv_bibundle(G)
    rep2 = check_principal(cv, "right")
    assert not rep2.free
    assert rep2.witnesses.get("free") is not None


def test_cv_is_opposite_of_ev():
    for G in (cyclic_groupoid(3), pair_groupoid(2)):
        assert cv_bibundle(G) == opposite_bibundle(ev_bibundle(G))


def test_action_domain_errors(cyc3):
    M = identity_bibundle(cyc3)
    with pytest.raises(StructuralError):
        M.act_left("0", "nope")
    e = terminal_bibundle(pair_groupoid(2))
    with pytest.raises(StructuralError):
        # r(g) must equal the moment of the point
        e.act_left(tup("0", "1"), "0")


def test_validate_catches_broken_action(cyc3):
    M = identity_bibundle(cyc3)
    lt = M.left_table()
    rt = M.right_table()
    lt[("1", "1")] = "1"  # should be 2
    broken = bibundle_from_tables(
        cyc3, cyc3, M.carrier, dict(M.lmap), dict(M.rmap), lt, rt
    )
    rep = validate_bibundle(broken)
    assert not rep.ok
    assert any(v.kind == "axiom" for v in rep.entries)


def test_pairing_of_identity_is_inverse_times(cyc3):
    M = identity_bibundle(cyc3)
    p = compute_pairing(M)
    assert isinstance(p, Pairing)
    for g in cyc3.arrows:
        for g2 in cyc3.arrows:
            assert p.table[(g, g2)] == cyc3.comp[(cyc3.inv[g], g2)]
    assert check_pairing_axioms(M, p).ok


def test_pairing_of_bundlization_is_quotient_of_legs():
    from bibucalc import GroupoidHom

    G = pair_groupoid(2)
    H = cyclic_groupoid(4)
    # constant hom G -> H: collapse everything to the unit
    const = GroupoidHom(G, H, {x: "*" for x in G.objects}, {g: "0" for g in G.arrows})
    M = bundlize(const)
    p = compute_pairing(M)
    assert isinstance(p, Pairing)
    for m in M.carrier:
        x, h = untup(m)
        for m2 in M.carrier:
            x2, h2 = untup(m2)
            if x != x2:
                continue
            assert p.table[(m, m2)] == H.comp[(H.inv[h], h2)]
    assert check_pairing_axioms(M, p).ok


def test_pairing_refused_with_freeness_witness():
    G = cyclic_groupoid(2)
    cv = cv_bibundle(G)
    res = compute_pairing(cv)
    assert isinstance(res, NoPairing)
    assert res.reason == "free"
    m, h = res.witness
    assert cv.act_right(m, h) == m


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_pairing_exists_iff_free_and_transitive(seed):
    rng = random.Random(seed)
    M = random_bibundle(rng)
    assert validate_bibundle(M).ok
    rep = check_principal(M, "right")
    res = compute_pairing(M)
    solutions = pairing_solutions(M)
    if rep.free and rep.transitive:
        assert isinstance(res, Pairing)
        assert check_pairing_axioms(M, res).ok
        assert solutions == [dict(res.table)]
    else:
        assert isinstance(res, NoPairing)
        assert solutions == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_right_principal_bundles_are_right_principal(seed):
    rng = random.Random(seed)
    M = random_right_principal_bibundle(rng)
    assert validate_bibundle(M).ok
    assert check_principal(M, "right").ok


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_random_bibundles_validate_and_report_witnesses(seed):
    rng = random.Random(seed)
    M = random_bibundle(rng)
    assert validate_bibundle(M).ok
    rep = check_principal(M, "right")
    if not rep.surjective:
        x = rep.witnesses["surjective"]
        assert all(M.lmap[m] != x for m in M.carrier)
    if not rep.free:
        m, h = rep.witnesses["free"]
        assert M.act_right(m, h) == m
        assert h != M.right_groupoid.unit[M.rmap[m]]
    if not rep.transitive:
        m, m0 = rep.witnesses["transitive"]
        H = M.right_groupoid
        assert all(M.act_right(m, h) != m0 for h in H.l_fiber(M.rmap[m]))


def test_empty_fiber_is_vacuously_transitive():
    G = trivial_groupoid(2)
    H = trivial_groupoid(1)
    # carrier over object 0 only; object 1 has an empty fiber
    M = bibundle_from_tables(
        G, H, ["m"], {"m": "0"}, {"m": "0"},
        {("0", "m"): "m"}, {("m", "0"): "m"},
    )
    assert validate_bibundle(M).ok
    rep = check_principal(M, "right")
    assert rep.transitive and rep.free and not rep.surjective
    assert "empty" in rep.note


def _sampled_bundle(seed: int, principal: bool):
    rng = random.Random(seed)
    if principal:
        return random_right_principal_bibundle(rng, max_objects=3, max_isotropy=3)
    return random_bibundle(rng, max_objects=3, max_isotropy=3)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.sampled_from(["right", "left"]))
def test_check_principal_matches_scan(seed, principal, side):
    M = _sampled_bundle(seed, principal)
    got, want = check_principal(M, side), principality_scan(M, side)
    assert got == want
    assert list(got.witnesses.items()) == list(want.witnesses.items())


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.sampled_from(["right", "left"]))
def test_compute_pairing_matches_search(seed, principal, side):
    M = _sampled_bundle(seed, principal)
    if side == "left":
        M = opposite_bibundle(M)
    got, want = compute_pairing(M), pairing_search(M)
    assert got == want
    if isinstance(got, Pairing):
        assert list(got.table.items()) == list(want.table.items())


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.sampled_from(["right", "left"]))
def test_orbit_pass_stabilisers_match_scan(seed, principal, side):
    M = _sampled_bundle(seed, principal)
    orbits = _orbit_pass(M, side)
    assert list(orbits.stabilisers.items()) == list(stabiliser_scan(M, side).items())
    assert orbits.stabiliser == next(((m, ks[0]) for m, ks in orbits.stabilisers.items()), None)
    assert _orbit_pass(M, side) is orbits


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.sampled_from(["right", "left"]))
def test_orbit_pass_matches_all_arrows_scan(seed, principal, side):
    M = _sampled_bundle(seed, principal)
    orbits = _orbit_pass(M, side)
    reach, stabilisers = orbit_pass_scan(M, side)
    assert list(orbits.reach.items()) == list(reach.items())
    assert list(orbits.stabilisers.items()) == list(stabilisers.items())


@pytest.mark.parametrize("make", [
    lambda: identity_bibundle(trivial_groupoid(3)),
    lambda: kronecker_finite(4, 4).mu,
])
def test_orbit_pass_makes_no_action_call_over_a_discrete_base(make):
    M = make()
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    M = dataclasses.replace(M, left_fn=counted(M.left_fn), right_fn=counted(M.right_fn))
    for side in ("right", "left"):
        orbits = _orbit_pass(M, side)
        assert len(orbits.reach) == len(M.carrier) and not orbits.stabilisers
    assert calls == []


def test_stabiliser_found_past_the_first_orbit_of_a_fiber():
    # Z/2 acting on the right of one lmap fiber: 1 swaps "a" and "b" and
    # fixes "c", so the fiber's first orbit is free and its second is not
    G, H = trivial_groupoid(1), cyclic_groupoid(2)
    carrier = ["a", "b", "c"]
    right = {("a", "0"): "a", ("a", "1"): "b", ("b", "0"): "b", ("b", "1"): "a",
             ("c", "0"): "c", ("c", "1"): "c"}
    M = bibundle_from_tables(
        G, H, carrier, {m: "0" for m in carrier}, {m: "*" for m in carrier},
        {("0", m): m for m in carrier}, right,
    )
    assert validate_bibundle(M).ok
    rep = check_principal(M, "right")
    assert rep == principality_scan(M, "right")
    assert rep.witnesses == {"free": ("c", "1"), "transitive": ("c", "a")}
    assert compute_pairing(M) == NoPairing("free", ("c", "1"))


def _damaged_tables(rng, M, damage):
    """M's action tables, each listed in a shuffled order, with one kind of
    damage: an action value replaced, two values of one table swapped, or a
    row dropped."""
    tables = []
    for table in (M.left_table(), M.right_table()):
        items = list(table.items())
        rng.shuffle(items)
        tables.append(dict(items))
    table = tables[rng.randrange(2)]
    keys = list(table)
    if damage == "replace":
        table[rng.choice(keys)] = rng.choice(M.carrier.elements)
    elif damage == "swap":
        a, b = rng.choice(keys), rng.choice(keys)
        table[a], table[b] = table[b], table[a]
    elif damage == "drop":
        del table[rng.choice(keys)]
    return bibundle_from_tables(M.left_groupoid, M.right_groupoid, M.carrier, dict(M.lmap), dict(M.rmap), *tables)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.sampled_from(["none", "replace", "swap", "drop"]))
def test_validate_bibundle_matches_scan_oracle(seed, principal, damage):
    rng = random.Random(seed)
    if principal:
        M = random_right_principal_bibundle(rng, max_objects=2, max_isotropy=3)
    else:
        M = random_bibundle(rng, max_objects=2, max_isotropy=3)
    assert validate_bibundle(M).entries == validate_bibundle_scan(M).entries == ()
    N = _damaged_tables(rng, M, damage)
    assert validate_bibundle(N).entries == validate_bibundle_scan(N).entries


def test_validate_bibundle_reports_missing_action_rows(cyc3):
    M = identity_bibundle(cyc3)
    left, right = M.left_table(), M.right_table()
    del left[("2", "1")], left[("1", "0")], right[("2", "2")]
    N = bibundle_from_tables(cyc3, cyc3, M.carrier, dict(M.lmap), dict(M.rmap), left, right)
    rep = validate_bibundle(N)
    # carrier x fiber order on each side, left before right
    assert [(v.kind, v.code, v.witness) for v in rep.entries] == [
        ("structural", "left-act-missing", ("1", "0")),
        ("structural", "left-act-missing", ("2", "1")),
        ("structural", "right-act-missing", ("2", "2")),
    ]
    assert rep.entries == validate_bibundle_scan(N).entries
