import dataclasses
import itertools
import random
from collections import Counter

import pytest

from bibucalc import calculus, diagram
from bibucalc.bibundle import PrincipalityReport, validate_bibundle
from bibucalc.calculus import (
    IsoWitness,
    all_isos,
    chain_witnesses,
    compose,
    find_iso,
    identity_bibundle,
    opposite_bibundle,
    tensor_bibundle,
    validate_iso,
)
from bibucalc.core import StructuralError, one_object_groupoid, power_groupoid, validate_groupoid
from bibucalc.diagram import check_identity, evaluate
from bibucalc.groups import (
    PREINVERSE_EXPR,
    CrossedModuleIncl,
    StackyGroupData,
    _CoherenceLoops,
    _loop_closes,
    and_monoid_data,
    check_bimonoid,
    check_coherence,
    check_group,
    check_monoid,
    cyclic_ambient,
    kronecker_finite,
    plain_group_data,
    preinverse,
    two_group_from_crossed_module,
    validate_crossed_module,
)

from bibucalc.generators import random_bibundle

from oracles import bi_orbits_scan, bz_data, encoded_arrow_labels, iso_search_dfs, loop_closes_scan

KRONECKER_PAIRS = [(2, 1), (2, 2), (3, 1), (3, 3), (4, 2)]


def test_kronecker_fixture_validates():
    data = kronecker_finite(2, 1)
    assert validate_groupoid(data.base).ok
    assert validate_bibundle(data.mu).ok
    assert validate_bibundle(data.e).ok
    assert validate_bibundle(data.i).ok
    # the base is the action groupoid of Z/2 on itself: 2 objects, 4 arrows
    assert len(data.base.objects) == 2
    assert len(data.base.arrows) == 4


@pytest.mark.parametrize("n,q", KRONECKER_PAIRS)
def test_kronecker_is_monoid(n, q):
    rep = check_monoid(kronecker_finite(n, q))
    assert rep.ok, (rep.associative.reason, rep.left_unital.reason, rep.right_unital.reason)


@pytest.mark.parametrize("n,q", [(2, 1), (3, 1), (4, 2)])
def test_kronecker_is_bimonoid(n, q):
    rep = check_bimonoid(kronecker_finite(n, q))
    assert rep.ok


@pytest.mark.parametrize("n,q", KRONECKER_PAIRS)
def test_kronecker_is_group(n, q):
    rep = check_group(kronecker_finite(n, q))
    assert rep.monoid.ok
    assert rep.invertible.ok
    assert rep.antipode is not None
    assert rep.antipode.ok
    assert rep.ok


def test_preinverse_is_inversion_for_plain_group():
    data = plain_group_data(3)
    s = preinverse(data)
    assert validate_bibundle(s).ok
    # for an honest group the preinverse bundle is the inversion bundle
    assert find_iso(data.env().wire(s).bib, data.env().resolve("i").bib) is not None


def test_preinverse_expression_is_fixed():
    assert PREINVERSE_EXPR == "(cv * id * e) ; (id * mu * id) ; (id * ev)"


def test_and_monoid_is_monoid_but_not_group():
    data = and_monoid_data()
    assert check_monoid(data).ok
    rep = check_group(data)
    assert not rep.ok
    assert not rep.invertible.ok
    assert rep.antipode is None
    fail = rep.invertible.failure
    assert isinstance(fail, PrincipalityReport)
    assert not fail.surjective


@pytest.mark.parametrize("n,q", [(2, 1), (3, 1), (4, 2)])
def test_coherence_loops_close(n, q):
    rep = check_coherence(kronecker_finite(n, q))
    assert rep.associator_coherent
    assert rep.units_coherent
    assert rep.ok
    assert rep.attempts >= 1
    for w in (rep.associator, rep.left_unitor, rep.right_unitor):
        assert w is not None
        assert validate_iso(w).ok


@pytest.mark.parametrize("bound", [0, -1])
def test_coherence_refuses_a_candidate_bound_below_one(bound):
    with pytest.raises(StructuralError, match="max_candidates must be at least 1"):
        check_coherence(kronecker_finite(2, 1), max_candidates=bound)
    assert check_coherence(kronecker_finite(2, 1), max_candidates=1).attempts == 2
    # a bound past what islice takes is no bound
    assert check_coherence(kronecker_finite(2, 1), max_candidates=10**30).attempts == 2


# the fixtures the loop closure is driven on: BZ/n, whose loops have
# candidates that fail, and two Kronecker fixtures, whose only candidates
# close; each with the positions, in search order, of the associator
# candidates that close the reassociation loop out of how many, and of the
# unitor pairs that close the unit loop on the first closing associator
LOOP_FIXTURES = {
    "bz2": (lambda: bz_data(2), ([0], 2), ([0, 3], 4)),
    "bz3": (lambda: bz_data(3), ([0], 3), ([0, 4, 8], 9)),
    "kronecker-2-1": (lambda: kronecker_finite(2, 1), ([0], 1), ([0], 1)),
    "kronecker-4-2": (lambda: kronecker_finite(4, 2), ([0], 1), ([0], 1)),
}


def _closing(paths: list) -> tuple[list[int], list[int]]:
    """The positions of the closing candidates under the bi-orbit closure
    and under the full scan."""
    return ([k for k, p in enumerate(paths) if _loop_closes(*p)],
            [k for k, p in enumerate(paths) if loop_closes_scan(*p)])


@pytest.mark.parametrize("name", LOOP_FIXTURES)
def test_loop_closure_matches_the_full_scan_on_every_candidate(name):
    make, (assoc_closing, assoc_count), (unit_closing, unit_count) = LOOP_FIXTURES[name]
    loops = _CoherenceLoops(make())
    associators = list(loops.associators(64))
    assert len(associators) == assoc_count
    assert _closing([loops.reassociation(a) for a in associators]) == (assoc_closing, assoc_closing)
    associator = associators[assoc_closing[0]]
    pairs = list(loops.unitor_pairs(64))
    assert len(pairs) == unit_count
    assert _closing([loops.unit(associator, *p) for p in pairs]) == (unit_closing, unit_closing)


@pytest.mark.parametrize("n", [2, 3])
def test_bz_loops_close_on_fewer_points_than_their_start(n):
    """BZ/n's base is not discrete, so the closure above compares points,
    not whole tables: one per bi-orbit, fewer than the start holds."""
    data = bz_data(n)
    loops = _CoherenceLoops(data)
    associator = next(loops.associators(1))
    for left, _ in (loops.reassociation(associator), loops.unit(associator, *next(loops.unitor_pairs(1)))):
        start = left[0].source
        assert len(calculus._bi_orbit_reps(start)) < len(start.carrier)
    rep = check_coherence(data)
    assert rep.ok and rep.attempts == 2


@pytest.mark.parametrize("n", [2, 3])
def test_an_associator_twisted_by_an_automorphism_fails_both_closures(n):
    loops = _CoherenceLoops(bz_data(n))
    associator = next(loops.associators(1))
    X2 = associator.target
    twists = [phi for phi in all_isos(X2, X2) if any(k != v for k, v in phi.forward.items())]
    assert len(twists) == n - 1
    for phi in twists:
        paths = loops.reassociation(chain_witnesses(associator, phi))
        assert not _loop_closes(*paths)
        assert not loop_closes_scan(*paths)


def _loop_edges(loops: _CoherenceLoops, associator: IsoWitness) -> list[IsoWitness]:
    """Every edge of both loops: those of the paths on the first candidates,
    and the candidate-free edges the loops are built from; an edge and its
    inverse, which shares its maps, once."""
    unitors = next(loops.unitor_pairs(1))
    edges = [w for paths in (loops.reassociation(associator), loops.unit(associator, *unitors))
             for path in paths for w in path]
    edges += [w for w in vars(loops).values() if isinstance(w, IsoWitness)]
    edges += [w for w in loops._unit_loop() if isinstance(w, IsoWitness)]
    unique = {frozenset((id(w.forward), id(w.backward))): w for w in edges}
    return list(unique.values())


@pytest.mark.parametrize("make", [lambda: kronecker_finite(2, 1), lambda: kronecker_finite(4, 2),
                                  lambda: bz_data(3)], ids=["kronecker-2-1", "kronecker-4-2", "bz3"])
def test_every_loop_edge_is_an_iso_when_read_in_full(make):
    """Each edge's forward and backward point maps, read in full, are
    inverse biequivariant bijections, whatever the closure compares."""
    loops = _CoherenceLoops(make())
    edges = _loop_edges(loops, next(loops.associators(1)))
    assert len(edges) >= 30
    for w in edges:
        assert validate_iso(w).ok


def test_closing_the_loops_fills_single_entries(monkeypatch):
    """At Kronecker (2,1) each loop's start is one bi-orbit: closing the
    loops looks points up through the edges' point maps and reads none of
    them in full."""
    full_reads, lookups = [], []
    entries, entry = calculus._PointMap._entries, calculus._PointMap._entry

    def spied_entries(table):
        full_reads.append(table)
        return entries(table)

    def spied_entry(table, x):
        lookups.append(x)
        return entry(table, x)

    monkeypatch.setattr(calculus._PointMap, "_entries", spied_entries)
    monkeypatch.setattr(calculus._PointMap, "_entry", spied_entry)
    rep = check_coherence(kronecker_finite(2, 1))
    assert rep.ok and rep.attempts == 2
    assert full_reads == []
    assert 0 < len(lookups) < 100


def test_coherence_for_degenerate_group():
    rep = check_coherence(plain_group_data(4))
    assert rep.ok


def test_crossed_module_validation():
    assert validate_crossed_module(CrossedModuleIncl(cyclic_ambient(4), ("0", "2"))) == []
    assert validate_crossed_module(CrossedModuleIncl(cyclic_ambient(6), ("0", "2", "4"))) == []
    probs = validate_crossed_module(CrossedModuleIncl(cyclic_ambient(4), ("0", "1")))
    assert any("closed" in p for p in probs)
    probs = validate_crossed_module(CrossedModuleIncl(cyclic_ambient(4), ("2",)))
    assert any("unit" in p for p in probs)
    probs = validate_crossed_module(CrossedModuleIncl(cyclic_ambient(4), ("0", "0")))
    assert any("distinct" in p for p in probs)


def _symmetric3():
    # r^a s^b with r^3 = s^2 = e and s r = r^2 s
    els = [f"r{a}s{b}" for a in range(3) for b in range(2)]
    table = {}
    for a in range(3):
        for b in range(2):
            for c in range(3):
                for d in range(2):
                    aa = (a + (c if b == 0 else -c)) % 3
                    table[(f"r{a}s{b}", f"r{c}s{d}")] = f"r{aa}s{(b + d) % 2}"
    return one_object_groupoid(els, table)


def test_crossed_module_rejects_non_normal_subgroup():
    S3 = _symmetric3()
    assert validate_groupoid(S3).ok
    probs = validate_crossed_module(CrossedModuleIncl(S3, ("r0s0", "r0s1")))
    assert any("normal" in p for p in probs)
    with pytest.raises(StructuralError):
        two_group_from_crossed_module(CrossedModuleIncl(S3, ("r0s0", "r0s1")))
    # the rotation subgroup is normal and gives a group object
    assert validate_crossed_module(
        CrossedModuleIncl(S3, ("r0s0", "r1s0", "r2s0"))) == []


def test_non_abelian_crossed_module_gives_monoid_with_antipode():
    # the full weak-invertibility check at this size runs in the acceptance
    # suite; here we verify the twisted multiplication and the antipode laws
    S3 = _symmetric3()
    data = two_group_from_crossed_module(CrossedModuleIncl(S3, ("r0s0", "r1s0", "r2s0")))
    assert validate_groupoid(data.base).ok
    assert validate_bibundle(data.mu).ok
    assert validate_bibundle(data.i).ok
    assert check_monoid(data).ok
    env = data.env()
    assert check_identity(env, "delta ; (i * id) ; mu", "eps ; e").ok
    assert check_identity(env, "delta ; (id * i) ; mu", "eps ; e").ok


def test_kronecker_matches_direct_construction():
    cm = CrossedModuleIncl(cyclic_ambient(4), ("0", "2"))
    direct = two_group_from_crossed_module(cm)
    k = kronecker_finite(4, 2)
    assert direct.base == k.base
    assert find_iso(direct.mu, k.mu) is not None


def test_plain_group_base_is_discrete():
    data = plain_group_data(5)
    assert len(data.base.objects) == 5
    assert len(data.base.arrows) == 5
    assert check_group(data).ok


def test_stacky_data_env_reuse():
    data = kronecker_finite(2, 1)
    assert data.env() is data.env()
    assert data.env().resolve("mu").bib is not None
    assert data.env().resolve("i") is not None


# the preinverse composes over G^4: compose reads no orbit pass over the
# discrete G^4 of a plain group, and the pass of the tensor cv * id * e joins
# only the arrows of the reach entries that project reads, so (8, 8) encodes
# no arrow of G^4 and (3, 1) five
@pytest.mark.parametrize("n, q, arrows, read", [(8, 8, 4096, 0), (3, 1, 6561, 5)])
def test_check_group_encodes_few_arrows_of_the_fourth_power(n, q, arrows, read):
    data = kronecker_finite(n, q)
    # held, so that the check builds its G^4 on this live product
    G4 = power_groupoid(data.base, 4)
    assert len(G4.arrows) == arrows
    assert check_group(data).ok
    assert len(encoded_arrow_labels(G4)) == read


@pytest.mark.parametrize("n, q, points, read", [(8, 8, 4096, 64), (3, 1, 2187, 81)])
def test_check_group_encodes_few_points_of_the_preinverse_tensor(monkeypatch, n, q, points, read):
    built = []

    def tracking(*parts):
        built.append(tensor_bibundle(*parts))
        return built[-1]

    monkeypatch.setattr(diagram, "tensor_bibundle", tracking)
    data = kronecker_finite(n, q)
    assert check_group(data).ok
    # (id * mu * id), read by compose only over the objects that the
    # representatives of (cv * id * e) reach
    [T] = [T for T in built if len(T.carrier) == points]
    mu = data.env().resolve("mu").bib
    assert len(T.parts) == 3 and T.parts[1] is mu and T.parts[0] is T.parts[2]
    assert not T.carrier.full
    assert 0 < len(dict(T.index.parts_of)) <= read


# composites over the plain groups, whose arrow fibers hold only units
PLAIN_PAIRS = [("(mu * id) ; mu", "(id * mu) ; mu"), ("(e * id) ; mu", "id"),
               ("(id * e) ; mu", "id"), ("delta ; (i * id) ; mu", "eps ; e"),
               ("(id * mu) ; mu", "(id * mu) ; mu")]


@pytest.mark.parametrize("n", [2, 3])
def test_iso_search_matches_dfs_oracle_over_plain_groups(n):
    env = kronecker_finite(n, n).env()
    for lhs, rhs in PLAIN_PAIRS:
        M, N = evaluate(env, lhs), evaluate(env, rhs)
        got = [list(w.forward.items()) for w in all_isos(M, N, limit=50)]
        assert got == [list(f.items()) for f in itertools.islice(iso_search_dfs(M, N), 50)]
        assert got


def test_find_iso_applies_no_action_over_a_plain_group():
    env = kronecker_finite(4, 4).env()
    calls: Counter = Counter()

    def counting(fn, side):
        def act(a, b):
            calls[side] += 1
            return fn(a, b)
        return act

    pair = [evaluate(env, expr) for expr in PLAIN_PAIRS[0]]
    spied = [dataclasses.replace(X, left_fn=counting(X.left_fn, "left"), right_fn=counting(X.right_fn, "right"))
             for X in pair]
    w = find_iso(*spied)
    assert w is not None and w.forward == find_iso(*pair).forward
    assert calls == Counter()
    # the oracle, which applies the units, does act through the spies
    assert next(iso_search_dfs(*spied)) == w.forward
    assert calls["left"] and calls["right"]


def _bi_orbit_cover(M) -> list[int]:
    """The bi-orbit of each representative _bi_orbit_reps gives for M."""
    orbit = bi_orbits_scan(M)
    return sorted(orbit[m] for m in calculus._bi_orbit_reps(M))


def _bi_orbit_rule(M) -> str:
    if calculus._discrete(M.left_groupoid) and calculus._discrete(M.right_groupoid):
        return "discrete"
    if isinstance(M, calculus.TensorBibundle):
        return "tensor"
    if isinstance(M, calculus.ComposedBibundle) and calculus._fiber_transitive(M.factors[1]):
        return "composite"
    return "pass"


def test_bi_orbit_reps_hit_each_bi_orbit_once_on_random_bundles():
    """Against the union-find scan, on random bundles (the pass), their
    composites with a bundle that is transitive on its lmap fibers or not,
    and tensors of them."""
    rules = Counter()
    for seed in range(60):
        rng = random.Random(seed)
        M = random_bibundle(rng, max_objects=2, max_isotropy=3)
        H = M.right_groupoid
        N = opposite_bibundle(M) if rng.random() < 0.6 else identity_bibundle(H)
        for X in (M, compose(M, N), tensor_bibundle(M, N), compose(tensor_bibundle(M, M), tensor_bibundle(N, N))):
            rules[_bi_orbit_rule(X)] += 1
            assert _bi_orbit_cover(X) == list(range(len(set(bi_orbits_scan(X).values()))))
    assert all(rules[rule] > 5 for rule in ("pass", "tensor", "composite")), rules


@pytest.mark.parametrize("make", [lambda: kronecker_finite(2, 1), lambda: bz_data(3)],
                         ids=["kronecker-2-1", "bz3"])
def test_bi_orbit_reps_hit_each_bi_orbit_once_on_the_loop_nodes(make):
    loops = _CoherenceLoops(make())
    nodes = {id(X): X for w in _loop_edges(loops, next(loops.associators(1))) for X in (w.source, w.target)}
    rules = Counter()
    for X in nodes.values():
        rules[_bi_orbit_rule(X)] += 1
        assert _bi_orbit_cover(X) == list(range(len(set(bi_orbits_scan(X).values()))))
    assert rules["composite"] > 10 and rules["tensor"] > 3, rules
