import dataclasses
import gc
import itertools
import random
import sys
from collections import Counter
from collections.abc import Mapping

import pytest
from hypothesis import example, given, settings, strategies as st

from bibucalc import (
    GroupoidHom,
    one_object_groupoid,
    StructuralError,
    compose_homs,
    cyclic_groupoid,
    finset,
    pair_groupoid,
    power_groupoid,
    product_groupoid,
    trivial_groupoid,
)
from bibucalc import calculus, diagram, groups, labels
from bibucalc.bibundle import (
    Bibundle,
    TensorBibundle,
    _fibers,
    _orbit_pass,
    bibundle_from_tables,
    check_principal,
    validate_bibundle,
)
from bibucalc.calculus import (
    all_isos,
    assoc_witness,
    bundlize,
    chain_witnesses,
    comp_witness,
    compose,
    cv_bibundle,
    diagonal_bibundle,
    ev_bibundle,
    find_iso,
    flip_bibundle,
    identity_bibundle,
    identity_witness,
    invert_witness,
    is_weak_isomorphism,
    lunit_witness,
    opposite_bibundle,
    relabel_bibundle,
    runit_witness,
    tensor_bibundle,
    terminal_bibundle,
    validate_iso,
)
from bibucalc.diagram import evaluate
from bibucalc.generators import (
    random_bibundle,
    random_groupoid,
    random_hom,
    random_right_principal_bibundle,
    relabel_randomly,
)
from bibucalc.groups import kronecker_finite, plain_group_data, preinverse
from bibucalc.labels import esc, tup, untup

from oracles import (
    bundle_tables,
    carrier_holders,
    entry_fills,
    iso_search_dfs,
    lookup_outcomes,
    orbit_pass_scan,
    orbit_quotient,
    stabiliser_scan,
    tensor_binary,
    tensor_eager,
)


def _composable_pairs(M, N):
    out = []
    for m in M.carrier:
        for n in N.carrier:
            if M.rmap[m] == N.lmap[n]:
                out.append((m, n))
    return out


def _diagonal_moves(M, N):
    H = M.right_groupoid

    def moves(pair):
        m, n = pair
        for h in H.l_fiber(M.rmap[m]):
            yield (M.act_right(m, h), N.act_left(H.inv[h], n))

    return moves


def test_compose_identity_both_sides():
    G = cyclic_groupoid(3)
    M = identity_bibundle(G)
    left = compose(M, M)
    assert validate_bibundle(left).ok
    w = lunit_witness(M)
    assert validate_iso(w).ok
    w2 = runit_witness(M)
    assert validate_iso(w2).ok


def test_compose_requires_matching_middle():
    with pytest.raises(StructuralError):
        compose(identity_bibundle(cyclic_groupoid(2)), identity_bibundle(cyclic_groupoid(3)))


def test_compose_returns_the_live_composite_of_the_same_pair():
    G = cyclic_groupoid(3)
    M, N = identity_bibundle(G), diagonal_bibundle(G)
    C = compose(M, N)
    assert compose(M, N) is C and C.factors == (M, N)
    assert compose(M, M) is not C
    # the witness builders compose their endpoints through the store
    assert comp_witness(identity_witness(M), identity_witness(N)).source is C


def test_composite_store_keys_by_identity_not_equality():
    G = cyclic_groupoid(3)
    M1, M2, N = identity_bibundle(G), identity_bibundle(G), diagonal_bibundle(G)
    assert M1 == M2 and M1 is not M2
    C1, C2 = compose(M1, N), compose(M2, N)
    assert C1 is not C2 and C1 == C2


def test_composite_store_lets_unused_composites_go(monkeypatch):
    # an empty store of the same kind, so that only this composite is in it
    monkeypatch.setattr(calculus, "_COMPOSITES", type(calculus._COMPOSITES)())
    G = cyclic_groupoid(3)
    M = identity_bibundle(G)
    C = compose(M, M)
    assert list(calculus._COMPOSITES.values()) == [C]
    del C
    gc.collect()
    assert len(calculus._COMPOSITES) == 0
    assert compose(M, M).factors == (M, M)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_stored_composite_equals_a_fresh_one(seed):
    rng = random.Random(seed)
    M = random_bibundle(rng, max_objects=2, max_isotropy=3)
    N = opposite_bibundle(M) if rng.random() < 0.7 else identity_bibundle(M.right_groupoid)
    C = compose(M, N)
    tables = bundle_tables(C)  # read in full: C keeps its orbit passes and fibers
    assert compose(M, N) is C
    saved = calculus._COMPOSITES
    calculus._COMPOSITES = type(saved)()
    try:
        fresh = compose(M, N)
    finally:
        calculus._COMPOSITES = saved
    assert fresh is not C
    assert bundle_tables(fresh) == bundle_tables(C) == tables
    pairs = _composable_pairs(M, N)
    assert [C.project(*p) for p in pairs] == [fresh.project(*p) for p in pairs]


def _cosets_of_z2_in_z4():
    """Z/4 acting on the right of its two cosets of {0, 2}: 1 and 3 swap "a"
    and "b", 2 fixes both, so "a" is a representative fixed by 2."""
    G, H = trivial_groupoid(1), cyclic_groupoid(4)
    right = {(m, h): "ab"[("ab".index(m) + int(h)) % 2] for m in "ab" for h in H.arrows}
    return bibundle_from_tables(
        G, H, ["a", "b"], {"a": "0", "b": "0"}, {"a": "*", "b": "*"},
        {("0", m): m for m in "ab"}, right,
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
@example("kronecker")
@example("cosets")
@example("tensor-2-1")
@example("tensor-3-1")
@example("discrete")
def test_compose_representatives_match_orbit_oracle(seed):
    if seed in ("tensor-2-1", "tensor-3-1", "discrete"):
        # (mu * id) ; mu: a tensor as first factor, whose pass is read off
        # its parts', over a middle G^2 with non-unit arrows at Kronecker
        # (2,1) and (3,1), and a discrete one at the plain group Z/3
        data = plain_group_data(3) if seed == "discrete" else kronecker_finite(int(seed[-3]), 1)
        M, N = _assoc_factors(data)
        assert isinstance(M, TensorBibundle)
        assert calculus._discrete(M.right_groupoid) is (seed == "discrete")
    elif seed == "kronecker":
        # the first compose of preinverse(kronecker_finite(6, 3)): 2,304
        # composable pairs in 144 orbits of 16
        env = kronecker_finite(6, 3).env()
        M, N = evaluate(env, "cv * id * e"), evaluate(env, "id * mu * id")
        assert not check_principal(M).transitive
    elif seed == "cosets":
        # the stabiliser {0, 2} of the first representative "a" moves every
        # point of N's fiber: 8 composable pairs in 2 orbits
        M = _cosets_of_z2_in_z4()
        N = identity_bibundle(M.right_groupoid)
        assert validate_bibundle(M).ok and check_principal(M).witnesses["free"] == ("a", "2")
    else:
        rng = random.Random(seed)
        M = random_bibundle(rng, max_objects=2, max_isotropy=3)
        H = M.right_groupoid
        # the opposite always composes with M and is rarely principal, so
        # both free and non-free right actions on M come up
        N = opposite_bibundle(M) if rng.random() < 0.7 else identity_bibundle(H)
    C = compose(M, N)
    assert validate_bibundle(C).ok
    pairs = _composable_pairs(M, N)
    reps = orbit_quotient(pairs, _diagonal_moves(M, N))
    assert list(C.carrier) == [tup(*p) for p in pairs if reps[p] == p]
    for p in pairs:
        assert C.project(*p) == tup(*reps[p])


def _assoc_factors(data) -> tuple[Bibundle, Bibundle]:
    """mu * id and mu, the factors of (mu * id) ; mu."""
    env = data.env()
    return evaluate(env, "mu * id"), evaluate(env, "mu")


def test_compose_reads_no_pass_over_a_discrete_middle(monkeypatch):
    def no_pass(M, side):
        raise AssertionError("compose read an orbit pass over a discrete middle")

    monkeypatch.setattr(calculus, "_COMPOSITES", type(calculus._COMPOSITES)())
    monkeypatch.setattr(calculus, "_orbit_pass", no_pass)
    M, N = _assoc_factors(plain_group_data(3))
    C = compose(M, N)
    # every composable pair is the representative of its own orbit
    pairs = _composable_pairs(M, N)
    assert list(C.carrier) == [tup(*p) for p in pairs]
    assert [C.project(*p) for p in pairs] == list(C.carrier)
    assert validate_bibundle(C).ok
    with pytest.raises(StructuralError, match="not composable"):
        C.project(M.carrier.elements[0], "nowhere")


@pytest.mark.parametrize("n", [2, 3])
def test_compose_calls_no_action_of_a_tensor_first_factor(n):
    M, N = _assoc_factors(kronecker_finite(n, 1))
    calls: list = []
    spied = _spied(M, calls)
    C = compose(spied, N)
    assert calls == []
    assert bundle_tables(C) == bundle_tables(compose(M, N))


def _assert_labels_are_tup_of_their_pairs(C):
    assert len(C.index.parts_of) == len(C.carrier)
    for rep in C.carrier:
        assert rep == tup(*C.index.parts_of[rep])
        assert C.index.label_of[C.index.parts_of[rep]] == rep


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_compose_labels_are_tup_of_their_pairs(seed, awkward):
    rng = random.Random(seed)
    M = random_bibundle(rng, max_objects=2, max_isotropy=3)
    if awkward:
        # carrier labels made of the codec's special characters, "" first
        M = relabel_bibundle(M, {m: "(,\\)"[i % 4] * i for i, m in enumerate(M.carrier)})
    N = opposite_bibundle(M) if rng.random() < 0.7 else identity_bibundle(M.right_groupoid)
    _assert_labels_are_tup_of_their_pairs(compose(M, N))


def test_coherence_composites_are_labelled_by_tup(monkeypatch):
    built = []

    def recording(M, N):
        built.append(compose(M, N))
        return built[-1]

    for module in (calculus, diagram, groups):
        monkeypatch.setattr(module, "compose", recording)
    assert groups.check_coherence(kronecker_finite(2, 1)).ok
    assert built
    for C in built:
        _assert_labels_are_tup_of_their_pairs(C)


def test_compose_escapes_each_point_once_per_bundle(monkeypatch):
    data = kronecker_finite(2, 1)
    # the powers the loops run through, held with every label encoded, so
    # that only the escapes of the composed bundles' points are counted
    powers = [power_groupoid(data.base, k) for k in (2, 3, 4)]
    for P in powers:
        assert list(P.arrows) and list(P.unit)
    escaped: Counter = Counter()
    composed: list = []
    depth = [0]
    real_esc = labels.esc

    def counting_esc(part):
        if depth[0]:
            escaped[part] += 1
        return real_esc(part)

    def tracking(M, N):
        composed.extend((M, N))
        depth[0] += 1
        try:
            return compose(M, N)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(labels, "esc", counting_esc)
    for module in (calculus, diagram, groups):
        monkeypatch.setattr(module, "compose", tracking)
    assert groups.check_coherence(data).ok
    holders = carrier_holders(composed)
    assert escaped
    assert {label: n for label, n in escaped.items() if n > holders[label]} == {}


@pytest.mark.parametrize("free", [True, False], ids=["free", "non_free"])
def test_project_refuses_pairs_that_do_not_compose(free):
    M = identity_bibundle(pair_groupoid(2))
    if not free:
        M = tensor_bibundle(_cosets_of_z2_in_z4(), M)
    H = M.right_groupoid
    assert check_principal(M).free is free
    # the terminal bundle's left action g.x = l(g) never looks at x, so only
    # the moment check keeps a pair off the fiber product from projecting
    C = compose(M, terminal_bibundle(H))
    for m in M.carrier:
        for x in H.objects:
            if x == M.rmap[m]:
                assert C.project(m, x) in C.carrier
            else:
                with pytest.raises(StructuralError, match="not composable"):
                    C.project(m, x)
    with pytest.raises(StructuralError, match="not composable"):
        C.project("nowhere", H.objects.elements[0])
    with pytest.raises(StructuralError, match="not composable"):
        C.project(M.carrier.elements[0], "nowhere")


def test_opposite_is_involutive_on_tables():
    rng = random.Random(3)
    M = random_bibundle(rng)
    assert opposite_bibundle(opposite_bibundle(M)) == M


def test_bundlize_is_right_principal_and_functorial():
    rng = random.Random(11)
    G = random_groupoid(rng, prefix="g")
    H = random_groupoid(rng, prefix="h")
    K = random_groupoid(rng, prefix="k")
    phi = random_hom(rng, G, H)
    psi = random_hom(rng, H, K)
    A = bundlize(phi)
    B = bundlize(psi)
    assert check_principal(A, "right").ok
    assert check_principal(B, "right").ok
    AB = compose(A, B)
    assert check_principal(AB, "right").ok
    direct = bundlize(compose_homs(phi, psi))
    w = find_iso(AB, direct)
    assert w is not None
    assert validate_iso(w).ok


def test_bundlize_of_identity_hom_is_identity_bibundle():
    from bibucalc import identity_hom

    G = pair_groupoid(2)
    B = bundlize(identity_hom(G))
    w = find_iso(B, identity_bibundle(G))
    assert w is not None and validate_iso(w).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_composite_of_right_principal_is_right_principal(seed):
    rng = random.Random(seed)
    G = random_groupoid(rng, prefix="g", max_objects=3, max_isotropy=3)
    H = random_groupoid(rng, prefix="h", max_objects=3, max_isotropy=3)
    K = random_groupoid(rng, prefix="k", max_objects=3, max_isotropy=3)
    M = bundlize(random_hom(rng, G, H))
    N = relabel_randomly(rng, bundlize(random_hom(rng, H, K)))
    C = compose(M, N)
    assert validate_bibundle(C).ok
    assert check_principal(C, "right").ok


def test_associator_and_units_validate():
    rng = random.Random(5)
    G = random_groupoid(rng, prefix="g", max_objects=2)
    H = random_groupoid(rng, prefix="h", max_objects=2)
    K = random_groupoid(rng, prefix="k", max_objects=2)
    L = random_groupoid(rng, prefix="l", max_objects=2)
    A = bundlize(random_hom(rng, G, H))
    B = bundlize(random_hom(rng, H, K))
    C = bundlize(random_hom(rng, K, L))
    w = assoc_witness(A, B, C)
    assert validate_iso(w).ok
    assert validate_iso(invert_witness(w)).ok


def test_associator_on_orbit_quotients():
    # cv and ev are not principal, so this runs the generic quotient path
    G = cyclic_groupoid(2)
    P = power_groupoid(G, 2)
    A = cv_bibundle(G)
    B = identity_bibundle(P)
    C = ev_bibundle(G)
    w = assoc_witness(A, B, C)
    assert validate_iso(w).ok


def test_comp_and_tensor_whiskering():
    G = cyclic_groupoid(3)
    M = identity_bibundle(G)
    w = identity_witness(M)
    ww = comp_witness(w, w)
    assert validate_iso(ww).ok
    Mw = diagram.DiagramEnv(G).wire(M)
    tw = diagram.wired_tensor_witness([(w, Mw, Mw), (w, Mw, Mw)])
    assert validate_iso(tw).ok


# ---------------------------------------------------------------------------
# the n-ary tensor


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_tensor_matches_binary_oracle(seed, same):
    rng = random.Random(seed)
    M = random_bibundle(rng, max_objects=2, max_isotropy=2)
    N = M if same else random_bibundle(rng, max_objects=2, max_isotropy=2)
    T = tensor_bibundle(M, N)
    assert bundle_tables(T) == bundle_tables(tensor_binary(M, N))
    assert T.parts == (M, N)
    assert validate_bibundle(T).ok


def test_tensor_of_one_part_is_that_part_and_of_none_refused():
    M = identity_bibundle(cyclic_groupoid(3))
    assert tensor_bibundle(M) is M
    with pytest.raises(StructuralError):
        tensor_bibundle()


def test_tensor_is_flat_over_powers_and_the_point():
    G = cyclic_groupoid(2)
    M, D, E = identity_bibundle(G), diagonal_bibundle(G), terminal_bibundle(G)
    # (G x G^2) on the right is G^3, the live cube
    T = tensor_bibundle(M, D)
    cube = power_groupoid(G, 3)
    assert T.left_groupoid is power_groupoid(G, 2) and T.right_groupoid is cube
    assert validate_bibundle(T).ok
    # the point drops out of a product: eps * id runs G^2 -> G
    TE = tensor_bibundle(E, M)
    assert TE.left_groupoid is power_groupoid(G, 2) and TE.right_groupoid is G
    assert validate_bibundle(TE).ok
    # a tensor of a tensor lives over the flat product of all the parts
    TT = tensor_bibundle(T, M)
    assert TT.left_groupoid is cube and TT.right_groupoid is power_groupoid(G, 4)
    assert validate_bibundle(TT).ok


def _lazy_tensor_parts(rng: random.Random) -> list[Bibundle]:
    """Two or three random bundles, one of them at times itself a tensor."""
    parts = [random_bibundle(rng, max_objects=2, max_isotropy=2) for _ in range(rng.choice((2, 3)))]
    if rng.random() < 0.3:
        parts[0] = tensor_bibundle(parts[0], random_bibundle(rng, max_objects=1, max_isotropy=2))
    return parts


def _foreign_points(T: Bibundle) -> list:
    """Labels that are no point of the tensor T: an object, labels with too
    few parts or a part off its part's carrier, labels that do not decode
    or decode to parts that encode otherwise, and a non-string."""
    first = T.parts[0].carrier.elements[0]
    rest = [M.carrier.elements[0] for M in T.parts[1:]]
    # decodes to the parts of a point, but is not how they encode
    padded = "(" + ",".join([esc(first) + "\\0", *map(esc, rest)]) + ")"
    labels = [T.left_groupoid.objects.elements[0], tup(first), tup("nowhere", *rest),
              tup(first, *rest, first), padded, "(", "", "(a\\q)", first, 7]
    points = set(tensor_eager(*T.parts).carrier)
    return [x for x in labels if x not in points]


def _tensor_reads(T: Bibundle, keys: list, objects: list, part_tuples: list) -> list:
    """Every partial read of a tensor, entry by entry in the order given,
    refusals included, and the actions at the points among the keys."""
    fibers = _fibers(T, "lmap")
    G, H = T.left_groupoid, T.right_groupoid
    points = [p for p in keys if isinstance(p, str) and p in T.carrier]
    return [
        lookup_outcomes(T.carrier.__contains__, keys),
        lookup_outcomes(T.carrier.index, keys),
        lookup_outcomes(T.lmap.__getitem__, keys),
        lookup_outcomes(T.rmap.get, keys),
        lookup_outcomes(T.lmap.__contains__, keys),
        lookup_outcomes(fibers.__getitem__, objects),
        lookup_outcomes(fibers.get, objects),
        lookup_outcomes(fibers.__contains__, objects),
        lookup_outcomes(T.index.parts_of.__getitem__, keys),
        lookup_outcomes(T.index.label_of.__getitem__, part_tuples),
        [[T.left_fn(g, p) for g in G.r_fiber(T.lmap[p])] for p in points],
        [[T.right_fn(p, h) for h in H.l_fiber(T.rmap[p])] for p in points],
    ]


@pytest.mark.parametrize("seed", range(16))
def test_lazy_tensor_reads_match_eager_oracle(seed):
    rng = random.Random(seed)
    parts = _lazy_tensor_parts(rng)
    lazy, eager = tensor_bibundle(*parts), tensor_eager(*parts)
    points = list(eager.carrier)
    keys = rng.sample(points, min(len(points), 6)) + _foreign_points(eager)
    rng.shuffle(keys)
    objects = list(eager.left_groupoid.objects) + ["nowhere", points[0]]
    rng.shuffle(objects)
    part_tuples = [eager.index.parts_of[p] for p in rng.sample(points, min(len(points), 4))]
    part_tuples += [part_tuples[0][:-1], part_tuples[0] + part_tuples[0][:1], ("nowhere",) + part_tuples[0][1:]]
    want = _tensor_reads(eager, keys, objects, part_tuples)
    assert _tensor_reads(lazy, keys, objects, part_tuples) == want
    assert not lazy.carrier.full
    # a full read gives the eager tensor, order included
    assert bundle_tables(lazy) == bundle_tables(eager)
    assert list(_fibers(lazy, "lmap").items()) == list(_fibers(eager, "lmap").items())
    assert dict(lazy.index.parts_of) == eager.index.parts_of
    assert dict(lazy.index.label_of) == eager.index.label_of
    assert lazy == eager and eager == lazy
    assert _tensor_reads(lazy, keys, objects, part_tuples) == want
    assert validate_bibundle(lazy).ok


@pytest.mark.parametrize("seed", range(8))
def test_lazy_tensor_refuses_foreign_labels_and_records_nothing(seed):
    T = tensor_bibundle(*_lazy_tensor_parts(random.Random(seed)))
    foreign = _foreign_points(T)
    fibers = _fibers(T, "lmap")
    for x in foreign:
        assert x not in T.carrier and x not in T.lmap
        for table in (T.lmap, T.rmap, T.index.parts_of):
            assert table.get(x) is None
            with pytest.raises(KeyError):
                table[x]
        with pytest.raises(StructuralError):
            T.carrier.index(x)
    for x in ["nowhere", "", T.parts[0].carrier.elements[0]]:
        if x in T.left_groupoid.objects:
            continue
        assert fibers.get(x) is None and x not in fibers
        with pytest.raises(KeyError):
            fibers[x]
    for parts in [(), ("nowhere",) * len(T.parts), tuple(M.carrier.elements[0] for M in T.parts)[:-1]]:
        assert T.index.label_of.get(parts) is None
    recorded = [T.index.parts_of, T.index.label_of, T.lmap, T.rmap, fibers]
    assert [dict.__len__(d) for d in recorded] == [0] * len(recorded)
    assert not T.carrier.full


def test_compose_reads_a_tensor_in_full_only_when_it_needs_half_of_it():
    G = trivial_groupoid(3)
    T = tensor_bibundle(identity_bibundle(G), identity_bibundle(G))
    G2 = T.left_groupoid
    x = G2.objects.elements[4]
    # a single point over x: its composite with T reads the one point over x
    pick = bundlize(GroupoidHom(trivial_groupoid(1), G2, {"0": x}, {"0": G2.unit[x]}))
    C = compose(pick, T)
    assert len(C.carrier) == 1 and not T.carrier.full
    assert dict(T.index.parts_of) == {p: T.index.parts_of[p] for p in _fibers(T, "lmap")[x]}
    assert bundle_tables(C) == bundle_tables(compose(pick, tensor_eager(*T.parts)))
    # the identity reaches every object, so T is read in full first
    assert len(compose(identity_bibundle(G2), T).carrier) == len(T.carrier)
    assert T.carrier.full and dict.__len__(T.lmap) == len(T.carrier)


@pytest.mark.parametrize("seed", range(8))
def test_tensor_tables_fill_in_one_pass_once_the_carrier_is_read(monkeypatch, seed):
    parts = _lazy_tensor_parts(random.Random(seed))
    T, eager = tensor_bibundle(*parts), tensor_eager(*parts)
    fibers = _fibers(T, "lmap")
    own = {id(T.lmap), id(T.rmap), id(fibers)}
    fills = entry_fills(monkeypatch)
    # before a full read, a lookup fills its own entry alone
    p = eager.carrier.elements[-1]
    assert T.lmap[p] == eager.lmap[p] and fibers[eager.lmap[p]] == _fibers(eager, "lmap")[eager.lmap[p]]
    assert [id(t) for t in fills] == [id(T.lmap), id(fibers)]
    fills.clear()
    assert T.carrier.elements == eager.carrier.elements
    points = list(eager.carrier)
    assert [T.lmap[p] for p in points] == [eager.lmap[p] for p in points]
    assert [T.rmap[p] for p in points] == [eager.rmap[p] for p in points]
    want = _fibers(eager, "lmap")
    assert [fibers[x] for x in want] == list(want.values())
    assert list(fibers.items()) == list(want.items())
    assert T.left_table() == eager.left_table()
    assert [t for t in fills if id(t) in own] == []


def test_dropped_structures_leave_no_cycles():
    G = cyclic_groupoid(3)
    M = identity_bibundle(G)
    gc.collect()
    P = power_groupoid(G, 3)
    assert len(list(P.arrows)) == 27 and P.unit[P.objects.elements[0]] in P.arrows
    T = tensor_bibundle(M, M)
    assert T.index.label_of[(M.carrier.elements[0],) * 2] in T.carrier
    C = compose(T, tensor_bibundle(M, M))
    assert len(C.carrier) == len(T.carrier)
    # a product whose l, r, inv and fibers have been read, entry by entry
    # and in full
    Q = product_groupoid([G, pair_groupoid(2)])
    g = Q.index.label_of[(G.arrows.elements[1], tup("0", "1"))]
    assert Q.inv[g] in Q.arrows and Q.l_fiber(Q.l[g]) and Q.r_fiber(Q.r[g])
    assert len(dict(Q.l)) == len(dict(Q.r)) == len(dict(Q.inv)) == len(Q.arrows)
    assert all(Q.l_fiber(x) and Q.r_fiber(x) for x in Q.objects)
    del P, T, C, Q
    assert gc.collect() == 0
    assert groups.check_group(kronecker_finite(2, 1)).ok
    assert gc.collect() == 0


def test_find_iso_lex_least_and_relabelling():
    rng = random.Random(17)
    M = random_right_principal_bibundle(rng, relabel=False)
    M2 = relabel_randomly(rng, M)
    w = find_iso(M, M2)
    assert w is not None
    assert validate_iso(w).ok
    # determinism: repeated searches give the same witness
    w2 = find_iso(M, M2)
    assert w.forward == w2.forward


def test_find_iso_none_cases():
    G = cyclic_groupoid(2)
    assert find_iso(terminal_bibundle(G), identity_bibundle(G)) is None
    H = cyclic_groupoid(3)
    assert find_iso(identity_bibundle(G), identity_bibundle(H)) is None


def _z2_points(free: bool) -> Bibundle:
    """Two points over the one object of Z/2 and the point: swapped by the
    generator (one free orbit) or both fixed by it (two orbits)."""
    G, T = cyclic_groupoid(2), trivial_groupoid(1)
    swap = {"a": "b", "b": "a"}
    return Bibundle(
        G, T, finset(["a", "b"]), {"a": "*", "b": "*"}, {"a": "0", "b": "0"},
        lambda g, m: swap[m] if free and g == "1" else m,
        lambda m, h: m,
    )


def test_find_iso_refuses_fixed_points_against_a_free_orbit():
    # same moments and carrier size, so only equivariance tells them apart:
    # a fixed point sent into the free orbit clashes with its own image, and
    # a free orbit sent onto fixed points reuses one
    fixed, free = _z2_points(False), _z2_points(True)
    assert validate_bibundle(fixed).ok and validate_bibundle(free).ok
    assert find_iso(fixed, free) is None
    assert find_iso(free, fixed) is None
    assert [w.forward for w in all_isos(free, free)] == [{"a": "a", "b": "b"}, {"a": "b", "b": "a"}]
    assert len(list(all_isos(fixed, fixed))) == 2


def test_iso_search_runs_deeper_than_the_recursion_limit():
    # with trivial groupoids every point is its own orbit, so the search is
    # as deep as the carrier is large
    size = sys.getrecursionlimit() + 100
    T = trivial_groupoid(1)
    points = [f"p{k}" for k in range(size)]
    M = Bibundle(T, T, finset(points), dict.fromkeys(points, "0"), dict.fromkeys(points, "0"),
                 lambda g, m: m, lambda m, h: m)
    reverse = dict(zip(points, reversed(points)))
    N = relabel_bibundle(M, reverse)
    # the relabelled carrier runs backwards, and candidates come in its order;
    # find_iso pairs the points over the discrete base without searching, so
    # all_isos drives the search itself
    w = find_iso(M, N)
    assert w is not None and list(w.forward.items()) == list(reverse.items())
    first = next(all_isos(M, N))
    assert list(first.forward.items()) == list(reverse.items())


def _search_pairs(rng: random.Random, M: Bibundle) -> list[tuple[Bibundle, Bibundle]]:
    """M against itself and a relabelling, and the counit and comultiplication
    squares of M."""
    G, H = M.left_groupoid, M.right_groupoid
    return [
        (M, M),
        (M, relabel_randomly(rng, M)),
        (compose(M, terminal_bibundle(H)), terminal_bibundle(G)),
        (compose(M, diagonal_bibundle(H)), compose(diagonal_bibundle(G), tensor_bibundle(M, M))),
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_iso_search_matches_dfs_oracle(seed, principal):
    rng = random.Random(seed)
    make = random_right_principal_bibundle if principal else random_bibundle
    M = make(rng, max_objects=2, max_isotropy=2)
    for A, B in _search_pairs(rng, M):
        got = list(all_isos(A, B, limit=50))
        want = [list(f.items()) for f in itertools.islice(iso_search_dfs(A, B), 50)]
        assert [list(w.forward.items()) for w in got] == want
        assert all(validate_iso(w).ok for w in got)


def test_all_isos_counts_automorphisms():
    G = cyclic_groupoid(3)
    M = identity_bibundle(G)
    autos = list(all_isos(M, M))
    # biequivariant self-maps of the identity bibundle of an abelian group
    # are exactly the translations
    assert len(autos) == 3
    for a in autos:
        assert validate_iso(a).ok


def test_weak_isomorphism_cases():
    G = cyclic_groupoid(3)
    res = is_weak_isomorphism(identity_bibundle(G))
    assert res.ok
    assert validate_iso(res.left_identity).ok
    assert validate_iso(res.right_identity).ok

    fl = flip_bibundle(G, pair_groupoid(2))
    res2 = is_weak_isomorphism(fl)
    assert res2.ok

    e = terminal_bibundle(G)
    res3 = is_weak_isomorphism(e)
    assert not res3.ok
    assert res3.failure is not None


def _biprincipal_samples(count: int) -> list:
    """The first random right-principal bundles, by seed, that are also
    left principal."""
    out, seed = [], 0
    while len(out) < count:
        M = random_right_principal_bibundle(random.Random(seed), max_objects=3, max_isotropy=3)
        if check_principal(M, "left").ok:
            out.append(M)
        seed += 1
    return out


def test_weak_inverse_witnesses_come_from_the_pairings(monkeypatch):
    def no_search(M, N):
        raise AssertionError("is_weak_isomorphism searched for a 2-cell")

    monkeypatch.setattr(calculus, "find_iso", no_search)
    kronecker = [preinverse(kronecker_finite(n, q)) for n, q in ((2, 1), (3, 1), (4, 2))]
    for M in kronecker + _biprincipal_samples(12):
        res = is_weak_isomorphism(M)
        assert res.ok
        for w, unit in ((res.left_identity, M.left_groupoid), (res.right_identity, M.right_groupoid)):
            assert w.target == identity_bibundle(unit)
            assert validate_iso(w).ok


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_right_principal_iff_comonoidal_squares(seed):
    rng = random.Random(seed)
    M = random_bibundle(rng, max_objects=2, max_isotropy=2)
    G, H = M.left_groupoid, M.right_groupoid
    rp = check_principal(M, "right").ok
    sq1 = find_iso(compose(M, terminal_bibundle(H)), terminal_bibundle(G))
    sq2 = find_iso(
        compose(M, diagonal_bibundle(H)),
        compose(diagonal_bibundle(G), tensor_bibundle(M, M)),
    )
    assert (sq1 is not None and sq2 is not None) == rp


def test_chain_witnesses_roundtrip():
    G = cyclic_groupoid(4)
    M = identity_bibundle(G)
    C = compose(M, M)
    w = lunit_witness(M, C)
    loop = chain_witnesses(w, invert_witness(w))
    assert loop.forward == {m: m for m in C.carrier}


# ---------------------------------------------------------------------------
# one-arrow fibers: the orbit pass and the iso search take them in one step


def _one_arrow_objects(G) -> set[str]:
    """The objects whose fibers hold only the unit (isolated, no isotropy)."""
    return {x for x in G.objects if len(G.l_fiber(x)) == 1}


def _mixed(G) -> bool:
    return 0 < len(_one_arrow_objects(G)) < len(G.objects)


def _power_bundles() -> list[Bibundle]:
    """Bundles over discrete powers, where every fiber holds one arrow: the
    multiplication of Z/3 with identity arrows only, from G^2 to G, and two
    tensors over G^3."""
    data = plain_group_data(3)
    ident = identity_bibundle(data.base)
    return [data.mu, tensor_bibundle(data.mu, ident), tensor_bibundle(ident, ident, ident)]


def _mixed_bundles(count: int) -> list[Bibundle]:
    """The first count seeded generator bundles whose left or right base
    mixes one-arrow fibers with larger ones."""
    out = []
    for seed in itertools.count():
        M = random_bibundle(random.Random(seed), max_objects=3, max_isotropy=2)
        if _mixed(M.left_groupoid) or _mixed(M.right_groupoid):
            out.append(M)
            if len(out) == count:
                return out


def test_one_arrow_fiber_inputs_are_what_they_claim():
    for M in _power_bundles():
        for G in (M.left_groupoid, M.right_groupoid):
            assert _one_arrow_objects(G) == set(G.objects)
    assert len(_power_bundles()[1].left_groupoid.objects) == 27


def _assert_pass_matches_scans(B: Bibundle, side: str) -> None:
    """B's orbit pass against the scan oracles: the same representatives and
    stabilisers, in order. reach is the scan's item for item on a bundle
    that is not a tensor; on a tensor, whose reach may name another arrow
    where a stabiliser is nontrivial, it gives each point, compared point by
    point over the carrier, the scan's representative rep and an arrow a
    with rep . a == m (a . rep == m on the left)."""
    orbits = _orbit_pass(B, side)
    reach, stabilisers = orbit_pass_scan(B, side)
    assert list(orbits.reps) == [m for m in B.carrier if reach[m][0] == m]
    assert list(orbits.stabilisers.items()) == list(stabilisers.items())
    assert list(orbits.stabilisers.items()) == list(stabiliser_scan(B, side).items())
    if not isinstance(B, TensorBibundle):
        assert list(orbits.reach.items()) == list(reach.items())
        return
    assert len(orbits.reach) == len(B.carrier)
    for m in B.carrier:
        rep, a = orbits.reach[m]
        assert rep == reach[m][0]
        assert (B.act_right(rep, a) if side == "right" else B.act_left(a, rep)) == m


@pytest.mark.parametrize("side", ["right", "left"])
def test_orbit_pass_at_one_arrow_fibers_matches_scans(side):
    for M in _power_bundles() + _mixed_bundles(24):
        for B in (M, tensor_bibundle(M, M)):
            _assert_pass_matches_scans(B, side)


def test_iso_search_at_one_arrow_fibers_matches_dfs_oracle():
    rng = random.Random(5)
    pairs = []
    for M in _power_bundles():
        pairs += [(M, M), (M, relabel_randomly(rng, M))]
    for M in _mixed_bundles(12):
        pairs += _search_pairs(rng, M)
    for A, B in pairs:
        got = list(all_isos(A, B, limit=50))
        want = [list(f.items()) for f in itertools.islice(iso_search_dfs(A, B), 50)]
        assert [list(w.forward.items()) for w in got] == want
        least = find_iso(A, B)
        assert (least and list(least.forward.items())) == (want[0] if want else None)


class _ReadUnits(Mapping):
    """A unit table that records the objects whose unit is read."""

    def __init__(self, unit: Mapping):
        self.unit, self.read = unit, []

    def __getitem__(self, x):
        self.read.append(x)
        return self.unit[x]

    def __iter__(self):
        return iter(self.unit)

    def __len__(self):
        return len(self.unit)


def _recording_units(M: Bibundle) -> tuple[Bibundle, list[_ReadUnits]]:
    """M over copies of its groupoids whose unit tables record their reads."""
    tables = [_ReadUnits(M.left_groupoid.unit), _ReadUnits(M.right_groupoid.unit)]
    G = dataclasses.replace(M.left_groupoid, unit=tables[0])
    H = dataclasses.replace(M.right_groupoid, unit=tables[1])
    return dataclasses.replace(M, left_groupoid=G, right_groupoid=H), tables


def test_units_are_read_only_at_fibers_of_several_arrows():
    read_somewhere = False
    for M in _power_bundles() + _mixed_bundles(12):
        R, tables = _recording_units(M)
        for side in ("right", "left"):
            _orbit_pass(R, side)
        relabelled = relabel_randomly(random.Random(0), R)
        assert find_iso(R, relabelled) is not None
        # over a discrete base find_iso takes no search, so all_isos runs it
        assert next(all_isos(R, relabelled), None) is not None
        for table, G in zip(tables, (R.left_groupoid, R.right_groupoid)):
            assert not set(table.read) & _one_arrow_objects(G)
            read_somewhere = read_somewhere or bool(table.read)
    assert read_somewhere


# ---------------------------------------------------------------------------
# find_iso over discrete groupoids pairs moment buckets instead of searching


def _assoc_sides(data) -> tuple[Bibundle, Bibundle]:
    env = data.env()
    return evaluate(env, "(mu * id) ; mu"), evaluate(env, "(id * mu) ; mu")


def _discrete_pairs(rng: random.Random) -> list[tuple[Bibundle, Bibundle]]:
    """Bundles over discrete groupoids against themselves, a relabelling,
    and the other side of an associativity identity. On most of them a
    point's moments fix the point; op(mu) . mu puts the n points (x, y)
    with x + y = s over (s, s), so its buckets hold several points and
    their order shows."""
    bundles = _power_bundles()
    pairs = []
    for data in [groups.and_monoid_data()] + [kronecker_finite(n, n) for n in (2, 3, 4)]:
        lhs, rhs = _assoc_sides(data)
        pairs += [(lhs, rhs), (rhs, lhs)]
        bundles += [lhs, terminal_bibundle(data.base), terminal_bibundle(power_groupoid(data.base, 0)),
                    compose(opposite_bibundle(data.mu), data.mu)]
    for M in bundles:
        pairs += [(M, M), (M, relabel_randomly(rng, M))]
    return pairs


def _moved_moment(M: Bibundle) -> Bibundle | None:
    """M with its last point's right moment moved to another object, over
    the same discrete groupoids (any moments are valid there), or None when
    the right groupoid has one object."""
    H = M.right_groupoid
    last = M.carrier.elements[-1]
    other = next((y for y in H.objects if y != M.rmap[last]), None)
    if other is None:
        return None
    rmap = {m: M.rmap[m] for m in M.carrier}
    rmap[last] = other
    return Bibundle(M.left_groupoid, H, finset(M.carrier.elements), {m: M.lmap[m] for m in M.carrier},
                    rmap, lambda g, m: m, lambda m, h: m)


def test_find_iso_over_discrete_groupoids_pairs_moment_buckets(monkeypatch):
    rng = random.Random(3)
    pairs = _discrete_pairs(rng)
    want = [next(iso_search_dfs(A, B), None) for A, B in pairs]
    sources = {id(A): A for A, _ in pairs}.values()
    moved = [(A, B) for A, B in ((A, _moved_moment(A)) for A in sources) if B is not None]
    assert moved and all(validate_bibundle(B).ok for _, B in moved)

    def no_search(M, N):
        raise AssertionError("find_iso searched over discrete groupoids")

    with monkeypatch.context() as patch:
        patch.setattr(calculus, "_iso_search", no_search)
        for (A, B), first in zip(pairs, want):
            assert first is not None
            w = find_iso(A, B)
            assert list(w.forward.items()) == list(first.items())
            assert validate_iso(w).ok
        for A, B in moved:
            assert len(A.carrier) == len(B.carrier)
            assert find_iso(A, B) is None and find_iso(B, A) is None
        # two different discrete groupoids, the same shape
        A = identity_bibundle(trivial_groupoid(["0", "1"]))
        B = identity_bibundle(trivial_groupoid(["0", "2"]))
        assert find_iso(A, B) is None and find_iso(B, A) is None

    # a base with non-unit arrows still takes the search
    entered = []

    def counted(M, N):
        entered.append((M, N))
        return calculus_search(M, N)

    calculus_search = calculus._iso_search
    monkeypatch.setattr(calculus, "_iso_search", counted)
    lhs, rhs = _assoc_sides(kronecker_finite(2, 1))
    w = find_iso(lhs, rhs)
    assert entered == [(lhs, rhs)]
    assert list(w.forward.items()) == list(next(iso_search_dfs(lhs, rhs)).items())


# ---------------------------------------------------------------------------
# a tensor's orbit pass is read off its parts' passes


def _spied(M: Bibundle, calls: list) -> Bibundle:
    """M, of the same class and parts, whose actions record each call."""
    def spy(fn):
        def act(a, b):
            calls.append((a, b))
            return fn(a, b)
        return act

    return dataclasses.replace(M, left_fn=spy(M.left_fn), right_fn=spy(M.right_fn))


@pytest.mark.parametrize("side", ["right", "left"])
def test_tensor_orbit_pass_matches_scans_on_random_tensors(side):
    free = Counter()
    for seed in range(40):
        rng = random.Random(seed)
        parts = [random_bibundle(rng, max_objects=2, max_isotropy=2) for _ in range(rng.choice((2, 3)))]
        T = tensor_bibundle(*parts)
        calls: list = []
        orbits = _orbit_pass(_spied(T, calls), side)
        assert calls == []
        # reach entries read one by one before the carrier is read, then in
        # one pass: the same entries
        points = [T.index.label_of[ps] for ps in itertools.product(*(P.carrier for P in parts))]
        one_by_one = [orbits.reach[m] for m in points]
        assert not T.carrier.full
        assert list(orbits.reach.items()) == list(zip(points, one_by_one))
        _assert_pass_matches_scans(T, side)
        free[not orbits.stabilisers] += 1
    # both free and non-free actions come up
    assert free[True] and free[False]


def test_tensor_stabilisers_come_in_fiber_order_with_the_unit_anywhere():
    # Z/4 with its arrows listed 1, 2, 3, 0, so the stabiliser {0, 2} of
    # "a" comes in fiber order 2, 0: the unit is not first in the fiber
    G = trivial_groupoid(1)
    H = one_object_groupoid(["1", "2", "3", "0"],
                            {(x, y): str((int(x) + int(y)) % 4) for x in "0123" for y in "0123"})
    right = {(m, h): "ab"[("ab".index(m) + int(h)) % 2] for m in "ab" for h in H.arrows}
    M = bibundle_from_tables(G, H, ["a", "b"], {"a": "0", "b": "0"}, {"a": "*", "b": "*"},
                             {("0", m): m for m in "ab"}, right)
    assert validate_bibundle(M).ok and H.unit["*"] == "0"
    for parts in [(M, M), (M, identity_bibundle(H), M)]:
        for side in ("right", "left"):
            _assert_pass_matches_scans(tensor_bibundle(*parts), side)
    # the all-unit tuple comes between the others, and is left out
    stabilisers = _orbit_pass(tensor_bibundle(M, M), "right").stabilisers
    assert stabilisers[tup("a", "a")] == (tup("2", "2"), tup("2", "0"), tup("0", "2"))


def test_tensor_orbit_pass_refuses_labels_that_are_no_point():
    M = _cosets_of_z2_in_z4()
    T = tensor_bibundle(M, identity_bibundle(cyclic_groupoid(2)))
    reach = _orbit_pass(T, "right").reach
    for label in ("nowhere", "(a)", "(a,0,0)", "(c,0)", tup("a", "5")):
        with pytest.raises(KeyError):
            reach[label]
        assert label not in reach
    rep, a = reach[tup("b", "1")]
    assert rep == tup("a", "0") and T.act_right(rep, a) == tup("b", "1")


@pytest.mark.parametrize("n, q", [(2, 1), (4, 2)])
def test_tensor_orbit_pass_matches_scans_on_coherence_tensors(monkeypatch, n, q):
    built = []

    def tracking(*parts):
        built.append(tensor_bibundle(*parts))
        return built[-1]

    monkeypatch.setattr(diagram, "tensor_bibundle", tracking)
    assert groups.check_coherence(kronecker_finite(n, q)).ok
    tensors = {id(T): T for T in built if isinstance(T, TensorBibundle)}.values()
    assert len(tensors) >= 10
    for T in tensors:
        for side in ("right", "left"):
            calls: list = []
            _orbit_pass(_spied(T, calls), side)
            assert calls == []
            _assert_pass_matches_scans(T, side)
