"""Acceptance gate: one test per numbered criterion, exact checks only.

Every test prints a single `criterion N (...): PASS|FAIL` line (visible under
`pytest -s`) before asserting, so a red run still reports every verdict that
was reached.  All randomness is seeded per test; reruns are identical.

Run with:  python3 -m pytest tests/test_acceptance.py -v -s
The slowest tests are 8 and 9 (group checks and coherence searches on the
larger group fixtures); the whole file takes a few seconds.
"""

from __future__ import annotations

import random

from bibucalc import (
    DiagramEnv,
    GroupoidHom,
    LinkingGroupoid,
    Pairing,
    bundlize,
    check_coherence,
    check_group,
    check_identity,
    check_pairing_axioms,
    check_principal,
    compose,
    compose_homs,
    compute_pairing,
    diagonal_bibundle,
    find_iso,
    identity_bibundle,
    is_weak_isomorphism,
    kan_check,
    kronecker_finite,
    linking_groupoid,
    nerve,
    opposite_bibundle,
    poset_category,
    principality_via_linking,
    product_groupoid,
    tensor_bibundle,
    terminal_bibundle,
    truncated_free_monoid,
    untup,
    tup,
    validate_bibundle,
    validate_groupoid,
)
from bibucalc.bibundle import Bibundle
from bibucalc.core import finset
from bibucalc.generators import (
    enumerate_homs,
    random_bibundle,
    random_groupoid,
    random_hom,
    random_right_principal_bibundle,
    relabel_randomly,
    standard_groupoid,
)
from bibucalc.groups import and_monoid_data


def _verdict(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} ({name}): {status}")
    assert not failures, f"{name}: first failures {failures[:3]}, {len(failures)} total"


def _sample_bibundles(rng: random.Random, count: int, cap: int, principal_every: int = 0):
    """A stream of random bibundles with carriers <= cap.  Every k-th draw is
    right principal by construction so both sides of each biconditional get
    real mass."""
    out = []
    while len(out) < count:
        if principal_every and len(out) % principal_every == 0:
            M = random_right_principal_bibundle(rng, max_objects=2, max_isotropy=2)
        else:
            M = random_bibundle(rng, max_objects=3, max_isotropy=2)
        if len(M.carrier.elements) <= cap:
            out.append(M)
    return out


# --------------------------------------------------------------------------
# 1. pairing existence <=> free + transitive; uniqueness on small carriers


def test_criterion_01_pairing_exists_iff_free_and_transitive():
    rng = random.Random(2601)
    failures = []
    small_checked = 0
    for M in _sample_bibundles(rng, 500, cap=16, principal_every=3):
        rep = check_principal(M, "right")
        pairing = compute_pairing(M)
        got = isinstance(pairing, Pairing)
        want = rep.free and rep.transitive
        if got != want:
            failures.append(("iff", M.carrier.elements, got, want))
            continue
        if not got or len(M.carrier.elements) > 8:
            continue
        small_checked += 1
        if not check_pairing_axioms(M, pairing).ok:
            failures.append(("axioms", M.carrier.elements))
            continue
        # slot-by-slot exhaustive uniqueness: the table entry is the only
        # arrow translating m to m2, so no other table can pass
        H = M.right_groupoid
        for m in M.carrier:
            for m2 in M.carrier:
                if M.lmap[m] != M.lmap[m2]:
                    continue
                sols = [h for h in H.l_fiber(M.rmap[m]) if M.act_right(m, h) == m2]
                if sols != [pairing.table[(m, m2)]]:
                    failures.append(("unique", m, m2, sols))
    assert small_checked >= 50
    _verdict(1, "pairing exists iff free and transitive, and is unique", failures)


# --------------------------------------------------------------------------
# 2. right principality <=> the counit and comultiplication squares commute


def test_criterion_02_principality_matches_diagram_isos():
    rng = random.Random(2602)
    failures = []
    principal_seen = 0
    for M in _sample_bibundles(rng, 200, cap=12, principal_every=4):
        G, H = M.left_groupoid, M.right_groupoid
        counit_ok = find_iso(compose(M, terminal_bibundle(H)), terminal_bibundle(G)) is not None
        comult_ok = (
            find_iso(
                compose(M, diagonal_bibundle(H)),
                compose(diagonal_bibundle(G), tensor_bibundle(M, M)),
            )
            is not None
        )
        principal = check_principal(M, "right").ok
        principal_seen += principal
        if principal != (counit_ok and comult_ok):
            failures.append((M.carrier.elements, principal, counit_ok, comult_ok))
    assert principal_seen >= 40
    _verdict(2, "right principality iff both structure diagrams commute", failures)


# --------------------------------------------------------------------------
# 3. composites of right-principal bundles stay right principal


def test_criterion_03_composition_preserves_right_principality():
    rng = random.Random(2603)
    failures = []
    for _ in range(200):
        M = random_right_principal_bibundle(rng, max_objects=2, max_isotropy=2)
        N = random_right_principal_bibundle(rng, G=M.right_groupoid, max_objects=2, max_isotropy=2)
        C = compose(M, N)
        if not validate_bibundle(C).ok:
            failures.append(("invalid", M.carrier.elements, N.carrier.elements))
        elif not check_principal(C, "right").ok:
            failures.append(("not principal", M.carrier.elements, N.carrier.elements))
    _verdict(3, "composition preserves right principality", failures)


# --------------------------------------------------------------------------
# 4. bundlization is functorial up to isomorphism


def _small_groupoid(rng: random.Random, max_arrows: int = 10):
    while True:
        G = random_groupoid(rng, max_objects=2, max_isotropy=2)
        if len(G.arrows.elements) <= max_arrows:
            return G


def test_criterion_04_bundlization_is_functorial():
    rng = random.Random(2604)
    failures = []
    for _ in range(100):
        G, H, K = (_small_groupoid(rng) for _ in range(3))
        phi = random_hom(rng, G, H)
        psi = random_hom(rng, H, K)
        lhs = compose(bundlize(phi), bundlize(psi))
        rhs = bundlize(compose_homs(phi, psi))
        if find_iso(lhs, rhs) is None:
            failures.append((G.arrows.elements, H.arrows.elements, K.arrows.elements))
    _verdict(4, "bundlization sends hom composition to bundle composition", failures)


# --------------------------------------------------------------------------
# 5. diagonal-then-tensor is the product: projections hold and any other
#    bundle with the same projections is isomorphic to it


def _projection_hom(factors, k: int) -> GroupoidHom:
    P = product_groupoid(factors)
    return GroupoidHom(
        P,
        factors[k],
        {o: untup(o)[k] for o in P.objects},
        {a: untup(a)[k] for a in P.arrows},
    )


def _fiber_product_bundle(M: Bibundle, N: Bibundle) -> Bibundle:
    """The direct pair construction: carrier pairs over a common left object,
    componentwise actions.  Built without compose() on purpose."""
    K = M.left_groupoid
    GH = product_groupoid([M.right_groupoid, N.right_groupoid])
    carrier, lmap, rmap = [], {}, {}
    for m in M.carrier:
        for n in N.carrier:
            if M.lmap[m] != N.lmap[n]:
                continue
            p = tup(m, n)
            carrier.append(p)
            lmap[p] = M.lmap[m]
            rmap[p] = tup(M.rmap[m], N.rmap[n])

    def left(k: str, p: str) -> str:
        m, n = untup(p)
        return tup(M.act_left(k, m), N.act_left(k, n))

    def right(p: str, gh: str) -> str:
        m, n = untup(p)
        g, h = untup(gh)
        return tup(M.act_right(m, g), N.act_right(n, h))

    return Bibundle(K, GH, finset(carrier), lmap, rmap, left, right)


def test_criterion_05_diagonal_tensor_is_the_product():
    rng = random.Random(2605)
    failures = []
    done = 0
    while done < 50:
        K = _small_groupoid(rng, max_arrows=8)
        M = random_right_principal_bibundle(rng, G=K, max_objects=2, max_isotropy=2)
        N = random_right_principal_bibundle(rng, G=K, max_objects=2, max_isotropy=2)
        if len(M.carrier.elements) * len(N.carrier.elements) > 150:
            continue
        done += 1
        L = compose(diagonal_bibundle(K), tensor_bibundle(M, N))
        pr_g = bundlize(_projection_hom([M.right_groupoid, N.right_groupoid], 0))
        pr_h = bundlize(_projection_hom([M.right_groupoid, N.right_groupoid], 1))
        if find_iso(compose(L, pr_g), M) is None or find_iso(compose(L, pr_h), N) is None:
            failures.append(("projections", K.arrows.elements))
            continue
        direct = _fiber_product_bundle(M, N)
        if not validate_bibundle(direct).ok:
            failures.append(("direct invalid", K.arrows.elements))
            continue
        for alt in (direct, relabel_randomly(rng, direct)):
            if find_iso(alt, L) is None:
                failures.append(("universality", K.arrows.elements))
                break
    _verdict(5, "diagonal composed with a tensor is the categorical product", failures)


# --------------------------------------------------------------------------
# 6. the frozen identity list holds over every fixture base


FIXTURES = (
    [standard_groupoid("trivial", n) for n in (1, 2, 3)]
    + [standard_groupoid("pair", n) for n in (2, 3)]
    + [standard_groupoid("cyclic", n) for n in (2, 3, 4, 5)]
    + [standard_groupoid("action", n) for n in (2, 3)]
)

IDENTITIES = [
    ("delta ; (delta * id)", "delta ; (id * delta)"),
    ("delta ; (eps * id)", "id"),
    ("delta ; (id * eps)", "id"),
    ("(cv * id) ; (id * ev)", "id"),
    ("(id * cv) ; (ev * id)", "id"),
    ("tau ; tau", "id * id"),
    ("delta ; tau", "delta"),
    ("tau ; ev", "ev"),
    ("cv ; tau", "cv"),
    ("cv ; (delta * eps)", "cv"),
    ("cv ; (eps * delta)", "cv"),
]


def test_criterion_06_graphic_identities_hold_on_all_fixtures():
    failures = []
    for G in FIXTURES:
        env = DiagramEnv(G)
        for lhs, rhs in IDENTITIES:
            if not check_identity(env, lhs, rhs).ok:
                failures.append((G.objects.elements, lhs, rhs))
    _verdict(6, "comonoid, zig-zag and flip identities on all fixtures", failures)


# --------------------------------------------------------------------------
# 7. weak invertibility agrees with a brute-force inverse search


def _fixture_bibundle_pool(rng: random.Random):
    bases = [
        standard_groupoid("trivial", 1),
        standard_groupoid("trivial", 2),
        standard_groupoid("pair", 2),
        standard_groupoid("pair", 3),
        standard_groupoid("cyclic", 2),
        standard_groupoid("cyclic", 3),
        standard_groupoid("action", 2),
    ]
    pool = []
    for G in bases:
        pool.append(identity_bibundle(G))
        pool.append(relabel_randomly(rng, identity_bibundle(G)))
        pool.append(terminal_bibundle(G))
        pool.append(opposite_bibundle(terminal_bibundle(G)))
    for a, b in [(0, 2), (2, 4), (4, 5), (1, 3), (5, 6), (3, 2)]:
        G, H = bases[a], bases[b]
        pool.append(bundlize(random_hom(rng, G, H)))
        pool.append(random_right_principal_bibundle(rng, G=G, H=H))
    return [M for M in pool if len(M.carrier.elements) <= 16]


def _brute_force_inverse(rng: random.Random, M: Bibundle) -> bool:
    """Search for a two-sided inverse among opposite-shaped candidates: the
    opposite bundle, a relabelling of it, every bundlized hom up to a cap,
    and seeded principal draws, all capped at 16 points."""
    G, H = M.left_groupoid, M.right_groupoid
    id_g, id_h = identity_bibundle(G), identity_bibundle(H)
    candidates = [opposite_bibundle(M), relabel_randomly(rng, opposite_bibundle(M))]
    candidates += [bundlize(phi) for phi in enumerate_homs(H, G, limit=64, rng=rng)]
    candidates += [
        random_right_principal_bibundle(rng, G=H, H=G, max_objects=2, max_isotropy=2)
        for _ in range(6)
    ]
    for N in candidates:
        if len(N.carrier.elements) > 16:
            continue
        if find_iso(compose(M, N), id_g) is None:
            continue
        if find_iso(compose(N, M), id_h) is not None:
            return True
    return False


def test_criterion_07_weak_invertibility_matches_inverse_search():
    rng = random.Random(2607)
    failures = []
    seen = {True: 0, False: 0}
    for M in _fixture_bibundle_pool(rng):
        declared = is_weak_isomorphism(M).ok
        found = _brute_force_inverse(rng, M)
        seen[declared] += 1
        if declared != found:
            failures.append((M.carrier.elements, declared, found))
    assert seen[True] >= 5 and seen[False] >= 5
    _verdict(7, "weak invertibility iff a brute-force inverse exists", failures)


# --------------------------------------------------------------------------
# 8. group fixtures pass the full group check; the preinverse is the
#    bundlized inversion; the AND monoid is refused


KRONECKER_PAIRS = [(2, 1), (3, 1), (4, 2), (6, 2), (6, 3), (8, 4)]
_KRONECKER_CACHE: dict = {}


def _kron(N: int, q: int):
    if (N, q) not in _KRONECKER_CACHE:
        _KRONECKER_CACHE[(N, q)] = kronecker_finite(N, q)
    return _KRONECKER_CACHE[(N, q)]


def test_criterion_08_group_check_and_preinverse():
    failures = []
    for N, q in KRONECKER_PAIRS:
        rep = check_group(_kron(N, q))
        if not rep.ok:
            failures.append(((N, q), "check_group"))
        elif rep.antipode is None or not rep.antipode.matches_preinverse:
            failures.append(((N, q), "preinverse mismatch"))
    monoid_rep = check_group(and_monoid_data())
    if monoid_rep.ok:
        failures.append(("and-monoid", "accepted as a group"))
    if monoid_rep.invertible.ok:
        failures.append(("and-monoid", "preinverse passed weak invertibility"))
    _verdict(8, "group fixtures pass, preinverse is inversion, monoid refused", failures)


# --------------------------------------------------------------------------
# 9. associator and unitor loops close on every group fixture


def test_criterion_09_coherence_loops_close():
    failures = []
    for N, q in KRONECKER_PAIRS:
        rep = check_coherence(_kron(N, q))
        if not rep.ok:
            failures.append(((N, q), rep.note))
    _verdict(9, "associativity and unit coherence loops close", failures)


# --------------------------------------------------------------------------
# 10. nerves of categories are strict inner Kan but fail an outer horn;
#     nerves of groupoids fill every horn uniquely


def test_criterion_10_kan_pattern_separates_categories_from_groupoids():
    failures = []
    for label, C in [("poset", poset_category(2)), ("monoid", truncated_free_monoid(4))]:
        X = nerve(C, 3)
        for n, i in [(2, 1), (3, 1), (3, 2)]:
            if not kan_check(X, n, i, strict=True).ok:
                failures.append((label, "inner", n, i))
        outer = [kan_check(X, 2, i) for i in (0, 2)]
        bad = [r for r in outer if not r.ok]
        if not bad or any(r.unfilled is None for r in bad):
            failures.append((label, "outer horn unexpectedly filled"))
    for fam, size in [("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("pair", 2), ("pair", 3)]:
        X = nerve(standard_groupoid(fam, size), 3)
        for n in (2, 3):
            for i in range(n + 1):
                if not kan_check(X, n, i, strict=True).ok:
                    failures.append((fam, size, n, i))
    _verdict(10, "strict inner Kan for categories, unique full Kan for groupoids", failures)


# --------------------------------------------------------------------------
# 11. principality read off the linking category agrees flag for flag;
#     linking groupoids of biprincipal bundles validate


def test_criterion_11_linking_agrees_with_direct_principality():
    rng = random.Random(2611)
    failures = []
    groupoids_built = 0
    pool = _sample_bibundles(rng, 480, cap=14, principal_every=4)
    pool += [
        relabel_randomly(rng, identity_bibundle(standard_groupoid(fam, n)))
        for fam, n in [("trivial", 2), ("pair", 2), ("cyclic", 3), ("action", 2)]
    ]
    pool += [
        terminal_bibundle(standard_groupoid("pair", 2)),
        opposite_bibundle(terminal_bibundle(standard_groupoid("pair", 3))),
    ]
    for M in pool:
        direct = check_principal(M, "right")
        via = principality_via_linking(M)
        if (direct.surjective, direct.free, direct.transitive) != (
            via.surjective,
            via.free,
            via.transitive,
        ):
            failures.append((M.carrier.elements, direct, via))
            continue
        built = linking_groupoid(M)
        if isinstance(built, LinkingGroupoid):
            groupoids_built += 1
            if not validate_groupoid(built.groupoid).ok:
                failures.append(("linking groupoid invalid", M.carrier.elements))
    assert groupoids_built >= 6
    _verdict(11, "linking-category principality agrees flag for flag", failures)
