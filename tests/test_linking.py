import random

from hypothesis import given, settings
from hypothesis import strategies as st

from bibucalc import (
    LinkingGroupoid,
    NotBiprincipal,
    assemble_linking_category,
    bundlize,
    check_principal,
    cyclic_groupoid,
    diagonal_bibundle,
    flip_bibundle,
    identity_bibundle,
    linking_category,
    linking_groupoid,
    opposite_bibundle,
    pair_groupoid,
    principality_via_linking,
    swap_hom,
    validate_bibundle,
    validate_category,
    validate_groupoid,
)
from bibucalc.generators import (
    random_bibundle,
    random_groupoid,
    relabel_randomly,
)

from oracles import validate_category_scan


def test_linking_category_of_identity_counts():
    G = cyclic_groupoid(3)
    lk = linking_category(identity_bibundle(G))
    cat = lk.category
    assert len(cat.objects) == 2 * len(G.objects)
    assert len(cat.arrows) == 2 * len(G.arrows) + len(G.arrows)
    assert validate_category(cat).ok


def test_linking_category_tags_track_moments():
    G = pair_groupoid(2)
    M = identity_bibundle(G)
    cat = linking_category(M).category
    for m in M.carrier:
        assert cat.l[f"M:{m}"] == f"G:{M.lmap[m]}"
        assert cat.r[f"M:{m}"] == f"H:{M.rmap[m]}"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_linking_category_of_valid_bibundle_is_category(seed):
    rng = random.Random(seed)
    M = random_bibundle(rng, max_objects=2, max_isotropy=3)
    assert validate_bibundle(M).ok
    assert validate_category(linking_category(M).category).ok


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_principality_via_linking_matches_direct(seed):
    rng = random.Random(seed)
    M = random_bibundle(rng, max_objects=2, max_isotropy=3)
    direct = check_principal(M, "right")
    via = principality_via_linking(M)
    assert (via.surjective, via.free, via.transitive) == (
        direct.surjective, direct.free, direct.transitive)


def _biprincipal_samples(rng):
    G = random_groupoid(rng, max_objects=3, max_isotropy=3, n_comps=1, prefix="g")
    yield identity_bibundle(G)
    yield relabel_randomly(rng, identity_bibundle(G))
    H = random_groupoid(rng, max_objects=2, max_isotropy=2, n_comps=1, prefix="h")
    small = random_groupoid(rng, max_objects=2, max_isotropy=2, n_comps=1, prefix="s")
    yield flip_bibundle(small, H)
    P = random_groupoid(rng, max_objects=2, max_isotropy=3, n_comps=1)
    yield bundlize(swap_hom(P, P))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_linking_groupoid_on_biprincipal_bundles(seed):
    rng = random.Random(seed)
    for M in _biprincipal_samples(rng):
        out = linking_groupoid(M)
        assert isinstance(out, LinkingGroupoid)
        lk = out.groupoid
        assert len(lk.arrows) == (
            len(M.left_groupoid.arrows) + 2 * len(M.carrier) + len(M.right_groupoid.arrows))
        assert validate_groupoid(lk).ok


def test_linking_groupoid_mixed_composites_are_pairings():
    G = cyclic_groupoid(4)
    M = relabel_randomly(random.Random(7), identity_bibundle(G))
    lk = linking_groupoid(M).groupoid
    for m in M.carrier:
        assert lk.inv[f"M:{m}"] == f"Mop:{m}"
        # m . inv(m) lands on the unit over the left moment
        assert lk.comp[(f"M:{m}", f"Mop:{m}")] == f"G:{G.unit[M.lmap[m]]}"
        assert lk.comp[(f"Mop:{m}", f"M:{m}")] == f"H:{G.unit[M.rmap[m]]}"


def test_linking_groupoid_refuses_non_biprincipal():
    G = cyclic_groupoid(2)
    out = linking_groupoid(diagonal_bibundle(G))
    assert isinstance(out, NotBiprincipal)
    assert not out.report.ok
    # right principal but not left principal: bundlization of a non-iso
    rng = random.Random(3)
    H = cyclic_groupoid(4)
    from bibucalc import GroupoidHom
    phi = GroupoidHom(cyclic_groupoid(2), H,
                      {"*": "*"}, {"0": "0", "1": "2"})
    M = bundlize(phi)
    assert check_principal(M, "right").ok
    out = linking_groupoid(M)
    assert isinstance(out, NotBiprincipal)
    assert out.report.side == "left"


def _perturb_tables(rng, M):
    left = dict(M.left_table())
    right = dict(M.right_table())
    points = list(M.carrier)
    n_hits = rng.randrange(0, 4)
    for _ in range(n_hits):
        table = left if rng.random() < 0.5 and left else right
        if not table:
            continue
        key = rng.choice(list(table))
        table[key] = rng.choice(points)
    return left, right


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_category_validity_iff_bibundle_validity(seed):
    """Raw action tables satisfy the bibundle laws exactly when the assembled
    linking data is a category."""
    rng = random.Random(seed)
    M = random_bibundle(rng, max_objects=2, max_isotropy=3)
    left, right = _perturb_tables(rng, M)
    from bibucalc import bibundle_from_tables
    N = bibundle_from_tables(
        M.left_groupoid, M.right_groupoid, list(M.carrier),
        dict(M.lmap), dict(M.rmap), left, right)
    cat = assemble_linking_category(
        M.left_groupoid, M.right_groupoid, list(M.carrier),
        M.lmap, M.rmap, left, right)
    assert validate_bibundle(N).ok == validate_category(cat).ok
    assert validate_category(cat).entries == validate_category_scan(cat).entries


def test_opposite_of_biprincipal_gives_linking_groupoid_too():
    G = pair_groupoid(3)
    M = opposite_bibundle(relabel_randomly(random.Random(1), identity_bibundle(G)))
    out = linking_groupoid(M)
    assert isinstance(out, LinkingGroupoid)
    assert validate_groupoid(out.groupoid).ok
