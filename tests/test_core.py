import gc
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from bibucalc import (
    StructuralError,
    action_groupoid,
    as_category,
    check_hom,
    connected_components,
    core,
    cyclic_groupoid,
    diagonal_hom,
    finset,
    identity_hom,
    one_object_groupoid,
    opposite_groupoid,
    pair_groupoid,
    power_groupoid,
    product_groupoid,
    swap_hom,
    trivial_groupoid,
    validate_category,
    validate_groupoid,
)
from bibucalc.core import factors_of, product_codec
from bibucalc.calculus import diagonal_bibundle, tensor_bibundle
from bibucalc.generators import random_groupoid, random_right_principal_bibundle
from bibucalc.groups import check_group, kronecker_finite
from bibucalc.io import groupoid_from_json, groupoid_to_json
from bibucalc.labels import LabelIndex, esc, tup, untup

from oracles import (
    eager_product_comp,
    encoded_arrow_labels,
    entry_fills,
    esc_loop,
    lookup_outcomes,
    product_comp_entry,
    product_groupoid_eager,
    tup_loop,
    validate_category_scan,
    validate_groupoid_scan,
)


@given(st.lists(st.text(max_size=6), max_size=5))
def test_tup_untup_roundtrip(parts):
    assert untup(tup(*parts)) == tuple(parts)


def test_tup_nests_without_collisions():
    inner = tup("a", "b")
    assert untup(tup(inner, "c")) == (inner, "c")
    assert tup() != tup("")
    assert untup(tup("")) == ("",)
    with pytest.raises(ValueError):
        untup("plain")


_CODEC_TEXT = st.text(alphabet="ab\\,()0", max_size=8)
# strings over the codec's special characters, and tuple labels nesting them
_CODEC_PARTS = st.recursive(
    _CODEC_TEXT, lambda inner: st.lists(inner, max_size=4).map(lambda ps: tup_loop(*ps)),
    max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(st.lists(_CODEC_PARTS, max_size=4))
def test_codec_matches_character_loop(parts):
    for part in parts:
        assert esc(part) == esc_loop(part)
    assert tup(*parts) == tup_loop(*parts)


def test_label_index_refuses_lookups_outside_it():
    index = LabelIndex()
    [label] = index.add_product([["a"], ["(b,c)"]])
    assert index.label_of[("a", "(b,c)")] is label
    assert index.parts_of[label] == ("a", "(b,c)")
    with pytest.raises(KeyError):
        index.label_of[("x", "")]
    with pytest.raises(KeyError):
        index.parts_of[tup("x", "")]
    assert ("x", "") not in index.label_of
    factors = [["a", "(b", ""], ["c,", "\\"]]
    labels = index.add_product(factors)
    assert labels == [tup(*combo) for combo in itertools.product(*factors)]
    assert all(index.label_of[index.parts_of[x]] is x for x in labels)


def test_finset_rejects_duplicates():
    with pytest.raises(StructuralError):
        finset(["a", "a"])


@pytest.mark.parametrize(
    "G",
    [
        trivial_groupoid(3),
        pair_groupoid(3),
        cyclic_groupoid(4),
        product_groupoid([pair_groupoid(2), cyclic_groupoid(3)]),
        opposite_groupoid(pair_groupoid(3)),
    ],
)
def test_standard_groupoids_validate(G):
    assert validate_groupoid(G).ok


def test_pair_groupoid_composition_orientation():
    G = pair_groupoid(3)
    # an arrow (i,j) runs from j to i
    assert G.l[tup("0", "1")] == "0"
    assert G.r[tup("0", "1")] == "1"
    assert G.mul(tup("0", "1"), tup("1", "2")) == tup("0", "2")
    with pytest.raises(StructuralError):
        G.mul(tup("0", "1"), tup("2", "1"))


def test_validation_flags_broken_tables():
    G = cyclic_groupoid(3)
    bad_comp = dict(G.comp)
    bad_comp[("1", "1")] = "0"  # should be 2
    broken = type(G)(G.objects, G.arrows, G.l, G.r, bad_comp, G.inv, G.unit)
    report = validate_groupoid(broken)
    assert not report.ok
    assert any(v.kind == "axiom" for v in report.entries)

    missing = type(G)(G.objects, G.arrows, {}, G.r, G.comp, G.inv, G.unit)
    report2 = validate_groupoid(missing)
    assert report2.entries and report2.entries[0].kind == "structural"


def test_action_groupoid_of_z2_swap():
    Z2 = cyclic_groupoid(2)
    A = action_groupoid(Z2, ["a", "b"], lambda k, z: z if k == "0" else ("b" if z == "a" else "a"))
    assert validate_groupoid(A).ok
    assert len(A.arrows) == 4
    assert A.l[tup("1", "a")] == "b"
    assert A.r[tup("1", "a")] == "a"


def test_action_groupoid_rejects_non_action():
    Z2 = cyclic_groupoid(2)
    with pytest.raises(StructuralError):
        # not an action: the non-unit element acts by a non-involution
        action_groupoid(Z2, ["a", "b", "c"], {("0", "a"): "a", ("0", "b"): "b", ("0", "c"): "c",
                                              ("1", "a"): "b", ("1", "b"): "c", ("1", "c"): "a"})


def test_power_groupoid_degenerate_cases():
    G = cyclic_groupoid(3)
    assert power_groupoid(G, 0) == trivial_groupoid(["()"])
    assert power_groupoid(G, 1) == G
    P = power_groupoid(G, 2)
    assert len(P.arrows) == 9
    assert validate_groupoid(P).ok


def test_sized_constructors_refuse_a_negative_size():
    for make in (trivial_groupoid, pair_groupoid):
        for n in (-1, -3):
            with pytest.raises(StructuralError, match="n >= 0"):
                make(n)
        empty = make(0)
        assert len(empty.objects) == len(empty.arrows) == 0 and validate_groupoid(empty).ok


def test_opposite_is_involutive():
    G = product_groupoid([pair_groupoid(2), cyclic_groupoid(2)])
    assert opposite_groupoid(opposite_groupoid(G)) == G


def test_one_object_groupoid_from_table():
    s3 = ["e", "r", "rr", "f", "fr", "frr"]
    # dihedral-free sanity: use Z/6 written multiplicatively instead
    mul = {}
    for i in range(6):
        for j in range(6):
            mul[(s3[i], s3[j])] = s3[(i + j) % 6]
    G = one_object_groupoid(s3, mul)
    assert validate_groupoid(G).ok
    assert G.unit["*"] == "e"


def test_homs_and_diagonal():
    G = cyclic_groupoid(4)
    assert check_hom(identity_hom(G)).ok
    d = diagonal_hom(G)
    assert check_hom(d).ok
    sw = swap_hom(G, pair_groupoid(2))
    assert check_hom(sw).ok


def test_connected_components():
    G = product_groupoid([trivial_groupoid(2), cyclic_groupoid(2)])
    comps = connected_components(G)
    assert len(comps) == 2
    P = pair_groupoid(4)
    assert len(connected_components(P)) == 1


@given(st.integers(1, 4), st.integers(1, 4))
def test_product_groupoid_counts(n, m):
    P = product_groupoid([pair_groupoid(n), cyclic_groupoid(m)])
    assert len(P.arrows) == n * n * m
    assert len(P.objects) == n


def _assert_non_composable_pairs_missing(P):
    """comp raises KeyError off its domain, like a dict, and get() gives None."""
    for key in (("x", "y"), ("()", "()"), ("(a)",), 5):
        with pytest.raises(KeyError):
            P.comp[key]
        assert P.comp.get(key) is None
    for g in P.arrows:
        for g2 in P.arrows:
            if P.r[g] != P.l[g2]:
                with pytest.raises(KeyError):
                    P.comp[(g, g2)]
                assert (g, g2) not in P.comp
                return


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
def test_product_comp_matches_eager_oracle(seeds):
    factors = [random_groupoid(random.Random(s), max_objects=2, max_isotropy=2, prefix=f"f{i}")
               for i, s in enumerate(seeds)]
    P = product_groupoid(factors)
    if len(factors) == 1:
        assert P is factors[0]
        return
    want = eager_product_comp(factors)
    assert P.comp == want
    assert want == P.comp
    assert len(P.comp) == len(want)
    assert list(P.comp) == list(want)
    assert list(P.comp.items()) == list(want.items())
    for key, h in want.items():
        assert P.comp[key] == h
    _assert_non_composable_pairs_missing(P)


def test_product_comp_of_a_large_power_matches_oracle_rule():
    G = kronecker_finite(3, 1).base
    P = power_groupoid(G, 4)
    assert len(P.comp) == len(G.comp) ** 4 == 531_441
    rng = random.Random(2024)
    items = list(G.comp.items())
    for _ in range(2_000):
        key, h = product_comp_entry([rng.choice(items) for _ in range(4)])
        assert P.comp[key] == h
    _assert_non_composable_pairs_missing(P)


# ---------------------------------------------------------------------------
# one live product per factor tuple


def _entries_over(factor_id: int) -> list:
    return [key for key in list(core._PRODUCTS.keys()) if factor_id in key]


def test_product_of_live_factors_is_shared():
    G = cyclic_groupoid(3)
    P = product_groupoid([G, G])
    assert product_groupoid([G, G]) is P
    assert power_groupoid(G, 2) is P
    assert product_groupoid([G, G, G]) is not P


def test_products_are_flat():
    G, H = cyclic_groupoid(3), pair_groupoid(2)
    cube = power_groupoid(G, 3)
    assert product_groupoid([power_groupoid(G, 2), G]) is cube
    assert product_groupoid([G, power_groupoid(G, 2)]) is cube
    GH = product_groupoid([G, H])
    P = product_groupoid([GH, GH])
    assert factors_of(P) == (G, H, G, H)
    assert product_groupoid([G, H, G, H]) is P
    # labels are flat: one component per flat factor, the last fastest
    assert P.arrows.elements[3] == tup(*[f.arrows.elements[0] for f in (G, H, G)], H.arrows.elements[3])


def test_the_point_and_one_factor():
    G = cyclic_groupoid(3)
    point = product_groupoid([])
    assert point is power_groupoid(G, 0)
    assert point == trivial_groupoid(["()"])
    assert factors_of(point) == ()
    assert product_groupoid([G]) is G
    assert power_groupoid(G, 1) is G
    # the point drops out of a product, and a lone remaining factor is itself
    assert product_groupoid([point, G, point]) is G
    assert product_groupoid([point, point]) is point
    GG = product_groupoid([G, G])
    assert product_groupoid([G, point, G]) is GG
    with pytest.raises(StructuralError):
        power_groupoid(G, -1)


def test_product_codec_splits_and_joins_per_part():
    G, H = cyclic_groupoid(3), pair_groupoid(2)
    GH = product_groupoid([G, H])
    point = power_groupoid(G, 0)
    for parts in ([G, H], [GH, G], [G, point, GH], [GH], [point], [], [G, G, H]):
        P, split, join = product_codec(parts)
        assert P is product_groupoid(parts)
        for table in ("objects", "arrows"):
            labels = [getattr(p, table).elements for p in parts]
            combos = list(itertools.product(*labels))
            assert [join(c) for c in combos] == list(getattr(P, table).elements)
            assert [split(x) for x in getattr(P, table).elements] == combos


def test_store_does_not_keep_products_alive():
    G = cyclic_groupoid(3)
    P = product_groupoid([G, G])
    assert _entries_over(id(G)) == [(id(G), id(G))]
    del P
    gc.collect()
    assert _entries_over(id(G)) == []


def test_equal_distinct_factors_get_distinct_equal_products():
    G, G2 = cyclic_groupoid(3), cyclic_groupoid(3)
    P, P2 = product_groupoid([G, G]), product_groupoid([G2, G2])
    assert P is not P2
    assert P == P2
    assert product_groupoid([G, G2]) is not P


def test_diagonal_and_tensor_share_the_square():
    M = random_right_principal_bibundle(random.Random(3), max_objects=2, max_isotropy=2)
    D = diagonal_bibundle(M.left_groupoid)
    assert D.right_groupoid is tensor_bibundle(M, M).left_groupoid


def test_check_group_leaves_no_product_of_its_base():
    data = kronecker_finite(8, 8)
    base_id = id(data.base)
    report = check_group(data)
    assert report.ok
    del data, report
    gc.collect()
    assert _entries_over(base_id) == []


# ---------------------------------------------------------------------------
# product tables read from the factors


def _random_factors(seeds):
    return [random_groupoid(random.Random(s), max_objects=2, max_isotropy=2, prefix=f"f{i}")
            for i, s in enumerate(seeds)]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=3))
def test_product_groupoid_matches_eager_oracle(seeds):
    factors = _random_factors(seeds)
    P = product_groupoid(factors)
    if len(factors) == 1:
        assert P is factors[0]
        return
    want = product_groupoid_eager(factors)
    assert P.objects == want.objects
    assert P.arrows == want.arrows
    for name in ("l", "r", "inv", "unit", "comp"):
        got, table = getattr(P, name), getattr(want, name)
        assert len(got) == len(table)
        assert list(got) == list(table)
        assert list(got.items()) == list(table.items())
        assert all(got[key] == value for key, value in table.items())
    for x in want.objects:
        assert P.l_fiber(x) == want.l_fiber(x)
        assert P.r_fiber(x) == want.r_fiber(x)
    assert P == want
    assert want == P
    assert json.dumps(groupoid_to_json(P)) == json.dumps(groupoid_to_json(want))


def _foreign_labels(factors) -> list[str]:
    """Labels that name no object or arrow of the product of factors: plain
    strings, tuples of the wrong length or with a part off its factor, and
    an arrow's parts under labels that decode to them, or nearly, but are
    not their encoding."""
    last = [f.arrows.elements[-1] for f in factors]
    arrow = tup(*last)
    return ["nowhere", "()", tup("nowhere"), tup(*last, last[0]), tup(*last[:-1]),
            tup(*last[:-1], "nowhere"), arrow[:-1] + "\\0)", "(" + arrow, arrow + ")"]


def _lazy_reads(G, labels) -> list:
    """What a product answers about labels through its arrows, unit and
    fibers, refusals included, without reading any table in full."""
    return [
        lookup_outcomes(G.arrows.index, labels),
        [x in G.arrows for x in labels],
        lookup_outcomes(G.unit.__getitem__, labels),
        [G.unit.get(x) for x in labels],
        [x in G.unit for x in labels],
        lookup_outcomes(G.l_fiber, labels),
        lookup_outcomes(G.r_fiber, labels),
        lookup_outcomes(G.inv.__getitem__, labels),
        len(G.arrows), len(G.unit),
    ]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=3), st.randoms(use_true_random=False))
def test_lazy_product_reads_match_eager_oracle(seeds, rnd):
    factors = _random_factors(seeds)
    P = product_groupoid(factors)
    if len(factors) == 1:
        assert P is factors[0]
        return
    want = product_groupoid_eager(factors)
    labels = list(want.objects) + list(want.arrows) + _foreign_labels(factors)
    # read in a random order, so that labels are encoded out of arrow order
    rnd.shuffle(labels)
    assert _lazy_reads(P, labels) == _lazy_reads(want, labels)
    assert len(encoded_arrow_labels(P)) <= len(want.arrows)
    assert P.arrows == want.arrows and want.arrows == P.arrows
    assert P.unit == want.unit and want.unit == P.unit and not P.unit != want.unit
    # a full iteration keeps arrow and object order whatever was read before
    assert list(P.arrows) == list(want.arrows)
    assert list(P.unit.items()) == list(want.unit.items())
    assert dict(P.unit) == want.unit and list(dict(P.unit)) == list(want.unit)
    assert _lazy_reads(P, labels) == _lazy_reads(want, labels)
    assert P == want and want == P


def test_lazy_product_refuses_labels_off_its_domains():
    G, H = pair_groupoid(2), cyclic_groupoid(3)
    P = product_groupoid([G, H])
    foreign = _foreign_labels([G, H])
    arrows_only = [g for g in product_groupoid_eager([G, H]).arrows if g not in P.objects]
    before = len(P.index.parts_of)
    for name in ("l", "r", "inv"):
        table = getattr(P, name)
        for label in list(P.objects) + foreign:
            assert table.get(label) is None
            with pytest.raises(KeyError):
                table[label]
    for label in arrows_only[:3] + foreign:
        assert P.unit.get(label) is None and label not in P.unit
        with pytest.raises(KeyError):
            P.unit[label]
    for label in list(P.objects) + foreign:
        assert label not in P.arrows
        with pytest.raises(StructuralError, match=re.escape(repr(label))):
            P.arrows.index(label)
    index = P.index
    for label in foreign:
        assert index.parts_of.get(label) is None and label not in index.parts_of
        with pytest.raises(KeyError):
            index.parts_of[label]
    # parts of the wrong length, or not one arrow per factor
    for parts in [("nowhere",), ("0", "0", "0"), (P.objects.elements[0],), (H.arrows.elements[0],) * 2]:
        assert index.label_of.get(parts) is None and parts not in index.label_of
        with pytest.raises(KeyError):
            index.label_of[parts]
    # refusals record nothing
    assert len(P.index.parts_of) == before
    assert encoded_arrow_labels(P) == []


def test_product_tables_refuse_labels_off_the_arrows():
    G, H = pair_groupoid(2), cyclic_groupoid(3)
    P = product_groupoid([G, H])
    Q = product_groupoid([H, G])
    foreign = ["nowhere", tup("*", "0"), tup("x", "y"), tup(tup("0", "1")), Q.arrows.elements[1]]
    for name in ("l", "r", "inv"):
        table = getattr(P, name)
        for label in list(P.objects) + foreign:
            assert table.get(label) is None
            assert table.get(label, "default") == "default"
            assert label not in table
            with pytest.raises(KeyError):
                table[label]
        g = P.arrows.elements[-1]
        assert g in table and table.get(g) == table[g]
    assert P.l == P.l and P.l != P.r and P.r != P.inv
    for label in list(P.arrows) + foreign:
        with pytest.raises(StructuralError, match=re.escape(repr(label))):
            P.l_fiber(label)
        with pytest.raises(StructuralError, match=re.escape(repr(label))):
            P.r_fiber(label)


class _CountingDict(dict):
    """A dict that counts the reads of its entries."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)

    def __iter__(self):
        self.reads += 1
        return super().__iter__()

    def items(self):
        self.reads += 1
        return super().items()

    def values(self):
        self.reads += 1
        return super().values()


def test_product_tables_fill_in_one_pass_once_read_in_full(monkeypatch):
    factors = [kronecker_finite(3, 1).base, pair_groupoid(2)]
    P, want = product_groupoid(factors), product_groupoid_eager(factors)
    fills = entry_fills(monkeypatch)
    # before a full read, a lookup fills its own entry alone
    g = want.arrows.elements[-1]
    assert P.l[g] == want.l[g] and P.l_fiber(want.l[g]) == want.l_fiber(want.l[g])
    assert len(fills) == 2 and fills[0] is P.l and fills[1] is P._l_fibers
    fills.clear()
    assert list(P.arrows) == list(want.arrows)
    for name in ("l", "r", "inv", "unit"):
        table = getattr(P, name)
        assert list(table.items()) == list(getattr(want, name).items())
        assert [table[k] for k in table] == list(getattr(want, name).values())
    for fibers, fiber in ((P._l_fibers, want.l_fiber), (P._r_fibers, want.r_fiber)):
        assert dict(fibers.items()) == {x: fiber(x) for x in want.objects}
    assert [P.r_fiber(x) for x in want.objects] == [want.r_fiber(x) for x in want.objects]
    assert fills == []


def test_a_product_given_plain_l_and_r_scans_its_fibers():
    P = product_groupoid([pair_groupoid(2), cyclic_groupoid(2)])
    Q = type(P)(P.objects, P.arrows, dict(P.l), dict(P.r), P.comp, P.inv, P.unit, P.index)
    assert [(Q.l_fiber(x), Q.r_fiber(x)) for x in P.objects] == [(P.l_fiber(x), P.r_fiber(x)) for x in P.objects]


def test_building_a_power_reads_no_entry_of_the_factor_tables():
    G = kronecker_finite(3, 1).base
    counted = {name: _CountingDict(getattr(G, name)) for name in ("l", "r", "inv")}
    F = type(G)(G.objects, G.arrows, counted["l"], counted["r"], G.comp, counted["inv"], G.unit)
    for table in counted.values():
        table.reads = 0
    P = power_groupoid(F, 4)
    assert len(P.arrows) == len(G.arrows) ** 4
    assert {name: table.reads for name, table in counted.items()} == {"l": 0, "r": 0, "inv": 0}
    g = P.arrows.elements[-1]
    assert P.l[g] == tup(*[G.l[part] for part in untup(g)])
    assert counted["l"].reads == 4


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=3), st.booleans())
def test_validate_product_matches_validate_of_its_json(seeds, damage):
    P = product_groupoid(_random_factors(seeds))
    if damage:
        # a unit that is not an endo-arrow at its object breaks several axioms
        unit = dict(P.unit)
        unit[P.objects.elements[0]] = P.arrows.elements[-1]
        P = type(P)(P.objects, P.arrows, P.l, P.r, P.comp, P.inv, unit, P.index)
    loaded = groupoid_from_json(groupoid_to_json(P), validate=False)
    assert validate_groupoid(P) == validate_groupoid(loaded)
    assert validate_category(as_category(P)) == validate_category(as_category(loaded))


def _damaged(G, rng, damage):
    """G with plain tables, comp listed in a shuffled order, and one kind of
    damage: a comp value replaced, two comp values swapped, an inv value
    replaced or a unit moved."""
    items = list(G.comp.items())
    rng.shuffle(items)
    comp, inv, unit = dict(items), dict(G.inv.items()), dict(G.unit)
    keys, arrows = list(comp), G.arrows.elements
    if damage == "replace":
        comp[rng.choice(keys)] = rng.choice(arrows)
    elif damage == "swap":
        a, b = rng.choice(keys), rng.choice(keys)
        comp[a], comp[b] = comp[b], comp[a]
    elif damage == "inv":
        inv[rng.choice(arrows)] = rng.choice(arrows)
    elif damage == "unit":
        unit[rng.choice(G.objects.elements)] = rng.choice(arrows)
    return type(G)(G.objects, G.arrows, dict(G.l.items()), dict(G.r.items()), comp, inv, unit)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["none", "replace", "swap", "inv", "unit"]))
def test_validation_matches_scan_oracle(seed, damage):
    rng = random.Random(seed)
    G = _damaged(random_groupoid(rng, max_objects=3, max_isotropy=3), rng, damage)
    assert validate_groupoid(G).entries == validate_groupoid_scan(G).entries
    assert validate_category(as_category(G)).entries == validate_category_scan(as_category(G)).entries


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 10_000), min_size=2, max_size=2), st.sampled_from(["none", "replace", "swap"]))
def test_validation_of_products_matches_scan_oracle(seeds, damage):
    P = product_groupoid(_random_factors(seeds))
    assert validate_groupoid(P).entries == validate_groupoid_scan(P).entries == ()
    G = _damaged(P, random.Random(seeds[0]), damage)
    assert validate_groupoid(G).entries == validate_groupoid_scan(G).entries


def test_comp_rows_over_one_object_list_their_arrows_in_one_order():
    # comp listed in a shuffled order: rows over one object come out of the
    # table in different orders, and are compared value list against value
    # list only once aligned
    G = _damaged(product_groupoid([pair_groupoid(2), cyclic_groupoid(3)]), random.Random(3), "none")
    C = core._plain_tables(G)
    rows = core._comp_rows(C, set(G.arrows.elements))
    orders = {}
    for g, row in rows.items():
        assert orders.setdefault(C.r[g], tuple(row)) == tuple(row)
        assert row == {g2: C.comp[(g, g2)] for g2 in G.l_fiber(C.r[g])}
    assert len(orders) == len(G.objects)


def test_check_hom_refuses_entries_off_the_source():
    G = cyclic_groupoid(3)
    phi = identity_hom(G)
    assert check_hom(phi).ok
    f0 = {**phi.f0, "zz": "*"}
    f1 = {**phi.f1, "zz": "0"}
    for hom, code in ((type(phi)(G, G, f0, phi.f1), "f0-domain"), (type(phi)(G, G, phi.f0, f1), "f1-domain")):
        rep = check_hom(hom)
        assert [(v.kind, v.code, v.witness) for v in rep.entries] == [("structural", code, ("zz",))]
