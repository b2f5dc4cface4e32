import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibucalc import (
    bundlize,
    check_hom,
    compose,
    connected_components,
    cv_bibundle,
    cyclic_groupoid,
    diagonal_bibundle,
    diagonal_hom,
    ev_bibundle,
    find_iso,
    opposite_bibundle,
    pair_groupoid,
    product_groupoid,
    swap_hom,
    tensor_bibundle,
    validate_bibundle,
    validate_iso,
)
from bibucalc import calculus, diagram, groups
from bibucalc.calculus import identity_bibundle
from bibucalc.diagram import (
    DiagramEnv,
    DiagramError,
    Gen,
    Seq,
    Tensor,
    check_identity,
    evaluate,
    evaluate_wired,
    interchange_blocks,
    parse,
    tensor_wired,
    to_text,
    typecheck,
    wired_tensor_witness,
)
from bibucalc.generators import random_groupoid, random_hom, relabel_randomly, standard_groupoid

from oracles import bundle_tables, interchange_witness_binary, juxtapose_scan, tensor_witness_binary


def test_parse_shapes_and_precedence():
    ast = parse("delta ; (id * eps)")
    assert isinstance(ast, Seq) and len(ast.parts) == 2
    assert isinstance(ast.parts[1], Tensor)
    # '*' binds tighter than ';'
    assert parse("a ; b * c") == Seq((Gen("a"), Tensor((Gen("b"), Gen("c")))))
    assert parse("(a ; b) * c") == Tensor((Seq((Gen("a"), Gen("b"))), Gen("c")))
    assert parse("mu'") == Gen("mu'")


def test_parse_round_trip():
    for text in [
        "delta ; (delta * id)",
        "(cv * id) ; (id * ev)",
        "a ; b * c ; d",
        "x * (y ; z) * w",
        "cv ; (eps * delta)",
    ]:
        ast = parse(text)
        assert parse(to_text(ast)) == ast


def test_parse_errors_carry_spans():
    with pytest.raises(DiagramError) as e:
        parse("(a ; b")
    assert e.value.span == (6, 6)
    with pytest.raises(DiagramError) as e:
        parse("a & b")
    assert e.value.span == (2, 3)
    with pytest.raises(DiagramError) as e:
        parse("a b")
    assert e.value.span == (2, 3)
    with pytest.raises(DiagramError):
        parse("a ; ; b")
    with pytest.raises(DiagramError):
        parse("")


def test_parse_refuses_nesting_too_deep_to_follow():
    deep = "(" * 3000 + "id" + ")" * 3000
    with pytest.raises(DiagramError, match="nested too deeply") as e:
        parse(deep)
    start, end = e.value.span
    assert deep[start:end] == "("
    # nesting the parser can follow still parses
    assert parse("(" * 50 + "id" + ")" * 50) == Gen("id")


def test_typecheck_arities():
    env = DiagramEnv(standard_groupoid("cyclic", 3))
    assert typecheck(env, "delta ; (id * delta)") == (1, 3)
    assert typecheck(env, "cv ; (eps * eps)") == (0, 0)
    assert typecheck(env, "ev") == (2, 0)
    with pytest.raises(DiagramError):
        typecheck(env, "ev ; ev")
    with pytest.raises(DiagramError):
        typecheck(env, "nope")


BASES = [
    standard_groupoid("cyclic", 3),
    standard_groupoid("pair", 2),
    standard_groupoid("action", 2),
]


@pytest.mark.parametrize("G", BASES)
def test_comultiplication_is_coassociative(G):
    env = DiagramEnv(G)
    assert check_identity(env, "delta ; (delta * id)", "delta ; (id * delta)").ok


@pytest.mark.parametrize("G", BASES)
def test_counit_laws(G):
    env = DiagramEnv(G)
    assert check_identity(env, "delta ; (eps * id)", "id").ok
    assert check_identity(env, "delta ; (id * eps)", "id").ok


@pytest.mark.parametrize("G", BASES)
def test_zig_zags_straighten(G):
    env = DiagramEnv(G)
    assert check_identity(env, "(cv * id) ; (id * ev)", "id").ok
    assert check_identity(env, "(id * cv) ; (ev * id)", "id").ok


@pytest.mark.parametrize("G", BASES)
def test_swap_is_an_involution_and_commutes(G):
    env = DiagramEnv(G)
    assert check_identity(env, "tau ; tau", "id * id").ok
    assert check_identity(env, "delta ; tau", "delta").ok
    assert check_identity(env, "tau ; ev", "ev").ok
    assert check_identity(env, "cv ; tau", "cv").ok


@pytest.mark.parametrize("G", BASES)
def test_pairing_absorbs_the_diagonal(G):
    env = DiagramEnv(G)
    assert check_identity(env, "cv ; (delta * eps)", "cv").ok
    assert check_identity(env, "cv ; (eps * delta)", "cv").ok


@pytest.mark.parametrize("G", BASES)
def test_closed_loop_counts_components(G):
    env = DiagramEnv(G)
    loop = evaluate(env, "cv ; (eps * eps)")
    assert validate_bibundle(loop).ok
    assert len(loop.carrier) == len(connected_components(G))


@pytest.mark.parametrize("G", BASES)
def test_diagonal_then_ev_is_the_isotropy_bundle(G):
    env = DiagramEnv(G)
    iso = evaluate(env, "delta ; ev")
    assert validate_bibundle(iso).ok
    loops = [g for g in G.arrows if G.l[g] == G.r[g]]
    assert len(iso.carrier) == len(loops)
    counts: dict[str, int] = {}
    for p in iso.carrier:
        counts[iso.lmap[p]] = counts.get(iso.lmap[p], 0) + 1
    expected: dict[str, int] = {}
    for g in loops:
        expected[G.l[g]] = expected.get(G.l[g], 0) + 1
    assert counts == expected


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_swap_is_natural_for_bound_bundles(seed):
    rng = random.Random(seed)
    G = random_groupoid(rng, max_objects=2, max_isotropy=3, n_comps=1)
    M = bundlize(random_hom(rng, G, G))
    N = bundlize(random_hom(rng, G, G))
    env = DiagramEnv(G, bindings={"M": M, "N": N})
    assert check_identity(env, "(M * N) ; tau", "tau ; (N * M)").ok


def test_bound_names_get_arities_from_their_groupoids():
    G = standard_groupoid("cyclic", 2)
    env = DiagramEnv(G, bindings={"q": diagonal_bibundle(G)})
    assert typecheck(env, "q") == (1, 2)
    assert check_identity(env, "q ; (eps * id)", "id").ok


def test_tensor_wired_flattens_to_one_power():
    G = standard_groupoid("cyclic", 2)
    env = DiagramEnv(G)
    w = evaluate_wired(env, "id * id * id")
    assert w.bib.left_groupoid is env.power(3)
    assert w.bib.right_groupoid is env.power(3)
    assert len(w.bib.carrier) == len(G.arrows) ** 3


def test_tensor_store_returns_the_live_tensor_of_the_same_parts():
    env = DiagramEnv(standard_groupoid("cyclic", 2))
    a, b = env.resolve("id"), env.resolve("delta")
    t = tensor_wired([a, b])
    again = tensor_wired([a, b])
    assert again.bib is t.bib and (again.m, again.n) == (t.m, t.n) == (2, 3)
    assert t.bib.parts == (a.bib, b.bib)
    assert tensor_bibundle(a.bib, b.bib) is t.bib
    assert tensor_wired([b, a]).bib is not t.bib
    # a tensor in an expression is the live one too, in any env
    assert evaluate_wired(env, "id * delta").bib is t.bib
    assert evaluate_wired(DiagramEnv(env.base, {"x": a.bib, "y": b.bib}), "x * y").bib is t.bib


class _CountingStore(weakref.WeakValueDictionary):
    """A store that counts the entries put in it: one per build."""

    def __init__(self):
        super().__init__()
        self.builds = 0

    def __setitem__(self, key, value):
        self.builds += 1
        super().__setitem__(key, value)


def test_tensor_store_lets_unused_tensors_go(monkeypatch):
    # an empty store of the same kind, so that only this tensor is in it
    monkeypatch.setattr(calculus, "_TENSORS", type(calculus._TENSORS)())
    env = DiagramEnv(standard_groupoid("cyclic", 2))
    t = tensor_wired([env.resolve("id"), env.resolve("tau")])
    assert list(calculus._TENSORS.values()) == [t.bib]
    del t
    gc.collect()
    assert len(calculus._TENSORS) == 0


def test_tensor_store_keys_by_identity_not_equality():
    G = standard_groupoid("cyclic", 2)
    env = DiagramEnv(G)
    x, y = env.wire(identity_bibundle(G)), env.wire(identity_bibundle(G))
    assert x.bib == y.bib and x.bib is not y.bib
    tx, ty = tensor_wired([x, x]), tensor_wired([x, y])
    assert tx.bib is not ty.bib
    assert tx.bib == ty.bib


def test_coherence_builds_each_tensor_and_composite_once(monkeypatch):
    """Builds are store misses; calls, which include the hits, are many more."""
    for n, q in ((2, 1), (4, 2)):
        for store in ("_TENSORS", "_COMPOSITES"):
            monkeypatch.setattr(calculus, store, _CountingStore())
        rep = groups.check_coherence(groups.kronecker_finite(n, q))
        assert rep.ok and rep.attempts == 2
        builds = {"tensor": calculus._TENSORS.builds, "compose": calculus._COMPOSITES.builds}
        assert builds == {"tensor": 18, "compose": 31}


def test_tensor_wired_matches_juxtapose_oracle_on_coherence(monkeypatch):
    calls = []
    tensor = diagram.tensor_wired

    def recording(parts):
        out = tensor(parts)
        calls.append((list(parts), out))
        return out

    for module in (diagram, groups):
        monkeypatch.setattr(module, "tensor_wired", recording)
    data = groups.kronecker_finite(2, 1)
    assert groups.check_coherence(data).ok
    env = data.env()
    seen = set()
    for ws, out in calls:
        key = tuple((id(w.bib), w.m, w.n) for w in ws)
        if len(ws) < 2 or key in seen:
            continue
        seen.add(key)
        assert (out.m, out.n) == (sum(w.m for w in ws), sum(w.n for w in ws))
        assert bundle_tables(out.bib) == bundle_tables(juxtapose_scan(env, ws))
    assert len(seen) == 18


def _hom_bundle(rng, G):
    """A bundle over G on both sides, right principal or its opposite."""
    M = bundlize(random_hom(rng, G, G))
    return M if rng.random() < 0.5 else opposite_bibundle(M)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_interchange_blocks_matches_binary_witness_oracle(seed):
    rng = random.Random(seed)
    G = random_groupoid(rng, max_objects=2, max_isotropy=2)
    env = DiagramEnv(G)
    A, B, C, D = (_hom_bundle(rng, G) for _ in range(4))
    top, bottom = [env.wire(A), env.wire(B)], [env.wire(C), env.wire(D)]
    w, comps = interchange_blocks(top, bottom, [(1, 1), (1, 1)])
    want = interchange_witness_binary(A, B, C, D)
    assert list(w.source.carrier) == list(want.source.carrier)
    assert list(w.target.carrier) == list(want.target.carrier)
    assert list(w.forward.items()) == list(want.forward.items())
    assert [c.bib.factors for c in comps] == [(A, C), (B, D)]
    assert validate_iso(w).ok


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9))
def test_wired_tensor_witness_matches_binary_witness_oracle(seed):
    rng = random.Random(seed)
    G = random_groupoid(rng, max_objects=2, max_isotropy=2)
    env = DiagramEnv(G)
    entries, witnesses = [], []
    for _ in range(2):
        M = _hom_bundle(rng, G)
        w = find_iso(M, relabel_randomly(rng, M))
        witnesses.append(w)
        entries.append((w, env.wire(w.source), env.wire(w.target)))
    got = wired_tensor_witness(entries)
    want = tensor_witness_binary(*witnesses)
    assert list(got.forward.items()) == list(want.forward.items())
    assert validate_iso(got).ok


def test_constructors_over_a_product_base():
    P = product_groupoid([pair_groupoid(2), cyclic_groupoid(2)])
    assert check_hom(swap_hom(P, P)).ok
    assert check_hom(diagonal_hom(P)).ok
    for M in (diagonal_bibundle(P), ev_bibundle(P), cv_bibundle(P)):
        assert validate_bibundle(M).ok
    env = DiagramEnv(P)
    assert check_identity(env, "tau ; tau", "id * id").ok
    assert check_identity(env, "delta ; tau", "delta").ok
    assert typecheck(env, "delta * ev") == (3, 2)


def test_wire_keeps_a_pinned_composites_factors():
    # two equal bases that are distinct objects, so their powers are too
    built, env = DiagramEnv(standard_groupoid("cyclic", 2)), DiagramEnv(standard_groupoid("cyclic", 2))
    composite = compose(evaluate_wired(built, "delta * id").bib,
                        evaluate_wired(built, "tau * id").bib)
    pinned = env.wire(composite).bib
    # pinned over env's powers, and still a composite of the same factors
    assert pinned is not composite and pinned.left_groupoid is not composite.left_groupoid
    assert pinned.left_groupoid is env.power(2) and pinned.right_groupoid is env.power(3)
    assert pinned.factors is composite.factors
    pair = composite.index.parts_of[composite.carrier.elements[0]]
    assert pinned.project(*pair) == composite.carrier.elements[0]
    # the same carrier, moments and actions, over the pinned groupoids
    assert bundle_tables(pinned)[2:] == bundle_tables(composite)[2:]


def test_identity_check_reports_arity_mismatch():
    env = DiagramEnv(standard_groupoid("cyclic", 2))
    rep = check_identity(env, "delta", "id")
    assert not rep.ok
    assert "arities differ" in rep.reason


def test_failing_identity_is_reported_not_raised():
    env = DiagramEnv(standard_groupoid("cyclic", 3))
    rep = check_identity(env, "delta ; ev", "eps")
    assert not rep.ok
