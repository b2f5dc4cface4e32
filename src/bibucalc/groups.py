"""Group-like structures on a groupoid, phrased as diagram identities.

A multiplication is a 2->1 bibundle mu over the base, a unit is a 0->1
bibundle e. Associativity and unitality hold up to equivariant bijections;
invertibility is not extra data but a property: the preinverse bundle
built from mu, e and the canonical pairing must be weakly invertible.
Coherence asks that the chosen associator and unitors close two witness
loops (the reassociation loop on four inputs and the unit loop on two).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from typing import Iterator, Sequence

from .bibundle import Bibundle
from .calculus import (
    IsoWitness,
    WeakIso,
    _bi_orbit_reps,
    all_isos,
    assoc_witness,
    bundlize,
    chain_witnesses,
    comp_witness,
    compose,
    find_iso,
    identity_bibundle,
    identity_witness,
    invert_witness,
    is_weak_isomorphism,
    lunit_witness,
    runit_witness,
)
from .core import (
    FinGroupoid,
    GroupoidHom,
    StructuralError,
    action_groupoid,
    check_hom,
    cycle_collector_paused,
    one_object_groupoid,
    power_groupoid,
    product_codec,
    trivial_groupoid,
)
from .diagram import (
    DiagramEnv,
    IdentityCheck,
    Wired,
    check_identity,
    evaluate,
    interchange_blocks,
    tensor_wired,
    wired_tensor_witness,
)
from .labels import tup

PREINVERSE_EXPR = "(cv * id * e) ; (id * mu * id) ; (id * ev)"


@dataclass
class StackyGroupData:
    """A base groupoid with multiplication and unit bundles (and maybe an
    explicit inverse bundle i)."""

    base: FinGroupoid
    mu: Bibundle
    e: Bibundle
    i: Bibundle | None = None
    _env: DiagramEnv | None = field(default=None, repr=False, compare=False)

    def env(self) -> DiagramEnv:
        if self._env is None:
            bindings = {"mu": self.mu, "e": self.e}
            if self.i is not None:
                bindings["i"] = self.i
            self._env = DiagramEnv(self.base, bindings)
        return self._env


@dataclass(frozen=True)
class MonoidReport:
    associative: IdentityCheck
    left_unital: IdentityCheck
    right_unital: IdentityCheck

    @property
    def ok(self) -> bool:
        return self.associative.ok and self.left_unital.ok and self.right_unital.ok


def check_monoid(data: StackyGroupData) -> MonoidReport:
    env = data.env()
    return MonoidReport(
        associative=check_identity(env, "(mu * id) ; mu", "(id * mu) ; mu"),
        left_unital=check_identity(env, "(e * id) ; mu", "id"),
        right_unital=check_identity(env, "(id * e) ; mu", "id"),
    )


@dataclass(frozen=True)
class BimonoidReport:
    mult_counit: IdentityCheck
    mult_comult: IdentityCheck
    unit_counit: IdentityCheck
    unit_comult: IdentityCheck

    @property
    def ok(self) -> bool:
        return (self.mult_counit.ok and self.mult_comult.ok
                and self.unit_counit.ok and self.unit_comult.ok)


def check_bimonoid(data: StackyGroupData) -> BimonoidReport:
    """mu and e interact with the canonical comultiplication and counit."""
    env = data.env()
    point = identity_bibundle(env.power(0))
    return BimonoidReport(
        mult_counit=check_identity(env, "mu ; eps", "eps * eps"),
        mult_comult=check_identity(
            env, "mu ; delta", "(delta * delta) ; (id * tau * id) ; (mu * mu)"),
        unit_counit=check_identity(env, "e ; eps", point),
        unit_comult=check_identity(env, "e ; delta", "e * e"),
    )


def preinverse(data: StackyGroupData) -> Bibundle:
    """The 1->1 bundle pairing a group element against a fresh unit.

    For an honest group this is inversion; in general the group axiom is
    exactly that this bundle is weakly invertible.
    """
    return evaluate(data.env(), PREINVERSE_EXPR)


@dataclass(frozen=True)
class AntipodeReport:
    left: IdentityCheck
    right: IdentityCheck
    matches_preinverse: bool

    @property
    def ok(self) -> bool:
        return self.left.ok and self.right.ok and self.matches_preinverse


@dataclass(frozen=True)
class GroupReport:
    monoid: MonoidReport
    preinverse_bundle: Bibundle
    invertible: WeakIso
    antipode: AntipodeReport | None = None

    @property
    def ok(self) -> bool:
        if not (self.monoid.ok and self.invertible.ok):
            return False
        return self.antipode is None or self.antipode.ok


@cycle_collector_paused()
def check_group(data: StackyGroupData) -> GroupReport:
    """The monoid axioms, the preinverse and its weak invertibility, and the
    antipode identities when data has an inverse i. Runs with the cycle
    collector paused (see core.cycle_collector_paused)."""
    env = data.env()
    monoid = check_monoid(data)
    s = preinverse(data)
    weak = is_weak_isomorphism(s)
    antipode = None
    if data.i is not None:
        left = check_identity(env, "delta ; (i * id) ; mu", "eps ; e")
        right = check_identity(env, "delta ; (id * i) ; mu", "eps ; e")
        matches = find_iso(env.resolve("i").bib, env.wire(s).bib) is not None
        antipode = AntipodeReport(left, right, matches)
    return GroupReport(monoid, s, weak, antipode)


# ---------------------------------------------------------------------------
# coherence of the associator and unitors


@dataclass(frozen=True)
class CoherenceReport:
    associator_coherent: bool
    units_coherent: bool
    associator: IsoWitness | None
    left_unitor: IsoWitness | None
    right_unitor: IsoWitness | None
    attempts: int
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.associator_coherent and self.units_coherent


Paths = tuple[list[IsoWitness], list[IsoWitness]]


def _loop_closes(left_edges: Sequence[IsoWitness], right_edges: Sequence[IsoWitness]) -> bool:
    """Whether the two paths of 2-cells out of the loop's start agree. Every
    edge is biequivariant, and so is each path, so they agree everywhere
    when they agree at one point per bi-orbit of start (see
    calculus._bi_orbit_reps): they are compared there, each point looked up
    through the edges' point maps. When every bi-orbit is one point, as
    over a discrete base, both paths are read in full, each edge in one
    pass."""
    lw, rw = chain_witnesses(*left_edges), chain_witnesses(*right_edges)
    lf, rf = lw.forward, rw.forward
    reps = _bi_orbit_reps(lw.source)
    if len(reps) == len(lw.source.carrier):
        return lf == rf
    return all(lf[x] == rf[x] for x in reps)


class _CoherenceLoops:
    """The two coherence loops of a stacky group's data, each a function of
    its candidate 2-cells. reassociation(ass) gives the two paths from
    ((ab)c)d to a(b(cd)) built out of the associator ass; unit(associator,
    runi, luni) gives the two ways of cancelling a unit inserted between two
    factors. associators and unitor_pairs yield the candidates in search
    order, at most limit of each witness. The edges that no candidate
    enters are built once, the reassociation loop's here and the unit
    loop's on its first use, and kept: as an edge builds its own endpoints,
    and compose and tensor_bibundle return the live result for the same
    inputs, every node is built once while this object is alive."""

    def __init__(self, data: StackyGroupData):
        env = data.env()
        mu_w, self._e_w, id_w = env.resolve("mu"), env.resolve("e"), env.resolve("id")
        mu_b, id_b = mu_w.bib, id_w.bib
        self._mu_w, self._id_w = mu_w, id_w

        self._d1_3, self._d2_3 = d1_3, d2_3 = tensor_wired([mu_w, id_w]).bib, tensor_wired([id_w, mu_w]).bib
        self._X1w, self._X2w = Wired(compose(d1_3, mu_b), 3, 1), Wired(compose(d2_3, mu_b), 3, 1)
        d1_4 = tensor_wired([mu_w, id_w, id_w]).bib
        d2_4 = tensor_wired([id_w, mu_w, id_w]).bib
        d3_4 = tensor_wired([id_w, id_w, mu_w]).bib
        self._IdIdw = Wired(compose(id_b, id_b), 1, 1)
        self._idid_witness = identity_witness(self._IdIdw.bib)
        self._mu_id_w = mu_id_w = identity_witness(mu_b)

        # block regroupings that do not involve the associator
        self._ich_l0, _ = interchange_blocks([mu_w, id_w, id_w], [mu_w, id_w], [(2, 1), (1, 1)])
        self._ich_l1, _ = interchange_blocks([id_w, mu_w, id_w], [mu_w, id_w], [(2, 1), (1, 1)])
        self._ich_l4, _ = interchange_blocks([id_w, mu_w, id_w], [id_w, mu_w], [(1, 1), (2, 1)])
        self._ich_l5, _ = interchange_blocks([id_w, id_w, mu_w], [id_w, mu_w], [(1, 1), (2, 1)])
        ich_r3, (MuIdw, IdMuw) = interchange_blocks([mu_w, id_w, id_w], [id_w, mu_w], [(1, 1), (2, 1)])
        ich_r4, _ = interchange_blocks([id_w, id_w, mu_w], [mu_w, id_w], [(2, 1), (1, 1)])
        to_mu_r = runit_witness(mu_b, composed=MuIdw.bib)
        self._to_mu_l = to_mu_l = lunit_witness(mu_b, composed=IdMuw.bib)
        squeeze_a = wired_tensor_witness([(to_mu_r, MuIdw, mu_w), (to_mu_l, IdMuw, mu_w)])
        squeeze_b = wired_tensor_witness([(to_mu_l, IdMuw, mu_w), (to_mu_r, MuIdw, mu_w)])
        middle_swap = chain_witnesses(ich_r3, squeeze_a, invert_witness(squeeze_b),
                                      invert_witness(ich_r4))
        self._edge_r4 = comp_witness(middle_swap, mu_id_w)

        # associator-independent associativity-of-composition edges
        self._as_l2 = assoc_witness(d2_4, d1_3, mu_b)
        self._as_l4 = assoc_witness(d2_4, d2_3, mu_b)
        self._as_l6 = assoc_witness(d3_4, d2_3, mu_b)
        self._as_r1 = assoc_witness(d1_4, d1_3, mu_b)
        self._as_r3 = assoc_witness(d1_4, d2_3, mu_b)
        self._as_r5 = assoc_witness(d3_4, d1_3, mu_b)

        self._id_d14, self._id_d24, self._id_d34 = map(identity_witness, (d1_4, d2_4, d3_4))
        self._unit_edges: tuple | None = None

    def associators(self, limit: int) -> Iterator[IsoWitness]:
        return all_isos(self._X1w.bib, self._X2w.bib, limit=limit)

    def reassociation(self, ass: IsoWitness) -> Paths:
        X1w, X2w, IdIdw, idid, mu_id_w = self._X1w, self._X2w, self._IdIdw, self._idid_witness, self._mu_id_w
        w_mid_l0 = wired_tensor_witness([(ass, X1w, X2w), (idid, IdIdw, IdIdw)])
        w_mid_l4 = wired_tensor_witness([(idid, IdIdw, IdIdw), (ass, X1w, X2w)])
        left_path = [
            comp_witness(chain_witnesses(self._ich_l0, w_mid_l0, invert_witness(self._ich_l1)), mu_id_w),
            self._as_l2, comp_witness(self._id_d24, ass), invert_witness(self._as_l4),
            comp_witness(chain_witnesses(self._ich_l4, w_mid_l4, invert_witness(self._ich_l5)), mu_id_w),
            self._as_l6,
        ]
        right_path = [self._as_r1, comp_witness(self._id_d14, ass), invert_witness(self._as_r3),
                      self._edge_r4, self._as_r5, comp_witness(self._id_d34, ass)]
        return left_path, right_path

    def _unit_loop(self) -> tuple:
        """The unit loop's edges that no candidate enters, built on first use."""
        if self._unit_edges is None:
            mu_w, e_w, id_w = self._mu_w, self._e_w, self._id_w
            s1_2 = tensor_wired([id_w, e_w, id_w]).bib
            ich_p_l, (IdE_Muw, _) = interchange_blocks([id_w, e_w, id_w], [mu_w, id_w], [(2, 1), (1, 1)])
            ich_p_r, (_, E_Id_Muw) = interchange_blocks([id_w, e_w, id_w], [id_w, mu_w], [(1, 1), (2, 1)])
            self._unit_edges = (
                IdE_Muw, E_Id_Muw, ich_p_l, ich_p_r,
                assoc_witness(s1_2, self._d1_3, mu_w.bib), assoc_witness(s1_2, self._d2_3, mu_w.bib),
                identity_witness(s1_2), lunit_witness(id_w.bib, composed=self._IdIdw.bib),
            )
        return self._unit_edges

    def unitor_pairs(self, limit: int) -> Iterator[tuple[IsoWitness, IsoWitness]]:
        """The (right unitor, left unitor) candidate pairs, in search order."""
        IdE_Muw, E_Id_Muw = self._unit_loop()[:2]
        id_b = self._id_w.bib
        runi_cands = list(all_isos(IdE_Muw.bib, id_b, limit=limit))
        luni_cands = list(all_isos(E_Id_Muw.bib, id_b, limit=limit))
        return itertools.product(runi_cands, luni_cands)

    def unit(self, associator: IsoWitness, runi: IsoWitness, luni: IsoWitness) -> Paths:
        IdE_Muw, E_Id_Muw, ich_p_l, ich_p_r, as_p_l, as_p_r, id_s, squeeze_idid = self._unit_loop()
        id_w, IdIdw, mu_id_w = self._id_w, self._IdIdw, self._mu_id_w
        # both paths end at (Id * Id) ; mu, collapsed onto mu
        w_l = wired_tensor_witness([(runi, IdE_Muw, id_w), (squeeze_idid, IdIdw, id_w)])
        w_r = wired_tensor_witness([(squeeze_idid, IdIdw, id_w), (luni, E_Id_Muw, id_w)])
        left_path = [invert_witness(as_p_l), comp_witness(chain_witnesses(ich_p_l, w_l), mu_id_w),
                     self._to_mu_l]
        right_path = [comp_witness(id_s, associator), invert_witness(as_p_r),
                      comp_witness(chain_witnesses(ich_p_r, w_r), mu_id_w), self._to_mu_l]
        return left_path, right_path


@cycle_collector_paused()
def check_coherence(data: StackyGroupData, max_candidates: int = 64) -> CoherenceReport:
    """Search for an associator and unitors whose two canonical loops close.

    The reassociation loop compares the two witness paths from ((ab)c)d to
    a(b(cd)) built out of one associator; the unit loop compares the two ways
    of cancelling an inserted unit between two factors (see
    _CoherenceLoops). Candidates are tried in search order, bounded by
    max_candidates per witness, which must be at least 1. A loop closes
    when its two paths agree at one point per bi-orbit of its start, each
    edge asked only there through its point maps (see _loop_closes); the
    associator and unitors returned are the search's full tables. Runs with
    the cycle collector paused (see core.cycle_collector_paused).
    """
    if max_candidates < 1:
        raise StructuralError(f"max_candidates must be at least 1, got {max_candidates}")
    loops = _CoherenceLoops(data)
    attempts = 0
    associator = None
    for ass in loops.associators(max_candidates):
        attempts += 1
        if _loop_closes(*loops.reassociation(ass)):
            associator = ass
            break
    if associator is None:
        return CoherenceReport(False, False, None, None, None, attempts,
                               note="no associator closes the reassociation loop")

    unitors = None
    for runi, luni in loops.unitor_pairs(max_candidates):
        attempts += 1
        if _loop_closes(*loops.unit(associator, runi, luni)):
            unitors = (luni, runi)
            break
    if unitors is None:
        return CoherenceReport(True, False, associator, None, None, attempts,
                               note="no unitor pair closes the unit loop")
    return CoherenceReport(True, True, associator, unitors[0], unitors[1], attempts)


# ---------------------------------------------------------------------------
# fixtures: inclusion crossed modules and their 2-groups


@dataclass(frozen=True)
class CrossedModuleIncl:
    """A normal subgroup A of a finite group B, both given as one-object
    groupoids sharing labels; the data of an inclusion crossed module."""

    ambient: FinGroupoid
    sub: tuple[str, ...]


def validate_crossed_module(cm: CrossedModuleIncl) -> list[str]:
    B = cm.ambient
    problems = []
    if len(B.objects) != 1:
        problems.append("ambient must have a single object")
        return problems
    obj = B.objects.elements[0]
    elems = set(B.arrows)
    sub = list(cm.sub)
    if len(set(sub)) != len(sub) or not set(sub) <= elems:
        problems.append("sub must list distinct ambient elements")
        return problems
    if B.unit[obj] not in sub:
        problems.append("sub does not contain the unit")
    subset = set(sub)
    for a in sub:
        if B.inv[a] not in subset:
            problems.append(f"sub not closed under inverse at {a}")
            break
        for a2 in sub:
            if B.comp[(a, a2)] not in subset:
                problems.append(f"sub not closed under product at ({a}, {a2})")
                break
        else:
            continue
        break
    for b in B.arrows:
        for a in sub:
            if B.comp[(B.comp[(b, a)], B.inv[b])] not in subset:
                problems.append(f"sub is not normal: {b} {a} {b}^-1 escapes")
                return problems
    return problems


def two_group_from_crossed_module(cm: CrossedModuleIncl) -> StackyGroupData:
    """The action groupoid of A on B by left translation, with multiplication
    twisted by conjugation so that it is a homomorphism, bundlized."""
    problems = validate_crossed_module(cm)
    if problems:
        raise StructuralError("; ".join(problems))
    B = cm.ambient
    obj = B.objects.elements[0]
    mulB = B.comp
    invB = B.inv
    unitB = B.unit[obj]
    A_grpd = one_object_groupoid(
        cm.sub, {(a, a2): mulB[(a, a2)] for a in cm.sub for a2 in cm.sub})
    T = action_groupoid(A_grpd, list(B.arrows), lambda a, b: mulB[(a, b)])
    P2, _, pair = product_codec([T, T])

    f0 = {pair((b1, b2)): mulB[(b1, b2)] for b1 in B.arrows for b2 in B.arrows}
    # T's arrows are (a, b) for a in sub, then b in B's arrows (see
    # action_groupoid), so P2's arrows are the pairs ((a1, b1), (a2, b2)) in
    # the order of this comprehension, and are read in one pass
    f1 = dict(zip(P2.arrows, [
        tup(mulB[(a1, mulB[(mulB[(b1, a2)], invB[b1])])], mulB[(b1, b2)])
        for a1 in cm.sub for b1 in B.arrows for a2 in cm.sub for b2 in B.arrows]))
    mult = GroupoidHom(P2, T, f0, f1)
    rep = check_hom(mult)
    if not rep.ok:
        raise StructuralError(f"multiplication is not a homomorphism: {rep.first()}")

    unitA = A_grpd.unit[A_grpd.objects.elements[0]]
    e_hom = GroupoidHom(power_groupoid(T, 0), T, {"()": unitB}, {"()": tup(unitA, unitB)})
    if not check_hom(e_hom).ok:
        raise StructuralError("unit is not a homomorphism")

    i_f0 = {b: invB[b] for b in B.arrows}
    i_f1 = {}
    for a in cm.sub:
        for b in B.arrows:
            i_f1[tup(a, b)] = tup(mulB[(mulB[(invB[b], invB[a])], b)], invB[b])
    i_hom = GroupoidHom(T, T, i_f0, i_f1)
    if not check_hom(i_hom).ok:
        raise StructuralError("inversion is not a homomorphism")

    return StackyGroupData(base=T, mu=bundlize(mult), e=bundlize(e_hom), i=bundlize(i_hom))


def cyclic_ambient(n: int) -> FinGroupoid:
    els = [str(k) for k in range(n)]
    table = {(x, y): str((int(x) + int(y)) % n) for x in els for y in els}
    return one_object_groupoid(els, table)


def kronecker_finite(N: int, q: int) -> StackyGroupData:
    """The subgroup of Z/N generated by q, included as a crossed module."""
    if N < 1 or q < 1:
        raise StructuralError("need N >= 1 and q >= 1")
    B = cyclic_ambient(N)
    g = gcd(q, N)
    sub = tuple(str(k) for k in range(0, N, g))
    return two_group_from_crossed_module(CrossedModuleIncl(B, sub))


def plain_group_data(n: int) -> StackyGroupData:
    """Z/n with only identity arrows; the degenerate stacky group."""
    return kronecker_finite(n, n)


def and_monoid_data() -> StackyGroupData:
    """Two points with logical AND: a monoid object that is not a group."""
    base = trivial_groupoid(["0", "1"])
    P2, _, pair = product_codec([base, base])
    f0 = {pair((x, y)): "1" if x == "1" and y == "1" else "0"
          for x in base.objects for y in base.objects}
    mult = GroupoidHom(P2, base, f0, dict(f0))
    e_hom = GroupoidHom(power_groupoid(base, 0), base, {"()": "1"}, {"()": "1"})
    return StackyGroupData(base=base, mu=bundlize(mult), e=bundlize(e_hom))
