"""Bibundles: finite sets with commuting left and right groupoid actions.

A G-H bibundle M carries moment maps lmap: M -> G_0 and rmap: M -> H_0.
act_left(g, m) is defined when r(g) == lmap(m); it moves the left moment to
l(g) and keeps the right moment. act_right(m, h) mirrors this on the other
side. The two actions commute.

Actions live behind accessors. Small hand-built bundles use plain dict
tables; products and composites plug in closures so that large intermediate
tables are never stored. left_table()/right_table() materialise either kind.
A bundle whose carrier points are built from parts keeps them in its label
index, which the closures read instead of decoding labels.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import getitem
from typing import Callable, Iterable, Mapping, Sequence

from .core import (
    FinGroupoid,
    FinSet,
    Join,
    StructuralError,
    ValidationReport,
    Rows,
    Violation,
    _LazyTable,
    _ProductSet,
    _scan_fibers,
    finset,
    product_codec,
)
from .labels import Escapes, LabelIndex

ActFn = Callable[[str, str], str]


@dataclass(frozen=True, eq=False)
class Bibundle:
    left_groupoid: FinGroupoid
    right_groupoid: FinGroupoid
    carrier: FinSet
    lmap: Mapping[str, str]
    rmap: Mapping[str, str]
    left_fn: ActFn = field(repr=False)
    right_fn: ActFn = field(repr=False)
    index: LabelIndex = field(default_factory=LabelIndex, repr=False)
    # the explicit action tables a bundle was built from, if any; validation
    # refuses rows off the actions' domains, which the accessors never read
    tables: tuple[Mapping, Mapping] | None = field(default=None, repr=False)
    # what is read off the bundle once and kept, filled on first use: the
    # orbit passes by side ("right", "left", see _orbit_pass), the fibers of
    # each moment map ("lmap", "rmap", see _fibers) and the escaped carrier
    # labels ("esc", see _escapes)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def act_left(self, g: str, m: str) -> str:
        if m not in self.carrier:
            raise StructuralError(f"{m!r} is not a carrier point")
        if self.left_groupoid.r.get(g) != self.lmap[m]:
            raise StructuralError(
                f"left action undefined: r({g!r}) != lmap({m!r})"
            )
        return self.left_fn(g, m)

    def act_right(self, m: str, h: str) -> str:
        if m not in self.carrier:
            raise StructuralError(f"{m!r} is not a carrier point")
        if self.right_groupoid.l.get(h) != self.rmap[m]:
            raise StructuralError(
                f"right action undefined: l({h!r}) != rmap({m!r})"
            )
        return self.right_fn(m, h)

    def left_table(self) -> dict[tuple[str, str], str]:
        G = self.left_groupoid
        out = {}
        for m in self.carrier:
            for g in G.r_fiber(self.lmap[m]):
                out[(g, m)] = self.left_fn(g, m)
        return out

    def right_table(self) -> dict[tuple[str, str], str]:
        H = self.right_groupoid
        out = {}
        for m in self.carrier:
            for h in H.l_fiber(self.rmap[m]):
                out[(m, h)] = self.right_fn(m, h)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bibundle):
            return NotImplemented
        return (
            self.left_groupoid == other.left_groupoid
            and self.right_groupoid == other.right_groupoid
            and self.carrier == other.carrier
            and dict(self.lmap) == dict(other.lmap)
            and dict(self.rmap) == dict(other.rmap)
            and self.left_table() == other.left_table()
            and self.right_table() == other.right_table()
        )

    __hash__ = None  # type: ignore[assignment]


def bibundle_from_tables(
    G: FinGroupoid,
    H: FinGroupoid,
    carrier: FinSet | Iterable[str],
    lmap: Mapping[str, str],
    rmap: Mapping[str, str],
    left_table: Mapping[tuple[str, str], str],
    right_table: Mapping[tuple[str, str], str],
) -> Bibundle:
    """Build a bibundle from explicit action tables (no validation here)."""
    cset = carrier if isinstance(carrier, FinSet) else finset(list(carrier))
    lt = dict(left_table)
    rt = dict(right_table)

    def left_fn(g: str, m: str) -> str:
        try:
            return lt[(g, m)]
        except KeyError:
            raise StructuralError(f"left action table missing ({g!r}, {m!r})") from None

    def right_fn(m: str, h: str) -> str:
        try:
            return rt[(m, h)]
        except KeyError:
            raise StructuralError(f"right action table missing ({m!r}, {h!r})") from None

    return Bibundle(G, H, cset, dict(lmap), dict(rmap), left_fn, right_fn, tables=(lt, rt))


def _action_rows(M: Bibundle, side: str, out: list[Violation]) -> Rows:
    """rows[m] maps each arrow acting at the point m to its image, g to g . m
    on the left and h to m . h on the right, in carrier x fiber order. For a
    bundle built from tables, a pair of the action's domain that its table
    lacks is reported and left out of its row; so is a row of the table off
    that domain."""
    table = M.tables[side == "right"] if M.tables is not None else None
    if side == "left":
        fiber_at, moment, act = M.left_groupoid.r_fiber, M.lmap, M.left_fn

        def pair(m: str, k: str) -> tuple[str, str]:
            return k, m
    else:
        fiber_at, moment, act = M.right_groupoid.l_fiber, M.rmap, M.right_fn

        def pair(m: str, k: str) -> tuple[str, str]:
            return m, k
    rows: Rows = {}
    for m in M.carrier:
        fiber = fiber_at(moment[m])
        if table is None:
            rows[m] = {k: act(*pair(m, k)) for k in fiber}
            continue
        rows[m] = row = {}
        for k in fiber:
            if pair(m, k) in table:
                row[k] = table[pair(m, k)]
            else:
                out.append(Violation("structural", f"{side}-act-missing",
                                     f"{side} action undefined on its domain", pair(m, k)))
    # every entry of the rows is a row of the table, so a row off the domain
    # shows in the count
    if table is not None and len(table) > sum(map(len, rows.values())):
        domain = {pair(m, k) for m, row in rows.items() for k in row}
        out += [Violation("structural", f"{side}-act-domain", f"{side} action defined off its domain", key)
                for key in table if key not in domain]
    return rows


def validate_bibundle(M: Bibundle) -> ValidationReport:
    out: list[Violation] = []
    G, H = M.left_groupoid, M.right_groupoid
    for m in M.carrier:
        if M.lmap.get(m) not in G.objects:
            out.append(Violation("structural", "lmap", "left moment misses G objects", (m,)))
        if M.rmap.get(m) not in H.objects:
            out.append(Violation("structural", "rmap", "right moment misses H objects", (m,)))
    for m in M.lmap:
        if m not in M.carrier:
            out.append(Violation("structural", "lmap-domain", "left moment defined off the carrier", (m,)))
    for m in M.rmap:
        if m not in M.carrier:
            out.append(Violation("structural", "rmap-domain", "right moment defined off the carrier", (m,)))
    if out:
        return ValidationReport(tuple(out))

    L, R = _action_rows(M, "left", out), _action_rows(M, "right", out)
    for m, row in L.items():
        for g, m2 in row.items():
            if m2 not in M.carrier:
                out.append(Violation("structural", "left-act-range", "left action leaves the carrier", (g, m, m2)))
                continue
            if M.lmap[m2] != G.l[g]:
                out.append(Violation("axiom", "left-act-lmap", "left action moves lmap wrongly", (g, m)))
            if M.rmap[m2] != M.rmap[m]:
                out.append(Violation("axiom", "left-act-rmap", "left action must fix rmap", (g, m)))
    for m, row in R.items():
        for h, m2 in row.items():
            if m2 not in M.carrier:
                out.append(Violation("structural", "right-act-range", "right action leaves the carrier", (m, h, m2)))
                continue
            if M.rmap[m2] != H.r[h]:
                out.append(Violation("axiom", "right-act-rmap", "right action moves rmap wrongly", (m, h)))
            if M.lmap[m2] != M.lmap[m]:
                out.append(Violation("axiom", "right-act-lmap", "right action must fix lmap", (m, h)))
    if out:
        return ValidationReport(tuple(out))

    for m in M.carrier:
        if L[m][G.unit[M.lmap[m]]] != m:
            out.append(Violation("axiom", "left-unit", "left unit action is not the identity", (m,)))
        if R[m][H.unit[M.rmap[m]]] != m:
            out.append(Violation("axiom", "right-unit", "right unit action is not the identity", (m,)))
    # composition laws and commutation
    for m in M.carrier:
        for g2, m2 in L[m].items():
            for g1 in G.r_fiber(G.l[g2]):
                if L[m2][g1] != L[m][G.comp[(g1, g2)]]:
                    out.append(Violation("axiom", "left-assoc", "left action is not associative", (g1, g2, m)))
        for h1, m2 in R[m].items():
            for h2 in H.l_fiber(H.r[h1]):
                if R[m2][h2] != R[m][H.comp[(h1, h2)]]:
                    out.append(Violation("axiom", "right-assoc", "right action is not associative", (m, h1, h2)))
        for g, gm in L[m].items():
            for h, mh in R[m].items():
                if R[gm][h] != L[mh][g]:
                    out.append(Violation("axiom", "commute", "left and right actions do not commute", (g, m, h)))
    return ValidationReport(tuple(out))


@dataclass(frozen=True)
class PrincipalityReport:
    side: str  # "left" or "right"
    surjective: bool
    free: bool
    transitive: bool
    witnesses: dict = field(default_factory=dict)
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.surjective and self.free and self.transitive


def _fibers(M: Bibundle, moment: str) -> dict[str, list[str]]:
    """The carrier points over each object under the moment map named
    ("lmap" or "rmap"), in carrier order, keyed only by objects that have
    points; made once per bundle and kept, so callers must not change it.
    A tensor keeps lazy lmap fibers (see calculus.tensor_bibundle)."""
    out = M._cache.get(moment)
    if out is None:
        out = M._cache[moment] = _scan_fibers(M.carrier, getattr(M, moment))
    return out


def _escapes(M: Bibundle) -> Escapes:
    """The escaped form of each carrier label of M, escaped on first use
    and kept on M, so each label is escaped once however many labels are
    built from it."""
    memo = M._cache.get("esc")
    if memo is None:
        memo = M._cache["esc"] = Escapes()
    return memo


@dataclass(frozen=True, eq=False)
class TensorBibundle(Bibundle):
    """A juxtaposition built by calculus.tensor_bibundle, acting part by
    part. It holds its parts, so no part's id can be reused while the tensor
    is alive, and its orbit passes are read off its parts' (see
    _orbit_pass)."""

    parts: tuple[Bibundle, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class _OrbitPass:
    """One pass of one side's action over the carrier, made once per bundle
    and side and cached on the bundle (see _orbit_pass).

    reps holds the first carrier point of each orbit, in carrier order.
    reach[m] is (rep, a) with rep . a == m on the right, a . rep == m on the
    left, and rep the representative of m's orbit; reach[rep] is
    (rep, unit). stabilisers maps each representative with a nontrivial
    stabiliser, in carrier order, to the non-unit arrows fixing it, in arrow
    order. Stabilisers are conjugate along an orbit, so the representatives
    decide freeness; stabiliser, the first of those arrows, witnesses that the
    action is not free.

    Where a representative's stabiliser is nontrivial, several arrows move
    it to the same point, and reach names one of them: the walked pass the
    first in arrow order, a tensor's pass the join of its parts' choices,
    which may differ. Nothing depends on that choice: calculus.compose sends
    a pair along reach and then takes the least image under the stabiliser,
    and pairing reads reach only for free actions, where the arrow is
    unique.
    """

    side: str
    acting: FinGroupoid
    reps: Sequence[str]
    reach: Mapping[str, tuple[str, str]]
    stabilisers: dict[str, tuple[str, ...]]

    @property
    def stabiliser(self) -> tuple[str, str] | None:
        for rep, fixing in self.stabilisers.items():
            return rep, fixing[0]
        return None

    def pairing(self, m: str, m2: str) -> str:
        """For a free action and m, m2 in one orbit, the unique arrow with
        m . <m, m2> == m2 on the right, <m, m2> . m2 == m on the left."""
        G = self.acting
        a, a2 = self.reach[m][1], self.reach[m2][1]
        if self.side == "right":
            return G.comp[(G.inv[a], a2)]
        return G.comp[(a, G.inv[a2])]


def _orbit_pass(M: Bibundle, side: str) -> _OrbitPass:
    """The orbit pass of M's action on side ("right" or "left"), made on
    first use and kept on M: read off the parts' passes for a tensor (see
    _tensor_pass), walked over the carrier for any other bundle (see
    _walked_pass). M must be a valid bibundle: both rely on the action
    laws."""
    cached = M._cache.get(side)
    if cached is None:
        make = _tensor_pass if isinstance(M, TensorBibundle) else _walked_pass
        cached = M._cache[side] = make(M, side)
    return cached


def _acting(M: Bibundle, side: str) -> tuple[FinGroupoid, Mapping[str, str], Callable[[str], Sequence[str]]]:
    """The groupoid acting on side, the moment it acts at, and its arrows
    acting at an object."""
    if side == "right":
        return M.right_groupoid, M.rmap, M.right_groupoid.l_fiber
    return M.left_groupoid, M.lmap, M.left_groupoid.r_fiber


def _walked_pass(M: Bibundle, side: str) -> _OrbitPass:
    """The carrier is walked in order; each point not reached yet becomes the
    representative of its orbit and is moved once by every non-unit arrow at
    its moment (the unit moves nothing in a valid bundle). At a moment whose
    fiber holds one arrow, that arrow is the unit, so the representative is
    recorded without reading the unit table."""
    acting, moment, arrows_at = _acting(M, side)
    if side == "right":
        move = M.right_fn
    else:
        left_fn = M.left_fn

        def move(m: str, k: str) -> str:
            return left_fn(k, m)

    reps: list[str] = []
    reach: dict[str, tuple[str, str]] = {}
    stabilisers: dict[str, tuple[str, ...]] = {}
    for rep in M.carrier:
        if rep in reach:
            continue
        reps.append(rep)
        x = moment[rep]
        arrows = arrows_at(x)
        if len(arrows) == 1:
            # a valid groupoid has the unit in every fiber, so this fiber
            # holds only the unit: rep is its own orbit, with no stabiliser
            reach[rep] = (rep, arrows[0])
            continue
        unit = acting.unit[x]
        reach[rep] = (rep, unit)
        fixing = []
        for k in arrows:
            # the unit fixes every point of a valid bundle, so moving by it
            # would add nothing: rep is reached already and the unit is no
            # stabiliser
            if k == unit:
                continue
            m = move(rep, k)
            if m != rep:
                reach.setdefault(m, (rep, k))
            else:
                fixing.append(k)
        if fixing:
            stabilisers[rep] = tuple(fixing)
    return _OrbitPass(side, acting, reps, reach, stabilisers)


def _tensor_pass(T: TensorBibundle, side: str) -> _OrbitPass:
    """A tensor's pass, read off its parts' passes with no call of the
    tensor's actions. A tensor acts part by part, so its orbits are the
    products of its parts' orbits: the first point of one, in carrier
    (itertools.product) order, is the tuple of the parts' representatives,
    and the arrows fixing it are the tuples of arrows fixing each part's
    representative, units included, less the all-unit tuple; both come in
    itertools.product order, which is the tensor's carrier and fiber order.
    reach is a part-wise table (see _PartwiseReach)."""
    passes = [_orbit_pass(P, side) for P in T.parts]
    acting = _acting(T, side)[0]
    _, _, join = product_codec([_acting(P, side)[0] for P in T.parts])
    label_of = T.index.label_of
    reps = list(map(label_of.__getitem__, itertools.product(*(o.reps for o in passes))))
    stabilisers: dict[str, tuple[str, ...]] = {}
    if any(o.stabilisers for o in passes):
        # per part and representative: its unit, and the arrows fixing it in
        # fiber order with the unit among them
        columns = []
        for P, o in zip(T.parts, passes):
            _, moment, arrows_at = _acting(P, side)
            column = []
            for rep in o.reps:
                unit = o.reach[rep][1]
                fixing = o.stabilisers.get(rep)
                if fixing:
                    keep = {unit, *fixing}
                    column.append((unit, [k for k in arrows_at(moment[rep]) if k in keep]))
                else:
                    column.append((unit, (unit,)))
            columns.append(column)
        for rep, combo in zip(reps, itertools.product(*columns)):
            units, fixers = zip(*combo)
            if any(len(f) > 1 for f in fixers):
                stabilisers[rep] = tuple([join(ks) for ks in itertools.product(*fixers) if ks != units])
    reach = _PartwiseReach(T, [o.reach for o in passes], join)
    return _OrbitPass(side, acting, reps, reach, stabilisers)


class _PartwiseReach(_LazyTable):
    """reach of a tensor's orbit pass: the entry at a point joins its parts'
    entries, the representatives through the tensor's label index and the
    arrows through the product codec of the acting groupoids, so
    rep . a == m part by part. A label that is no point is a KeyError. The
    full read is one pass over the product of the parts' entries in carrier
    order."""

    __slots__ = ("_parts_of", "_label_of", "_join", "_reaches", "_columns")

    def __init__(self, T: TensorBibundle, reaches: Sequence[Mapping[str, tuple[str, str]]], join: Join):
        carrier = T.carrier
        _LazyTable.__init__(self, carrier, carrier if isinstance(carrier, _ProductSet) else None)
        self._parts_of, self._label_of, self._join = T.index.parts_of, T.index.label_of, join
        self._reaches, self._columns = reaches, [P.carrier for P in T.parts]

    def _entry(self, m: str) -> tuple[str, str]:
        reps, arrows = zip(*map(getitem, self._reaches, self._parts_of[m]))
        return self._label_of[reps], self._join(arrows)

    def _entries(self) -> Iterable[tuple[str, tuple[str, str]]]:
        columns = [[reach[m] for m in carrier] for reach, carrier in zip(self._reaches, self._columns)]
        reps = itertools.product(*[[rep for rep, _ in column] for column in columns])
        arrows = itertools.product(*[[a for _, a in column] for column in columns])
        return zip(self._keys.elements, zip(map(self._label_of.__getitem__, reps), map(self._join, arrows)))


def _principality(M: Bibundle, orbits: _OrbitPass) -> PrincipalityReport:
    """check_principal read off a pass: a fiber is one orbit when each of its
    points has the fiber's first point as representative."""
    if orbits.side == "right":
        base_objects, fiber_of = M.left_groupoid.objects, _fibers(M, "lmap")
    else:
        base_objects, fiber_of = M.right_groupoid.objects, _fibers(M, "rmap")
    witnesses: dict = {}
    empty = next((x for x in base_objects if x not in fiber_of), None)
    if empty is not None:
        witnesses["surjective"] = empty
    if orbits.stabiliser is not None:
        witnesses["free"] = orbits.stabiliser
    reach = orbits.reach
    fibers = [fiber_of.get(x, []) for x in base_objects]
    stray = next(((m, f[0]) for f in fibers for m in f if reach[m][0] != f[0]), None)
    if stray is not None:
        witnesses["transitive"] = stray
    note = ""
    if empty is not None and stray is None:
        note = "some fibers are empty; transitivity holds vacuously there"
    return PrincipalityReport(orbits.side, empty is None, orbits.stabiliser is None,
                              stray is None, witnesses, note)


def check_principal(M: Bibundle, side: str = "right") -> PrincipalityReport:
    """Right principality: lmap surjective, right action free and transitive
    on the lmap fibers. The left version mirrors the roles.

    M must be a valid bibundle (see validate_bibundle): the orbit pass relies
    on the action laws. The CLI loaders validate on ingest.
    """
    if side not in ("left", "right"):
        raise StructuralError(f"side must be 'left' or 'right', not {side!r}")
    return _principality(M, _orbit_pass(M, side))


def _biprincipal_passes(M: Bibundle) -> PrincipalityReport | tuple[_OrbitPass, _OrbitPass]:
    """The right and left passes of a biprincipal M; otherwise the report of
    the first side, right then left, that fails."""
    passes = []
    for side in ("right", "left"):
        orbits = _orbit_pass(M, side)
        report = _principality(M, orbits)
        if not report.ok:
            return report
        passes.append(orbits)
    return passes[0], passes[1]


@dataclass(frozen=True)
class Pairing:
    """The H-valued pairing of a G-H bibundle: <m, m2> is the unique arrow
    with m . <m, m2> == m2, defined for pairs in the same lmap fiber."""

    table: Mapping[tuple[str, str], str]


@dataclass(frozen=True)
class NoPairing:
    reason: str  # "free" or "transitive"
    witness: tuple


def compute_pairing(M: Bibundle) -> Pairing | NoPairing:
    """Unique pairing when the right action is free and fiberwise transitive;
    otherwise a refusal carrying a counterexample (freeness ones preferred).

    M must be a valid bibundle (see validate_bibundle). The pairing is read
    off one orbit pass: <m, m2> == inv(a_m) . a_m2, where rep . a_m == m.
    """
    orbits = _orbit_pass(M, "right")
    if orbits.stabiliser is not None:
        return NoPairing("free", orbits.stabiliser)
    reach = orbits.reach
    table: dict[tuple[str, str], str] = {}
    for fiber in _fibers(M, "lmap").values():
        for m in fiber:
            for m2 in fiber:
                if reach[m][0] != reach[m2][0]:
                    return NoPairing("transitive", (m, m2))
                table[(m, m2)] = orbits.pairing(m, m2)
    return Pairing(table)


def check_pairing_axioms(M: Bibundle, P: Pairing) -> ValidationReport:
    """The four pairing laws plus injectivity of each row.

    H1: <m, m2 . h> == <m, m2> . h
    H2: <m, m2> == inv(<m2, m>)
    H3: <m, m> == unit(rmap(m)) and m2 |-> <m, m2> is injective
    H4: <g . m, m2> == <m, inv(g) . m2>
    """
    out: list[Violation] = []
    G, H = M.left_groupoid, M.right_groupoid
    t = P.table
    fibers = _fibers(M, "lmap")
    for x, fiber in fibers.items():
        for m in fiber:
            for m2 in fiber:
                if (m, m2) not in t:
                    out.append(Violation("structural", "pairing-missing", "pairing undefined on a fiber pair", (m, m2)))
    if out:
        return ValidationReport(tuple(out))
    for (m, m2), h in t.items():
        if M.act_right(m, h) != m2:
            out.append(Violation("axiom", "pairing-def", "m . <m, m2> != m2", (m, m2)))
    for x, fiber in fibers.items():
        for m in fiber:
            u = H.unit[M.rmap[m]]
            if t[(m, m)] != u:
                out.append(Violation("axiom", "H3", "<m, m> is not the unit", (m,)))
            seen: dict[str, str] = {}
            for m2 in fiber:
                h = t[(m, m2)]
                if h in seen:
                    out.append(Violation("axiom", "H3", "row of the pairing is not injective", (m, seen[h], m2)))
                seen[h] = m2
            for m2 in fiber:
                if t[(m, m2)] != H.inv[t[(m2, m)]]:
                    out.append(Violation("axiom", "H2", "<m, m2> != inv(<m2, m>)", (m, m2)))
                for h in H.l_fiber(M.rmap[m2]):
                    if t[(m, M.act_right(m2, h))] != H.comp[(t[(m, m2)], h)]:
                        out.append(Violation("axiom", "H1", "<m, m2 . h> != <m, m2> . h", (m, m2, h)))
    for m in M.carrier:
        for g in G.r_fiber(M.lmap[m]):
            gi = G.inv[g]
            for m2 in fibers.get(G.l[g], []):
                if t[(M.act_left(g, m), m2)] != t[(m, M.act_left(gi, m2))]:
                    out.append(Violation("axiom", "H4", "<g.m, m2> != <m, inv(g).m2>", (g, m, m2)))
    return ValidationReport(tuple(out))
