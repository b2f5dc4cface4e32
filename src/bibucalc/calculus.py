"""Composition calculus for bibundles.

Composition of a G-H bibundle M with an H-K bibundle N is the fiber product
over H_0 divided by the diagonal H-action (m, n) ~ (m.h, inv(h).n). Instead
of keeping raw orbits around, every composite stores one canonical
representative per orbit: the lexicographically least pair in carrier order.
project(m, n) sends any composable pair to its representative, so actions on
the composite are "act on one leg, then project".

One rule computes representatives, read off the right orbit pass of M: a
pair (m, n) is first moved along m's orbit to (m0, a.n), where m0 . a == m
and m0 is the orbit's first carrier point, and then its second leg is
replaced by its least image, in N's carrier order, under the arrows fixing
m0. A free action has no such arrows, so there the second step is empty.
The pass gives the representatives m0 too; a tensor's pass is read off its
parts' passes (see bibundle._orbit_pass). Over a discrete middle groupoid,
whose arrows are all units, no pass is read: every point of M is its own
orbit and fixed by nothing, so every composable pair is a representative.
The passes also give the pairings, from which is_weak_isomorphism builds its
2-cells; only find_iso and all_isos search, one orbit at a time: a
biequivariant bijection is fixed by its value on one point of each orbit, so
only representatives branch. Over discrete groupoids, whose arrows are all
units, find_iso does not search: it pairs the points with equal moments in
carrier order, which is the search's first map; all_isos always searches.

A construction returns its live result for the same inputs: compose and
tensor_bibundle, like core.product_groupoid, keep each result weakly, keyed
by the inputs' ids, and return it while it is alive. So the witness builders
compose their own endpoints, and a chain of 2-cells between composites (the
coherence loops of groups.check_coherence) builds each node once. A built
2-cell evaluates point by point (see IsoWitness), so such a chain is read
only at the points asked of it.
"""
from __future__ import annotations

import itertools
import sys
import weakref
from collections import Counter
from dataclasses import dataclass, field
from operator import call
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .bibundle import (
    Bibundle,
    PrincipalityReport,
    TensorBibundle,
    _OrbitPass,
    _biprincipal_passes,
    _escapes,
    _fibers,
    _orbit_pass,
)
from .core import (
    FinGroupoid,
    FinSet,
    GroupoidHom,
    StructuralError,
    ValidationReport,
    Violation,
    _LazyTable,
    _Partwise,
    _PartwiseFibers,
    _ProductSet,
    finset,
    power_groupoid,
    product_codec,
    swap_hom,
)
from .labels import Escapes, LabelIndex, esc


def _same_groupoid(A: FinGroupoid, B: FinGroupoid) -> bool:
    return A is B or A == B


def _discrete(G: FinGroupoid) -> bool:
    """Whether every arrow of G is a unit. The units of distinct objects are
    distinct, so in a valid groupoid that is exactly as many arrows as
    objects."""
    return len(G.arrows) == len(G.objects)


# ---------------------------------------------------------------------------
# generator bibundles


def identity_bibundle(G: FinGroupoid) -> Bibundle:
    """G acting on its own arrows by composition on both sides."""
    return Bibundle(
        G, G, G.arrows, dict(G.l.items()), dict(G.r.items()),
        lambda g, m: G.comp[(g, m)],
        lambda m, h: G.comp[(m, h)],
    )


def diagonal_bibundle(G: FinGroupoid) -> Bibundle:
    """The G-(GxG) bibundle of pairs of arrows with a common left object."""
    P, split, pair = product_codec([G, G])
    Gl, Gr = G.l, G.r
    # the points (g1, g2) with l(g1) == l(g2), in arrow order; each arrow is
    # escaped once
    points = [(g1, g2) for g1 in G.arrows for g2 in G.l_fiber(Gl[g1])]
    escaped = dict(zip(G.arrows, map(esc, G.arrows)))
    index = LabelIndex()
    carrier = index.add_escaped(points, [(escaped[g1], escaped[g2]) for g1, g2 in points])
    lmap = {m: Gl[g1] for m, (g1, _) in zip(carrier, points)}
    rmap = {m: pair((Gr[g1], Gr[g2])) for m, (g1, g2) in zip(carrier, points)}
    label_of, parts_of = index.label_of, index.parts_of
    comp = G.comp

    def left_fn(g: str, m: str) -> str:
        g1, g2 = parts_of[m]
        return label_of[(comp[(g, g1)], comp[(g, g2)])]

    def right_fn(m: str, h: str) -> str:
        g1, g2 = parts_of[m]
        h1, h2 = split(h)
        return label_of[(comp[(g1, h1)], comp[(g2, h2)])]

    return Bibundle(G, P, finset(carrier), lmap, rmap, left_fn, right_fn, index)


def terminal_bibundle(G: FinGroupoid) -> Bibundle:
    """G_0 as a bibundle from G to the empty power; the left action moves along l."""
    T = power_groupoid(G, 0)
    return Bibundle(
        G, T, G.objects,
        {x: x for x in G.objects}, {x: "()" for x in G.objects},
        lambda g, x: G.l[g],
        lambda x, h: x,
    )


def ev_bibundle(G: FinGroupoid) -> Bibundle:
    """Arrows of G as a bibundle from GxG to the empty power; (g1,g2).m = g1 m inv(g2)."""
    P, split, pair = product_codec([G, G])
    T = power_groupoid(G, 0)

    def left_fn(gg: str, m: str) -> str:
        g1, g2 = split(gg)
        return G.comp[(G.comp[(g1, m)], G.inv[g2])]

    return Bibundle(
        P, T, G.arrows,
        {m: pair((G.l[m], G.r[m])) for m in G.arrows},
        {m: "()" for m in G.arrows},
        left_fn,
        lambda m, h: m,
    )


def cv_bibundle(G: FinGroupoid) -> Bibundle:
    """Arrows of G as a bibundle from the empty power to GxG; m.(h1,h2) = inv(h1) m h2."""
    P, split, pair = product_codec([G, G])
    T = power_groupoid(G, 0)

    def right_fn(m: str, hh: str) -> str:
        h1, h2 = split(hh)
        return G.comp[(G.comp[(G.inv[h1], m)], h2)]

    return Bibundle(
        T, P, G.arrows,
        {m: "()" for m in G.arrows},
        {m: pair((G.l[m], G.r[m])) for m in G.arrows},
        lambda g, m: m,
        right_fn,
    )


def bundlize(phi: GroupoidHom) -> Bibundle:
    """The right-principal bibundle of a homomorphism phi: G -> H.

    Carrier points are (x, h) with phi0(x) == l(h); G acts through phi on the
    left leg, H composes on the right leg.
    """
    G, H = phi.source, phi.target
    # the points (x, h): x in object order, then h over the l-fiber of
    # phi0(x); each part is escaped once
    points = [(x, h) for x in G.objects for h in H.l_fiber(phi.f0[x])]
    escaped = Escapes()
    index = LabelIndex()
    carrier = index.add_escaped(points, [(escaped[x], escaped[h]) for x, h in points])
    Hr = H.r
    lmap = {m: x for m, (x, _) in zip(carrier, points)}
    rmap = {m: Hr[h] for m, (_, h) in zip(carrier, points)}
    label_of, parts_of = index.label_of, index.parts_of
    Gl, Hcomp, f1 = G.l, H.comp, phi.f1

    def left_fn(g: str, m: str) -> str:
        x, h = parts_of[m]
        return label_of[(Gl[g], Hcomp[(f1[g], h)])]

    def right_fn(m: str, h2: str) -> str:
        x, h = parts_of[m]
        return label_of[(x, Hcomp[(h, h2)])]

    return Bibundle(G, H, finset(carrier), lmap, rmap, left_fn, right_fn, index)


def flip_bibundle(G: FinGroupoid, H: FinGroupoid) -> Bibundle:
    return bundlize(swap_hom(G, H))


def opposite_bibundle(M: Bibundle) -> Bibundle:
    """Same carrier, swapped moments, actions through the inverses."""
    G, H = M.left_groupoid, M.right_groupoid
    left_fn = M.left_fn
    right_fn = M.right_fn
    Ginv, Hinv = G.inv, H.inv
    return Bibundle(
        H, G, M.carrier, dict(M.rmap), dict(M.lmap),
        lambda h, m: right_fn(m, Hinv[h]),
        lambda m, g: left_fn(Ginv[g], m),
        M.index,
    )


# the live tensor of each part tuple and the live composite of each pair,
# keyed by the inputs' ids, as core._PRODUCTS keys products
_TENSORS: weakref.WeakValueDictionary[tuple[int, ...], Bibundle] = weakref.WeakValueDictionary()
_COMPOSITES: weakref.WeakValueDictionary[tuple[int, int], ComposedBibundle] = weakref.WeakValueDictionary()


def tensor_bibundle(*parts: Bibundle) -> Bibundle:
    """Side-by-side juxtaposition: the bibundle of tuples of points, one per
    part, over the products of the parts' groupoids, acting part by part.

    Products are flat (see product_groupoid), so a tensor of bundles over G^2
    and G lives over G^3, and it carries the live product when there is one.
    An arrow of a product is split into one arrow per part by product_codec.
    One part is returned as it is; no part is a StructuralError. The parts
    must be valid bibundles (see validate_bibundle): the actions are read
    through their accessors without domain checks.

    A point is encoded only when something reads it. The carrier is a lazy
    view over the parts' carriers (core._ProductSet) and the label index is
    lazy over them too: a point's label is encoded on its first lookup in
    either direction. lmap and rmap (core._Partwise) and the lmap fibers
    (core._PartwiseFibers, see _fibers) follow a product's one storage rule,
    store on first read: a moment is the join of the parts' moments, and a
    fiber the product of the parts' points over an object's parts, looked
    up in the index in one pass. The orbit passes are read off the parts'
    passes (see bibundle._orbit_pass): they encode the representatives,
    and their reach tables follow the same rule. Iteration, elements,
    left_table, equality and a 2-cell read whole (see _PointMap) read it in
    full: carrier, index, moments and fibers each fill in one pass,
    the moments at the mixed-radix positions of the parts' moments, and
    once the carrier is read in full the first lookup that misses in a
    table fills all of it. Every part's points are escaped through the
    part's escape memo when the tensor is built, so a part's point is
    escaped once however many tensors and composites read it, and the
    labels are those of tup.

    While a tensor of the same part objects is alive, that tensor is
    returned, with what it has read, instead of a new one (see compose).
    """
    if not parts:
        raise StructuralError("empty tensor")
    if len(parts) == 1:
        return parts[0]
    key = tuple(map(id, parts))
    live = _TENSORS.get(key)
    if live is not None:
        return live
    G, lsplit, ljoin = product_codec([M.left_groupoid for M in parts])
    H, rsplit, rjoin = product_codec([M.right_groupoid for M in parts])
    memos = [_escapes(M) for M in parts]
    for memo, M in zip(memos, parts):
        if len(memo) < len(M.carrier):
            missing = [m for m in M.carrier.elements if m not in memo]
            memo.update(zip(missing, map(esc, missing)))
    columns = [M.carrier for M in parts]
    index = LabelIndex([c._index for c in columns], memos)  # type: ignore[attr-defined]
    carrier = _ProductSet(columns, index)
    label_of, parts_of = index.label_of, index.parts_of
    lmap = _Partwise(carrier, G.objects, [(M.lmap, M.carrier, M.left_groupoid.objects) for M in parts],
                     parts_of.__getitem__, ljoin, carrier)
    rmap = _Partwise(carrier, H.objects, [(M.rmap, M.carrier, M.right_groupoid.objects) for M in parts],
                     parts_of.__getitem__, rjoin, carrier)
    lfns = [M.left_fn for M in parts]
    rfns = [M.right_fn for M in parts]

    def left_fn(gg: str, p: str) -> str:
        return label_of[tuple(map(call, lfns, lsplit(gg), parts_of[p]))]

    def right_fn(p: str, hh: str) -> str:
        return label_of[tuple(map(call, rfns, parts_of[p], rsplit(hh)))]

    T = TensorBibundle(G, H, carrier, lmap, rmap, left_fn, right_fn, index, parts=parts)
    T._cache["lmap"] = _PartwiseFibers(lmap, lsplit, index, [_fibers(M, "lmap") for M in parts], list)
    _TENSORS[key] = T
    return T


def relabel_bibundle(M: Bibundle, rename: Mapping[str, str]) -> Bibundle:
    """Rename carrier points through a bijection (tables are materialised)."""
    if sorted(rename) != sorted(M.carrier.elements) or len(set(rename.values())) != len(rename):
        raise StructuralError("rename must be a bijection on the carrier")
    inv = {v: k for k, v in rename.items()}
    carrier = finset([rename[m] for m in M.carrier])
    lmap = {rename[m]: M.lmap[m] for m in M.carrier}
    rmap = {rename[m]: M.rmap[m] for m in M.carrier}
    lt = {(g, rename[m]): rename[v] for (g, m), v in M.left_table().items()}
    rt = {(rename[m], h): rename[v] for (m, h), v in M.right_table().items()}
    return Bibundle(
        M.left_groupoid, M.right_groupoid, carrier, lmap, rmap,
        lambda g, m: lt[(g, m)],
        lambda m, h: rt[(m, h)],
    )


# ---------------------------------------------------------------------------
# composition


@dataclass(frozen=True, eq=False)
class ComposedBibundle(Bibundle):
    factors: tuple[Bibundle, Bibundle] = field(repr=False, default=())
    project_fn: Callable[[str, str], str] = field(repr=False, default=None)

    def project(self, m: str, n: str) -> str:
        """Canonical representative of the orbit of the pair (m, n); a
        StructuralError when rmap(m) != lmap(n) or either is not a point."""
        return self.project_fn(m, n)


def _lmap_fibers(N: Bibundle, objects: Iterable[str]) -> Mapping[str, list[str]]:
    """N's points over each object (see _fibers), for a compose that reads
    those over the objects given. A tensor whose points over them make up at
    least half of it is read in full first, which costs less than encoding
    that many points fiber by fiber; counting them encodes none."""
    fibers = _fibers(N, "lmap")
    if isinstance(fibers, _PartwiseFibers) and not N.carrier.full:
        if 2 * fibers.count(set(objects)) >= len(N.carrier):
            fibers._fill()
    return fibers


def compose(M: Bibundle, N: Bibundle) -> ComposedBibundle:
    """M . N with canonical (lex-least) orbit representatives.

    M and N must be valid bibundles (see validate_bibundle): the projection
    relies on the action laws. It reads off the right orbit pass of M the
    representatives m0, each the first carrier point of its orbit, and
    reach[m] = (m0, a) with m0 . a == m: (m, n) ~ (m0, a . n), and two pairs
    with first leg m0 are equivalent exactly when the second legs differ by
    an arrow fixing m0. So the representatives are the pairs (m0, n) whose
    n is least, in N's carrier order, among its images under m0's
    stabiliser; which arrow reach names does not matter, as any two differ
    by such an arrow. A tensor's pass is read off its parts' passes, and
    calls none of the tensor's actions (see bibundle._orbit_pass). When the
    middle groupoid is discrete (every arrow a unit, see _discrete), no pass
    is read: each point of M is its own orbit with no stabiliser, so the
    representatives are the composable pairs and project looks a pair up
    after the moment check. Each
    representative is encoded once, tup(m0, n) byte for byte, from parts
    escaped through M's and N's escape memos, so a point of M or N is
    escaped once however many composites read it. N's points over each
    object come from the lmap fibers kept on N. When N is a tensor, whose
    points are encoded as they are read, only the points over the objects
    that M's representatives reach are read, unless they make up at least
    half of N: then N is read in full, in one pass (see _lmap_fibers). The
    composite's label index holds each representative's pair, and project
    looks representatives up.

    While a composite of the same pair of objects is alive, that composite
    is returned, with its orbit passes and fibers, instead of a new one, so
    a witness builder composes its endpoints itself and takes no composite
    from its caller. The store holds its composites weakly, keyed by the
    factors' ids: sound, as in core.product_groupoid, because a composite
    holds its factors, so no factor's id is reused while its entry exists.
    """
    key = (id(M), id(N))
    live = _COMPOSITES.get(key)
    if live is not None:
        return live
    if not _same_groupoid(M.right_groupoid, N.left_groupoid):
        raise StructuralError("compose: right groupoid of M differs from left groupoid of N")
    if _discrete(M.right_groupoid):
        # every arrow is a unit: each point of M is its own orbit, and no
        # arrow but the unit fixes it
        reps, reach, stabilisers = M.carrier, None, {}
    else:
        orbits = _orbit_pass(M, "right")
        reps, reach, stabilisers = orbits.reps, orbits.reach, orbits.stabilisers
    mrmap, nlmap, nleft = M.rmap, N.lmap, N.left_fn
    n_by_obj = _lmap_fibers(N, map(mrmap.__getitem__, reps))
    position = N.carrier.index

    def least(fixing: tuple[str, ...], n: str) -> str:
        """The least image of n under the unit and the arrows in fixing."""
        return min([n, *(nleft(s, n) for s in fixing)], key=position)

    pairs: list[tuple[str, str]] = []
    escaped: list[tuple[str, str]] = []
    m_esc, n_esc = _escapes(M).__getitem__, _escapes(N).__getitem__
    for m in reps:
        fixing = stabilisers.get(m)
        escaped_m = m_esc(m)
        for n in n_by_obj.get(mrmap[m], ()):
            if not fixing or least(fixing, n) == n:
                pairs.append((m, n))
                escaped.append((escaped_m, n_esc(n)))
    index = LabelIndex()
    carrier = index.add_escaped(pairs, escaped)
    mlmap, nrmap = M.lmap, N.rmap
    lmap = {rep: mlmap[m] for rep, (m, _) in zip(carrier, pairs)}
    rmap = {rep: nrmap[n] for rep, (_, n) in zip(carrier, pairs)}
    rep_of = index.label_of

    def project(m: str, n: str) -> str:
        try:
            if mrmap[m] == nlmap[n]:
                if reach is None:
                    return rep_of[(m, n)]
                m0, a = reach[m]
                n0 = n if m0 == m else nleft(a, n)
                fixing = stabilisers.get(m0)
                return rep_of[(m0, least(fixing, n0) if fixing else n0)]
        except KeyError:
            pass
        raise StructuralError(f"pair ({m!r}, {n!r}) is not composable in this composite")

    mleft = M.left_fn
    nright = N.right_fn
    pair_of = index.parts_of

    def left_fn(g: str, rep: str) -> str:
        m, n = pair_of[rep]
        return project(mleft(g, m), n)

    def right_fn(rep: str, k: str) -> str:
        m, n = pair_of[rep]
        return project(m, nright(n, k))

    C = _COMPOSITES[key] = ComposedBibundle(
        M.left_groupoid, N.right_groupoid, finset(carrier), lmap, rmap, left_fn, right_fn, index,
        factors=(M, N), project_fn=project,
    )
    return C


# ---------------------------------------------------------------------------
# 2-isomorphism witnesses


@dataclass(frozen=True, eq=False)
class IsoWitness:
    """A biequivariant bijection between bibundles over the same groupoids.

    forward and backward are point maps: the witness builders below give
    each direction as a _PointMap, whose entry at a point is the builder's
    formula, read on the entry's first lookup and kept, and which reads in
    full, in one pass, when iterated, compared or copied. So a caller that
    asks a witness at a few points (groups.check_coherence, which closes
    its loops at one point per bi-orbit) reads only those points, and one
    that reads it whole gets the full table. The search (find_iso,
    all_isos) and the pairing 2-cells of is_weak_isomorphism give plain
    dicts."""

    source: Bibundle
    target: Bibundle
    forward: Mapping[str, str]
    backward: Mapping[str, str]


def validate_iso(w: IsoWitness) -> ValidationReport:
    out: list[Violation] = []
    M, N = w.source, w.target
    if not _same_groupoid(M.left_groupoid, N.left_groupoid) or not _same_groupoid(
        M.right_groupoid, N.right_groupoid
    ):
        out.append(Violation("structural", "iso-groupoids", "witness endpoints live over different groupoids", ()))
        return ValidationReport(tuple(out))
    if sorted(w.forward) != sorted(M.carrier.elements) or sorted(w.backward) != sorted(N.carrier.elements):
        out.append(Violation("structural", "iso-domain", "forward/backward are not total", ()))
        return ValidationReport(tuple(out))
    for m, n in w.forward.items():
        if w.backward.get(n) != m:
            out.append(Violation("structural", "iso-bijection", "backward does not invert forward", (m, n)))
            return ValidationReport(tuple(out))
    G, H = M.left_groupoid, M.right_groupoid
    for m in M.carrier:
        n = w.forward[m]
        if M.lmap[m] != N.lmap[n] or M.rmap[m] != N.rmap[n]:
            out.append(Violation("axiom", "iso-moment", "moments are not preserved", (m,)))
            continue
        for g in G.r_fiber(M.lmap[m]):
            if w.forward[M.act_left(g, m)] != N.act_left(g, n):
                out.append(Violation("axiom", "iso-left", "left equivariance fails", (g, m)))
        for h in H.l_fiber(M.rmap[m]):
            if w.forward[M.act_right(m, h)] != N.act_right(n, h):
                out.append(Violation("axiom", "iso-right", "right equivariance fails", (m, h)))
    return ValidationReport(tuple(out))


def _bi_orbit_reps(M: Bibundle) -> Sequence[str]:
    """One point of each bi-orbit of M, an orbit of its two actions
    together; made on first use and kept in M._cache under "both". Two
    biequivariant maps out of M that agree at these points agree on all
    of M.

    - Over discrete groupoids every bi-orbit is one point: the carrier,
      with nothing read.
    - A tensor acts part by part, so its bi-orbits are the products of its
      parts' bi-orbits: the points joining the parts' representatives.
    - A composite M . N whose N is transitive on its lmap fibers (see
      _fiber_transitive) has one bi-orbit over each bi-orbit of M that
      meets a point of N: every pair moves, by arrows on M's two sides,
      to one whose first leg is that bi-orbit's representative m, and N's
      points over rmap(m) then lie in one orbit of the right action. So
      [m, n] for any n over rmap(m) represents it.
    - Any other bundle reads its right orbit pass, and the left action at
      the first point of each bi-orbit, in carrier order. The actions
      commute, so the left action moves whole right orbits, and the
      bi-orbit of a point is the union of the right orbits of its left
      images. The first point of a bi-orbit is the first of its right
      orbit, a right representative: walking those in order, each whose
      right orbit no earlier one covered is the first point of its
      bi-orbit, and covers the right orbits of its left images.
    """
    reps = M._cache.get("both")
    if reps is None:
        G = M.left_groupoid
        if _discrete(G) and _discrete(M.right_groupoid):
            reps = M.carrier
        elif isinstance(M, TensorBibundle):
            reps = list(map(M.index.label_of.__getitem__,
                            itertools.product(*map(_bi_orbit_reps, M.parts))))
        elif isinstance(M, ComposedBibundle) and _fiber_transitive(M.factors[1]):
            left, right = M.factors
            fibers, rmap, project = _fibers(right, "lmap"), left.rmap, M.project_fn
            over = [(m, fibers.get(rmap[m])) for m in _bi_orbit_reps(left)]
            reps = [project(m, fiber[0]) for m, fiber in over if fiber]
        else:
            right = _orbit_pass(M, "right")
            reach, left_fn, lmap, arrows_at = right.reach, M.left_fn, M.lmap, G.r_fiber
            covered: set[str] = set()
            reps = []
            for rep in right.reps:
                if rep not in covered:
                    reps.append(rep)
                    covered.update([reach[left_fn(g, rep)][0] for g in arrows_at(lmap[rep])])
        M._cache["both"] = reps
    return reps


def _fiber_transitive(M: Bibundle) -> bool:
    """Whether M's right action is transitive on each lmap fiber, as a
    right principal bundle's is. A tensor is when every part is. A
    composite is when both factors are: two points [m, n] and [m', n'] over
    one object have m' = m . h, so [m', n'] = [m, h . n'], and h . n' and n
    lie in one lmap fiber of the right factor. Any other bundle is when its
    right orbit pass has as many orbits as it has lmap fibers."""
    if isinstance(M, TensorBibundle):
        return all(map(_fiber_transitive, M.parts))
    if isinstance(M, ComposedBibundle):
        return all(map(_fiber_transitive, M.factors))
    return len(_orbit_pass(M, "right").reps) == len(_fibers(M, "lmap"))


class _PointMap(_LazyTable):
    """One direction of a built 2-cell: the entry at a point of domain is
    formula(point), computed on its first lookup and kept; a label that is
    no point is a KeyError. The full read first reads in full the maps in
    reads, which formula looks its points up in, and codomain, so that
    formula's lookups hit; it then fills every entry in domain order and
    checks that the entries are a bijection onto codomain."""

    __slots__ = ("_formula", "_codomain", "_reads")

    def __init__(self, domain: FinSet, codomain: FinSet, formula: Callable[[str], str],
                 reads: Sequence[Mapping[str, str]] = ()):
        _LazyTable.__init__(self, domain, None)
        self._formula, self._codomain, self._reads = formula, codomain, reads

    def _entry(self, x: str) -> str:
        if x not in self._keys:
            raise KeyError(x)
        return self._formula(x)

    def _entries(self) -> Iterable[tuple[str, str]]:
        for table in self._reads:
            if isinstance(table, _LazyTable):
                table._fill()
        # read as tuples, a tensor's carrier encoded in one pass
        points, images = self._keys.elements, self._codomain.elements
        values = list(map(self._formula, points))
        _check_bijection(values, len(points), len(images))
        return zip(points, values)


def _check_bijection(images: Collection[str], source_size: int, target_size: int) -> None:
    """Refuse a built map, given by its images, that is not a bijection
    between carriers of the sizes given."""
    if len(images) != source_size or len(set(images)) != len(images):
        raise StructuralError("canonical witness construction failed to be a bijection")
    if len(images) != target_size:
        raise StructuralError("canonical witness construction is not onto")


def _point_witness(source: Bibundle, target: Bibundle, forward: Callable[[str], str],
                   backward: Callable[[str], str], reads: tuple[Sequence, Sequence] = ((), ())) -> IsoWitness:
    """The 2-cell source -> target whose directions are the point maps of
    the formulas; reads are the maps each formula looks up (see _PointMap)."""
    return IsoWitness(source, target, _PointMap(source.carrier, target.carrier, forward, reads[0]),
                      _PointMap(target.carrier, source.carrier, backward, reads[1]))


def _same(x: str) -> str:
    return x


def identity_witness(M: Bibundle) -> IsoWitness:
    """The identity 2-cell: one point map, which stores nothing until it
    is read, serves both directions."""
    ident = _PointMap(M.carrier, M.carrier, _same)
    return IsoWitness(M, M, ident, ident)


def invert_witness(w: IsoWitness) -> IsoWitness:
    """w backwards, sharing w's maps."""
    return IsoWitness(w.target, w.source, w.backward, w.forward)


def _chained(maps: Sequence[Mapping[str, str]]) -> Callable[[str], str]:
    def formula(x: str) -> str:
        for f in maps:
            x = f[x]
        return x
    return formula


def chain_witnesses(*ws: IsoWitness) -> IsoWitness:
    """Compose witnesses along a path (checks that carriers meet). Each
    direction is a point map that looks a point up through the edges' maps
    in turn; read in full, it reads every edge in full first."""
    if not ws:
        raise StructuralError("empty witness chain")
    for w, w2 in zip(ws, ws[1:]):
        if w.target is not w2.source and w.target.carrier != w2.source.carrier:
            raise StructuralError("witness chain: carriers do not meet")
    if len(ws) == 1:
        return ws[0]
    forwards, backwards = [w.forward for w in ws], [w.backward for w in reversed(ws)]
    return _point_witness(ws[0].source, ws[-1].target, _chained(forwards), _chained(backwards),
                          (forwards, backwards))


def _bijection_witness(source: Bibundle, target: Bibundle, forward: dict[str, str]) -> IsoWitness:
    """The 2-cell of a map built whole, with its inverse table."""
    _check_bijection(forward.values(), len(source.carrier), len(target.carrier))
    return IsoWitness(source, target, forward, {v: k for k, v in forward.items()})


def assoc_witness(M: Bibundle, N: Bibundle, L: Bibundle) -> IsoWitness:
    """(M.N).L ~ M.(N.L), [[m,n],l] |-> [m,[n,l]], and back
    [m,[n,l]] |-> [[m,n],l]."""
    MN, NL = compose(M, N), compose(N, L)
    left, right = compose(MN, L), compose(M, NL)
    left_pair, mn_pair = left.index.parts_of, MN.index.parts_of
    right_pair, nl_pair = right.index.parts_of, NL.index.parts_of
    to_left, to_mn, to_right, to_nl = left.project_fn, MN.project_fn, right.project_fn, NL.project_fn

    def forward(rep: str) -> str:
        mn, l = left_pair[rep]
        m, n = mn_pair[mn]
        return to_right(m, to_nl(n, l))

    def backward(rep: str) -> str:
        m, nl = right_pair[rep]
        n, l = nl_pair[nl]
        return to_left(to_mn(m, n), l)

    return _point_witness(left, right, forward, backward)


def lunit_witness(M: Bibundle, composed: ComposedBibundle | None = None) -> IsoWitness:
    """Id_G . M ~ M, [g, m] |-> g.m, and back m |-> [1, m] with 1 the unit
    at lmap(m), on composed, by default compose(identity_bibundle(G), M).
    composed may have any left factor equal to identity_bibundle(G):
    check_coherence collapses (Id * Id) ; mu, whose left factor is a tensor
    of two identities and not identity_bibundle(G^2), so two callers need
    different composites."""
    if composed is None:
        composed = compose(identity_bibundle(M.left_groupoid), M)
    pair, act, project = composed.index.parts_of, M.left_fn, composed.project_fn
    unit, lmap = M.left_groupoid.unit, M.lmap

    def forward(rep: str) -> str:
        return act(*pair[rep])

    def backward(m: str) -> str:
        return project(unit[lmap[m]], m)

    return _point_witness(composed, M, forward, backward)


def runit_witness(M: Bibundle, composed: ComposedBibundle | None = None) -> IsoWitness:
    """M . Id_H ~ M, [m, h] |-> m.h, and back m |-> [m, 1] with 1 the unit
    at rmap(m), on composed, by default compose(M, identity_bibundle(H)); as
    in lunit_witness, composed may have any right factor equal to
    identity_bibundle(H)."""
    if composed is None:
        composed = compose(M, identity_bibundle(M.right_groupoid))
    pair, act, project = composed.index.parts_of, M.right_fn, composed.project_fn
    unit, rmap = M.right_groupoid.unit, M.rmap

    def forward(rep: str) -> str:
        return act(*pair[rep])

    def backward(m: str) -> str:
        return project(m, unit[rmap[m]])

    return _point_witness(composed, M, forward, backward)


def comp_witness(w1: IsoWitness, w2: IsoWitness) -> IsoWitness:
    """Whisker two witnesses along composition: w1 . w2 on M1.N1 -> M2.N2,
    [m, n] |-> [w1(m), w2(n)], and back through their inverses."""
    source, target = compose(w1.source, w2.source), compose(w1.target, w2.target)
    source_pair, target_pair = source.index.parts_of, target.index.parts_of
    to_source, to_target = source.project_fn, target.project_fn
    f1, f2, b1, b2 = w1.forward, w2.forward, w1.backward, w2.backward

    def forward(rep: str) -> str:
        m, n = source_pair[rep]
        return to_target(f1[m], f2[n])

    def backward(rep: str) -> str:
        m, n = target_pair[rep]
        return to_source(b1[m], b2[n])

    return _point_witness(source, target, forward, backward, ((f1, f2), (b1, b2)))


# ---------------------------------------------------------------------------
# isomorphism search


def _moments(X: Bibundle) -> list[tuple[str, str]]:
    return [(X.lmap[x], X.rmap[x]) for x in X.carrier]


def _non_units(G: FinGroupoid, fiber: Sequence[str], x: str) -> Sequence[str]:
    """The arrows of fiber, a fiber of G at x, other than the unit at x. A
    one-arrow fiber of a valid groupoid holds only the unit, so it gives ()
    without reading the unit table."""
    if len(fiber) == 1:
        return ()
    u = G.unit[x]
    return [g for g in fiber if g != u]


def _candidates(M: Bibundle, N: Bibundle) -> tuple[list[tuple[str, str]], dict[tuple[str, str], list[str]]] | None:
    """M's moments in carrier order, and N's points bucketed by their
    moments, each bucket in N's carrier order; None when M and N lie over
    different groupoids or some moments are held by different numbers of
    points, as then no bijection preserves them."""
    n_moments = _moments(N)
    m_moments = _moments(M)
    if not (_same_groupoid(M.left_groupoid, N.left_groupoid)
            and _same_groupoid(M.right_groupoid, N.right_groupoid)
            and Counter(m_moments) == Counter(n_moments)):
        return None
    cands: dict[tuple[str, str], list[str]] = {}
    for n, key in zip(N.carrier, n_moments):
        cands.setdefault(key, []).append(n)
    return m_moments, cands


def _iso_search(M: Bibundle, N: Bibundle) -> Iterator[dict[str, str]]:
    """Biequivariant bijections M -> N, lex-least first in M's carrier order.
    M and N must be valid bibundles (see validate_bibundle): no unit arrow
    is applied, as the units fix every point.

    Only orbit representatives (the first carrier point not yet assigned) are
    branched on, over N's points with the same moments in carrier order.
    Placing m |-> n sends g.(m.h) |-> g.(n.h) for the arrows g, h at m, and
    fails on a clash (a point already sent elsewhere) or a reuse (an image
    already taken). Every point before a representative lies in an earlier
    representative's orbit, so lex order over the representatives is lex
    order over the whole map.
    """
    found = _candidates(M, N)
    if found is None:
        return
    cands = found[1]
    G, H = M.left_groupoid, M.right_groupoid
    mleft, mright = M.left_fn, M.right_fn
    nleft, nright = N.left_fn, N.right_fn
    forward: dict[str, str] = {}
    taken: set[str] = set()

    def undo(trail: list[str]) -> None:
        for p in trail:
            taken.discard(forward.pop(p))

    def place(m: str, n: str) -> list[str] | None:
        """Assign g.(m.h) |-> g.(n.h) for every arrow pair at m, which covers
        m's orbit; the points assigned, or None (undone) if that is not a
        well-defined injection. Well defined, it is biequivariant. The units
        fix every point of a valid bundle, so m |-> n is assigned directly
        and no unit arrow is applied on either side; a side whose fiber at m
        is the unit alone is skipped (see _non_units)."""
        trail: list[str] = []

        def fits(p: str, q: str) -> bool:
            got = forward.get(p)
            if got is not None:
                return got == q  # else a clash
            if q in taken:
                return False  # a reuse
            forward[p] = q
            taken.add(q)
            trail.append(p)
            return True

        x, y = M.lmap[m], M.rmap[m]
        if fits(m, n) and all(fits(mright(m, h), nright(n, h)) for h in _non_units(H, H.l_fiber(y), y)):
            # the left arrows at m act on each point of m's right orbit
            gs = _non_units(G, G.r_fiber(x), x)
            if all(fits(mleft(g, p), nleft(g, forward[p])) for p in list(trail) for g in gs):
                return trail
        undo(trail)
        return None

    def placements(m: str) -> Iterator[bool]:
        """Place m on each of its candidates in turn, undoing the last."""
        for n in cands[(M.lmap[m], M.rmap[m])]:
            trail = None if n in taken else place(m, n)
            if trail is not None:
                yield True
                undo(trail)

    # an explicit stack of (representative's position, its placements)
    order = M.carrier.elements
    frames: list[tuple[int, Iterator[bool]]] = []
    pos = 0
    while True:
        while pos < len(order) and order[pos] in forward:
            pos += 1
        if pos == len(order):
            yield {m: forward[m] for m in order}
        else:
            frames.append((pos, placements(order[pos])))
        # move the deepest representative with a candidate left onto it
        while frames:
            pos, tries = frames[-1]
            if next(tries, False):
                break
            frames.pop()
        else:
            return


def _bucket_pairing(M: Bibundle, N: Bibundle) -> dict[str, str] | None:
    """M's points sent to N's with the same moments, each bucket's in
    carrier order on both sides; None when no bijection keeps the moments
    (see _candidates)."""
    found = _candidates(M, N)
    if found is None:
        return None
    m_moments, cands = found
    takes = {key: iter(ns).__next__ for key, ns in cands.items()}
    return {m: takes[key]() for m, key in zip(M.carrier, m_moments)}


def find_iso(M: Bibundle, N: Bibundle) -> IsoWitness | None:
    """Least biequivariant isomorphism in carrier order, or None.

    Each orbit representative of M tries N's points with its moments, in N's
    order, and takes its whole orbit along (see _iso_search). Bibundles over
    different groupoids are never isomorphic, so None comes back for those
    rather than an error. M and N must be valid bibundles (see
    validate_bibundle), as the search applies no unit arrow.

    Over discrete groupoids (every arrow a unit, as for a plain group on
    its powers) there is no search: every orbit is one point and every
    moment-preserving bijection is biequivariant, so the least one pairs
    the points of each moment bucket, M's and N's, in carrier order. That
    is the search's first map, as each representative takes its first
    untaken candidate and no placement fails.
    """
    discrete = _discrete(M.left_groupoid) and _discrete(M.right_groupoid)
    forward = _bucket_pairing(M, N) if discrete else next(_iso_search(M, N), None)
    if forward is None:
        return None
    return IsoWitness(M, N, forward, {v: k for k, v in forward.items()})


def all_isos(M: Bibundle, N: Bibundle, limit: int = 10_000) -> Iterator[IsoWitness]:
    """The biequivariant isomorphisms M -> N, at most limit of them, in the
    order find_iso takes the first (see _iso_search); a limit past
    sys.maxsize is no limit. M and N must be valid bibundles, as the search
    applies no unit arrow. It searches over every groupoid, discrete ones
    too, so it stays the oracle for find_iso's bucket pairing."""
    for forward in itertools.islice(_iso_search(M, N), min(limit, sys.maxsize)):
        yield IsoWitness(M, N, forward, {v: k for k, v in forward.items()})


# ---------------------------------------------------------------------------
# weak isomorphisms (Morita equivalences)


@dataclass(frozen=True)
class WeakIso:
    ok: bool
    inverse: Bibundle | None = None
    left_identity: IsoWitness | None = None  # M . op(M) ~ Id_G
    right_identity: IsoWitness | None = None  # op(M) . M ~ Id_H
    failure: PrincipalityReport | None = None


def is_weak_isomorphism(M: Bibundle) -> WeakIso:
    """M is weakly invertible iff it is biprincipal; then op(M) inverts it.

    M must be a valid bibundle (see validate_bibundle). The two 2-cells are
    built from the pairings, not searched for:
    M . op(M) ~ Id_G by [m, m'] |-> the left pairing <m, m'>, and
    op(M) . M ~ Id_H by [m', m] |-> the right pairing <m', m>.
    """
    passes = _biprincipal_passes(M)
    if isinstance(passes, PrincipalityReport):
        return WeakIso(False, failure=passes)
    right, left = passes
    inv = opposite_bibundle(M)
    w1 = _pairing_witness(compose(M, inv), identity_bibundle(M.left_groupoid), left)
    w2 = _pairing_witness(compose(inv, M), identity_bibundle(M.right_groupoid), right)
    return WeakIso(True, inv, w1, w2, None)


def _pairing_witness(composed: ComposedBibundle, target: Bibundle, orbits: _OrbitPass) -> IsoWitness:
    """[m, m2] |-> <m, m2>, the pairing of the pass, onto an identity bibundle."""
    pair_of = composed.index.parts_of
    forward = {rep: orbits.pairing(*pair_of[rep]) for rep in composed.carrier}
    return _bijection_witness(composed, target, forward)
