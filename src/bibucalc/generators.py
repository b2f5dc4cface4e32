"""Seeded generators for groupoids, homomorphisms and bibundles.

Random groupoids are disjoint unions of components Pair(S) x Cyc(m): arrows
(i, j, k) from j to i with a cyclic isotropy part k. That family is closed
under the hom constructions used here, which makes it easy to produce valid
homomorphisms (and from them, bibundles of every principality profile) by
construction rather than by rejection sampling.

All functions take a random.Random so runs are reproducible from a seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .bibundle import Bibundle, bibundle_from_tables
from .calculus import bundlize, opposite_bibundle, relabel_bibundle
from .core import (
    FinGroupoid,
    GroupoidHom,
    StructuralError,
    action_groupoid,
    cyclic_groupoid,
    finset,
    pair_groupoid,
    trivial_groupoid,
)
from .labels import LabelIndex


@dataclass(frozen=True)
class GrpdSpec:
    """Component structure: ((objects...), isotropy order) per component."""

    comps: tuple[tuple[tuple[str, ...], int], ...]


def build_groupoid(spec: GrpdSpec) -> FinGroupoid:
    """The disjoint union of the components Pair(objs) x Cyc(m) of spec.

    Each component's arrow labels (i, j, k) are encoded once, into the
    groupoid's label index, in the order i, j, k; l, r, inv, unit and the
    composition table read them by position."""
    index = LabelIndex()
    objects: list[str] = []
    arrows: list[str] = []
    l: dict[str, str] = {}
    r: dict[str, str] = {}
    comp: dict[tuple[str, str], str] = {}
    inv: dict[str, str] = {}
    unit: dict[str, str] = {}
    for objs, m in spec.comps:
        s = len(objs)
        # the arrows (i, j, 0..m-1) start at row[i][j]
        a = index.add_product([objs, objs, [str(k) for k in range(m)]])
        row = [[(i * s + j) * m for j in range(s)] for i in range(s)]
        objects.extend(objs)
        arrows.extend(a)
        for i, x in enumerate(objs):
            for j, y in enumerate(objs):
                ij, ji = row[i][j], row[j][i]
                for k in range(m):
                    g = a[ij + k]
                    l[g] = x
                    r[g] = y
                    inv[g] = a[ji + (-k) % m]
        for i, x in enumerate(objs):
            unit[x] = a[row[i][i]]
        for i in range(s):
            for j in range(s):
                ij = row[i][j]
                for j2 in range(s):
                    jj2, ij2 = row[j][j2], row[i][j2]
                    for k in range(m):
                        g = a[ij + k]
                        for k2 in range(m):
                            comp[(g, a[jj2 + k2])] = a[ij2 + (k + k2) % m]
    G = FinGroupoid(finset(objects), finset(arrows), l, r, comp, inv, unit, index)
    object.__setattr__(G, "_gen_spec", spec)
    return G


def spec_of(G: FinGroupoid) -> GrpdSpec:
    spec = getattr(G, "_gen_spec", None)
    if spec is None:
        raise StructuralError("groupoid was not produced by build_groupoid")
    return spec


def random_spec(
    rng: random.Random,
    max_objects: int = 4,
    max_isotropy: int = 4,
    prefix: str = "x",
    n_comps: int | None = None,
) -> GrpdSpec:
    comps = []
    total = 0
    n = n_comps if n_comps is not None else rng.randint(1, 2)
    for c in range(n):
        size = rng.randint(1, max(1, max_objects - total))
        total += size
        m = rng.randint(1, max_isotropy)
        comps.append((tuple(f"{prefix}{c}.{i}" for i in range(size)), m))
    return GrpdSpec(tuple(comps))


def random_groupoid(
    rng: random.Random,
    max_objects: int = 4,
    max_isotropy: int = 4,
    prefix: str = "x",
    n_comps: int | None = None,
) -> FinGroupoid:
    return build_groupoid(random_spec(rng, max_objects, max_isotropy, prefix, n_comps))


def enumerate_homs(
    G: FinGroupoid,
    H: FinGroupoid,
    limit: int | None = None,
    rng: random.Random | None = None,
) -> list[GroupoidHom]:
    """All homomorphisms G -> H, by backtracking over arrow images.

    Works for any finite groupoid.  With a limit the enumeration stops early;
    passing an rng shuffles the search order so a truncated run is still a
    fair sample.  At least one hom always exists (collapse onto a unit).
    """
    arrows = list(G.arrows)
    cands = list(H.arrows)
    if rng is not None:
        rng.shuffle(arrows)
        rng.shuffle(cands)
    comp_items = tuple(G.comp.items())
    out: list[GroupoidHom] = []
    f0: dict[str, str] = {}
    f1: dict[str, str] = {}

    def admissible(g: str, h: str) -> bool:
        for x, y in ((G.l[g], H.l[h]), (G.r[g], H.r[h])):
            got = f0.get(x)
            if got is not None and got != y:
                return False
        for (a, b), c in comp_items:
            ha = h if a == g else f1.get(a)
            hb = h if b == g else f1.get(b)
            if ha is None or hb is None:
                continue
            hc = H.comp.get((ha, hb))
            if hc is None:
                return False
            want = h if c == g else f1.get(c)
            if want is not None and want != hc:
                return False
        return True

    def place(idx: int) -> None:
        if limit is not None and len(out) >= limit:
            return
        if idx == len(arrows):
            out.append(GroupoidHom(G, H, dict(f0), dict(f1)))
            return
        g = arrows[idx]
        for h in cands:
            if not admissible(g, h):
                continue
            f1[g] = h
            touched = []
            for x, y in ((G.l[g], H.l[h]), (G.r[g], H.r[h])):
                if x not in f0:
                    f0[x] = y
                    touched.append(x)
            place(idx + 1)
            del f1[g]
            for x in touched:
                del f0[x]
            if limit is not None and len(out) >= limit:
                return

    place(0)
    return out


def random_hom(rng: random.Random, G: FinGroupoid, H: FinGroupoid) -> GroupoidHom:
    """A random homomorphism.

    Generator-produced groupoids carry their component spec, so per component
    of G we pick a target component of H, any map on objects, and a group map
    Z/m -> Z/m' (k |-> c k with c a multiple of m'/gcd(m, m')).  Anything else
    falls back to a randomized truncated enumeration.
    """
    try:
        sG, sH = spec_of(G), spec_of(H)
    except StructuralError:
        homs = enumerate_homs(G, H, limit=32, rng=rng)
        return homs[rng.randrange(len(homs))]
    source, target = G.index.label_of, H.index.label_of
    f0: dict[str, str] = {}
    f1: dict[str, str] = {}
    for objs, m in sG.comps:
        tobjs, m2 = sH.comps[rng.randrange(len(sH.comps))]
        step = m2 // gcd(m, m2)
        c = step * rng.randrange(m2 // step) if m2 // step > 0 else 0
        omap = {i: tobjs[rng.randrange(len(tobjs))] for i in objs}
        f0.update(omap)
        for i in objs:
            for j in objs:
                for k in range(m):
                    f1[source[(i, j, str(k))]] = target[(omap[i], omap[j], str((c * k) % m2))]
    return GroupoidHom(G, H, f0, f1)


def relabel_randomly(rng: random.Random, M: Bibundle, prefix: str = "p") -> Bibundle:
    names = [f"{prefix}{i}" for i in range(len(M.carrier))]
    rng.shuffle(names)
    rename = {m: names[i] for i, m in enumerate(M.carrier)}
    return relabel_bibundle(M, rename)


def random_right_principal_bibundle(
    rng: random.Random,
    G: FinGroupoid | None = None,
    H: FinGroupoid | None = None,
    max_objects: int = 3,
    max_isotropy: int = 3,
    relabel: bool = True,
) -> Bibundle:
    """Bundlization of a random hom, optionally with an opaque relabelling."""
    if G is None:
        G = random_groupoid(rng, max_objects, max_isotropy, prefix="g")
    if H is None:
        H = random_groupoid(rng, max_objects, max_isotropy, prefix="h")
    M = bundlize(random_hom(rng, G, H))
    if relabel and rng.random() < 0.7:
        M = relabel_randomly(rng, M)
    return M


def pullback_bundle(phi: GroupoidHom, chi: GroupoidHom) -> Bibundle:
    """The G-H bibundle {(x, k) : phi0(x) == l(k)} with H acting through chi.

    phi: G -> K and chi: H -> K must share the target, and chi must be a
    bijection on objects; the right moment of (x, k) is the chi-preimage of
    r(k). Freeness fails exactly where chi kills isotropy; transitivity fails
    where chi misses arrows.
    """
    if phi.target != chi.target:
        raise StructuralError("pullback_bundle needs a common target")
    G, H, K = phi.source, chi.source, phi.target
    chi0_inv: dict[str, str] = {}
    for y, z in chi.f0.items():
        if z in chi0_inv:
            raise StructuralError("chi is not injective on objects")
        chi0_inv[z] = y
    if len(chi0_inv) != len(K.objects):
        raise StructuralError("chi is not onto the objects")
    # each carrier label (x, k) is encoded once, into index; the action
    # values are carrier points, looked up there by their parts
    index = LabelIndex()
    points = []  # (p, x, k) for each carrier label p of (x, k)
    lmap = {}
    rmap = {}
    for x in G.objects:
        fiber = K.l_fiber(phi.f0[x])
        for p, k in zip(index.add_product([(x,), fiber]), fiber):
            points.append((p, x, k))
            lmap[p] = x
            rmap[p] = chi0_inv[K.r[k]]
    point = index.label_of
    left = {}
    right = {}
    for p, x, k in points:
        for g in G.r_fiber(x):
            left[(g, p)] = point[(G.l[g], K.comp[(phi.f1[g], k)])]
        for h in H.l_fiber(rmap[p]):
            right[(p, h)] = point[(x, K.comp[(k, chi.f1[h])])]
    return bibundle_from_tables(G, H, list(lmap), lmap, rmap, left, right)


def _scaled_spec(spec: GrpdSpec, scale, prefix: str) -> GrpdSpec:
    comps = []
    for ci, (objs, m) in enumerate(spec.comps):
        comps.append((tuple(f"{prefix}{ci}.{i}" for i in range(len(objs))), scale(m)))
    return GrpdSpec(tuple(comps))


def _component_hom(G: FinGroupoid, K: FinGroupoid, c_per_comp: Sequence[int]) -> GroupoidHom:
    """The componentwise hom matching components in order: identity on the
    pair part, k |-> c k on the isotropy part."""
    sG, sK = spec_of(G), spec_of(K)
    source, target = G.index.label_of, K.index.label_of
    f0 = {}
    f1 = {}
    for (objs, m), (tobjs, m2), c in zip(sG.comps, sK.comps, c_per_comp):
        omap = dict(zip(objs, tobjs))
        f0.update(omap)
        for i in objs:
            for j in objs:
                for k in range(m):
                    f1[source[(i, j, str(k))]] = target[(omap[i], omap[j], str((c * k) % m2))]
    return GroupoidHom(G, K, f0, f1)


def random_bibundle(
    rng: random.Random,
    max_objects: int = 3,
    max_isotropy: int = 3,
) -> Bibundle:
    """A valid bibundle with a randomly chosen principality profile."""
    kind = rng.choice(["rp", "rp", "nonfree", "nontrans", "nonsurj", "double", "op"])
    if kind == "rp":
        return random_right_principal_bibundle(rng, max_objects=max_objects, max_isotropy=max_isotropy)
    if kind == "op":
        return opposite_bibundle(
            random_right_principal_bibundle(rng, max_objects=max_objects, max_isotropy=max_isotropy)
        )
    if kind == "double":
        G = random_groupoid(rng, max_objects, max_isotropy, prefix="g")
        H = random_groupoid(rng, max_objects, max_isotropy, prefix="h")
        A = relabel_randomly(rng, bundlize(random_hom(rng, G, H)), prefix="a")
        B = relabel_randomly(rng, bundlize(random_hom(rng, G, H)), prefix="b")
        carrier = list(A.carrier) + list(B.carrier)
        lmap = {**A.lmap, **B.lmap}
        rmap = {**A.rmap, **B.rmap}
        left = {**A.left_table(), **B.left_table()}
        right = {**A.right_table(), **B.right_table()}
        return bibundle_from_tables(G, H, carrier, lmap, rmap, left, right)
    if kind == "nonsurj":
        G = random_groupoid(rng, max_objects, max_isotropy, prefix="g", n_comps=2)
        H = random_groupoid(rng, max_objects, max_isotropy, prefix="h")
        M = bundlize(random_hom(rng, G, H))
        keep_comp = spec_of(G).comps[0][0]
        kept = [m for m in M.carrier if M.lmap[m] in keep_comp]
        lmap = {m: M.lmap[m] for m in kept}
        rmap = {m: M.rmap[m] for m in kept}
        left = {(g, m): v for (g, m), v in M.left_table().items() if m in lmap}
        right = {(m, h): v for (m, h), v in M.right_table().items() if m in lmap}
        return bibundle_from_tables(G, H, kept, lmap, rmap, left, right)
    # nonfree / nontrans: act through a hom that kills or misses isotropy
    H = random_groupoid(rng, max_objects, max_isotropy, prefix="h")
    sH = spec_of(H)
    if kind == "nonfree":
        K = build_groupoid(_scaled_spec(sH, lambda m: max(1, m // 2) if m % 2 == 0 else 1, "k"))
        cs = [1] * len(sH.comps)
    else:
        K = build_groupoid(_scaled_spec(sH, lambda m: m * 2, "k"))
        cs = [2] * len(sH.comps)
    chi = _component_hom(H, K, cs)
    G = random_groupoid(rng, max_objects, max_isotropy, prefix="g")
    phi = random_hom(rng, G, K)
    return pullback_bundle(phi, chi)


def standard_groupoid(family: str, n: int) -> FinGroupoid:
    """Named small fixtures used across the test suite and the CLI."""
    if family == "trivial":
        return trivial_groupoid(n)
    if family == "pair":
        return pair_groupoid(n)
    if family == "cyclic":
        return cyclic_groupoid(n)
    if family == "action":
        if n == 2:
            Z2 = cyclic_groupoid(2)
            return action_groupoid(Z2, ["a", "b"], lambda k, z: z if k == "0" else {"a": "b", "b": "a"}[z])
        if n == 3:
            Z3 = cyclic_groupoid(3)
            pts = ["a", "b", "c"]
            return action_groupoid(Z3, pts, lambda k, z: pts[(pts.index(z) + int(k)) % 3])
        raise StructuralError("action fixtures exist for n in {2, 3}")
    raise StructuralError(f"unknown groupoid family {family!r}")
