"""Independent checks of the library's answers.

Nothing here calls the code under test for a verdict. The checks read only
the raw tables of a groupoid or a bibundle (objects, arrows, l, r, unit and
the materialised action tables) and recompute what the library claims:
that a witness is a biequivariant bijection, which principality flags hold,
whether a pairing exists, and how many connected components a groupoid has.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SideFlags:
    surjective: bool
    free: bool
    transitive: bool

    @property
    def ok(self) -> bool:
        return self.surjective and self.free and self.transitive


@dataclass(frozen=True)
class BundleTables:
    """A bibundle as plain data: enough to recompute principality."""

    carrier: tuple[str, ...]
    lmap: dict[str, str]
    rmap: dict[str, str]
    left_objects: tuple[str, ...]
    right_objects: tuple[str, ...]
    left_units: frozenset[str]
    right_units: frozenset[str]
    left_act: dict[tuple[str, str], str]   # (g, m) -> g.m
    right_act: dict[tuple[str, str], str]  # (m, h) -> m.h


def tables_of(M) -> BundleTables:
    """Read a library Bibundle into plain tables."""
    G, H = M.left_groupoid, M.right_groupoid
    return BundleTables(
        tuple(M.carrier), dict(M.lmap), dict(M.rmap),
        tuple(G.objects), tuple(H.objects),
        frozenset(G.unit.values()), frozenset(H.unit.values()),
        M.left_table(), M.right_table(),
    )


def tables_from_json(obj: dict) -> BundleTables:
    """Read a bibundle file's JSON (inline groupoids) into plain tables."""
    G, H = obj["leftGroupoid"], obj["rightGroupoid"]
    return BundleTables(
        tuple(obj["carrier"]), dict(obj["lM"]), dict(obj["rM"]),
        tuple(G["objects"]), tuple(H["objects"]),
        frozenset(G["unit"].values()), frozenset(H["unit"].values()),
        {(g, m): v for g, m, v in obj["leftAct"]},
        {(m, h): v for m, h, v in obj["rightAct"]},
    )


def _side_flags(carrier, base_moment, base_objects, moves, units) -> SideFlags:
    """moves: (m, k, m.k) triples of the acting side. Principality over the
    fibers of base_moment: onto base_objects, free, and transitive."""
    surjective = set(base_objects) <= {base_moment[m] for m in carrier}
    free = all(k in units or m2 != m for m, k, m2 in moves)
    reach = {(m, m2) for m, _, m2 in moves}
    fibers: dict[str, list[str]] = {}
    for m in carrier:
        fibers.setdefault(base_moment[m], []).append(m)
    transitive = all((m, m2) in reach
                     for fiber in fibers.values() for m in fiber for m2 in fiber)
    return SideFlags(surjective, free, transitive)


def principality(t: BundleTables, side: str) -> SideFlags:
    """Brute-force one-sided principality. Right: lmap onto the left objects,
    the right action free and transitive on lmap fibers. Left mirrors it."""
    if side == "right":
        moves = [(m, h, v) for (m, h), v in t.right_act.items()]
        return _side_flags(t.carrier, t.lmap, t.left_objects, moves, t.right_units)
    moves = [(m, g, v) for (g, m), v in t.left_act.items()]
    return _side_flags(t.carrier, t.rmap, t.right_objects, moves, t.left_units)


def pairing_problems(t: BundleTables, table: dict) -> list[str]:
    """A pairing table must translate m to m2 for every pair in a fiber."""
    out = []
    for m in t.carrier:
        for m2 in t.carrier:
            if t.lmap[m] != t.lmap[m2]:
                continue
            h = table.get((m, m2))
            if h is None or t.right_act.get((m, h)) != m2:
                out.append(f"pairing <{m}, {m2}> = {h!r} does not carry {m} to {m2}")
                break
    return out


def witness_problems(w) -> list[str]:
    """Check that an IsoWitness is a biequivariant bijection between bundles
    over the same groupoids. Returns the problems found (empty when sound)."""
    M, N = w.source, w.target
    for side in ("left_groupoid", "right_groupoid"):
        A, B = getattr(M, side), getattr(N, side)
        if A is not B and (tuple(A.arrows) != tuple(B.arrows) or dict(A.l) != dict(B.l)
                           or dict(A.r) != dict(B.r)):
            return [f"{side} differs between source and target"]
    fwd, bwd = dict(w.forward), dict(w.backward)
    src, dst = set(M.carrier), set(N.carrier)
    if set(fwd) != src or set(fwd.values()) != dst or len(src) != len(dst):
        return ["forward is not a bijection between the carriers"]
    if any(bwd.get(n) != m for m, n in fwd.items()) or len(bwd) != len(fwd):
        return ["backward does not invert forward"]
    for m, n in fwd.items():
        if M.lmap[m] != N.lmap[n] or M.rmap[m] != N.rmap[n]:
            return [f"moments of {m} are not preserved"]
    n_left, n_right = N.left_table(), N.right_table()
    for (g, m), v in M.left_table().items():
        if fwd[v] != n_left.get((g, fwd[m])):
            return [f"left equivariance fails at ({g}, {m})"]
    for (m, h), v in M.right_table().items():
        if fwd[v] != n_right.get((fwd[m], h)):
            return [f"right equivariance fails at ({m}, {h})"]
    return []


def component_count(objects, arrows, l, r) -> int:
    """Connected components of a groupoid given as raw tables."""
    parent = {x: x for x in objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in arrows:
        a, b = find(l[g]), find(r[g])
        if a != b:
            parent[a] = b
    return len({find(x) for x in objects})


def components_of_json(obj: dict) -> int:
    return component_count(obj["objects"], obj["arrows"], obj["l"], obj["r"])
