"""Independent oracles used by the test suite.

These deliberately avoid the code paths they are checking: the pairing oracle
derives the table by constraint propagation from the axioms, not by the
search compute_pairing uses, the orbit oracle quotients pairs with a
union-find rather than the composer's one-step image, the product oracle
stores every composite up front instead of reading it from the factors, the
column oracle scans every arrow for every point instead of moving one point
per fiber, and the codec oracle escapes labels character by character.
"""
from __future__ import annotations

import itertools

from bibucalc.bibundle import Bibundle, check_pairing_axioms, Pairing
from bibucalc.labels import tup


def pairing_solutions(M: Bibundle) -> list[dict]:
    """All total pairing tables satisfying the defining property and the
    pairing axioms. By propagation from the diagonal the answer is always
    zero or one table; zero exactly when freeness or transitivity fails."""
    H = M.right_groupoid
    fibers: dict[str, list[str]] = {}
    for m in M.carrier:
        fibers.setdefault(M.lmap[m], []).append(m)
    table: dict[tuple[str, str], str] = {}
    for fiber in fibers.values():
        for m in fiber:
            row: dict[str, str] = {m: H.unit[M.rmap[m]]}
            frontier = [m]
            while frontier:
                b = frontier.pop()
                for h2 in H.l_fiber(M.rmap[b]):
                    b2 = M.act_right(b, h2)
                    val = H.comp[(row[b], h2)]
                    if b2 in row:
                        if row[b2] != val:
                            return []  # freeness fails: the row is overdetermined
                    else:
                        row[b2] = val
                        frontier.append(b2)
            if set(row) != set(fiber):
                return []  # transitivity fails: unreachable fiber points
            for b, h in row.items():
                table[(m, b)] = h
    if not check_pairing_axioms(M, Pairing(table)).ok:
        return []
    return [table]


def orbit_quotient(pairs, moves) -> dict:
    """Union-find quotient of `pairs` under the moves; returns the map from
    each pair to the least element of its class (in `pairs` order)."""
    index = {p: i for i, p in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in pairs:
        for q in moves(p):
            a, b = find(index[p]), find(index[q])
            if a != b:
                # keep the least index as the representative
                lo, hi = min(a, b), max(a, b)
                parent[hi] = lo
    return {p: pairs[find(i)] for p, i in index.items()}


def product_comp_entry(combo) -> tuple[tuple[str, str], str]:
    """The product composite of one composable pair per factor, given as a
    sequence of ((g, g2), h) items: the pair of flat labels and its value."""
    key1 = tup(*(kv[0][0] for kv in combo))
    key2 = tup(*(kv[0][1] for kv in combo))
    return (key1, key2), tup(*(kv[1] for kv in combo))


def eager_product_comp(factors) -> dict:
    """The composition table of product_groupoid(factors), stored as a dict
    in itertools.product order over the factors' tables."""
    return dict(product_comp_entry(combo)
                for combo in itertools.product(*(f.comp.items() for f in factors)))


def rp_column_scan(M: Bibundle) -> dict[str, tuple[str, str]] | None:
    """For each m, the unique h with m.h == the first point of its lmap fiber,
    found by trying every arrow at rmap(m); None when some m has none or
    several."""
    H = M.right_groupoid
    fibers: dict[str, list[str]] = {}
    for m in M.carrier:
        fibers.setdefault(M.lmap[m], []).append(m)
    column: dict[str, tuple[str, str]] = {}
    for fiber in fibers.values():
        m0 = fiber[0]
        for m in fiber:
            found = [h for h in H.l_fiber(M.rmap[m]) if M.right_fn(m, h) == m0]
            if len(found) != 1:
                return None
            column[m] = (m0, found[0])
    return column


_SPECIAL = {"\\", ",", "(", ")"}


def esc_loop(part: str) -> str:
    if part == "":
        return "\\0"
    out = []
    for ch in part:
        if ch in _SPECIAL:
            out.append("\\")
        out.append(ch)
    return "".join(out)


def tup_loop(*parts: str) -> str:
    return "(" + ",".join(esc_loop(p) for p in parts) + ")"

