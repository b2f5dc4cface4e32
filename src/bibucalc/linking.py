"""Linking category and linking groupoid of a bibundle.

A G-H bibundle M can be repackaged as a category on the objects G_0 + H_0
whose arrows are G_1 + M + H_1, with mixed composites given by the two
actions. The bibundle axioms hold exactly when this category is one, and
principality becomes a statement about factorizations of its arrows. When M
is biprincipal the opposite carrier joins in and the category extends to a
groupoid whose mixed composites are the two pairings.

Labels are tagged with "G:", "M:", "Mop:", "H:" so the summands stay apart.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .bibundle import Bibundle, PrincipalityReport, _biprincipal_passes, _fibers
from .core import (
    FinCategory,
    FinGroupoid,
    FinSet,
    finset,
)


@dataclass(frozen=True)
class LinkingCategory:
    category: FinCategory
    bibundle: Bibundle


@dataclass(frozen=True)
class LinkingGroupoid:
    groupoid: FinGroupoid
    bibundle: Bibundle


@dataclass(frozen=True)
class NotBiprincipal:
    report: PrincipalityReport


def assemble_linking_category(
    G: FinGroupoid,
    H: FinGroupoid,
    carrier: FinSet | Iterable[str],
    lmap: Mapping[str, str],
    rmap: Mapping[str, str],
    left_table: Mapping[tuple[str, str], str],
    right_table: Mapping[tuple[str, str], str],
) -> FinCategory:
    """Build the linking category from raw tables, valid or not.

    No bibundle axioms are assumed; garbage in, garbage category out. This is
    what makes the equivalence "tables form a bibundle iff the assembly is a
    category" a checkable statement.
    """
    points = list(carrier.elements if isinstance(carrier, FinSet) else carrier)
    objects = [f"G:{x}" for x in G.objects] + [f"H:{y}" for y in H.objects]
    arrows = (
        [f"G:{g}" for g in G.arrows]
        + [f"M:{m}" for m in points]
        + [f"H:{h}" for h in H.arrows]
    )
    l = {f"G:{g}": f"G:{G.l[g]}" for g in G.arrows}
    r = {f"G:{g}": f"G:{G.r[g]}" for g in G.arrows}
    for m in points:
        l[f"M:{m}"] = f"G:{lmap[m]}"
        r[f"M:{m}"] = f"H:{rmap[m]}"
    for h in H.arrows:
        l[f"H:{h}"] = f"H:{H.l[h]}"
        r[f"H:{h}"] = f"H:{H.r[h]}"
    comp: dict[tuple[str, str], str] = {}
    for (g, g2), g3 in G.comp.items():
        comp[(f"G:{g}", f"G:{g2}")] = f"G:{g3}"
    for (h, h2), h3 in H.comp.items():
        comp[(f"H:{h}", f"H:{h2}")] = f"H:{h3}"
    for (g, m), m2 in left_table.items():
        comp[(f"G:{g}", f"M:{m}")] = f"M:{m2}"
    for (m, h), m2 in right_table.items():
        comp[(f"M:{m}", f"H:{h}")] = f"M:{m2}"
    unit = {f"G:{x}": f"G:{G.unit[x]}" for x in G.objects}
    unit.update({f"H:{y}": f"H:{H.unit[y]}" for y in H.objects})
    return FinCategory(finset(objects), finset(arrows), l, r, comp, unit)


def linking_category(M: Bibundle) -> LinkingCategory:
    cat = assemble_linking_category(
        M.left_groupoid, M.right_groupoid, M.carrier, M.lmap, M.rmap,
        M.left_table(), M.right_table(),
    )
    return LinkingCategory(cat, M)


def principality_via_linking(M: Bibundle) -> PrincipalityReport:
    """Right principality read off the linking category alone.

    Surjectivity: every G-object has an arrow into the H-side. Freeness: all
    right factorizations a . u == b have at most one solution u. Transitivity:
    M-arrows sharing their G-object factor through one another.
    """
    C = linking_category(M).category
    g_objects = [o for o in C.objects if o.startswith("G:")]
    m_arrows = [a for a in C.arrows if a.startswith("M:")]
    witnesses: dict = {}

    with_l: dict[str, list[str]] = {}
    for a in m_arrows:
        with_l.setdefault(C.l[a], []).append(a)
    surjective = True
    for x in g_objects:
        if not with_l.get(x):
            surjective = False
            witnesses["surjective"] = x.removeprefix("G:")
            break

    # count solutions u of a . u == b over all arrow pairs
    free = True
    solutions: dict[tuple[str, str], str] = {}
    by_l: dict[str, list[str]] = {}
    for a in C.arrows:
        by_l.setdefault(C.l[a], []).append(a)
    for a in C.arrows:
        if not free:
            break
        for u in by_l.get(C.r[a], []):
            b = C.comp[(a, u)]
            if (a, b) in solutions and solutions[(a, b)] != u:
                free = False
                m = a.removeprefix("M:")
                witnesses["free"] = (m, solutions[(a, b)], u)
                break
            solutions[(a, b)] = u

    transitive = True
    for x in g_objects:
        fiber = with_l.get(x, [])
        for a in fiber:
            for b in fiber:
                if not any(C.comp[(a, u)] == b for u in by_l.get(C.r[a], [])):
                    transitive = False
                    witnesses["transitive"] = (a.removeprefix("M:"), b.removeprefix("M:"))
                    break
            if not transitive:
                break
        if not transitive:
            break
    return PrincipalityReport("right", surjective, free, transitive, witnesses,
                              note="computed from the linking category")


def linking_groupoid(M: Bibundle) -> LinkingGroupoid | NotBiprincipal:
    """The groupoid on G_1 + M + op(M) + H_1; needs M biprincipal. The mixed
    composites M . op(M) and op(M) . M are the left and right pairings, read
    off the two orbit passes."""
    passes = _biprincipal_passes(M)
    if isinstance(passes, PrincipalityReport):
        return NotBiprincipal(passes)
    right, left = passes
    G, H = M.left_groupoid, M.right_groupoid
    C = linking_category(M).category
    points = list(M.carrier)
    arrows = list(C.arrows)
    # op(M) sits between M and H_1
    arrows[len(G.arrows) + len(points):len(G.arrows) + len(points)] = [f"Mop:{m}" for m in points]
    l, r, comp = dict(C.l), dict(C.r), dict(C.comp)
    inv = {f"G:{g}": f"G:{G.inv[g]}" for g in G.arrows}
    inv.update({f"H:{h}": f"H:{H.inv[h]}" for h in H.arrows})
    fibers_l, fibers_r = _fibers(M, "lmap"), _fibers(M, "rmap")
    for m in points:
        l[f"Mop:{m}"] = f"H:{M.rmap[m]}"
        r[f"Mop:{m}"] = f"G:{M.lmap[m]}"
        inv[f"M:{m}"] = f"Mop:{m}"
        inv[f"Mop:{m}"] = f"M:{m}"
        # op(M) legs
        for g in G.l_fiber(M.lmap[m]):
            comp[(f"Mop:{m}", f"G:{g}")] = f"Mop:{M.act_left(G.inv[g], m)}"
        for h in H.r_fiber(M.rmap[m]):
            comp[(f"H:{h}", f"Mop:{m}")] = f"Mop:{M.act_right(m, H.inv[h])}"
        # pairings
        for m2 in fibers_r.get(M.rmap[m], []):
            comp[(f"M:{m}", f"Mop:{m2}")] = f"G:{left.pairing(m, m2)}"
        for m2 in fibers_l.get(M.lmap[m], []):
            comp[(f"Mop:{m}", f"M:{m2}")] = f"H:{right.pairing(m, m2)}"
    lk = FinGroupoid(C.objects, finset(arrows), l, r, comp, inv, dict(C.unit))
    return LinkingGroupoid(lk, M)
