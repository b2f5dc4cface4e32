"""Truncated simplicial sets, nerves and Kan conditions.

A simplicial set is stored up to a finite level k: the sets X_0..X_k together
with all face and degeneracy tables between them. The nerve of a finite
category stores composable arrow chains, each labelled once. Horn spaces are
enumerated directly from the compatibility equations as a join: X_{n-1} is
bucketed once per horn position by the faces the equations read, so each
step looks up the one bucket of candidates that fit the faces already chosen
and keeps X_{n-1}'s order within it. The Kan conditions compare the
restriction map X_n -> horn_set(n, i) for surjectivity (weak) or bijectivity
(strict). Over finite sets a surjection always has a section, so the weak
condition is implemented as plain surjectivity.

Classification at a truncation level is evidence, not proof: the reports say
which Kan patterns hold on the stored levels only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import (
    FinCategory,
    FinGroupoid,
    FinSet,
    StructuralError,
    ValidationReport,
    Violation,
    finset,
)
from .labels import tup


@dataclass(frozen=True)
class TruncatedSSet:
    """Levels X_0..X_k with face maps (n, i): X_n -> X_{n-1} for 1 <= n <= k
    and degeneracy maps (n, j): X_n -> X_{n+1} for 0 <= n < k."""

    levels: tuple[FinSet, ...]
    face: Mapping[tuple[int, int], Mapping[str, str]]
    degen: Mapping[tuple[int, int], Mapping[str, str]]

    @property
    def k(self) -> int:
        return len(self.levels) - 1

    def level(self, n: int) -> FinSet:
        if not 0 <= n <= self.k:
            raise StructuralError(f"level {n} not stored (k = {self.k})")
        return self.levels[n]

    def d(self, n: int, i: int, x: str) -> str:
        try:
            return self.face[(n, i)][x]
        except KeyError:
            raise StructuralError(f"face d_{i} undefined on level {n} at {x!r}") from None

    def s(self, n: int, j: int, x: str) -> str:
        try:
            return self.degen[(n, j)][x]
        except KeyError:
            raise StructuralError(f"degeneracy s_{j} undefined on level {n} at {x!r}") from None


def validate_sset(X: TruncatedSSet) -> ValidationReport:
    """Check totality of the tables and the five simplicial identity families
    on every stored level."""
    out: list[Violation] = []
    k = X.k

    def bad(code: str, msg: str, witness) -> None:
        out.append(Violation("structural", code, msg, witness))

    for n in range(1, k + 1):
        for i in range(n + 1):
            t = X.face.get((n, i))
            if t is None:
                bad("face-missing", f"no face table d_{i} at level {n}", (n, i))
                continue
            for x in X.levels[n]:
                y = t.get(x)
                if y is None or y not in X.levels[n - 1]:
                    bad("face-range", f"d_{i} leaves level {n - 1}", (n, i, x))
    for n in range(k):
        for j in range(n + 1):
            t = X.degen.get((n, j))
            if t is None:
                bad("degen-missing", f"no degeneracy table s_{j} at level {n}", (n, j))
                continue
            for x in X.levels[n]:
                y = t.get(x)
                if y is None or y not in X.levels[n + 1]:
                    bad("degen-range", f"s_{j} leaves level {n + 1}", (n, j, x))
    if out:
        return ValidationReport(tuple(out))

    def ax(code: str, msg: str, witness) -> None:
        out.append(Violation("axiom", code, msg, witness))

    # every table is total into the next level, so the identities read the
    # tables directly, each hoisted out of the loop over simplices
    face, degen = X.face, X.degen
    # d_i d_j = d_{j-1} d_i  (i < j)
    for n in range(2, k + 1):
        xs = X.levels[n].elements
        for j in range(1, n + 1):
            dj, dj_low = face[(n, j)], face[(n - 1, j - 1)]
            for i in range(j):
                di, di_low = face[(n, i)], face[(n - 1, i)]
                for x in xs:
                    if di_low[dj[x]] != dj_low[di[x]]:
                        ax("dd", "face maps do not commute", (n, i, j, x))
    # s_i s_j = s_{j+1} s_i  (i <= j)
    for n in range(k - 1):
        xs = X.levels[n].elements
        for j in range(n + 1):
            sj, sj_high = degen[(n, j)], degen[(n + 1, j + 1)]
            for i in range(j + 1):
                si, si_high = degen[(n, i)], degen[(n + 1, i)]
                for x in xs:
                    if si_high[sj[x]] != sj_high[si[x]]:
                        ax("ss", "degeneracies do not commute", (n, i, j, x))
    for n in range(k):
        xs = X.levels[n].elements
        for j in range(n + 1):
            sj, dj_high, dj1_high = degen[(n, j)], face[(n + 1, j)], face[(n + 1, j + 1)]
            # (d_i on level n + 1, s on level n - 1, d on level n) for
            # d_i s_j = s_{j-1} d_i  (i < j) and d_i s_j = s_j d_{i-1}  (i > j + 1)
            lt = [(face[(n + 1, i)], degen[(n - 1, j - 1)], face[(n, i)]) for i in range(j)]
            gt = [(face[(n + 1, i)], degen[(n - 1, j)], face[(n, i - 1)]) for i in range(j + 2, n + 2)]
            for x in xs:
                sx = sj[x]
                # d_j s_j = id = d_{j+1} s_j
                if dj_high[sx] != x:
                    ax("ds-id", "d_j s_j is not the identity", (n, j, x))
                if dj1_high[sx] != x:
                    ax("ds-id", "d_{j+1} s_j is not the identity", (n, j, x))
                for i, (di_high, s_low, di) in enumerate(lt):
                    if di_high[sx] != s_low[di[x]]:
                        ax("ds-lt", "d_i s_j != s_{j-1} d_i", (n, i, j, x))
                for i, (di_high, s_low, di) in enumerate(gt, j + 2):
                    if di_high[sx] != s_low[di[x]]:
                        ax("ds-gt", "d_i s_j != s_j d_{i-1}", (n, i, j, x))
    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# nerves


def nerve(C: FinCategory | FinGroupoid, k: int = 3) -> TruncatedSSet:
    """The chains-of-composable-arrows simplicial set of a finite category,
    stored up to level k. An n-chain (g_1, ..., g_n) runs through vertices
    x_0 -> x_1 -> ... -> x_n with g_i an arrow from x_{i-1} to x_i; inner
    faces compose adjacent arrows, outer faces drop an end, degeneracies
    insert identity arrows. Chains extend through the arrows out of their
    last vertex, in arrow order, and each chain's label is taken once."""
    if k < 2:
        raise StructuralError("nerve needs truncation level k >= 2")
    out_of: dict[str, list[str]] = {}
    for g in C.arrows:
        out_of.setdefault(C.r[g], []).append(g)
    chains: list[list[tuple[str, ...]]] = [[()], [(g,) for g in C.arrows]]
    label: dict[tuple[str, ...], str] = {(g,): g for g in C.arrows}
    for n in range(2, k + 1):
        nxt = [ch + (g,) for ch in chains[n - 1] for g in out_of.get(C.l[ch[-1]], ())]
        label.update((ch, tup(*ch)) for ch in nxt)
        chains.append(nxt)

    levels = [finset(list(C.objects))]
    for n in range(1, k + 1):
        levels.append(finset([label[ch] for ch in chains[n]]))

    face: dict[tuple[int, int], dict[str, str]] = {}
    degen: dict[tuple[int, int], dict[str, str]] = {}

    # a composite or unit that leaves the chains (only in a table that is not
    # a category) has no label
    try:
        for g in C.arrows:
            face.setdefault((1, 0), {})[g] = C.l[g]
            face.setdefault((1, 1), {})[g] = C.r[g]
        for n in range(2, k + 1):
            tables = [face.setdefault((n, i), {}) for i in (0, n, *range(1, n))]
            first, last, inner = tables[0], tables[1], tables[2:]
            for ch in chains[n]:
                x = label[ch]
                first[x] = label[ch[1:]]
                last[x] = label[ch[:-1]]
                for i, t in enumerate(inner, 1):
                    t[x] = label[ch[:i - 1] + (C.comp[(ch[i], ch[i - 1])],) + ch[i + 1:]]

        for obj in C.objects:
            degen.setdefault((0, 0), {})[obj] = C.unit[obj]
        for n in range(1, k):
            tables = [degen.setdefault((n, j), {}) for j in range(n + 1)]
            for ch in chains[n]:
                x = label[ch]
                for j, t in enumerate(tables):
                    vertex = C.r[ch[0]] if j == 0 else C.l[ch[j - 1]]
                    t[x] = label[ch[:j] + (C.unit[vertex],) + ch[j:]]
    except KeyError as exc:
        raise StructuralError(f"nerve: no chain or composite at {exc.args[0]!r}") from None

    X = TruncatedSSet(tuple(levels), face, degen)
    rep = validate_sset(X)
    if not rep.ok:
        raise StructuralError(f"nerve violates simplicial identities: {rep.first()}")
    return X


# ---------------------------------------------------------------------------
# horns and Kan conditions


@dataclass(frozen=True)
class HornFiller:
    """The faces of an (n, i)-horn: one (n-1)-simplex for every index j != i,
    satisfying d_a(face_b) = d_{b-1}(face_a) for a < b."""

    n: int
    i: int
    faces: tuple[tuple[int, str], ...]

    def face(self, j: int) -> str:
        for jj, x in self.faces:
            if jj == j:
                return x
        raise StructuralError(f"horn has no face {j}")


def _face_table(X: TruncatedSSet, n: int, a: int, xs: Sequence[str]) -> Mapping[str, str]:
    """The table of d_a on level n, once it is known to be defined on every
    one of xs; an undefined face is a StructuralError naming it."""
    t = X.face.get((n, a), {})
    if not all(x in t for x in xs):
        for x in xs:
            X.d(n, a, x)
    return t


def horn_set(X: TruncatedSSet, n: int, i: int) -> tuple[HornFiller, ...]:
    """All compatible (n, i)-horns, extended face by face over the indices
    j != i in increasing order.

    The face at position pos must satisfy d_a(x_b) = d_{b-1}(x_a) against
    every earlier face x_a, so X_{n-1} is bucketed once per position by the
    key (d_a(x) for each earlier index a), and a step reads the one bucket
    keyed (d_{b-1}(x_a) for each face chosen so far). A bucket keeps
    X_{n-1}'s order and the partial horns are extended in turn, so the horns
    come out lexicographic in X_{n-1}'s order, face by face."""
    if not (2 <= n <= X.k) or not (0 <= i <= n):
        raise StructuralError(f"horn index ({n}, {i}) out of range for k = {X.k}")
    indices = [j for j in range(n + 1) if j != i]
    lower = X.levels[n - 1].elements
    d = {a: _face_table(X, n - 1, a, lower)
         for a in sorted({*indices[:-1], *(b - 1 for b in indices[1:])})}
    steps: list[tuple[dict[tuple[str, ...], list[str]], Mapping[str, str] | None]] = []
    for pos, b in enumerate(indices):
        earlier = [d[a] for a in indices[:pos]]
        bucket: dict[tuple[str, ...], list[str]] = {}
        for x in lower:
            bucket.setdefault(tuple(t[x] for t in earlier), []).append(x)
        steps.append((bucket, d.get(b - 1)))
    chosen: list[tuple[str, ...]] = [()]
    for bucket, back in steps:
        chosen = [faces + (x,) for faces in chosen
                  for x in bucket.get(tuple(back[xa] for xa in faces), ())]
    return tuple(HornFiller(n, i, tuple(zip(indices, faces))) for faces in chosen)


def _restriction(X: TruncatedSSet, n: int, i: int, x: str) -> tuple[tuple[int, str], ...]:
    return tuple((j, X.d(n, j, x)) for j in range(n + 1) if j != i)


@dataclass(frozen=True)
class KanReport:
    n: int
    i: int
    strict: bool
    ok: bool
    unfilled: HornFiller | None = None
    overfilled: tuple[HornFiller, tuple[str, ...]] | None = None
    horn_count: int = 0
    simplex_count: int = 0


def kan_check(X: TruncatedSSet, n: int, i: int, strict: bool = False) -> KanReport:
    """Weak Kan: every (n, i)-horn is the restriction of some n-simplex.
    Strict Kan: of exactly one. Failures carry the offending horn."""
    horns = horn_set(X, n, i)
    fillers: dict[tuple[tuple[int, str], ...], list[str]] = {}
    for x in X.levels[n]:
        fillers.setdefault(_restriction(X, n, i, x), []).append(x)
    unfilled = None
    overfilled = None
    for h in horns:
        got = fillers.get(h.faces, [])
        if not got and unfilled is None:
            unfilled = h
        if len(got) > 1 and overfilled is None:
            overfilled = (h, tuple(got))
    ok = unfilled is None and (not strict or overfilled is None)
    return KanReport(n, i, strict, ok, unfilled, overfilled if strict else None,
                     len(horns), len(X.levels[n]))


@dataclass(frozen=True)
class ClassifyReport:
    """Which Kan patterns hold on the stored levels. Truncated evidence: a
    pattern holding up to level k says nothing about higher levels."""

    level: int
    is_nerve_of_category: bool
    is_1_groupoid_nerve: bool
    single_vertex: bool
    group_candidates: tuple[int, ...]
    note: str = "evidence up to the stored truncation level only"


def classify(X: TruncatedSSet, k: int | None = None) -> ClassifyReport:
    """Test the category / 1-groupoid / n-group Kan patterns on levels 2..k.

    Category pattern: strict inner Kan. 1-groupoid pattern: strict Kan at
    every index. n-group candidates: a single 0-simplex, weak Kan everywhere
    up to level n and strict Kan everywhere above, checked on stored levels.
    """
    if k is None:
        k = X.k
    if k < 3:
        raise StructuralError("classification needs truncation level k >= 3")
    k = min(k, X.k)
    weak: dict[tuple[int, int], bool] = {}
    strict: dict[tuple[int, int], bool] = {}
    for n in range(2, k + 1):
        for i in range(n + 1):
            # the strict report's first unfilled horn decides the weak condition
            rep = kan_check(X, n, i, strict=True)
            strict[(n, i)] = rep.ok
            weak[(n, i)] = rep.unfilled is None

    cat = all(strict[(n, i)] for n in range(2, k + 1) for i in range(1, n))
    grpd = all(strict[(n, i)] for n in range(2, k + 1) for i in range(n + 1))
    single = len(X.levels[0]) == 1
    candidates = []
    if single:
        for n in range(1, k + 1):
            low = all(weak[(c, i)] for c in range(2, min(n, k) + 1) for i in range(c + 1))
            high = all(strict[(c, i)] for c in range(n + 1, k + 1) for i in range(c + 1))
            if low and high:
                candidates.append(n)
    return ClassifyReport(k, cat, grpd, single, tuple(candidates))


# ---------------------------------------------------------------------------
# small non-groupoid categories for the Kan tests


def poset_category(n: int = 2) -> FinCategory:
    """The linear order 0 < 1 < ... < n-1 as a category: one arrow j -> i
    whenever j <= i, labelled tup(i, j)."""
    if n < 1:
        raise StructuralError("poset needs n >= 1")
    xs = [str(i) for i in range(n)]
    arrows = [tup(xs[i], xs[j]) for i in range(n) for j in range(i + 1)]
    l = {tup(xs[i], xs[j]): xs[i] for i in range(n) for j in range(i + 1)}
    r = {tup(xs[i], xs[j]): xs[j] for i in range(n) for j in range(i + 1)}
    comp = {}
    for i in range(n):
        for j in range(i + 1):
            for m in range(j + 1):
                comp[(tup(xs[i], xs[j]), tup(xs[j], xs[m]))] = tup(xs[i], xs[m])
    unit = {xs[i]: tup(xs[i], xs[i]) for i in range(n)}
    return FinCategory(finset(xs), finset(arrows), l, r, comp, unit)


def truncated_free_monoid(m: int = 4) -> FinCategory:
    """Powers a^0..a^{m-1} of one generator with saturating product
    a^i a^j = a^min(i+j, m-1); a one-object category that is not a groupoid."""
    if m < 2:
        raise StructuralError("need at least two powers")
    els = [f"a{i}" for i in range(m)]
    comp = {(f"a{i}", f"a{j}"): f"a{min(i + j, m - 1)}"
            for i in range(m) for j in range(m)}
    ident = {e: "*" for e in els}
    return FinCategory(finset(["*"]), finset(els), dict(ident), dict(ident),
                       comp, {"*": "a0"})
