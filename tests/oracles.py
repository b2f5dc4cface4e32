"""Independent oracles used by the test suite.

These deliberately avoid the code paths they are checking:
- the pairing oracle derives the table by constraint propagation from the
  axioms, and the pairing search tries every arrow for every pair of fiber
  points, where compute_pairing reads the table off one orbit pass;
- the principality scan looks for a fixing arrow at every point and for an
  arrow from every fiber point to the fiber's first one, and the stabiliser
  scan tries every arrow at every point's moment, where the orbit pass moves
  one representative per orbit; the orbit-pass scan moves each
  representative by the unit too, where the pass skips it;
- the orbit oracle quotients pairs with a union-find, where compose projects
  each pair through the orbit pass and the stabiliser of its first leg;
- the product oracles store every composite, and the l, r, inv and unit
  tables, up front and index the fibers by scanning the arrows, instead of
  reading them from the factors; lookup_outcomes reads any table or set
  entry by entry, refusals included, so a lazy product's answers can be
  compared with the eager one's; encoded_arrow_labels finds the arrows a
  product has encoded by decoding every label of its index afresh, where the
  index keeps each label's parts;
- carrier_holders counts, for each label, the bundles that hold it as a
  point, the most times compose may escape it when each bundle escapes each
  of its points once;
- the isomorphism oracle iso_search_dfs assigns every carrier point in turn
  behind a stabiliser-signature filter, where find_iso branches only on
  orbit representatives;
- the codec oracle escapes labels character by character;
- the horn oracle tries every (n-1)-simplex for every face of a partial horn,
  where horn_set looks up one bucket keyed by the faces already chosen;
- the nerve oracle scans every arrow for every chain and labels each chain at
  every face and degeneracy that reads it, where nerve indexes the arrows by
  source and labels each chain once;
- the simplicial-identity oracle reads every face and degeneracy through the
  checked accessors, where validate_sset reads the tables it has found total;
- the classify oracle asks for the weak Kan condition with a second,
  non-strict kan_check, where classify reads it off the strict report;
- the generator-groupoid oracle encodes every label afresh at each table
  entry that names it, where build_groupoid encodes each label once and
  reads the tables by position;
- the tensor oracles are the two tensors the library had before its products
  were flat: tensor_binary pairs two bundles over the binary product of
  their groupoids, looking moments up by their pair of labels, and
  juxtapose_scan flattens any number of wired bundles onto the env's power
  by splitting and joining labels per arity, where tensor_bibundle reads the
  moments by mixed-radix position and splits arrows through product_codec;
  the witness oracles tensor_witness_binary and interchange_witness_binary
  pair the binary tensors' labels by hand, where wired_tensor_witness and
  interchange_blocks read the n-ary tensors' indexes; tensor_eager builds
  the n-ary tensor in full up front, every point, moment and label, where
  tensor_bibundle encodes a point only when something reads it;
- the validation scans validate_groupoid_scan, validate_category_scan and
  validate_bibundle_scan look at every table entry, composable pair and
  composable triple one by one, where the library decides each family of
  a groupoid's or category's entries and each of its laws by comparing
  whole lists of rows, and scans only a family or law that fails; the
  bundle scan reads each action as one flat table, pair by pair over every
  point's fiber, reporting a pair its table lacks, where the library reads
  it into one row per point;
- the writer oracle dumps_stdlib is json.dumps with an indent, which json
  writes with its pure-Python encoder, where io.dumps hands each leaf
  container to json's C encoder and puts the line breaks in by hand.
"""
from __future__ import annotations

import itertools
import json
from collections import Counter
from typing import Callable, Iterable, Iterator

from bibucalc.bibundle import (
    Bibundle,
    NoPairing,
    Pairing,
    PrincipalityReport,
    _escapes,
    check_pairing_axioms,
)
from bibucalc.calculus import (
    ComposedBibundle,
    IsoWitness,
    TensorBibundle,
    _bijection_witness,
    _product_moments,
    compose,
)
from bibucalc.core import (
    FinCategory,
    FinGroupoid,
    StructuralError,
    ValidationReport,
    Violation,
    factors_of,
    finset,
    product_codec,
    product_groupoid,
)
from bibucalc.generators import GrpdSpec
from bibucalc.labels import LabelIndex, tup, untup
from bibucalc.simplicial import (
    ClassifyReport,
    HornFiller,
    TruncatedSSet,
    kan_check,
)


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


def _fibers(M: Bibundle, moment) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for m in M.carrier:
        out.setdefault(moment[m], []).append(m)
    return out


def principality_scan(M: Bibundle, side: str = "right") -> PrincipalityReport:
    """One-sided principality by scanning: every point is tried against
    every arrow at its moment for a fixing non-unit, and every fiber point
    against every arrow for one that moves it to the fiber's first point."""
    witnesses: dict = {}
    note = ""
    if side == "right":
        base_objects = M.left_groupoid.objects
        fiber_of = _fibers(M, M.lmap)
        acting = M.right_groupoid
        moment = M.rmap

        def move(m: str, k: str) -> str:
            return M.act_right(m, k)

        def arrows_at(m: str) -> tuple[str, ...]:
            return acting.l_fiber(moment[m])
    else:
        base_objects = M.right_groupoid.objects
        fiber_of = _fibers(M, M.rmap)
        acting = M.left_groupoid
        moment = M.lmap

        def move(m: str, k: str) -> str:
            return M.act_left(k, m)

        def arrows_at(m: str) -> tuple[str, ...]:
            return acting.r_fiber(moment[m])

    surjective = True
    for x in base_objects:
        if not fiber_of.get(x):
            surjective = False
            witnesses["surjective"] = x
            break
    free = True
    for m in M.carrier:
        if not free:
            break
        u = acting.unit[moment[m]]
        for k in arrows_at(m):
            if k != u and move(m, k) == m:
                free = False
                witnesses["free"] = (m, k)
                break
    transitive = True
    empty_seen = False
    for x, fiber in ((x, fiber_of.get(x, [])) for x in base_objects):
        if not fiber:
            empty_seen = True
            continue
        m0 = fiber[0]
        for m in fiber[1:]:
            if not any(move(m, k) == m0 for k in arrows_at(m)):
                transitive = False
                witnesses["transitive"] = (m, m0)
                break
        if not transitive:
            break
    if empty_seen and transitive:
        note = "some fibers are empty; transitivity holds vacuously there"
    return PrincipalityReport(side, surjective, free, transitive, witnesses, note)


def pairing_search(M: Bibundle) -> Pairing | NoPairing:
    """The right pairing by search: a fixing non-unit at any point refuses
    it (not free), else each fiber pair gets the first arrow carrying one
    point to the other, and a pair with none refuses it (not transitive)."""
    H = M.right_groupoid
    for m in M.carrier:
        u = H.unit[M.rmap[m]]
        for h in H.l_fiber(M.rmap[m]):
            if h != u and M.act_right(m, h) == m:
                return NoPairing("free", (m, h))
    table: dict[tuple[str, str], str] = {}
    for fiber in _fibers(M, M.lmap).values():
        for m in fiber:
            for m2 in fiber:
                found = None
                for h in H.l_fiber(M.rmap[m]):
                    if M.act_right(m, h) == m2:
                        found = h
                        break
                if found is None:
                    return NoPairing("transitive", (m, m2))
                table[(m, m2)] = found
    return Pairing(table)


def _signatures(M: Bibundle) -> dict[str, tuple]:
    G, H = M.left_groupoid, M.right_groupoid
    sig = {}
    for m in M.carrier:
        lstab = sum(1 for g in G.r_fiber(M.lmap[m]) if M.left_fn(g, m) == m)
        rstab = sum(1 for h in H.l_fiber(M.rmap[m]) if M.right_fn(m, h) == m)
        sig[m] = (M.lmap[m], M.rmap[m], lstab, rstab)
    return sig


def iso_search_dfs(M: Bibundle, N: Bibundle) -> Iterator[dict[str, str]]:
    """Biequivariant bijections by depth-first search over every carrier
    point in turn, lex-least first; candidates share moments and stabiliser
    sizes, and each assignment is checked against the points already placed."""
    if not (M.left_groupoid is N.left_groupoid or M.left_groupoid == N.left_groupoid):
        return
    if not (M.right_groupoid is N.right_groupoid or M.right_groupoid == N.right_groupoid):
        return
    if len(M.carrier) != len(N.carrier):
        return
    sigM = _signatures(M)
    sigN = _signatures(N)
    cand: dict[tuple, list[str]] = {}
    for n in N.carrier:
        cand.setdefault(sigN[n], []).append(n)
    order = list(M.carrier)
    cand_for = []
    for m in order:
        cs = cand.get(sigM[m], [])
        cand_for.append(cs)
        if not cs:
            return
    G, H = M.left_groupoid, M.right_groupoid
    mleft, mright = M.left_fn, M.right_fn
    nleft, nright = N.left_fn, N.right_fn
    assign: dict[str, str] = {}
    used: set[str] = set()

    def consistent(m: str, n: str) -> bool:
        for g in G.r_fiber(M.lmap[m]):
            m2 = mleft(g, m)
            n2 = assign.get(m2)
            if n2 is not None and nleft(g, n) != n2:
                return False
        for h in H.l_fiber(M.rmap[m]):
            m2 = mright(m, h)
            n2 = assign.get(m2)
            if n2 is not None and nright(n, h) != n2:
                return False
        return True

    size = len(order)
    pos = 0
    idx = [0] * size
    if size == 0:
        yield {}
        return
    while pos >= 0:
        if pos == size:
            yield dict(assign)
            pos -= 1
            m = order[pos]
            used.discard(assign.pop(m))
            continue
        m = order[pos]
        cs = cand_for[pos]
        i = idx[pos]
        advanced = False
        while i < len(cs):
            n = cs[i]
            i += 1
            if n in used:
                continue
            assign[m] = n
            used.add(n)
            if consistent(m, n):
                idx[pos] = i
                pos += 1
                advanced = True
                break
            used.discard(n)
            del assign[m]
        if not advanced:
            idx[pos] = 0
            pos -= 1
            if pos >= 0:
                used.discard(assign.pop(order[pos]))


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


def product_groupoid_eager(factors) -> FinGroupoid:
    """The product of factors with every table stored: l, r, inv and unit
    filled entry by entry in itertools.product order, the composition table
    of eager_product_comp, and the fibers scanned from l and r by FinGroupoid
    itself."""
    fs = tuple(factors)
    objects = [tup(*xs) for xs in itertools.product(*(f.objects for f in fs))]
    arrows = [tup(*gs) for gs in itertools.product(*(f.arrows for f in fs))]
    l, r, inv = {}, {}, {}
    moves = itertools.product(*([(f.l[g], f.r[g], f.inv[g]) for g in f.arrows] for f in fs))
    for a, combo in zip(arrows, moves):
        lparts, rparts, iparts = zip(*combo)
        l[a] = tup(*lparts)
        r[a] = tup(*rparts)
        inv[a] = tup(*iparts)
    units = itertools.product(*([f.unit[x] for x in f.objects] for f in fs))
    unit = {x: tup(*uparts) for x, uparts in zip(objects, units)}
    return FinGroupoid(finset(objects), finset(arrows), l, r, eager_product_comp(fs), inv, unit)


def lookup_outcomes(read: Callable, keys: Iterable) -> list:
    """read(key) for each key in turn: the value it gives, or the type of the
    exception it raises."""
    out = []
    for key in keys:
        try:
            out.append(read(key))
        except Exception as exc:  # a refusal is an outcome to compare
            out.append(type(exc))
    return out


def encoded_arrow_labels(P: FinGroupoid) -> list[str]:
    """The labels in product P's label index that name an arrow: decoded
    afresh, one arrow label of each flat factor."""
    fs = factors_of(P)
    out = []
    for label in list(P.index.parts_of):
        parts = untup(label)
        if len(parts) == len(fs) and all(p in f.arrows for p, f in zip(parts, fs)):
            out.append(label)
    return out


def carrier_holders(bundles: Iterable[Bibundle]) -> Counter:
    """For each label, the number of distinct bundles (by identity) that hold
    it as a carrier point."""
    distinct = {id(M): M for M in bundles}
    return Counter(m for M in distinct.values() for m in M.carrier)


def orbit_pass_scan(M: Bibundle, side: str = "right") -> tuple[dict, dict]:
    """reach and stabilisers of the orbit pass, moving each representative by
    every arrow at its moment, the unit included, where _orbit_pass skips the
    unit."""
    if side == "right":
        acting, moment = M.right_groupoid, M.rmap
        arrows_at, move = acting.l_fiber, M.right_fn
    else:
        acting, moment = M.left_groupoid, M.lmap
        arrows_at = acting.r_fiber

        def move(m: str, k: str) -> str:
            return M.left_fn(k, m)

    reach: dict[str, tuple[str, str]] = {}
    stabilisers: dict[str, tuple[str, ...]] = {}
    for rep in M.carrier:
        if rep in reach:
            continue
        unit = acting.unit[moment[rep]]
        reach[rep] = (rep, unit)
        fixing = []
        for k in arrows_at(moment[rep]):
            m = move(rep, k)
            if m != rep:
                reach.setdefault(m, (rep, k))
            elif k != unit:
                fixing.append(k)
        if fixing:
            stabilisers[rep] = tuple(fixing)
    return reach, stabilisers


def stabiliser_scan(M: Bibundle, side: str = "right") -> dict[str, tuple[str, ...]]:
    """For each point that comes first in carrier order in its orbit, the
    non-unit arrows fixing it, found by trying every arrow at each point's
    moment through the checked accessors; points whose stabiliser is trivial
    are left out."""
    if side == "right":
        acting, moment = M.right_groupoid, M.rmap
        arrows_at = acting.l_fiber

        def move(m: str, k: str) -> str:
            return M.act_right(m, k)
    else:
        acting, moment = M.left_groupoid, M.lmap
        arrows_at = acting.r_fiber

        def move(m: str, k: str) -> str:
            return M.act_left(k, m)

    position = {m: i for i, m in enumerate(M.carrier)}
    out: dict[str, tuple[str, ...]] = {}
    for m in M.carrier:
        arrows = arrows_at(moment[m])
        if any(position[move(m, k)] < position[m] for k in arrows):
            continue  # an earlier point shares m's orbit
        fixing = tuple(k for k in arrows if k != acting.unit[moment[m]] and move(m, k) == m)
        if fixing:
            out[m] = fixing
    return out


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



def horn_set_scan(X: TruncatedSSet, n: int, i: int) -> tuple[HornFiller, ...]:
    """All compatible (n, i)-horns by backtracking over the face indices
    j != i in increasing order, testing every (n-1)-simplex against every
    face chosen so far through the checked accessor X.d."""
    if not (2 <= n <= X.k) or not (0 <= i <= n):
        raise StructuralError(f"horn index ({n}, {i}) out of range for k = {X.k}")
    indices = [j for j in range(n + 1) if j != i]
    lower = X.levels[n - 1]
    out: list[HornFiller] = []

    def extend(pos: int, chosen: list[tuple[int, str]]) -> None:
        if pos == len(indices):
            out.append(HornFiller(n, i, tuple(chosen)))
            return
        b = indices[pos]
        for cand in lower:
            if all(X.d(n - 1, a, cand) == X.d(n - 1, b - 1, xa) for a, xa in chosen):
                chosen.append((b, cand))
                extend(pos + 1, chosen)
                chosen.pop()

    extend(0, [])
    return tuple(out)


def _chain_label(chain) -> str:
    return chain[0] if len(chain) == 1 else tup(*chain)


def nerve_scan(C, k: int = 3) -> TruncatedSSet:
    """The nerve of C up to level k, extending each chain by scanning every
    arrow and labelling each chain afresh wherever a table reads it."""
    chains: list[list[tuple[str, ...]]] = [[()], [(g,) for g in C.arrows]]
    for n in range(2, k + 1):
        chains.append([ch + (g,) for ch in chains[n - 1] for g in C.arrows
                       if C.l[ch[-1]] == C.r[g]])
    levels = [finset(list(C.objects))]
    levels += [finset([_chain_label(ch) for ch in chains[n]]) for n in range(1, k + 1)]
    face: dict[tuple[int, int], dict[str, str]] = {}
    degen: dict[tuple[int, int], dict[str, str]] = {}
    for g in C.arrows:
        face.setdefault((1, 0), {})[g] = C.l[g]
        face.setdefault((1, 1), {})[g] = C.r[g]
    for n in range(2, k + 1):
        for ch in chains[n]:
            x = _chain_label(ch)
            face.setdefault((n, 0), {})[x] = _chain_label(ch[1:])
            face.setdefault((n, n), {})[x] = _chain_label(ch[:-1])
            for i in range(1, n):
                glued = ch[:i - 1] + (C.comp[(ch[i], ch[i - 1])],) + ch[i + 1:]
                face.setdefault((n, i), {})[x] = _chain_label(glued)
    for obj in C.objects:
        degen.setdefault((0, 0), {})[obj] = C.unit[obj]
    for n in range(1, k):
        for ch in chains[n]:
            x = _chain_label(ch)
            for j in range(n + 1):
                vertex = C.r[ch[0]] if j == 0 else C.l[ch[j - 1]]
                degen.setdefault((n, j), {})[x] = _chain_label(ch[:j] + (C.unit[vertex],) + ch[j:])
    return TruncatedSSet(tuple(levels), face, degen)


def validate_sset_scan(X: TruncatedSSet) -> ValidationReport:
    """Totality of the tables and the five simplicial identity families on
    every stored level, each lookup through the checked accessors X.d, X.s."""
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

    for n in range(2, k + 1):
        for j in range(n + 1):
            for i in range(j):
                for x in X.levels[n]:
                    if X.d(n - 1, i, X.d(n, j, x)) != X.d(n - 1, j - 1, X.d(n, i, x)):
                        ax("dd", "face maps do not commute", (n, i, j, x))
    for n in range(k - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                for x in X.levels[n]:
                    if X.s(n + 1, i, X.s(n, j, x)) != X.s(n + 1, j + 1, X.s(n, i, x)):
                        ax("ss", "degeneracies do not commute", (n, i, j, x))
    for n in range(k):
        for j in range(n + 1):
            for x in X.levels[n]:
                sx = X.s(n, j, x)
                if X.d(n + 1, j, sx) != x:
                    ax("ds-id", "d_j s_j is not the identity", (n, j, x))
                if X.d(n + 1, j + 1, sx) != x:
                    ax("ds-id", "d_{j+1} s_j is not the identity", (n, j, x))
                for i in range(j):
                    if n >= 1 and X.d(n + 1, i, sx) != X.s(n - 1, j - 1, X.d(n, i, x)):
                        ax("ds-lt", "d_i s_j != s_{j-1} d_i", (n, i, j, x))
                for i in range(j + 2, n + 2):
                    if n >= 1 and X.d(n + 1, i, sx) != X.s(n - 1, j, X.d(n, i - 1, x)):
                        ax("ds-gt", "d_i s_j != s_j d_{i-1}", (n, i, j, x))
    return ValidationReport(tuple(out))


def classify_two_calls(X: TruncatedSSet, k: int) -> ClassifyReport:
    """classify(X, k) with the weak condition at each (n, i) decided by its
    own non-strict kan_check whenever the strict one fails; k must lie in
    3..X.k."""
    weak: dict[tuple[int, int], bool] = {}
    strict: dict[tuple[int, int], bool] = {}
    for n in range(2, k + 1):
        for i in range(n + 1):
            strict[(n, i)] = kan_check(X, n, i, strict=True).ok
            weak[(n, i)] = strict[(n, i)] or kan_check(X, n, i, strict=False).ok
    single = len(X.levels[0]) == 1
    candidates = []
    if single:
        for n in range(1, k + 1):
            low = all(weak[(c, i)] for c in range(2, min(n, k) + 1) for i in range(c + 1))
            high = all(strict[(c, i)] for c in range(n + 1, k + 1) for i in range(c + 1))
            if low and high:
                candidates.append(n)
    return ClassifyReport(
        k,
        all(strict[(n, i)] for n in range(2, k + 1) for i in range(1, n)),
        all(strict[(n, i)] for n in range(2, k + 1) for i in range(n + 1)),
        single,
        tuple(candidates),
    )


def build_groupoid_scan(spec: GrpdSpec) -> FinGroupoid:
    """The groupoid of spec with every label encoded afresh by tup at each
    table entry that names it, in the same table order as build_groupoid."""
    objects: list[str] = []
    arrows: list[str] = []
    l: dict[str, str] = {}
    r: dict[str, str] = {}
    comp: dict[tuple[str, str], str] = {}
    inv: dict[str, str] = {}
    unit: dict[str, str] = {}
    for objs, m in spec.comps:
        objects.extend(objs)
        for i in objs:
            for j in objs:
                for k in range(m):
                    a = tup(i, j, str(k))
                    arrows.append(a)
                    l[a] = i
                    r[a] = j
                    inv[a] = tup(j, i, str((-k) % m))
        for i in objs:
            unit[i] = tup(i, i, "0")
        for i in objs:
            for j in objs:
                for j2 in objs:
                    for k in range(m):
                        for k2 in range(m):
                            comp[(tup(i, j, str(k)), tup(j, j2, str(k2)))] = tup(i, j2, str((k + k2) % m))
    return FinGroupoid(finset(objects), finset(arrows), l, r, comp, inv, unit)


# ---------------------------------------------------------------------------
# the tensors before flat products, and their witnesses


def bundle_tables(M: Bibundle) -> tuple:
    """What the tensor differentials compare: the groupoids (by identity),
    the carrier, the moments and both action tables, in order."""
    return (id(M.left_groupoid), id(M.right_groupoid), M.carrier.elements,
            list(M.lmap.items()), list(M.rmap.items()),
            list(M.left_table().items()), list(M.right_table().items()))


def tensor_binary(M: Bibundle, N: Bibundle) -> Bibundle:
    """(GxG')-(HxH') bibundle of pairs with componentwise actions, over the
    binary products of the parts' groupoids; each moment is looked up by its
    pair of labels, so the parts' groupoids must not be products."""
    G = product_groupoid([M.left_groupoid, N.left_groupoid])
    H = product_groupoid([M.right_groupoid, N.right_groupoid])
    gidx, hidx = G.index, H.index
    index = LabelIndex()
    carrier = index.add_product([M.carrier.elements, N.carrier.elements])
    lmap = {}
    rmap = {}
    for p, (m, n) in zip(carrier, itertools.product(M.carrier, N.carrier)):
        lmap[p] = gidx.label_of[(M.lmap[m], N.lmap[n])]
        rmap[p] = hidx.label_of[(M.rmap[m], N.rmap[n])]
    label_of, parts_of = index.label_of, index.parts_of
    mleft, nleft = M.left_fn, N.left_fn
    mright, nright = M.right_fn, N.right_fn

    def left_fn(gg: str, p: str) -> str:
        g1, g2 = gidx.parts_of[gg]
        m, n = parts_of[p]
        return label_of[(mleft(g1, m), nleft(g2, n))]

    def right_fn(p: str, hh: str) -> str:
        h1, h2 = hidx.parts_of[hh]
        m, n = parts_of[p]
        return label_of[(mright(m, h1), nright(n, h2))]

    return Bibundle(G, H, finset(carrier), lmap, rmap, left_fn, right_fn, index)


def tensor_witness_binary(w1: IsoWitness, w2: IsoWitness) -> IsoWitness:
    """Two witnesses tensored componentwise between binary tensors."""
    source = tensor_binary(w1.source, w2.source)
    target = tensor_binary(w1.target, w2.target)
    f1, f2 = w1.forward, w2.forward
    forward = {}
    for rep in source.carrier:
        m, n = source.index.parts_of[rep]
        forward[rep] = target.index.label_of[(f1[m], f2[n])]
    return _bijection_witness(source, target, forward)


def interchange_witness_binary(A: Bibundle, B: Bibundle, C: Bibundle, D: Bibundle) -> IsoWitness:
    """(A x B).(C x D) ~ (A.C) x (B.D), [(a,b),(c,d)] |-> ([a,c],[b,d]),
    over binary tensors."""
    source: ComposedBibundle = compose(tensor_binary(A, B), tensor_binary(C, D))
    AC, BD = compose(A, C), compose(B, D)
    target = tensor_binary(AC, BD)
    top, bottom = (f.index for f in source.factors)
    forward = {}
    for rep in source.carrier:
        ab, cd = source.index.parts_of[rep]
        a, b = top.parts_of[ab]
        c, d = bottom.parts_of[cd]
        forward[rep] = target.index.label_of[(AC.project(a, c), BD.project(b, d))]
    return _bijection_witness(source, target, forward)


def _splitter(env, k: int):
    """Label of an object or arrow of env.power(k) -> its k base components."""
    if k == 0:
        return lambda label: ()
    if k == 1:
        return lambda label: (label,)
    return env.power(k).index.parts_of.__getitem__


def _joiner(env, k: int):
    """k base components -> the label of that object or arrow of env.power(k)."""
    if k == 0:
        return lambda parts: "()"
    if k == 1:
        return lambda parts: parts[0]
    return env.power(k).index.label_of.__getitem__


def _cutter(env, sizes):
    """Base components -> the labels of consecutive powers of these sizes."""
    spans = []
    at = 0
    for k in sizes:
        spans.append((at, at + k, _joiner(env, k)))
        at += k
    return lambda comps: [join(comps[a:b]) for a, b, join in spans]


def juxtapose_scan(env, ws) -> Bibundle:
    """The tensor of two or more wired bundles over env.power of the total
    arities, splitting every label into base components by arity and joining
    the components back per part; the base must not be a product."""
    msizes = [w.m for w in ws]
    nsizes = [w.n for w in ws]
    m_total, n_total = sum(msizes), sum(nsizes)
    index = LabelIndex()
    carrier = index.add_product([w.bib.carrier.elements for w in ws])
    moments = []
    for w in ws:
        lsplit, rsplit = _splitter(env, w.m), _splitter(env, w.n)
        moments.append([(lsplit(w.bib.lmap[c]), rsplit(w.bib.rmap[c])) for c in w.bib.carrier])
    ljoin, rjoin = _joiner(env, m_total), _joiner(env, n_total)
    lmap: dict[str, str] = {}
    rmap: dict[str, str] = {}
    for p, combo in zip(carrier, itertools.product(*moments)):
        ls, rs = zip(*combo)
        lmap[p] = ljoin(tuple(itertools.chain.from_iterable(ls)))
        rmap[p] = rjoin(tuple(itertools.chain.from_iterable(rs)))
    label_of, parts_of = index.label_of, index.parts_of
    lsplit, rsplit = _splitter(env, m_total), _splitter(env, n_total)
    lcut, rcut = _cutter(env, msizes), _cutter(env, nsizes)
    lfns = [w.bib.left_fn for w in ws]
    rfns = [w.bib.right_fn for w in ws]

    def left_fn(gg: str, p: str) -> str:
        gs = lcut(lsplit(gg))
        return label_of[tuple([f(g, c) for f, g, c in zip(lfns, gs, parts_of[p])])]

    def right_fn(p: str, hh: str) -> str:
        hs = rcut(rsplit(hh))
        return label_of[tuple([f(c, h) for f, c, h in zip(rfns, parts_of[p], hs)])]

    return Bibundle(env.power(m_total), env.power(n_total), finset(carrier), lmap, rmap,
                    left_fn, right_fn, index)


def tensor_eager(*parts: Bibundle) -> Bibundle:
    """tensor_bibundle with every carrier label, moment and index entry built
    when the tensor is: the carrier through one add_escaped over the parts'
    escaped points, the moments by mixed-radix position, and plain dicts
    throughout."""
    if len(parts) == 1:
        return parts[0]
    G, lsplit, _ = product_codec([M.left_groupoid for M in parts])
    H, rsplit, _ = product_codec([M.right_groupoid for M in parts])
    index = LabelIndex()
    columns = [M.carrier.elements for M in parts]
    escaped = [list(map(_escapes(M).__getitem__, column)) for M, column in zip(parts, columns)]
    carrier = index.add_escaped(itertools.product(*columns), itertools.product(*escaped))
    lmap = dict(zip(carrier, _product_moments(G, [(M.left_groupoid, M.lmap, M.carrier) for M in parts])))
    rmap = dict(zip(carrier, _product_moments(H, [(M.right_groupoid, M.rmap, M.carrier) for M in parts])))
    label_of, parts_of = index.label_of, index.parts_of
    lfns = [M.left_fn for M in parts]
    rfns = [M.right_fn for M in parts]

    def left_fn(gg: str, p: str) -> str:
        return label_of[tuple([f(g, c) for f, g, c in zip(lfns, lsplit(gg), parts_of[p])])]

    def right_fn(p: str, hh: str) -> str:
        return label_of[tuple([f(c, h) for f, c, h in zip(rfns, parts_of[p], rsplit(hh))])]

    return TensorBibundle(G, H, finset(carrier), lmap, rmap, left_fn, right_fn, index, parts=parts)


def _plain_scan(table) -> dict:
    return table if type(table) is dict else dict(table.items())


def _l_index_scan(C: FinCategory) -> dict:
    out: dict = {}
    for g in C.arrows:
        out.setdefault(C.l.get(g), []).append(g)
    return out


def _check_tables_scan(C: FinCategory, out: list[Violation], inv: dict | None) -> None:
    arrows = set(C.arrows.elements)
    objects = set(C.objects.elements)
    for name, m in (("l", C.l), ("r", C.r)):
        for g in C.arrows:
            if g not in m:
                out.append(Violation("structural", f"{name}-missing", f"{name} undefined on arrow", (g,)))
            elif m[g] not in objects:
                out.append(Violation("structural", f"{name}-range", f"{name}({g!r}) is not an object", (g, m[g])))
        for g in m:
            if g not in arrows:
                out.append(Violation("structural", f"{name}-domain", f"{name} defined on non-arrow", (g,)))
    for x in C.objects:
        if x not in C.unit:
            out.append(Violation("structural", "unit-missing", "unit undefined on object", (x,)))
        elif C.unit[x] not in arrows:
            out.append(Violation("structural", "unit-range", "unit value is not an arrow", (x, C.unit[x])))
    for x in C.unit:
        if x not in objects:
            out.append(Violation("structural", "unit-domain", "unit defined on non-object", (x,)))
    if inv is not None:
        for g in C.arrows:
            if g not in inv:
                out.append(Violation("structural", "inv-missing", "inv undefined on arrow", (g,)))
            elif inv[g] not in arrows:
                out.append(Violation("structural", "inv-range", "inv value is not an arrow", (g, inv[g])))
        for g in inv:
            if g not in arrows:
                out.append(Violation("structural", "inv-domain", "inv defined on non-arrow", (g,)))
    for key, h in C.comp.items():
        g, g2 = key
        if g not in arrows or g2 not in arrows:
            out.append(Violation("structural", "comp-domain", "comp key is not a pair of arrows", key))
        elif C.l.get(g2) != C.r.get(g):
            out.append(Violation("structural", "comp-noncomposable", "comp defined on a non-composable pair", key))
        elif h not in arrows:
            out.append(Violation("structural", "comp-range", "comp value is not an arrow", (*key, h)))
    by_l = _l_index_scan(C)
    for g in C.arrows:
        rg = C.r.get(g)
        if rg is None:
            continue
        for g2 in by_l.get(rg, ()):
            if (g, g2) not in C.comp:
                out.append(Violation("structural", "comp-missing", "comp undefined on composable pair", (g, g2)))


def _check_category_axioms_scan(C: FinCategory, out: list[Violation]) -> None:
    for x in C.objects:
        u = C.unit.get(x)
        if u is None or u not in C.arrows:
            continue
        if C.l.get(u) != x or C.r.get(u) != x:
            out.append(Violation("axiom", "unit-moment", "unit arrow is not an endo-arrow at its object", (x, u)))
    for g in C.arrows:
        ul = C.unit.get(C.l.get(g, ""), None)
        ur = C.unit.get(C.r.get(g, ""), None)
        if ul is not None and C.comp.get((ul, g)) != g:
            out.append(Violation("axiom", "unit-law", "left unit law fails", (g,)))
        if ur is not None and C.comp.get((g, ur)) != g:
            out.append(Violation("axiom", "unit-law", "right unit law fails", (g,)))
    for (g, g2), h in C.comp.items():
        if h not in C.arrows:
            continue
        if C.l.get(h) != C.l.get(g) or C.r.get(h) != C.r.get(g2):
            out.append(Violation("axiom", "comp-moment", "composite has wrong endpoints", (g, g2, h)))
    by_l = _l_index_scan(C)
    for (g, g2), h in C.comp.items():
        for g3 in by_l.get(C.r.get(g2), ()):
            left = C.comp.get((h, g3))
            inner = C.comp.get((g2, g3))
            right = C.comp.get((g, inner)) if inner is not None else None
            if left != right or left is None:
                out.append(Violation("axiom", "assoc", "associativity fails", (g, g2, g3)))


def _plain_tables_scan(C) -> FinCategory:
    return FinCategory(C.objects, C.arrows, _plain_scan(C.l), _plain_scan(C.r),
                       _plain_scan(C.comp), _plain_scan(C.unit))


def validate_category_scan(C: FinCategory) -> ValidationReport:
    """validate_category by the per-element scans: every table entry,
    composable pair and composable triple is looked at one by one."""
    C = _plain_tables_scan(C)
    out: list[Violation] = []
    _check_tables_scan(C, out, None)
    if not any(v.kind == "structural" for v in out):
        _check_category_axioms_scan(C, out)
    return ValidationReport(tuple(out))


def validate_groupoid_scan(G: FinGroupoid) -> ValidationReport:
    """validate_groupoid by the per-element scans, the inverse laws arrow by
    arrow."""
    C, inv = _plain_tables_scan(G), _plain_scan(G.inv)
    out: list[Violation] = []
    _check_tables_scan(C, out, inv)
    if any(v.kind == "structural" for v in out):
        return ValidationReport(tuple(out))
    _check_category_axioms_scan(C, out)
    for g in C.arrows:
        gi = inv.get(g)
        if gi is None or gi not in C.arrows:
            continue
        if C.l.get(gi) != C.r.get(g) or C.r.get(gi) != C.l.get(g):
            out.append(Violation("axiom", "inv-moment", "inverse has wrong endpoints", (g, gi)))
            continue
        if C.comp.get((g, gi)) != C.unit.get(C.l[g]):
            out.append(Violation("axiom", "inv-law", "g . inv(g) is not a unit", (g,)))
        if C.comp.get((gi, g)) != C.unit.get(C.r[g]):
            out.append(Violation("axiom", "inv-law", "inv(g) . g is not a unit", (g,)))
    return ValidationReport(tuple(out))


def _action_table_scan(M: Bibundle, side: str, out: list[Violation]) -> dict:
    """One side's action as a flat table, read pair by pair over the carrier
    and each point's fiber; a pair that a bundle built from tables lacks is
    reported as missing and left out."""
    given = M.tables[side == "right"] if M.tables is not None else None
    table = {}
    for m in M.carrier:
        if side == "left":
            keys = [(g, m) for g in M.left_groupoid.r_fiber(M.lmap[m])]
        else:
            keys = [(m, h) for h in M.right_groupoid.l_fiber(M.rmap[m])]
        for key in keys:
            if given is not None and key not in given:
                out.append(Violation("structural", f"{side}-act-missing",
                                     f"{side} action undefined on its domain", key))
            elif side == "left":
                table[key] = M.left_fn(*key)
            else:
                table[key] = M.right_fn(*key)
    return table


def validate_bibundle_scan(M: Bibundle) -> ValidationReport:
    """validate_bibundle by the per-element scans: every action row, and
    every composable pair and commuting square at every point, one by one."""
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

    tables = []
    for side, given in zip(("left", "right"), M.tables or (None, None)):
        table = _action_table_scan(M, side, out)
        if given is not None:
            out += [Violation("structural", f"{side}-act-domain", f"{side} action defined off its domain", key)
                    for key in given if key not in table]
        tables.append(table)
    lt, rt = tables
    for (g, m), m2 in lt.items():
        if m2 not in M.carrier:
            out.append(Violation("structural", "left-act-range", "left action leaves the carrier", (g, m, m2)))
            continue
        if M.lmap[m2] != G.l[g]:
            out.append(Violation("axiom", "left-act-lmap", "left action moves lmap wrongly", (g, m)))
        if M.rmap[m2] != M.rmap[m]:
            out.append(Violation("axiom", "left-act-rmap", "left action must fix rmap", (g, m)))
    for (m, h), m2 in rt.items():
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
        if lt[(G.unit[M.lmap[m]], m)] != m:
            out.append(Violation("axiom", "left-unit", "left unit action is not the identity", (m,)))
        if rt[(m, H.unit[M.rmap[m]])] != m:
            out.append(Violation("axiom", "right-unit", "right unit action is not the identity", (m,)))
    for m in M.carrier:
        for g2 in G.r_fiber(M.lmap[m]):
            m2 = lt[(g2, m)]
            for g1 in G.r_fiber(G.l[g2]):
                if lt[(g1, m2)] != lt[(G.comp[(g1, g2)], m)]:
                    out.append(Violation("axiom", "left-assoc", "left action is not associative", (g1, g2, m)))
        for h1 in H.l_fiber(M.rmap[m]):
            m2 = rt[(m, h1)]
            for h2 in H.l_fiber(H.r[h1]):
                if rt[(m2, h2)] != rt[(m, H.comp[(h1, h2)])]:
                    out.append(Violation("axiom", "right-assoc", "right action is not associative", (m, h1, h2)))
        for g in G.r_fiber(M.lmap[m]):
            for h in H.l_fiber(M.rmap[m]):
                if rt[(lt[(g, m)], h)] != lt[(g, rt[(m, h)])]:
                    out.append(Violation("axiom", "commute", "left and right actions do not commute", (g, m, h)))
    return ValidationReport(tuple(out))


def dumps_stdlib(obj) -> str:
    """The byte-stable JSON text io.dumps must write, from json's own
    indenting encoder."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
