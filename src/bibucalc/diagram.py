"""A small textual language for wiring bibundles over one base groupoid.

Expressions denote bibundles between powers of a fixed base G. Generators:

    id    : 1 -> 1   arrows of G acting on themselves
    tau   : 2 -> 2   the swap
    delta : 1 -> 2   pairs of arrows sharing their left object
    eps   : 1 -> 0   objects of G over the point
    ev    : 2 -> 0   arrows as a (GxG)-point bundle, (g1,g2).m = g1 m g2^-1
    cv    : 0 -> 2   arrows as a point-(GxG) bundle, m.(h1,h2) = h1^-1 m h2

plus any names bound in the environment (their arities are read off from
their groupoids). `*` is juxtaposition (side by side), `;` is composition
(top to bottom), and `*` binds tighter. Names may use primes, e.g. mu'.

Juxtaposition is calculus.tensor_bibundle. Products of groupoids are flat,
so the tensor of bundles over powers G^m1, ..., G^mk lives over G^(m1+...+mk),
the env's own power. A tensor or composite of the same bundles is the live
one while it exists (see calculus.compose), so the env keeps none.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence, Union

from .bibundle import Bibundle
from .calculus import (
    IsoWitness,
    bundlize,
    compose,
    cv_bibundle,
    diagonal_bibundle,
    ev_bibundle,
    find_iso,
    identity_bibundle,
    tensor_bibundle,
    terminal_bibundle,
)
from .core import FinGroupoid, StructuralError, power_groupoid, swap_hom
from .labels import LabelIndex

Span = tuple[int, int]


class DiagramError(StructuralError):
    """Parse or wiring failure; span is a (start, end) offset into the text."""

    def __init__(self, message: str, span: Span | None = None):
        self.span = span
        if span is not None:
            message = f"{message} (at {span[0]}..{span[1]})"
        super().__init__(message)


@dataclass(frozen=True)
class Gen:
    name: str
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Tensor:
    parts: tuple
    span: Span = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Seq:
    parts: tuple
    span: Span = field(default=(0, 0), compare=False)


Ast = Union[Gen, Tensor, Seq]

_TOKEN = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_']*)|(?P<sym>[;*()]))")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise DiagramError(f"unexpected character {rest[0]!r}", (at, at + 1))
        if m.group("name"):
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append((m.group("sym"), m.group("sym"), m.start("sym")))
        pos = m.end()
    return out


def parse(text: str) -> Ast:
    """The expression's tree; an expression nested deeper than the parser's
    recursion can follow is a DiagramError at the token it stopped on."""
    parser = _Parser(tokenize(text), len(text))
    try:
        ast = parser.expr()
    except RecursionError:
        at = parser.toks[parser.i][2] if parser.i < len(parser.toks) else len(text)
        raise DiagramError("expression nested too deeply", (at, at + 1)) from None
    if (tok := parser.peek()) is not None:
        raise DiagramError(f"unexpected {tok[1]!r} after expression", (tok[2], tok[2] + 1))
    return ast


class _Parser:
    """Recursive descent over the tokens: expr is terms joined by ';', a
    term is factors joined by '*', a factor is a name or a parenthesised
    expr. A class rather than nested functions, which would refer to one
    another in a cycle that only the cycle collector frees."""

    def __init__(self, toks: list[tuple[str, str, int]], end: int):
        self.toks, self.end, self.i = toks, end, 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def factor(self) -> Ast:
        tok = self.peek()
        if tok is None:
            raise DiagramError("expected a name or '('", (self.end, self.end))
        kind, val, at = tok
        if kind == "name":
            self.i += 1
            return Gen(val, (at, at + len(val)))
        if kind == "(":
            self.i += 1
            inner = self.expr()
            closing = self.peek()
            if closing is None or closing[0] != ")":
                where = (closing[2], closing[2] + 1) if closing else (self.end, self.end)
                raise DiagramError("expected ')'", where)
            self.i += 1
            return inner
        raise DiagramError(f"expected a name or '(', found {val!r}", (at, at + 1))

    def term(self) -> Ast:
        parts = [self.factor()]
        while (tok := self.peek()) and tok[0] == "*":
            self.i += 1
            parts.append(self.factor())
        if len(parts) == 1:
            return parts[0]
        return Tensor(tuple(parts), (parts[0].span[0], parts[-1].span[1]))

    def expr(self) -> Ast:
        parts = [self.term()]
        while (tok := self.peek()) and tok[0] == ";":
            self.i += 1
            parts.append(self.term())
        if len(parts) == 1:
            return parts[0]
        return Seq(tuple(parts), (parts[0].span[0], parts[-1].span[1]))


def to_text(ast: Ast) -> str:
    if isinstance(ast, Gen):
        return ast.name
    if isinstance(ast, Tensor):
        bits = []
        for p in ast.parts:
            t = to_text(p)
            bits.append(f"({t})" if isinstance(p, (Seq, Tensor)) else t)
        return " * ".join(bits)
    if isinstance(ast, Seq):
        bits = []
        for p in ast.parts:
            t = to_text(p)
            bits.append(f"({t})" if isinstance(p, Seq) else t)
        return " ; ".join(bits)
    raise DiagramError(f"not a diagram node: {ast!r}")


@dataclass(frozen=True)
class Wired:
    """A bibundle together with its arities over the base."""
    bib: Bibundle
    m: int
    n: int


# the largest arity a bound bundle's groupoid is recognised at
MAX_ARITY = 6


class DiagramEnv:
    """Evaluation context: the base groupoid, bound names, and the powers
    and resolved names, kept for the env's lifetime. Tensors and composites
    are not kept here: tensor_bibundle and compose return the live one."""

    def __init__(self, base: FinGroupoid, bindings: Mapping[str, Bibundle] | None = None):
        self.base = base
        self.bindings = dict(bindings or {})
        self._powers: dict[int, FinGroupoid] = {1: base}
        self._cache: dict[str, Wired] = {}

    def power(self, k: int) -> FinGroupoid:
        if k not in self._powers:
            self._powers[k] = power_groupoid(self.base, k)
        return self._powers[k]

    def _arity_of(self, K: FinGroupoid, span: Span | None) -> int:
        nO, nA = len(self.base.objects), len(self.base.arrows)
        for k in range(MAX_ARITY + 1):
            if len(K.objects) != nO ** k or len(K.arrows) != nA ** k:
                continue
            P = self.power(k)
            if K is P or K == P:
                return k
        raise DiagramError(
            f"groupoid is not a power of the base up to arity {MAX_ARITY}", span)

    def wire(self, bib: Bibundle, span: Span | None = None) -> Wired:
        """Pin a bibundle onto the cached power groupoids; the bundle keeps its
        type and every other field (a composite keeps its factors)."""
        m = self._arity_of(bib.left_groupoid, span)
        n = self._arity_of(bib.right_groupoid, span)
        if bib.left_groupoid is self.power(m) and bib.right_groupoid is self.power(n):
            return Wired(bib, m, n)
        pinned = replace(bib, left_groupoid=self.power(m), right_groupoid=self.power(n))
        return Wired(pinned, m, n)

    def resolve(self, name: str, span: Span | None = None) -> Wired:
        if name in self._cache:
            return self._cache[name]
        G = self.base
        if name in self.bindings:
            w = self.wire(self.bindings[name], span)
        elif name == "id":
            w = Wired(identity_bibundle(G), 1, 1)
        elif name == "tau":
            w = self.wire(bundlize(swap_hom(G, G)), span)
        elif name == "delta":
            w = self.wire(diagonal_bibundle(G), span)
        elif name == "eps":
            w = self.wire(terminal_bibundle(G), span)
        elif name == "ev":
            w = self.wire(ev_bibundle(G), span)
        elif name == "cv":
            w = self.wire(cv_bibundle(G), span)
        else:
            raise DiagramError(f"unbound name {name!r}", span)
        self._cache[name] = w
        return w


def _as_ast(expr: str | Ast) -> Ast:
    return parse(expr) if isinstance(expr, str) else expr


def typecheck(env: DiagramEnv, expr: str | Ast) -> tuple[int, int]:
    """Arity (inputs, outputs) of the expression; raises DiagramError."""
    ast = _as_ast(expr)
    if isinstance(ast, Gen):
        w = env.resolve(ast.name, ast.span)
        return (w.m, w.n)
    if isinstance(ast, Tensor):
        ms, ns = 0, 0
        for p in ast.parts:
            m, n = typecheck(env, p)
            ms += m
            ns += n
        return (ms, ns)
    if isinstance(ast, Seq):
        m0, n = typecheck(env, ast.parts[0])
        for p in ast.parts[1:]:
            m2, n2 = typecheck(env, p)
            if m2 != n:
                raise DiagramError(
                    f"cannot compose: {n} output wire(s) against {m2} input wire(s)",
                    p.span)
            n = n2
        return (m0, n)
    raise DiagramError(f"not a diagram node: {ast!r}")


def tensor_wired(parts: Sequence[Wired]) -> Wired:
    """Side-by-side juxtaposition: tensor_bibundle of the parts' bundles,
    the live tensor of the same bundles while one exists. Its groupoids are
    the products of the parts' powers of the base, which are the env's
    powers of the totals, as live products are shared."""
    ws = list(parts)
    if not ws:
        raise DiagramError("empty juxtaposition")
    if len(ws) == 1:
        return ws[0]
    return Wired(tensor_bibundle(*[w.bib for w in ws]), sum(w.m for w in ws), sum(w.n for w in ws))


def wired_tensor_witness(entries: Sequence[tuple[IsoWitness, Wired, Wired]]) -> IsoWitness:
    """Juxtapose witnesses componentwise between tensors.

    Each entry is (witness, source wiring, target wiring); the wirings must
    carry the same carriers as the witness endpoints.
    """
    if not entries:
        raise DiagramError("empty witness juxtaposition")
    if len(entries) == 1:
        return entries[0][0]
    source = tensor_wired([s for _, s, _ in entries]).bib
    target = tensor_wired([t for _, _, t in entries]).bib
    target.carrier.elements  # the witness covers it: read it in full, in one pass
    fwds = [w.forward for w, _, _ in entries]
    forward = {}
    for rep in source.carrier:
        cs = source.index.parts_of[rep]
        forward[rep] = target.index.label_of[tuple(f[c] for f, c in zip(fwds, cs))]
    backward = {v: k for k, v in forward.items()}
    if len(backward) != len(forward):
        raise StructuralError("juxtaposed witnesses are not a bijection")
    return IsoWitness(source, target, forward, backward)


def _atoms_of(index: LabelIndex, k: int) -> Callable[[str], tuple[str, ...]]:
    """Carrier label of a juxtaposition of k atoms -> the atoms, from its index."""
    if k == 1:
        return lambda label: (label,)
    return index.parts_of.__getitem__


def _run_label(index: LabelIndex, start: int, k: int) -> Callable[[tuple[str, ...]], str]:
    """Atoms -> the carrier label of the juxtaposition of the k atoms from
    start on, looked up in that juxtaposition's index."""
    if k == 1:
        return operator.itemgetter(start)
    lookup, run = index.label_of.__getitem__, slice(start, start + k)
    return lambda atoms: lookup(atoms[run])


def interchange_blocks(top: Sequence[Wired],
                       bottom: Sequence[Wired],
                       blocks: Sequence[tuple[int, int]],
                       ) -> tuple[IsoWitness, list[Wired]]:
    """Regroup a two-layer composite into side-by-side vertical blocks.

    `blocks` lists (top atom count, bottom atom count) for consecutive runs;
    each block's top output arity must equal its bottom input arity. Returns
    a witness from compose(tensor(top), tensor(bottom)) to the juxtaposition
    of the per-block composites, together with those block composites.
    """
    if sum(kt for kt, _ in blocks) != len(top) or sum(kb for _, kb in blocks) != len(bottom):
        raise DiagramError("blocks do not partition the layers")
    source = compose(tensor_wired(top).bib, tensor_wired(bottom).bib)
    comps: list[Wired] = []
    at_t, at_b = 0, 0
    spans = []
    for kt, kb in blocks:
        t_slice = list(top[at_t:at_t + kt])
        b_slice = list(bottom[at_b:at_b + kb])
        t_out = sum(w.n for w in t_slice)
        b_in = sum(w.m for w in b_slice)
        if t_out != b_in:
            raise DiagramError(
                f"block mismatch: {t_out} output wire(s) against {b_in} input wire(s)")
        spans.append((at_t, kt, at_b, kb))
        at_t += kt
        at_b += kb
        bib = compose(tensor_wired(t_slice).bib, tensor_wired(b_slice).bib)
        comps.append(Wired(bib, sum(w.m for w in t_slice), sum(w.n for w in b_slice)))
    target = tensor_wired(comps)
    target.bib.carrier.elements  # the witness covers it: read it in full, in one pass
    top_index, bottom_index = (f.index for f in source.factors)
    top_atoms, bottom_atoms = _atoms_of(top_index, len(top)), _atoms_of(bottom_index, len(bottom))
    per_block = []
    for (t0, kt, b0, kb), blk in zip(spans, comps):
        blk_top, blk_bottom = (f.index for f in blk.bib.factors)
        per_block.append((_run_label(blk_top, t0, kt), _run_label(blk_bottom, b0, kb),
                          blk.bib.project))
    target_label = _run_label(target.bib.index, 0, len(comps))
    pair_of = source.index.parts_of
    forward = {}
    for rep in source.carrier:
        t_elt, b_elt = pair_of[rep]
        t_parts, b_parts = top_atoms(t_elt), bottom_atoms(b_elt)
        forward[rep] = target_label(tuple([project(t_sub(t_parts), b_sub(b_parts))
                                           for t_sub, b_sub, project in per_block]))
    backward = {v: k for k, v in forward.items()}
    if len(backward) != len(forward) or len(forward) != len(target.bib.carrier):
        raise StructuralError("block regrouping failed to be a bijection")
    return IsoWitness(source, target.bib, forward, backward), comps


def evaluate_wired(env: DiagramEnv, expr: str | Ast) -> Wired:
    ast = _as_ast(expr)
    if isinstance(ast, Gen):
        return env.resolve(ast.name, ast.span)
    if isinstance(ast, Tensor):
        return tensor_wired([evaluate_wired(env, p) for p in ast.parts])
    if isinstance(ast, Seq):
        acc = evaluate_wired(env, ast.parts[0])
        for p in ast.parts[1:]:
            nxt = evaluate_wired(env, p)
            if nxt.m != acc.n:
                raise DiagramError(
                    f"cannot compose: {acc.n} output wire(s) against {nxt.m} input wire(s)",
                    p.span)
            acc = Wired(compose(acc.bib, nxt.bib), acc.m, nxt.n)
        return acc
    raise DiagramError(f"not a diagram node: {ast!r}")


def evaluate(env: DiagramEnv, expr: str | Ast) -> Bibundle:
    return evaluate_wired(env, expr).bib


@dataclass(frozen=True)
class IdentityCheck:
    ok: bool
    witness: IsoWitness | None
    lhs: Bibundle
    rhs: Bibundle
    reason: str = ""


def check_identity(env: DiagramEnv,
                   lhs: str | Ast,
                   rhs: str | Ast | Bibundle | Wired) -> IdentityCheck:
    """Evaluate both sides and search for an equivariant bijection."""
    lw = evaluate_wired(env, lhs)
    if isinstance(rhs, Wired):
        rw = rhs
    elif isinstance(rhs, Bibundle):
        rw = env.wire(rhs)
    else:
        rw = evaluate_wired(env, rhs)
    if (lw.m, lw.n) != (rw.m, rw.n):
        return IdentityCheck(False, None, lw.bib, rw.bib,
                             reason=f"arities differ: {(lw.m, lw.n)} vs {(rw.m, rw.n)}")
    w = find_iso(lw.bib, rw.bib)
    if w is None:
        return IdentityCheck(False, None, lw.bib, rw.bib, reason="no equivariant bijection")
    return IdentityCheck(True, w, lw.bib, rw.bib)
