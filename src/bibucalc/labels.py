"""Tuple-structured string labels.

Everything in this package names objects, arrows and carrier points by opaque
strings. Constructions that build elements out of several parts (products,
action groupoids, composed carriers) need a way to pack parts into one label
that is deterministic, readable, and collision free. tup/untup below are that
encoding: parts are escaped and joined with commas inside parentheses, so
labels nest without ambiguity.

Constructions encode each label once. A structure that builds its elements
from parts keeps a LabelIndex, filled while it enumerates itself, and its
actions, projections and composites look labels up in both directions
instead of re-encoding them. Products fill their groupoid's index, and so do
the seeded generators: a generator groupoid's arrows (i, j, k) are in its
index, and homs between generator groupoids look their labels up there. The
index holds exactly the labels its structure added: a lookup outside it is a
KeyError, never a fresh encoding. A lazy index, made with the parts allowed
at each position, is the one exception: it encodes allowed parts on their
first lookup, and decodes a label on its first lookup when the label encodes
allowed parts, so a structure fills it only with the labels something reads:
product groupoids keep their arrows there, and tensors of bibundles their
points. Escapes is the memo through which a structure escapes each of its
labels once for add_escaped.
"""
from __future__ import annotations

import itertools
import weakref
from functools import lru_cache
from operator import getitem
from typing import Iterable, Sequence

_SPECIAL = {"\\", ",", "(", ")"}


def esc(part: str) -> str:
    if part == "":
        return "\\0"
    return part.replace("\\", "\\\\").replace(",", "\\,").replace("(", "\\(").replace(")", "\\)")


def tup(*parts: str) -> str:
    """Pack parts into a single label. Injective over tuples of strings."""
    return _wrap(map(esc, parts))


def _wrap(escaped) -> str:
    return "(" + ",".join(escaped) + ")"


@lru_cache(maxsize=1 << 20)
def untup(label: str) -> tuple[str, ...]:
    """Inverse of tup. Raises ValueError for labels not produced by tup."""
    if len(label) < 2 or label[0] != "(" or label[-1] != ")":
        raise ValueError(f"not a tuple label: {label!r}")
    body = label[1:-1]
    if body == "":
        return ()
    parts: list[str] = []
    cur: list[str] = []
    i = 0
    n = len(body)
    while i < n:
        ch = body[i]
        if ch == "\\":
            if i + 1 >= n:
                raise ValueError(f"dangling escape in {label!r}")
            nxt = body[i + 1]
            if nxt in _SPECIAL:
                cur.append(nxt)
            elif nxt == "0":
                pass  # marker for the empty part
            else:
                raise ValueError(f"bad escape \\{nxt} in {label!r}")
            i += 2
        elif ch == ",":
            parts.append("".join(cur))
            cur = []
            i += 1
        elif ch in "()":
            raise ValueError(f"unescaped {ch!r} inside {label!r}")
        else:
            cur.append(ch)
            i += 1
    parts.append("".join(cur))
    return tuple(parts)


class Escapes(dict):
    """label -> esc(label), each escaped on its first lookup and then kept."""

    __slots__ = ()

    def __missing__(self, label: str) -> str:
        escaped = self[label] = esc(label)
        return escaped


class _Lazy(dict):
    """A dict that may fill an entry on a lookup that misses: get and in
    look up as [] does, so they see the entries not filled yet too."""

    __slots__ = ()

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __contains__(self, key: object) -> bool:
        try:
            self[key]
        except KeyError:
            return False
        return True


def _encode(domains: tuple[dict, ...], escapes: tuple[dict, ...], parts: tuple[str, ...]) -> str | None:
    """The label of parts whose i-th part is a key of domains[i], for every
    i, each part escaped through escapes[i]; None for any other parts."""
    if type(parts) is tuple and len(parts) == len(domains) and all(map(dict.__contains__, domains, parts)):
        return _wrap(map(getitem, escapes, parts))
    return None


class _LazyLabels(_Lazy):
    """parts -> label of a lazy index: parts missing here that are drawn
    from the domains are encoded and recorded in both directions; any other
    key is a KeyError. It holds its label -> parts dict, which refers back
    to it only weakly, so the pair is freed without the cycle collector."""

    __slots__ = ("parts_of", "domains", "escapes", "__weakref__")

    def __missing__(self, parts: tuple[str, ...]) -> str:
        label = _encode(self.domains, self.escapes, parts)
        if label is None:
            raise KeyError(parts)
        self[parts] = label
        self.parts_of[label] = parts
        return label


class _LazyParts(_Lazy):
    """label -> parts of a lazy index: a label missing here is decoded, and
    recorded in both directions when its parts are allowed and encode back to
    it; any other key is a KeyError."""

    __slots__ = ("labels", "domains", "escapes")

    def __missing__(self, label: str) -> tuple[str, ...]:
        try:
            parts = untup(label)
        except (TypeError, ValueError):
            raise KeyError(label) from None
        if _encode(self.domains, self.escapes, parts) != label:
            raise KeyError(label)
        self[label] = parts
        label_of = self.labels()
        if label_of is not None:
            label_of[parts] = label
        return parts


class LabelIndex:
    """Both directions between the parts of a structure's elements and their
    labels, each label encoded once by add_escaped(). Both are dicts: a lookup
    outside the index raises KeyError. A lazy index, made with domains (one
    dict per part position, keyed by the parts allowed there), is the
    exception: it fills in the label of any parts tuple drawn from the
    domains on its first lookup in either direction, escaping the part at
    each position through that position's memo in escapes (one Escapes
    shared by every position unless given)."""

    __slots__ = ("label_of", "parts_of", "escapes")

    def __init__(self, domains: Sequence[dict] | None = None, escapes: Sequence[dict] | None = None) -> None:
        if domains is None:
            self.label_of: dict[tuple[str, ...], str] = {}
            self.parts_of: dict[str, tuple[str, ...]] = {}
            self.escapes: tuple[dict, ...] | None = None
            return
        domains = tuple(domains)
        self.escapes = tuple(escapes) if escapes is not None else (Escapes(),) * len(domains)
        self.label_of = label_of = _LazyLabels()
        self.parts_of = parts_of = _LazyParts()
        label_of.parts_of, parts_of.labels = parts_of, weakref.ref(label_of)
        label_of.domains = parts_of.domains = domains
        label_of.escapes = parts_of.escapes = self.escapes

    def add_escaped(self, parts: Iterable[tuple[str, ...]], escaped: Iterable) -> list[str]:
        """Record each parts tuple under the label wrapped from its escaped
        forms, the escaped tuple at the same position (esc of each part, in
        order); returns the labels in order. Callers that meet a part in many
        tuples escape it once and pass it here."""
        label_of, parts_of = self.label_of, self.parts_of
        labels = []
        for ps, escs in zip(parts, escaped):
            label = _wrap(escs)
            label_of[ps] = label
            parts_of[label] = ps
            labels.append(label)
        return labels

    def add_product(self, factors: Sequence[Sequence[str]]) -> list[str]:
        """Record every combination of one part per factor, in
        itertools.product order, escaping each part once; returns the labels
        in that order."""
        escaped = [[esc(p) for p in f] for f in factors]
        return self.add_escaped(itertools.product(*factors), itertools.product(*escaped))
