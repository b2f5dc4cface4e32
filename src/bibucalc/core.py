"""Finite groupoids and categories given by explicit tables.

Conventions used throughout the package:

* an arrow g runs from the object r(g) to the object l(g);
* comp(g, g2) is defined exactly when r(g) == l(g2), and then
  l(comp(g, g2)) == l(g) and r(comp(g, g2)) == r(g2).

Labels are opaque strings; the order of a finite set is its list order.
Two groupoids are equal when all their tables are equal.

Products are associative and flat: the factors of a product that are
themselves products are spliced in, so G^2 x G is G^3, and the one-point
groupoid G^0 is dropped. A product label is the tuple label of one label per
flat factor; factors_of and product_codec are the only readers of that
layout. A product groupoid stores its objects, eagerly, and a label index
filled lazily: its arrows are a view that encodes an arrow's label the first
time something reads it, and iterating them encodes every arrow in one pass.
Its l, r, inv and unit are part-wise tables and its fibers a part-wise
fibers table, with one storage rule: an entry is read from the factors on
its first lookup and stored, and a full read fills the table in one pass.
comp alone stores nothing. The same lazy set and the same two tables carry
the points, moments and fibers of a tensor of bibundles (see
calculus.tensor_bibundle).
"""
from __future__ import annotations

import gc
import itertools
import weakref
from collections import Counter
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import prod
from operator import getitem, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .labels import LabelIndex, _Lazy, tup


class StructuralError(Exception):
    """Data used outside its declared domain (never silently ignored)."""


@contextmanager
def cycle_collector_paused() -> Iterator[None]:
    """Hold off the cycle collector for the block, then restore the setting
    found on entry, on every exit path; nested pauses leave it off until the
    outermost one ends. The pause is process-wide: while a block runs, no
    collection runs anywhere in the process, and a reference cycle dropped
    in the block waits for the first collection after it. No structure of
    this package holds a cycle, so the collections a block would otherwise
    run reclaim nothing. Used as a decorator, each call pauses anew.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
        else:
            gc.disable()


@dataclass(frozen=True)
class Violation:
    kind: str  # "structural" or "axiom"
    code: str
    message: str
    witness: tuple = ()


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.entries

    def first(self) -> Violation | None:
        return self.entries[0] if self.entries else None


@dataclass(frozen=True)
class FinSet:
    """A finite ordered set of string labels."""

    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        """Index the labels by position: a long tuple in one C-level pass, a
        short one (or one that pass refuses) by a scan that names the first
        label that is not a string or repeats an earlier one."""
        elements = self.elements
        index = _index_labels(elements) if len(elements) > _SCAN_MAX else None
        if index is None:
            index = {}
            for i, x in enumerate(elements):
                if not isinstance(x, str):
                    raise StructuralError(f"FinSet labels must be strings, got {x!r}")
                if x in index:
                    raise StructuralError(f"duplicate label {x!r} in FinSet")
                index[x] = i
        object.__setattr__(self, "_index", index)

    def index(self, x: str) -> int:
        try:
            return self._index[x]  # type: ignore[attr-defined]
        except KeyError:
            raise StructuralError(f"label {x!r} not in FinSet") from None

    def __contains__(self, x: object) -> bool:
        return x in self._index  # type: ignore[attr-defined]

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


# up to this many labels, FinSet's scan builds the index faster than
# _index_labels, whose iterators cost more than they save on a short tuple
_SCAN_MAX = 16


def _index_labels(elements: Sequence) -> dict[str, int] | None:
    """label -> position in one C-level pass; None when a label is not a
    string (str.join refuses it) or repeats an earlier one."""
    try:
        "".join(elements)
        index = dict(zip(elements, range(len(elements))))
    except TypeError:
        return None
    return index if len(index) == len(elements) else None


def finset(elements: Sequence[str]) -> FinSet:
    return FinSet(tuple(elements))


class _ProductSet(FinSet):
    """The labels of every combination of one element per column, in
    itertools.product order, without a stored list: the arrows of a product
    groupoid (a column per factor's arrows) or the carrier of a tensor of
    bibundles (a column per part's carrier). The labels live in a lazy label
    index whose domains are the columns' positions.

    len, in and index read the columns' positions through that index, so
    they encode only the labels they are asked about; elements, iteration,
    equality and hashing encode every label once, in one pass that escapes
    each column's label once, through the index's memo for its column.
    """

    def __init__(self, columns: Sequence[FinSet], index: LabelIndex):
        object.__setattr__(self, "_columns", tuple(c.elements for c in columns))
        object.__setattr__(self, "_sizes", tuple(map(len, columns)))
        object.__setattr__(self, "_at", tuple(c._index for c in columns))  # type: ignore[attr-defined]
        object.__setattr__(self, "_labels", index)
        object.__setattr__(self, "_elements", None)
        object.__setattr__(self, "_positions", None)

    @property
    def elements(self) -> tuple[str, ...]:  # type: ignore[override]
        elements = self._elements
        if elements is None:
            columns, labels = self._columns, self._labels
            escaped = [list(map(memo.__getitem__, c)) for memo, c in zip(labels.escapes, columns)]
            elements = tuple(labels.add_escaped(itertools.product(*columns), itertools.product(*escaped)))
            object.__setattr__(self, "_elements", elements)
        return elements

    @property
    def full(self) -> bool:
        """Whether every label has been encoded."""
        return self._elements is not None

    @property
    def _index(self) -> dict[str, int]:
        """label -> position, stored after reading every label: the domain a
        product or tensor built over this set checks its parts against."""
        positions = self._positions
        if positions is None:
            positions = dict(zip(self.elements, range(len(self))))
            object.__setattr__(self, "_positions", positions)
        return positions

    def _position(self, x: str) -> int:
        """x's position: the mixed-radix number of its parts' positions in
        the columns, first column most significant; a KeyError when x is not
        in the set."""
        parts = self._labels.parts_of[x]
        if len(parts) != len(self._at):
            raise KeyError(x)
        position = 0
        for at, n, part in zip(self._at, self._sizes, parts):
            position = position * n + at[part]
        return position

    def index(self, x: str) -> int:
        try:
            return self._position(x)
        except KeyError:
            raise StructuralError(f"label {x!r} not in FinSet") from None

    def __contains__(self, x: object) -> bool:
        try:
            self._position(x)  # type: ignore[arg-type]
        except KeyError:
            return False
        return True

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __len__(self) -> int:
        return prod(self._sizes)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ProductSet) and self._columns == other._columns:
            return True
        if not isinstance(other, FinSet):
            return NotImplemented
        return self.elements == other.elements

    __hash__ = FinSet.__hash__


def _scan_fibers(keys: Iterable[str], moment: Mapping[str, str]) -> dict[str, list[str]]:
    """The keys over each object under moment, in key order; objects in the
    order their first key comes."""
    out: dict[str, list[str]] = {}
    for m in keys:
        out.setdefault(moment[m], []).append(m)
    return out


class _LazyTable(_Lazy):
    """A table read from its parts and stored on first read: an entry missing
    here is filled by _entry(key) on its first lookup and kept, so a lookup
    that hits is a plain dict lookup; a label the table refuses is a
    KeyError and records nothing. Whatever reads the whole table (iteration,
    keys, values, items, equality, repr) fills every entry in one pass from
    _entries(), its (key, value) pairs in the table's order or a dict of
    them, which must not read the table itself and reads the lazy set of
    labels the table lies over (a product's arrows, a tensor's carrier) in
    full. A table given that set as over, as a tensor's are, is read in full
    when the set is: once every label of over is encoded, the first lookup
    that misses fills every entry in that one pass. len reads keys, the
    table's domain, when it has one; without one it fills."""

    __slots__ = ("_keys", "_over", "_full")

    def __init__(self, keys: FinSet | None, over: _ProductSet | None):
        self._keys, self._over, self._full = keys, over, False

    def __missing__(self, key):
        over = self._over
        if over is None or not over.full:
            value = self[key] = self._entry(key)
            return value
        value = dict.get(self._fill(), key)
        if value is None:
            raise KeyError(key)
        return value

    def _fill(self) -> "_LazyTable":
        if not self._full:
            entries = self._entries()
            self.clear()
            self.update(entries)
            self._full = True
        return self

    def __iter__(self) -> Iterator:
        return dict.__iter__(self._fill())

    def __len__(self) -> int:
        keys = self._keys
        return len(keys) if keys is not None else dict.__len__(self._fill())

    def keys(self):
        return dict.keys(self._fill())

    def values(self):
        return dict.values(self._fill())

    def items(self):
        return dict.items(self._fill())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _LazyTable):
            other._fill()
        return dict.__eq__(self._fill(), other)

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __repr__(self) -> str:
        return dict.__repr__(self._fill())

    __hash__ = None  # type: ignore[assignment]


class _Partwise(_LazyTable):
    """A table whose entry at a key is the join of its parts' entries at the
    key's parts: l, r, inv and unit of a product groupoid, a part per flat
    factor, and lmap and rmap of a tensor, a part per tensor part. A part is
    (table, keys, values): its table, the keys it is read at, in order, and
    the set its entries lie in. The table's keys come in itertools.product
    order over the parts' keys, and values, the set its entries lie in, in
    itertools.product order over the parts' values, so the full read is one
    pass over the parts' columns: an entry is the element of values at the
    mixed-radix position of its parts' entries, first part most
    significant. A lookup splits a key into its parts and joins their
    entries; a label that is not a key is refused before it is split."""

    __slots__ = ("_split", "_join", "_values", "_parts", "_tables")

    def __init__(self, keys: FinSet, values: FinSet, parts: Sequence[tuple[Mapping, FinSet, FinSet]],
                 split: Split, join: Join, over: _ProductSet | None = None):
        _LazyTable.__init__(self, keys, over)
        self._split, self._join, self._values, self._parts = split, join, values, parts
        self._tables = [table for table, _, _ in parts]

    def _entry(self, key: str) -> str:
        if key not in self._keys:
            raise KeyError(key)
        return self._join(tuple(map(getitem, self._tables, self._split(key))))

    def _entries(self) -> Iterable[tuple[str, str]]:
        positions = [0]
        for table, keys, values in self._parts:
            at, n = values._index, len(values)  # type: ignore[attr-defined]
            column = [at[table[k]] for k in keys]
            positions = [p * n + q for p in positions for q in column]
        return zip(self._keys.elements, map(self._values.elements.__getitem__, positions))


class _PartwiseFibers(_LazyTable):
    """The fibers of a part-wise moment table (a product's l or r, a
    tensor's lmap), by object: the keys over an object are the
    combinations of the parts' keys over its parts, in key order, looked up
    in one pass on the object's first lookup through the label index that
    holds the keys, which encodes those not read yet; an object with no keys
    over it, or a label that is no object, is a KeyError. A fiber is made a
    tuple or a list by seq. The full read scans the moment table, read in
    full, so objects come in the order of their first key."""

    __slots__ = ("_moment", "_split", "_label_of", "_fibers", "_seq")

    def __init__(self, moment: _Partwise, split: Split, index: LabelIndex,
                 fibers: Sequence[Mapping[str, Sequence[str]]], seq: type):
        _LazyTable.__init__(self, None, moment._over)
        self._moment, self._split, self._label_of = moment, split, index.label_of
        self._fibers, self._seq = fibers, seq

    def _columns(self, x: str) -> list:
        """The parts' keys over x's parts."""
        if x not in self._moment._values:
            raise KeyError(x)
        return [fibers.get(p, ()) for fibers, p in zip(self._fibers, self._split(x))]

    def count(self, objects: Iterable[str]) -> int:
        """How many keys lie over the objects, encoding none of them."""
        return sum(prod(map(len, self._columns(x))) for x in objects)

    def _entry(self, x: str) -> Sequence[str]:
        columns = self._columns(x)
        if not all(columns):
            raise KeyError(x)
        return self._seq(map(self._label_of.__getitem__, itertools.product(*columns)))

    def _entries(self) -> dict:
        fibers, seq = _scan_fibers(self._moment.keys(), self._moment), self._seq
        return fibers if seq is list else {x: seq(keys) for x, keys in fibers.items()}


class _ProductComp(Mapping):
    """Composition table of a product groupoid, and the marker factors_of
    reads: a lookup splits both labels and composes component by component,
    nothing is stored. Keys iterate in the order of itertools.product over
    the factors' tables. Equality with any mapping is equality of entries,
    compared in one pass over items(); two such tables over the same
    factors are equal outright."""

    def __init__(self, factors: tuple["FinGroupoid", ...], index: LabelIndex, arrows: _ProductSet):
        self._factors = factors
        self._index = index
        self._arrows = arrows
        self._comps = tuple(f.comp for f in factors)

    def __getitem__(self, key: tuple[str, str]) -> str:
        parts_of = self._index.parts_of
        try:
            g, g2 = key
            parts, parts2 = parts_of[g], parts_of[g2]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None
        comps = self._comps
        if len(parts) != len(comps) or len(parts2) != len(comps):
            raise KeyError(key)
        try:
            return self._index.label_of[tuple(map(getitem, comps, zip(parts, parts2)))]
        except KeyError:
            raise KeyError(key) from None

    def items(self) -> Iterator[tuple[tuple[str, str], str]]:  # type: ignore[override]
        """(key, value) pairs in key order, each composed once from the factors."""
        self._arrows.elements  # encode every arrow in one pass first
        label_of = self._index.label_of
        for combo in itertools.product(*(f.comp.items() for f in self._factors)):
            keys, values = zip(*combo)
            firsts, seconds = zip(*keys)
            yield (label_of[firsts], label_of[seconds]), label_of[values]

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return (key for key, _ in self.items())

    def __len__(self) -> int:
        return prod(map(len, self._comps))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ProductComp) and self._factors == other._factors:
            return True
        if not isinstance(other, Mapping):
            return NotImplemented
        if len(other) != len(self):
            return False
        missing = object()
        return all(other.get(k, missing) == v for k, v in self.items())

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=True)
class FinGroupoid:
    """A finite groupoid: objects, arrows and all structure maps as tables.

    comp is keyed by the composable pairs (r(g) == l(g2)) and is total there.
    A groupoid whose labels are built from parts (a product, or a generator
    groupoid) keeps them in its label index; any other has an empty one.
    The l- and r-fibers are indexed once by scanning the arrows, except for a
    product, whose fibers come from its factors'.
    """

    objects: FinSet
    arrows: FinSet
    l: Mapping[str, str]
    r: Mapping[str, str]
    comp: Mapping[tuple[str, str], str]
    inv: Mapping[str, str]
    unit: Mapping[str, str]
    index: LabelIndex = field(default_factory=LabelIndex, compare=False, repr=False)

    def __post_init__(self) -> None:
        comp = self.comp
        if type(comp) is _ProductComp and isinstance(self.l, _Partwise) and isinstance(self.r, _Partwise):
            fs, split = comp._factors, self.index.parts_of.__getitem__
            l_parts = [f._l_fibers for f in fs]  # type: ignore[attr-defined]
            r_parts = [f._r_fibers for f in fs]  # type: ignore[attr-defined]
            object.__setattr__(self, "_l_fibers", _PartwiseFibers(self.l, split, self.index, l_parts, tuple))
            object.__setattr__(self, "_r_fibers", _PartwiseFibers(self.r, split, self.index, r_parts, tuple))
            return
        lf: dict[str, list[str]] = {x: [] for x in self.objects}
        rf: dict[str, list[str]] = {x: [] for x in self.objects}
        for g in self.arrows:
            lx = self.l.get(g)
            rx = self.r.get(g)
            if lx in lf:
                lf[lx].append(g)
            if rx in rf:
                rf[rx].append(g)
        object.__setattr__(self, "_l_fibers", {x: tuple(v) for x, v in lf.items()})
        object.__setattr__(self, "_r_fibers", {x: tuple(v) for x, v in rf.items()})

    # -- lookup helpers; all raise StructuralError outside the domain --

    def mul(self, g: str, g2: str) -> str:
        try:
            return self.comp[(g, g2)]
        except KeyError:
            raise StructuralError(
                f"comp undefined on ({g!r}, {g2!r}); r(g)={self.r.get(g)!r}, "
                f"l(g2)={self.l.get(g2)!r}"
            ) from None

    def l_fiber(self, x: str) -> tuple[str, ...]:
        """Arrows g with l(g) == x, in arrow order."""
        try:
            return self._l_fibers[x]  # type: ignore[attr-defined]
        except KeyError:
            raise StructuralError(f"object {x!r} not in groupoid") from None

    def r_fiber(self, x: str) -> tuple[str, ...]:
        try:
            return self._r_fibers[x]  # type: ignore[attr-defined]
        except KeyError:
            raise StructuralError(f"object {x!r} not in groupoid") from None


@dataclass(frozen=True, eq=True)
class FinCategory:
    """A finite category; same table layout as FinGroupoid minus inverses."""

    objects: FinSet
    arrows: FinSet
    l: Mapping[str, str]
    r: Mapping[str, str]
    comp: Mapping[tuple[str, str], str]
    unit: Mapping[str, str]

    def mul(self, g: str, g2: str) -> str:
        try:
            return self.comp[(g, g2)]
        except KeyError:
            raise StructuralError(f"comp undefined on ({g!r}, {g2!r})") from None


def as_category(G: FinGroupoid) -> FinCategory:
    return FinCategory(G.objects, G.arrows, G.l, G.r, G.comp, G.unit)


# ---------------------------------------------------------------------------
# validation


def _plain(table: Mapping) -> dict:
    """table as a plain dict in its own key order, read in one pass."""
    return table if type(table) is dict else dict(table.items())


def _plain_tables(C: FinGroupoid | FinCategory) -> FinCategory:
    """C's objects and arrows with l, r, comp and unit as plain dicts, so that
    the checks below pay a dict lookup per entry whatever tables C keeps."""
    return FinCategory(C.objects, C.arrows, _plain(C.l), _plain(C.r), _plain(C.comp), _plain(C.unit))


def _l_index(C: FinCategory) -> dict:
    """Arrows grouped by their l value (None where l is missing), in arrow order."""
    out: dict = {}
    for g in C.arrows:
        out.setdefault(C.l.get(g), []).append(g)
    return out


def _table_ok(table: Mapping, keys: set, values: set) -> bool:
    """Whether table is defined on exactly keys, with every value in values."""
    return table.keys() == keys and set(table.values()) <= values


# a table read into one row per arrow or point: the row's keys and values
Rows = dict[str, dict[str, str]]


def _flat(rows: Rows) -> tuple[list[str], list[str], list[str]]:
    """The row, key and value of every entry of rows, in row order, each row
    in its own order."""
    at = list(itertools.chain.from_iterable(map(itertools.repeat, rows, map(len, rows.values()))))
    keys = list(itertools.chain.from_iterable(rows.values()))
    return at, keys, list(itertools.chain.from_iterable(map(dict.values, rows.values())))


def _align(rows: Rows, over: Iterable[str]) -> None:
    """Reorder rows in place so that the rows over one object, which must
    all hold the same keys, list them in one order; over names the object of
    each row, in row order. Then two rows over one object can be compared
    value list against value list."""
    keys, over = list(map(tuple, rows.values())), list(over)
    order = dict(zip(over, keys))
    if list(map(order.__getitem__, over)) != keys:
        for x, at, k in zip(rows, over, keys):
            if order[at] != k:
                rows[x] = dict(zip(order[at], map(rows[x].__getitem__, order[at])))


def _comp_rows(C: FinCategory, arrows: set) -> Rows | None:
    """rows[g] = {g2: comp[(g, g2)]} over the g2 with l(g2) == r(g), the
    rows over each object r(g) aligned (see _align), when comp is defined on
    exactly the composable pairs with every value an arrow; None otherwise.
    l and r must be total on the arrows, with objects as values."""
    comp, l, r = C.comp, C.l, C.r
    rows: Rows = {g: {} for g in C.arrows}
    try:
        for (g, g2), h in comp.items():
            rows[g][g2] = h
    except KeyError:
        return None
    if (list(map(l.get, map(itemgetter(1), comp))) != list(map(r.__getitem__, map(itemgetter(0), comp)))
            or sum(map(Counter(l.values()).__getitem__, r.values())) != len(comp)
            or not set(comp.values()) <= arrows):
        return None
    _align(rows, map(r.__getitem__, rows))
    return rows


def _check_tables(C: FinCategory, out: list[Violation], inv: dict | None) -> Rows | None:
    """Structural checks shared by categories and groupoids (inv is None for
    a category). Each table is first checked whole, by set operations, and
    scanned entry by entry, to name what is wrong, only when that fails.
    Returns the rows of comp (see _comp_rows) when nothing is wrong."""
    arrows = set(C.arrows.elements)
    objects = set(C.objects.elements)
    for name, m in (("l", C.l), ("r", C.r)):
        if _table_ok(m, arrows, objects):
            continue
        for g in C.arrows:
            if g not in m:
                out.append(Violation("structural", f"{name}-missing", f"{name} undefined on arrow", (g,)))
            elif m[g] not in objects:
                out.append(Violation("structural", f"{name}-range", f"{name}({g!r}) is not an object", (g, m[g])))
        for g in m:
            if g not in arrows:
                out.append(Violation("structural", f"{name}-domain", f"{name} defined on non-arrow", (g,)))
    if not _table_ok(C.unit, objects, arrows):
        for x in C.objects:
            if x not in C.unit:
                out.append(Violation("structural", "unit-missing", "unit undefined on object", (x,)))
            elif C.unit[x] not in arrows:
                out.append(Violation("structural", "unit-range", "unit value is not an arrow", (x, C.unit[x])))
        for x in C.unit:
            if x not in objects:
                out.append(Violation("structural", "unit-domain", "unit defined on non-object", (x,)))
    if inv is not None and not _table_ok(inv, arrows, arrows):
        for g in C.arrows:
            if g not in inv:
                out.append(Violation("structural", "inv-missing", "inv undefined on arrow", (g,)))
            elif inv[g] not in arrows:
                out.append(Violation("structural", "inv-range", "inv value is not an arrow", (g, inv[g])))
        for g in inv:
            if g not in arrows:
                out.append(Violation("structural", "inv-domain", "inv defined on non-arrow", (g,)))
    rows = None if out else _comp_rows(C, arrows)
    if rows is not None:
        return rows
    # composition keys
    for key, h in C.comp.items():
        g, g2 = key
        if g not in arrows or g2 not in arrows:
            out.append(Violation("structural", "comp-domain", "comp key is not a pair of arrows", key))
        elif C.l.get(g2) != C.r.get(g):
            out.append(Violation("structural", "comp-noncomposable", "comp defined on a non-composable pair", key))
        elif h not in arrows:
            out.append(Violation("structural", "comp-range", "comp value is not an arrow", (*key, h)))
    by_l = _l_index(C)
    for g in C.arrows:
        rg = C.r.get(g)
        if rg is None:
            continue
        for g2 in by_l.get(rg, ()):
            if (g, g2) not in C.comp:
                out.append(Violation("structural", "comp-missing", "comp undefined on composable pair", (g, g2)))
    return None


def _check_category_axioms(C: FinCategory, out: list[Violation], rows: Rows) -> None:
    """The unit, endpoint and associativity laws of C, whose tables are sound
    and whose comp has the rows given. Each law is first decided by comparing
    whole lists, a pair's associativity by comparing the row of its composite
    with its first arrow's row read along its second arrow's; where a list
    differs, its elements are scanned one by one to name each failure."""
    objects, arrows = list(C.objects), list(C.arrows)
    l, r, unit, comp = C.l, C.r, C.unit, C.comp
    units = list(map(unit.__getitem__, objects))
    if not list(map(l.__getitem__, units)) == objects == list(map(r.__getitem__, units)):
        for x in C.objects:
            u = C.unit.get(x)
            if u is None or u not in C.arrows:
                continue
            if C.l.get(u) != x or C.r.get(u) != x:
                out.append(Violation("axiom", "unit-moment", "unit arrow is not an endo-arrow at its object",
                                     (x, u)))
    # the row of unit(l(g)) holds g at g, and the row of g holds g at unit(r(g))
    left_units = map(rows.__getitem__, map(unit.__getitem__, map(l.__getitem__, arrows)))
    right_units = map(unit.__getitem__, map(r.__getitem__, arrows))
    if not (list(map(dict.get, left_units, arrows)) == arrows
            == list(map(dict.get, map(rows.__getitem__, arrows), right_units))):
        for g in C.arrows:
            ul = C.unit.get(C.l.get(g, ""), None)
            ur = C.unit.get(C.r.get(g, ""), None)
            if ul is not None and C.comp.get((ul, g)) != g:
                out.append(Violation("axiom", "unit-law", "left unit law fails", (g,)))
            if ur is not None and C.comp.get((g, ur)) != g:
                out.append(Violation("axiom", "unit-law", "right unit law fails", (g,)))
    firsts, seconds, composites = _flat(rows)
    ends = (list(map(l.__getitem__, composites)) == list(map(l.__getitem__, firsts))
            and list(map(r.__getitem__, composites)) == list(map(r.__getitem__, seconds)))
    if not ends:
        for (g, g2), h in C.comp.items():
            if h not in C.arrows:
                continue
            if C.l.get(h) != C.l.get(g) or C.r.get(h) != C.r.get(g2):
                out.append(Violation("axiom", "comp-moment", "composite has wrong endpoints", (g, g2, h)))
    # associativity over all composable triples. When r(h) == r(g2), the
    # rows of h = g g2 and of g2 are keyed alike, by the g3 after g2, so the
    # triples of the pair hold when the row of h equals the row of g read at
    # the composites g2 g3 in the row of g2. With every pair's endpoints
    # right, this is decided for all pairs at once; otherwise, or where that
    # fails, the triples are scanned one by one
    values = dict(zip(rows, map(list, map(dict.values, rows.values()))))
    read = map(getattr, rows.values(), itertools.repeat("__getitem__"))
    after = map(itertools.chain.from_iterable, map(map, itertools.repeat(values.__getitem__), rows.values()))
    if ends and (list(itertools.chain.from_iterable(map(values.__getitem__, composites)))
                 == list(itertools.chain.from_iterable(map(map, read, after)))):
        return
    by_l = _l_index(C)
    for (g, g2), h in comp.items():
        for g3 in by_l.get(C.r.get(g2), ()):
            left = C.comp.get((h, g3))
            inner = C.comp.get((g2, g3))
            right = C.comp.get((g, inner)) if inner is not None else None
            if left != right or left is None:
                out.append(Violation("axiom", "assoc", "associativity fails", (g, g2, g3)))


def validate_category(C: FinCategory) -> ValidationReport:
    C = _plain_tables(C)
    out: list[Violation] = []
    rows = _check_tables(C, out, None)
    if rows is not None:
        _check_category_axioms(C, out, rows)
    return ValidationReport(tuple(out))


def validate_groupoid(G: FinGroupoid) -> ValidationReport:
    C, inv = _plain_tables(G), _plain(G.inv)
    out: list[Violation] = []
    rows = _check_tables(C, out, inv)
    if rows is None:
        return ValidationReport(tuple(out))
    _check_category_axioms(C, out, rows)
    arrows = list(C.arrows)
    ls, rs = list(map(C.l.__getitem__, arrows)), list(map(C.r.__getitem__, arrows))
    inverses = list(map(inv.__getitem__, arrows))
    if (list(map(C.l.__getitem__, inverses)) == rs and list(map(C.r.__getitem__, inverses)) == ls
            and list(map(dict.get, map(rows.__getitem__, arrows), inverses)) == list(map(C.unit.__getitem__, ls))
            and list(map(dict.get, map(rows.__getitem__, inverses), arrows)) == list(map(C.unit.__getitem__, rs))):
        return ValidationReport(tuple(out))
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


# ---------------------------------------------------------------------------
# constructors


def _labels(n_or_labels: int | Sequence[str]) -> tuple[str, ...]:
    if isinstance(n_or_labels, int):
        if n_or_labels < 0:
            raise StructuralError(f"a groupoid needs n >= 0 objects, got {n_or_labels}")
        return tuple(str(i) for i in range(n_or_labels))
    return tuple(n_or_labels)


def trivial_groupoid(n_or_labels: int | Sequence[str] = 1) -> FinGroupoid:
    """Only unit arrows; n objects."""
    xs = _labels(n_or_labels)
    ident = {x: x for x in xs}
    comp = {(x, x): x for x in xs}
    return FinGroupoid(finset(xs), finset(xs), dict(ident), dict(ident), comp, dict(ident), dict(ident))


def pair_groupoid(n_or_labels: int | Sequence[str]) -> FinGroupoid:
    """Exactly one arrow (i,j) from j to i, for every pair of objects."""
    xs = _labels(n_or_labels)
    arrows = [tup(i, j) for i in xs for j in xs]
    l = {tup(i, j): i for i in xs for j in xs}
    r = {tup(i, j): j for i in xs for j in xs}
    comp = {
        (tup(i, j), tup(j, k)): tup(i, k) for i in xs for j in xs for k in xs
    }
    inv = {tup(i, j): tup(j, i) for i in xs for j in xs}
    unit = {i: tup(i, i) for i in xs}
    return FinGroupoid(finset(xs), finset(arrows), l, r, comp, inv, unit)


def one_object_groupoid(elements: Sequence[str], mul: Mapping[tuple[str, str], str], obj: str = "*") -> FinGroupoid:
    """The groupoid of a finite group given by its multiplication table."""
    elts = tuple(elements)
    eset = set(elts)
    unit_elt = None
    for e in elts:
        if all(mul.get((e, x)) == x for x in elts):
            unit_elt = e
            break
    if unit_elt is None:
        raise StructuralError("multiplication table has no unit element")
    inv = {}
    for x in elts:
        found = [y for y in elts if mul.get((x, y)) == unit_elt]
        if len(found) != 1:
            raise StructuralError(f"element {x!r} has no unique inverse")
        inv[x] = found[0]
    for x in elts:
        for y in elts:
            if mul.get((x, y)) not in eset:
                raise StructuralError(f"multiplication not closed at ({x!r}, {y!r})")
    comp = {(x, y): mul[(x, y)] for x in elts for y in elts}
    return FinGroupoid(
        finset([obj]), finset(elts),
        {x: obj for x in elts}, {x: obj for x in elts},
        comp, inv, {obj: unit_elt},
    )


def cyclic_groupoid(n: int) -> FinGroupoid:
    """Z/n as a one-object groupoid, arrows labelled 0..n-1."""
    if n < 1:
        raise StructuralError("cyclic groupoid needs n >= 1")
    elts = [str(i) for i in range(n)]
    mul = {(str(i), str(j)): str((i + j) % n) for i in range(n) for j in range(n)}
    return FinGroupoid(
        finset(["*"]), finset(elts),
        {e: "*" for e in elts}, {e: "*" for e in elts},
        mul, {str(i): str((-i) % n) for i in range(n)}, {"*": "0"},
    )


def action_groupoid(
    group: FinGroupoid,
    points: FinSet | Sequence[str],
    act: Mapping[tuple[str, str], str] | Callable[[str, str], str],
) -> FinGroupoid:
    """Action groupoid of a one-object groupoid acting on a finite set.

    Arrows are (k, z) with r = z and l = act(k, z); composition multiplies the
    group parts: (k1, z1) . (k2, z2) = (k1 k2, z2) when z1 == act(k2, z2).
    """
    if len(group.objects) != 1:
        raise StructuralError("action_groupoid needs a one-object groupoid")
    zs = points if isinstance(points, FinSet) else finset(points)
    if callable(act):
        table = {(k, z): act(k, z) for k in group.arrows for z in zs}
    else:
        table = dict(act)
    star = group.objects.elements[0]
    uk = group.unit[star]
    for z in zs:
        if table.get((uk, z)) != z:
            raise StructuralError(f"action does not fix {z!r} under the unit")
    for k in group.arrows:
        for z in zs:
            if table.get((k, z)) not in zs:
                raise StructuralError(f"action leaves the point set at ({k!r}, {z!r})")
    for (k1, k2), k12 in group.comp.items():
        for z in zs:
            if table[(k12, z)] != table[(k1, table[(k2, z)])]:
                raise StructuralError(f"action law fails at ({k1!r}, {k2!r}, {z!r})")
    arrows = [tup(k, z) for k in group.arrows for z in zs]
    l = {tup(k, z): table[(k, z)] for k in group.arrows for z in zs}
    r = {tup(k, z): z for k in group.arrows for z in zs}
    comp = {}
    for k1 in group.arrows:
        for k2 in group.arrows:
            k12 = group.comp[(k1, k2)]
            for z in zs:
                comp[(tup(k1, table[(k2, z)]), tup(k2, z))] = tup(k12, z)
    inv = {tup(k, z): tup(group.inv[k], table[(k, z)]) for k in group.arrows for z in zs}
    unit = {z: tup(uk, z) for z in zs}
    return FinGroupoid(zs if isinstance(zs, FinSet) else finset(zs), finset(arrows), l, r, comp, inv, unit)


# the empty product G^0, shared: its one object and one arrow are labelled ()
_POINT = trivial_groupoid(["()"])

# the live product of each flat factor tuple, keyed by the factors' ids
_PRODUCTS: weakref.WeakValueDictionary[tuple[int, ...], FinGroupoid] = weakref.WeakValueDictionary()


def factors_of(G: FinGroupoid) -> tuple[FinGroupoid, ...]:
    """The flat factors of G: a product's factors, none for the point G^0,
    and G itself for any other groupoid."""
    comp = G.comp
    if type(comp) is _ProductComp:
        return comp._factors
    return () if G is _POINT else (G,)


def product_groupoid(factors: Sequence[FinGroupoid]) -> FinGroupoid:
    """Product of groupoids with flat tuple labels, one component per flat
    factor: a factor that is a product contributes its own factors, and the
    point G^0 contributes none. No flat factor gives the point, and one gives
    that factor itself (G^1 = G).

    Objects and arrows come in itertools.product order over the factors', so
    over parts that are products they come in itertools.product order over
    the parts' own. The product stores its objects, each label encoded once,
    and a label index. The index holds every object and is filled with
    arrows lazily: an arrow's label is encoded (or decoded) the first time
    something looks it up, and reading the arrows in full encodes them all
    in one pass, escaping each factor label once. l, r, inv, unit and the
    l- and r-fibers follow one storage rule, store on first read (see
    _Partwise and _PartwiseFibers): an entry is read from the factors on its
    first lookup and kept, and a full read fills a table in one pass; the
    fiber at an object is the product of the factors' fibers at its parts.
    comp reads each entry from the factors' tables and stores nothing.

    While a product of the same flat factor objects is alive, that product is
    returned instead of a new one, so G^2 x G is G^3. The store holds its
    products weakly: an entry goes with its product, so the store keeps no
    product, and through it no factor, alive longer than its callers do.
    Keying by the factors' ids is sound because a product holds its factors
    (its tables read them), so no factor's id can be reused while its entry
    exists.
    """
    fs = tuple(itertools.chain.from_iterable(map(factors_of, factors)))
    if len(fs) < 2:
        return fs[0] if fs else _POINT
    key = tuple(map(id, fs))
    live = _PRODUCTS.get(key)
    if live is not None:
        return live
    index = LabelIndex([f.arrows._index for f in fs])  # type: ignore[attr-defined]
    objects = finset(index.add_product([f.objects.elements for f in fs]))
    arrows = _ProductSet([f.arrows for f in fs], index)
    split, join = index.parts_of.__getitem__, index.label_of.__getitem__
    l = _Partwise(arrows, objects, [(f.l, f.arrows, f.objects) for f in fs], split, join)
    r = _Partwise(arrows, objects, [(f.r, f.arrows, f.objects) for f in fs], split, join)
    inv = _Partwise(arrows, arrows, [(f.inv, f.arrows, f.arrows) for f in fs], split, join)
    unit = _Partwise(objects, arrows, [(f.unit, f.objects, f.arrows) for f in fs], split, join)
    P = FinGroupoid(objects, arrows, l, r, _ProductComp(fs, index, arrows), inv, unit, index)
    _PRODUCTS[key] = P
    return P


def power_groupoid(G: FinGroupoid, n: int) -> FinGroupoid:
    """G^n with flat labels; G^0 is the one-point groupoid labelled (), G^1 is G."""
    if n < 0:
        raise StructuralError("negative power")
    return product_groupoid([G] * n)


Split = Callable[[str], tuple[str, ...]]
Join = Callable[[Sequence[str]], str]


def _flat_codec(G: FinGroupoid) -> tuple[Split, Join]:
    """A label of G -> the labels of its flat factors, and back."""
    fs = factors_of(G)
    if len(fs) == 1:
        return (lambda label: (label,)), itemgetter(0)
    if not fs:
        return (lambda label: ()), (lambda labels: "()")
    return G.index.parts_of.__getitem__, G.index.label_of.__getitem__


def product_codec(parts: Sequence[FinGroupoid]) -> tuple[FinGroupoid, Split, Join]:
    """product_groupoid(parts), with the split of its object and arrow labels
    into one label per part and the join of such labels back into one.

    The split and join are plain index lookups when every part is a single
    flat factor; otherwise a label's flat components are cut into one run per
    part, each run joined into that part's label.
    """
    P = product_groupoid(parts)
    sizes = [len(factors_of(p)) for p in parts]
    if len(parts) > 1 and sizes.count(1) == len(parts):
        return P, P.index.parts_of.__getitem__, P.index.label_of.__getitem__
    psplit, pjoin = _flat_codec(P)
    codecs = [_flat_codec(p) for p in parts]
    ends = itertools.accumulate(sizes)
    runs = [(slice(end - k, end), join) for k, end, (_, join) in zip(sizes, ends, codecs)]
    splits = [split for split, _ in codecs]

    def split(label: str) -> tuple[str, ...]:
        flat = psplit(label)
        return tuple([join(flat[run]) for run, join in runs])

    def join(labels: Sequence[str]) -> str:
        return pjoin(tuple(itertools.chain.from_iterable(
            [split(label) for split, label in zip(splits, labels)])))

    return P, split, join


def opposite_groupoid(G: FinGroupoid) -> FinGroupoid:
    comp = {(g2, g): h for (g, g2), h in G.comp.items()}
    return FinGroupoid(G.objects, G.arrows, dict(G.r.items()), dict(G.l.items()), comp,
                       dict(G.inv.items()), dict(G.unit))


def connected_components(G: FinGroupoid) -> list[tuple[str, ...]]:
    """Orbits of objects under arrow reachability, each in object order."""
    parent = {x: x for x in G.objects}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in G.arrows:
        a, b = find(G.l[g]), find(G.r[g])
        if a != b:
            parent[a] = b
    groups: dict[str, list[str]] = {}
    for x in G.objects:
        groups.setdefault(find(x), []).append(x)
    seen = set()
    out = []
    for x in G.objects:
        root = find(x)
        if root not in seen:
            seen.add(root)
            out.append(tuple(groups[root]))
    return out


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class GroupoidHom:
    source: FinGroupoid
    target: FinGroupoid
    f0: Mapping[str, str]
    f1: Mapping[str, str]


def check_hom(phi: GroupoidHom) -> ValidationReport:
    out: list[Violation] = []
    S, T = phi.source, phi.target
    for x in S.objects:
        if phi.f0.get(x) not in T.objects:
            out.append(Violation("structural", "f0", "object map misses the target", (x,)))
    # with no violation so far, every source object or arrow is a key of its
    # map, so a key off the source shows in the count
    if out or len(phi.f0) > len(S.objects):
        off = phi.f0.keys() - S.objects.elements
        out += [Violation("structural", "f0-domain", "object map defined off the source objects", (x,))
                for x in phi.f0 if x in off]
    for g in S.arrows:
        if phi.f1.get(g) not in T.arrows:
            out.append(Violation("structural", "f1", "arrow map misses the target", (g,)))
    if out or len(phi.f1) > len(S.arrows):
        off = phi.f1.keys() - S.arrows.elements
        out += [Violation("structural", "f1-domain", "arrow map defined off the source arrows", (g,))
                for g in phi.f1 if g in off]
    if out:
        return ValidationReport(tuple(out))
    Sl, Sr, Sunit = _plain(S.l), _plain(S.r), _plain(S.unit)
    for g in S.arrows:
        if T.l[phi.f1[g]] != phi.f0[Sl[g]]:
            out.append(Violation("axiom", "hom-l", "l is not preserved", (g,)))
        if T.r[phi.f1[g]] != phi.f0[Sr[g]]:
            out.append(Violation("axiom", "hom-r", "r is not preserved", (g,)))
    for x in S.objects:
        if phi.f1[Sunit[x]] != T.unit[phi.f0[x]]:
            out.append(Violation("axiom", "hom-unit", "units are not preserved", (x,)))
    for (g, g2), h in S.comp.items():
        if T.comp.get((phi.f1[g], phi.f1[g2])) != phi.f1[h]:
            out.append(Violation("axiom", "hom-comp", "composition is not preserved", (g, g2)))
    return ValidationReport(tuple(out))


def identity_hom(G: FinGroupoid) -> GroupoidHom:
    return GroupoidHom(G, G, {x: x for x in G.objects}, {g: g for g in G.arrows})


def compose_homs(phi: GroupoidHom, psi: GroupoidHom) -> GroupoidHom:
    """phi followed by psi."""
    if phi.target != psi.source:
        raise StructuralError("hom composition: target/source mismatch")
    return GroupoidHom(
        phi.source, psi.target,
        {x: psi.f0[y] for x, y in phi.f0.items()},
        {g: psi.f1[h] for g, h in phi.f1.items()},
    )


def diagonal_hom(G: FinGroupoid) -> GroupoidHom:
    P, _, pair = product_codec([G, G])
    return GroupoidHom(G, P, {x: pair((x, x)) for x in G.objects}, {g: pair((g, g)) for g in G.arrows})


def swap_hom(G: FinGroupoid, H: FinGroupoid) -> GroupoidHom:
    P, _, pair = product_codec([G, H])
    Q, _, swapped = product_codec([H, G])
    f0 = {pair((x, y)): swapped((y, x)) for x in G.objects for y in H.objects}
    f1 = {pair((g, h)): swapped((h, g)) for g in G.arrows for h in H.arrows}
    return GroupoidHom(P, Q, f0, f1)
