"""JSON interchange for every object the calculus produces.

All carriers are label lists, all maps explicit JSON objects, all binary
tables sorted triple lists; dumps() output is byte-stable so repeated runs
diff clean. It is byte for byte json.dumps(obj, sort_keys=True, indent=2)
plus a newline, in ASCII, but written at the speed of json's C encoder,
which json itself uses only when there is no indent. dumps walks the dicts
and lists and hands each leaf container (a list of scalars, a str-keyed
dict of scalars, or a list of non-empty scalar rows such as a comp or
action table) whole to a C encoder whose item separator breaks the line
and indents; the breaks around the brackets, and between rows, are put in
by hand, and the pieces are joined once. Anything else (tuples,
subclasses, floats, non-str keys, values json refuses) is written by
json.dumps itself, so its bytes and errors are json's. Files are read as
UTF-8, whatever the locale. Wherever a sub-object is referenced, either an
inline JSON object or a path string relative to the referencing file is
accepted.

Loaders validate on ingest by default and raise StructuralError on the first
violation; pass validate=False to get the raw object for inspection.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
from collections import Counter
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Mapping

from .bibundle import Bibundle, bibundle_from_tables, validate_bibundle
from .core import (
    FinCategory,
    FinGroupoid,
    GroupoidHom,
    StructuralError,
    check_hom,
    finset,
    validate_category,
    validate_groupoid,
)
from .groups import StackyGroupData
from .simplicial import TruncatedSSet, validate_sset


_SCALARS = frozenset({str, int, bool, type(None)})


@functools.cache
def _leaf_encoder(depth: int):
    """json's C encoder for a leaf container at the given depth: no indent
    (so json takes its C path), and an item separator that breaks the line
    and indents the next item one level deeper than the container."""
    return json.JSONEncoder(sort_keys=True, check_circular=False,
                            separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _write(value: Any, depth: int, path: set[int], out: list[str]) -> None:
    """Append to out the text of value as json.dumps(..., sort_keys=True,
    indent=2) writes it at the given depth; path holds the ids of the
    containers being written. The pieces are joined once, so a large table
    is copied once, not again at every level that encloses it."""
    kind = type(value)
    # a scalar as json's indenting writer converts it, without an encoder call
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool or value is None:
        out.append("true" if value is True else "false" if value is False else "null")
    elif not (kind is list or (kind is dict and set(map(type, value)) <= {str})):
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth))
    elif not value:
        out.append("[]" if kind is list else "{}")
    else:
        pad = "\n" + "  " * depth
        row_pad = pad + "  "
        opening, closing = ("[", "]") if kind is list else ("{", "}")
        out.append(opening + row_pad)
        kinds = set(map(type, value if kind is list else value.values()))
        if kinds <= _SCALARS:
            out.append(_leaf_encoder(depth)(value)[1:-1])
        elif (kind is list and kinds == {list} and all(value)
              and set(map(type, chain.from_iterable(value))) <= _SCALARS):
            # Rows: the C encoder breaks between rows as it does between
            # their items. A "]" before such a break can only close a row,
            # since an item ends in a quote, digit or letter, and
            # ensure_ascii keeps newlines out of strings.
            item_pad = row_pad + "  "
            rows = _leaf_encoder(depth + 1)(value)[2:-2].replace(
                "]," + item_pad + "[", row_pad + "]," + row_pad + "[" + item_pad)
            out += ("[", item_pad, rows, row_pad, "]")
        else:
            if id(value) in path:
                raise ValueError("Circular reference detected")
            path.add(id(value))
            sep = "," + row_pad
            if kind is list:
                for item in value:
                    _write(item, depth + 1, path, out)
                    out.append(sep)
            else:
                for key in sorted(value):
                    out.append(encode_basestring_ascii(key) + ": ")
                    _write(value[key], depth + 1, path, out)
                    out.append(sep)
            out.pop()  # the separator after the last item
            path.remove(id(value))
        out.append(pad + closing)


def dumps(obj: Any) -> str:
    out: list[str] = []
    _write(obj, 0, set(), out)
    out.append("\n")
    return "".join(out)


def save_json(path: str, obj: Any) -> str:
    with open(path, "wb") as fh:
        fh.write(dumps(obj).encode("ascii"))
    return path


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict; a repeated key is refused, not overwritten."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise StructuralError(f"JSON object repeats the key {key!r}")
    return obj


def load_json(path: str) -> Any:
    """A JSON file, decoded as UTF-8 (RFC 8259 section 8.1) whatever the
    locale; a byte order mark is refused by json.loads."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    return json.loads(text, object_pairs_hook=_unique_keys)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _triples(table: Mapping[tuple[str, str], str]) -> list[list[str]]:
    return [[a, b, v] for (a, b), v in sorted(table.items())]


# Shape checks run before any constructor, so that a mistyped field is named
# instead of coerced (a string read as its characters) or failing inside one.
# Each shape is checked by exact types, in one pass at C speed: JSON decoding
# yields plain lists, dicts and strings, never their subclasses.


def _untriples(rows, what: str) -> dict[tuple[str, str], str]:
    if not (type(rows) is list and set(map(type, rows)) <= {list} and set(map(len, rows)) <= {3}
            and set(map(type, chain.from_iterable(rows))) <= {str}):
        raise StructuralError(f"field {what!r} must be a list of [a, b, value] string triples")
    table = {(a, b): v for a, b, v in rows}
    if len(table) < len(rows):
        a, b = next(k for k, n in Counter((a, b) for a, b, _ in rows).items() if n > 1)
        raise StructuralError(f"field {what!r} holds two rows for [{a!r}, {b!r}]")
    return table


def _label_list(obj: dict, key: str) -> list[str]:
    labels = obj[key]
    if not (type(labels) is list and set(map(type, labels)) <= {str}):
        raise StructuralError(f"field {key!r} must be a list of strings")
    return labels


def _label_map(obj: dict, key: str) -> dict[str, str]:
    table = obj[key]
    if not (type(table) is dict and set(map(type, table)) <= {str} and set(map(type, table.values())) <= {str}):
        raise StructuralError(f"field {key!r} must be an object from strings to strings")
    return dict(table)


def _deref(ref: Any, base: str | None, loader, what: str, validate: bool):
    """Load a referenced file (a path relative to base) or an inline object."""
    if isinstance(ref, str):
        path = ref if os.path.isabs(ref) or base is None else os.path.join(base, ref)
        try:
            obj = load_json(path)
        except OSError as exc:
            raise StructuralError(f"cannot read {what} reference {ref!r}: {exc}") from None
        return loader(obj, os.path.dirname(path) or ".", validate)
    if isinstance(ref, dict):
        return loader(ref, base, validate)
    raise StructuralError(f"{what} reference must be a path or an inline object")


def _refuse_invalid(rep, kind: str) -> None:
    if not rep.ok:
        raise StructuralError(f"{kind} file invalid: {rep.first()}")


# ---------------------------------------------------------------------------
# groupoids and categories


def groupoid_to_json(G: FinGroupoid) -> dict:
    return {
        "objects": list(G.objects),
        "arrows": list(G.arrows),
        "l": dict(G.l.items()),
        "r": dict(G.r.items()),
        "comp": _triples(G.comp),
        "inv": dict(G.inv.items()),
        "unit": dict(G.unit),
    }


def groupoid_from_json(obj: Any, base: str | None = None, validate: bool = True) -> FinGroupoid:
    if not isinstance(obj, dict):
        raise StructuralError("groupoid file must hold a JSON object")
    missing = {"objects", "arrows", "l", "r", "comp", "inv", "unit"} - set(obj)
    if missing:
        raise StructuralError(f"groupoid file missing keys: {sorted(missing)}")
    G = FinGroupoid(
        finset(_label_list(obj, "objects")), finset(_label_list(obj, "arrows")),
        _label_map(obj, "l"), _label_map(obj, "r"),
        _untriples(obj["comp"], "comp"), _label_map(obj, "inv"), _label_map(obj, "unit"),
    )
    if validate:
        _refuse_invalid(validate_groupoid(G), "groupoid")
    return G


def category_to_json(C: FinCategory) -> dict:
    return {
        "objects": list(C.objects),
        "arrows": list(C.arrows),
        "l": dict(C.l.items()),
        "r": dict(C.r.items()),
        "comp": _triples(C.comp),
        "unit": dict(C.unit),
    }


def category_from_json(obj: Any, base: str | None = None, validate: bool = True) -> FinCategory:
    if not isinstance(obj, dict):
        raise StructuralError("category file must hold a JSON object")
    missing = {"objects", "arrows", "l", "r", "comp", "unit"} - set(obj)
    if missing:
        raise StructuralError(f"category file missing keys: {sorted(missing)}")
    C = FinCategory(
        finset(_label_list(obj, "objects")), finset(_label_list(obj, "arrows")),
        _label_map(obj, "l"), _label_map(obj, "r"),
        _untriples(obj["comp"], "comp"), _label_map(obj, "unit"),
    )
    if validate:
        _refuse_invalid(validate_category(C), "category")
    return C


# ---------------------------------------------------------------------------
# bibundles and homomorphisms


def bibundle_to_json(M: Bibundle, provenance: str | None = None) -> dict:
    out = {
        "leftGroupoid": groupoid_to_json(M.left_groupoid),
        "rightGroupoid": groupoid_to_json(M.right_groupoid),
        "carrier": list(M.carrier),
        "lM": dict(M.lmap),
        "rM": dict(M.rmap),
        "leftAct": _triples(M.left_table()),
        "rightAct": _triples(M.right_table()),
    }
    if provenance is not None:
        out["provenance"] = provenance
    return out


def bibundle_from_json(obj: Any, base: str | None = None, validate: bool = True) -> Bibundle:
    if not isinstance(obj, dict):
        raise StructuralError("bibundle file must hold a JSON object")
    missing = {"leftGroupoid", "rightGroupoid", "carrier", "lM", "rM",
               "leftAct", "rightAct"} - set(obj)
    if missing:
        raise StructuralError(f"bibundle file missing keys: {sorted(missing)}")
    G = _deref(obj["leftGroupoid"], base, groupoid_from_json, "left groupoid", validate)
    H = _deref(obj["rightGroupoid"], base, groupoid_from_json, "right groupoid", validate)
    M = bibundle_from_tables(
        G, H, _label_list(obj, "carrier"), _label_map(obj, "lM"), _label_map(obj, "rM"),
        _untriples(obj["leftAct"], "leftAct"), _untriples(obj["rightAct"], "rightAct"),
    )
    if validate:
        _refuse_invalid(validate_bibundle(M), "bibundle")
    return M


def hom_to_json(phi: GroupoidHom) -> dict:
    return {
        "source": groupoid_to_json(phi.source),
        "target": groupoid_to_json(phi.target),
        "f0": dict(phi.f0),
        "f1": dict(phi.f1),
    }


def hom_from_json(obj: Any, base: str | None = None, validate: bool = True) -> GroupoidHom:
    if not isinstance(obj, dict):
        raise StructuralError("hom file must hold a JSON object")
    missing = {"source", "target", "f0", "f1"} - set(obj)
    if missing:
        raise StructuralError(f"hom file missing keys: {sorted(missing)}")
    S = _deref(obj["source"], base, groupoid_from_json, "source groupoid", validate)
    T = _deref(obj["target"], base, groupoid_from_json, "target groupoid", validate)
    phi = GroupoidHom(S, T, _label_map(obj, "f0"), _label_map(obj, "f1"))
    if validate:
        _refuse_invalid(check_hom(phi), "hom")
    return phi


# ---------------------------------------------------------------------------
# simplicial sets


def sset_to_json(X: TruncatedSSet) -> dict:
    face: dict[str, dict[str, dict]] = {}
    for (n, i), t in sorted(X.face.items()):
        face.setdefault(str(n), {})[str(i)] = dict(t)
    degen: dict[str, dict[str, dict]] = {}
    for (n, j), t in sorted(X.degen.items()):
        degen.setdefault(str(n), {})[str(j)] = dict(t)
    return {"levels": [list(L) for L in X.levels], "face": face, "degen": degen}


def _level_maps(obj: dict, key: str) -> dict[tuple[int, int], dict[str, str]]:
    """A face or degeneracy field: {level: {index: {simplex: simplex}}}, with
    level and index keys written as non-negative integers."""
    tables = obj[key]
    if not (isinstance(tables, dict) and all(isinstance(per, dict) for per in tables.values())):
        raise StructuralError(f"field {key!r} must be an object of objects of string maps")
    out = {}
    for n, per in tables.items():
        for i in (n, *per):
            if not (i.isascii() and i.isdigit()):
                raise StructuralError(f"field {key!r} has a key {i!r} that is not an integer")
        for i, t in per.items():
            if not (isinstance(t, dict) and all(isinstance(x, str) for kv in t.items() for x in kv)):
                raise StructuralError(f"field {key!r} entry {n}/{i} must be an object from strings to strings")
            out[(int(n), int(i))] = dict(t)
    return out


def sset_from_json(obj: Any, base: str | None = None, validate: bool = True) -> TruncatedSSet:
    if not isinstance(obj, dict):
        raise StructuralError("simplicial set file must hold a JSON object")
    missing = {"levels", "face", "degen"} - set(obj)
    if missing:
        raise StructuralError(f"simplicial set file missing keys: {sorted(missing)}")
    if not (isinstance(obj["levels"], list) and all(
            isinstance(L, list) and all(isinstance(x, str) for x in L) for L in obj["levels"])):
        raise StructuralError("field 'levels' must be a list of lists of strings")
    levels = tuple(finset(L) for L in obj["levels"])
    X = TruncatedSSet(levels, _level_maps(obj, "face"), _level_maps(obj, "degen"))
    if validate:
        _refuse_invalid(validate_sset(X), "simplicial set")
    return X


# ---------------------------------------------------------------------------
# stacky-group specs


def group_spec_to_json(data: StackyGroupData) -> dict:
    out = {
        "groupoid": groupoid_to_json(data.base),
        "mu": bibundle_to_json(data.mu),
        "e": bibundle_to_json(data.e),
    }
    if data.i is not None:
        out["i"] = bibundle_to_json(data.i)
    return out


def group_spec_from_json(obj: Any, base: str | None = None,
                         validate: bool = True) -> StackyGroupData:
    if not isinstance(obj, dict):
        raise StructuralError("group spec file must hold a JSON object")
    missing = {"groupoid", "mu", "e"} - set(obj)
    if missing:
        raise StructuralError(f"group spec file missing keys: {sorted(missing)}")
    G = _deref(obj["groupoid"], base, groupoid_from_json, "base groupoid", validate)
    parts = {name: _deref(obj[name], base, bibundle_from_json, name, validate)
             for name in ("mu", "e", "i") if name in obj}
    data = StackyGroupData(base=G, **parts)
    if validate:
        check_spec_wiring(data)
    return data


def check_spec_wiring(data: StackyGroupData) -> None:
    """Refuse a spec whose mu, e or i does not run G^2 -> G, G^0 -> G or
    G -> G, naming the part. The parts must be valid: each is pinned onto
    the base's powers to read its arity."""
    env = data.env()
    for name, wires in {"mu": (2, 1), "e": (0, 1), "i": (1, 1)}.items():
        if getattr(data, name) is not None:
            try:
                w = env.resolve(name)
            except StructuralError as exc:
                raise StructuralError(f"group spec {name}: {exc}") from None
            if (w.m, w.n) != wires:
                raise StructuralError(f"group spec {name} must run from G^{wires[0]} to "
                                      f"G^{wires[1]}, not from G^{w.m} to G^{w.n}")


# ---------------------------------------------------------------------------
# kind sniffing, for the `validate` verb


def detect_kind(obj: Any) -> str:
    if not isinstance(obj, dict):
        raise StructuralError("expected a JSON object at the top level")
    keys = set(obj)
    if {"carrier", "leftAct"} <= keys:
        return "bibundle"
    if {"levels", "face"} <= keys:
        return "sset"
    if {"f0", "f1"} <= keys:
        return "hom"
    if {"groupoid", "mu", "e"} <= keys:
        return "group-spec"
    if "inv" in keys and "objects" in keys:
        return "groupoid"
    if {"objects", "comp"} <= keys:
        return "category"
    raise StructuralError("unrecognized file kind")


_LOADERS = {
    "groupoid": groupoid_from_json,
    "category": category_from_json,
    "bibundle": bibundle_from_json,
    "hom": hom_from_json,
    "sset": sset_from_json,
    "group-spec": group_spec_from_json,
}


def load_typed(path: str, validate: bool = True):
    """Load any known file kind; returns (kind, object)."""
    obj = load_json(path)
    kind = detect_kind(obj)
    loaded = _LOADERS[kind](obj, os.path.dirname(path) or ".", validate)
    return kind, loaded
