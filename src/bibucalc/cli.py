"""Command line surface.

Every verb loads JSON files (validating on ingest), runs one check or
construction, and reports through a run manifest: the exact command, sha256
digests of the inputs, the seed if any, the verdicts, and the paths of any
files written. Exit code 0 means the property holds or the construction
succeeded, 1 means the property fails (a witness file is written), 2 means a
structural or usage error. Pass --json for the manifest on stdout; output is
byte-identical across runs with the same inputs and seed. `main` may be called
repeatedly in one process; the parser is built on the first call.
"""
from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from dataclasses import dataclass, field

from . import io
from .bibundle import NoPairing, check_principal, compute_pairing, validate_bibundle
from .calculus import bundlize, compose, is_weak_isomorphism
from .core import (
    StructuralError,
    check_hom,
    cycle_collector_paused,
    validate_category,
    validate_groupoid,
)
from .diagram import DiagramEnv, DiagramError, check_identity, evaluate
from .generators import (
    random_groupoid,
    random_right_principal_bibundle,
    standard_groupoid,
)
from .groups import PREINVERSE_EXPR, check_coherence, check_group, kronecker_finite, preinverse
from .linking import NotBiprincipal, linking_category, linking_groupoid
from .simplicial import kan_check, nerve, validate_sset


@dataclass
class RunManifest:
    command: list[str]
    inputs: dict[str, str] = field(default_factory=dict)
    seed: int | None = None
    verdicts: dict = field(default_factory=dict)
    witnesses: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "seed": self.seed,
            "verdicts": self.verdicts,
            "witnesses": sorted(self.witnesses),
        }


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write(args, man: RunManifest, name: str, obj) -> str:
    path = os.path.join(_outdir(args), name)
    io.save_json(path, obj)
    man.witnesses.append(path)
    return path


def _load(args, man: RunManifest, path: str, kinds: tuple[str, ...]):
    kind, obj = io.from_json(io.read_input(path, man.inputs), path)
    if kind not in kinds:
        raise StructuralError(f"{path} holds a {kind}, expected one of {list(kinds)}")
    return kind, obj


def _violations(rep) -> list[dict]:
    return [{"kind": v.kind, "code": v.code, "message": v.message, "witness": repr(v.witness)}
            for v in rep.entries[:20]]


def _principality(rep) -> dict:
    return {
        "side": rep.side,
        "surjective": rep.surjective,
        "free": rep.free,
        "transitive": rep.transitive,
        "witnesses": {k: repr(v) for k, v in rep.witnesses.items()},
        "note": rep.note,
    }


# ---------------------------------------------------------------------------
# verbs


def _validation_parts(kind: str, x, seen: list | None = None) -> dict:
    """Reports per part of a bibundle, hom or group-spec file. A bundle or hom
    is checked only once its groupoids hold, as its tables are read through them.
    A groupoid met again in the same file (the same object, or an equal one)
    gets the report of its first check."""
    seen = [] if seen is None else seen

    def check_groupoid(G):
        for H, rep in seen:
            if H is G or H == G:
                return rep
        rep = validate_groupoid(G)
        seen.append((G, rep))
        return rep

    if kind == "group-spec":
        parts = {"groupoid": check_groupoid(x.base)}
        for name in ("mu", "e", "i"):
            if getattr(x, name) is not None:
                for k, r in _validation_parts("bibundle", getattr(x, name), seen).items():
                    parts[name if k == "bibundle" else f"{name}.{k}"] = r
        return parts
    if kind == "bibundle":
        groupoids, check = {"leftGroupoid": x.left_groupoid, "rightGroupoid": x.right_groupoid}, validate_bibundle
    else:
        groupoids, check = {"source": x.source, "target": x.target}, check_hom
    parts = {k: check_groupoid(G) for k, G in groupoids.items()}
    if all(r.ok for r in parts.values()):
        parts[kind] = check(x)
    return parts


def _cmd_validate(args, man: RunManifest) -> int:
    validators = {
        "groupoid": validate_groupoid,
        "category": validate_category,
        "sset": validate_sset,
    }
    any_bad = False
    for path in args.files:
        kind, loaded = io.from_json(io.read_input(path, man.inputs), path, validate=False)
        if kind in validators:
            rep = validators[kind](loaded)
            man.verdicts[path] = {"kind": kind, "ok": rep.ok, "violations": _violations(rep)}
        else:
            parts = _validation_parts(kind, loaded)
            ok = all(r.ok for r in parts.values())
            if ok and kind == "group-spec":
                io.check_spec_wiring(loaded)
            man.verdicts[path] = {
                "kind": kind, "ok": ok,
                "violations": {k: _violations(r) for k, r in parts.items() if not r.ok},
            }
        if not man.verdicts[path]["ok"]:
            any_bad = True
    if any_bad:
        _write(args, man, "validate_witness.json", man.verdicts)
        return 1
    return 0


def _cmd_compose(args, man: RunManifest) -> int:
    _, M = _load(args, man, args.left, ("bibundle",))
    _, N = _load(args, man, args.right, ("bibundle",))
    if M.right_groupoid != N.left_groupoid:
        raise StructuralError("bibundles are not composable: middle groupoids differ")
    MN = compose(M, N)
    rep = validate_bibundle(MN)
    if not rep.ok:
        raise StructuralError(f"composite failed validation: {rep.first()}")
    prov = f"compose({args.left}, {args.right})"
    path = _write(args, man, "composed.json", io.bibundle_to_json(MN, provenance=prov))
    man.verdicts["carrier_size"] = len(MN.carrier)
    man.verdicts["output"] = path
    return 0


def _cmd_principal(args, man: RunManifest) -> int:
    _, M = _load(args, man, args.bibundle, ("bibundle",))
    rep = check_principal(M, args.side)
    man.verdicts["principal"] = _principality(rep)
    if rep.ok:
        return 0
    _write(args, man, "principal_witness.json", _principality(rep))
    return 1


def _cmd_pairing(args, man: RunManifest) -> int:
    _, M = _load(args, man, args.bibundle, ("bibundle",))
    got = compute_pairing(M)
    if isinstance(got, NoPairing):
        man.verdicts["pairing"] = {"ok": False, "reason": got.reason, "witness": repr(got.witness)}
        _write(args, man, "pairing_witness.json", man.verdicts["pairing"])
        return 1
    table = [[a, b, v] for (a, b), v in sorted(got.table.items())]
    man.verdicts["pairing"] = {"ok": True, "pairs": len(table)}
    man.verdicts["output"] = _write(args, man, "pairing.json", {"table": table})
    return 0


def _cmd_linking(args, man: RunManifest) -> int:
    _, M = _load(args, man, args.bibundle, ("bibundle",))
    if args.category or not args.groupoid:
        L = linking_category(M)
        man.verdicts["objects"] = len(L.category.objects)
        man.verdicts["arrows"] = len(L.category.arrows)
        man.verdicts["output"] = _write(args, man, "linking_category.json",
                                        io.category_to_json(L.category))
        return 0
    L = linking_groupoid(M)
    if isinstance(L, NotBiprincipal):
        man.verdicts["linking"] = {"ok": False, "failed_side": L.report.side}
        _write(args, man, "linking_witness.json", _principality(L.report))
        return 1
    man.verdicts["objects"] = len(L.groupoid.objects)
    man.verdicts["arrows"] = len(L.groupoid.arrows)
    man.verdicts["output"] = _write(args, man, "linking_groupoid.json",
                                    io.groupoid_to_json(L.groupoid))
    return 0


def _cmd_morita(args, man: RunManifest) -> int:
    _, M = _load(args, man, args.bibundle, ("bibundle",))
    weak = is_weak_isomorphism(M)
    if weak.ok:
        man.verdicts["morita"] = {"ok": True, "inverse_carrier": len(weak.inverse.carrier)}
        return 0
    man.verdicts["morita"] = {"ok": False, "failure": _principality(weak.failure)}
    _write(args, man, "morita_witness.json", man.verdicts["morita"])
    return 1


def _bindings(args, man: RunManifest) -> dict:
    out = {}
    for spec in args.bind or []:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise StructuralError(f"--bind wants NAME=FILE, got {spec!r}")
        _, out[name] = _load(args, man, path, ("bibundle",))
    return out


def _cmd_eval_diagram(args, man: RunManifest) -> int:
    _, G = _load(args, man, args.groupoid, ("groupoid",))
    env = DiagramEnv(G, _bindings(args, man))
    result = evaluate(env, args.expr)
    man.verdicts["carrier_size"] = len(result.carrier)
    man.verdicts["output"] = _write(args, man, "diagram.json",
                                    io.bibundle_to_json(result, provenance=args.expr))
    return 0


def _cmd_check(args, man: RunManifest) -> int:
    _, G = _load(args, man, args.groupoid, ("groupoid",))
    env = DiagramEnv(G, _bindings(args, man))
    rep = check_identity(env, args.lhs, args.rhs)
    man.verdicts["identity"] = {"ok": rep.ok, "lhs": args.lhs, "rhs": args.rhs,
                                "reason": rep.reason}
    if rep.ok:
        man.verdicts["output"] = _write(args, man, "check_witness.json",
                                        {"forward": dict(rep.witness.forward)})
        return 0
    _write(args, man, "check_witness.json", man.verdicts["identity"])
    return 1


def _cmd_bundlize(args, man: RunManifest) -> int:
    _, phi = _load(args, man, args.hom, ("hom",))
    M = bundlize(phi)
    man.verdicts["carrier_size"] = len(M.carrier)
    man.verdicts["output"] = _write(args, man, "bundlized.json",
                                    io.bibundle_to_json(M, provenance=f"bundlize({args.hom})"))
    return 0


def _cmd_check_group(args, man: RunManifest) -> int:
    _, data = _load(args, man, args.spec, ("group-spec",))
    rep = check_group(data)
    man.verdicts["monoid"] = {
        "associative": rep.monoid.associative.ok,
        "left_unital": rep.monoid.left_unital.ok,
        "right_unital": rep.monoid.right_unital.ok,
    }
    man.verdicts["preinverse_invertible"] = rep.invertible.ok
    if rep.antipode is not None:
        man.verdicts["antipode"] = {
            "left": rep.antipode.left.ok, "right": rep.antipode.right.ok,
            "matches_preinverse": rep.antipode.matches_preinverse,
        }
    man.verdicts["group"] = rep.ok
    if rep.ok:
        return 0
    witness = dict(man.verdicts)
    if rep.invertible.failure is not None:
        witness["failure"] = _principality(rep.invertible.failure)
    _write(args, man, "check_group_witness.json", witness)
    return 1


def _cmd_preinverse(args, man: RunManifest) -> int:
    _, data = _load(args, man, args.spec, ("group-spec",))
    s = preinverse(data)
    man.verdicts["carrier_size"] = len(s.carrier)
    man.verdicts["output"] = _write(args, man, "preinverse.json",
                                    io.bibundle_to_json(s, provenance=PREINVERSE_EXPR))
    weak = is_weak_isomorphism(s)
    man.verdicts["invertible"] = weak.ok
    if weak.ok:
        return 0
    _write(args, man, "preinverse_witness.json", _principality(weak.failure))
    return 1


def _cmd_coherence(args, man: RunManifest) -> int:
    if args.max_candidates < 1:
        raise StructuralError(f"--max-candidates must be at least 1, got {args.max_candidates}")
    _, data = _load(args, man, args.spec, ("group-spec",))
    rep = check_coherence(data, max_candidates=args.max_candidates)
    man.verdicts["coherence"] = {
        "associator": rep.associator_coherent,
        "units": rep.units_coherent,
        "attempts": rep.attempts,
        "note": rep.note,
    }
    if rep.ok:
        return 0
    _write(args, man, "coherence_witness.json", man.verdicts["coherence"])
    return 1


def _cmd_kan(args, man: RunManifest) -> int:
    kind, obj = _load(args, man, args.sset, ("sset", "groupoid", "category"))
    X = obj if kind == "sset" else nerve(obj, args.k)
    rep = kan_check(X, args.n, args.i, strict=args.strict)
    man.verdicts["kan"] = {
        "n": rep.n, "i": rep.i, "strict": rep.strict, "ok": rep.ok,
        "horns": rep.horn_count, "simplices": rep.simplex_count,
    }
    if rep.ok:
        return 0
    witness = dict(man.verdicts["kan"])
    if rep.unfilled is not None:
        witness["unfilled_horn"] = {str(j): x for j, x in rep.unfilled.faces}
    if rep.overfilled is not None:
        horn, fillers = rep.overfilled
        witness["overfilled_horn"] = {str(j): x for j, x in horn.faces}
        witness["fillers"] = list(fillers)
    _write(args, man, "kan_witness.json", witness)
    return 1


def _cmd_gen_fixture(args, man: RunManifest) -> int:
    fam = args.family
    out = _outdir(args)
    if fam in ("trivial", "pair", "cyclic", "action"):
        if args.n is None:
            raise StructuralError(f"family {fam} needs --n")
        G = standard_groupoid(fam, args.n)
        path = _write(args, man, f"{fam}{args.n}.json", io.groupoid_to_json(G))
        man.verdicts["output"] = path
        return 0
    if fam == "kronecker_finite":
        if args.n is None or args.q is None:
            raise StructuralError("kronecker_finite needs --n and --q")
        data = kronecker_finite(args.n, args.q)
        stem = f"kronecker_{args.n}_{args.q}"
        _write(args, man, f"{stem}_groupoid.json", io.groupoid_to_json(data.base))
        _write(args, man, f"{stem}_mu.json", io.bibundle_to_json(data.mu))
        _write(args, man, f"{stem}_e.json", io.bibundle_to_json(data.e))
        _write(args, man, f"{stem}_i.json", io.bibundle_to_json(data.i))
        spec = {
            "groupoid": f"{stem}_groupoid.json",
            "mu": f"{stem}_mu.json",
            "e": f"{stem}_e.json",
            "i": f"{stem}_i.json",
        }
        man.verdicts["output"] = _write(args, man, f"{stem}.json", spec)
        return 0
    rng = random.Random(args.seed if args.seed is not None else 0)
    cap = args.max_size
    if cap < 1:
        raise StructuralError(f"--max-size must be at least 1, got {cap}")
    if fam == "random-groupoid":
        G = random_groupoid(rng, max_objects=cap, max_isotropy=cap)
        rep = validate_groupoid(G)
        if not rep.ok:
            raise StructuralError(f"generator produced an invalid groupoid: {rep.first()}")
        man.verdicts["arrows"] = len(G.arrows)
        man.verdicts["output"] = _write(args, man, f"random_groupoid_{args.seed or 0}.json",
                                        io.groupoid_to_json(G))
        return 0
    if fam == "random-right-principal-bibundle":
        M = random_right_principal_bibundle(rng, max_objects=cap, max_isotropy=cap)
        if not (validate_bibundle(M).ok and check_principal(M, "right").ok):
            raise StructuralError("generator output failed its validator")
        man.verdicts["carrier_size"] = len(M.carrier)
        man.verdicts["output"] = _write(args, man, f"random_rp_{args.seed or 0}.json",
                                        io.bibundle_to_json(M))
        return 0
    raise StructuralError(f"unknown fixture family {fam!r}")


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later
    one in the process, so callers must not change it. Parsing keeps its state
    in the namespace it returns, not on the parser."""
    top = argparse.ArgumentParser(
        prog="bibucalc",
        description="finite groupoid/bibundle calculus: validation, composition, "
                    "principality, diagram identities, group checks, Kan conditions",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def verb(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="print the run manifest as JSON")
        p.add_argument("--out", default=None, help="directory for outputs and witnesses")
        return p

    p = verb("validate", _cmd_validate, "validate any known file kind")
    p.add_argument("files", nargs="+")
    p = verb("compose", _cmd_compose, "compose two bibundle files")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p = verb("principal", _cmd_principal, "check one-sided principality")
    p.add_argument("--bibundle", required=True)
    p.add_argument("--side", choices=("right", "left"), default="right")
    p = verb("pairing", _cmd_pairing, "compute the bibundle pairing table")
    p.add_argument("--bibundle", required=True)
    p = verb("linking", _cmd_linking, "assemble the linking category or groupoid")
    p.add_argument("--bibundle", required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--groupoid", action="store_true")
    g.add_argument("--category", action="store_true")
    p = verb("morita", _cmd_morita, "test weak invertibility (Morita equivalence)")
    p.add_argument("--bibundle", required=True)
    p = verb("eval-diagram", _cmd_eval_diagram, "evaluate a diagram expression")
    p.add_argument("--groupoid", required=True)
    p.add_argument("--bind", action="append", metavar="NAME=FILE")
    p.add_argument("expr")
    p = verb("check", _cmd_check, "check a diagram identity lhs ~ rhs")
    p.add_argument("--groupoid", required=True)
    p.add_argument("--bind", action="append", metavar="NAME=FILE")
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p = verb("bundlize", _cmd_bundlize, "bundlize a groupoid homomorphism")
    p.add_argument("--hom", required=True)
    p = verb("check-group", _cmd_check_group, "run the stacky group axioms")
    p.add_argument("--spec", required=True)
    p = verb("preinverse", _cmd_preinverse, "build the preinverse bundle and test invertibility")
    p.add_argument("--spec", required=True)
    p = verb("coherence", _cmd_coherence, "close the reassociation and unit witness loops")
    p.add_argument("--spec", required=True)
    p.add_argument("--max-candidates", type=int, default=64, dest="max_candidates")
    p = verb("kan", _cmd_kan, "Kan condition on a simplicial set (or a nerve)")
    p.add_argument("--sset", required=True,
                   help="simplicial set file, or a groupoid/category file to take the nerve of")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--k", type=int, default=3, help="truncation level when taking a nerve")
    p = verb("gen-fixture", _cmd_gen_fixture, "emit validated fixture files")
    p.add_argument("--family", required=True,
                   choices=("trivial", "pair", "cyclic", "action", "kronecker_finite",
                            "random-groupoid", "random-right-principal-bibundle"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="seed of the random families")
    p.add_argument("--max-size", type=int, default=3, dest="max_size",
                   help="cap on objects and isotropy in the random families (default 3)")
    return top


def _emit(args, man: RunManifest, code: int) -> None:
    if getattr(args, "json", False):
        sys.stdout.write(io.dumps(man.to_json()))
        return
    lines = []
    for key, value in man.verdicts.items():
        if isinstance(value, dict):
            value = ", ".join(f"{k}={v}" for k, v in value.items())
        lines.append(f"{key}: {value}\n")
    lines += [f"wrote {path}\n" for path in man.witnesses]
    # a label stdout cannot encode (an ASCII locale) is written as its escape
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    sys.stdout.write("".join(lines).encode(encoding, "backslashreplace").decode(encoding))


def main(argv=None) -> int:
    """Run one verb on argv (sys.argv[1:] when None) and return its exit
    code, with the cycle collector paused (see core.cycle_collector_paused).
    The parser is built before the pause, as building it leaves reference
    cycles; inside the pause only a usage error leaves any (6 objects)."""
    parser = build_parser()
    with cycle_collector_paused():
        args = parser.parse_args(argv)
        rest = list(argv or sys.argv[1:])
        rest.remove(args.verb)
        man = RunManifest(command=[args.verb] + rest, seed=getattr(args, "seed", None))
        try:
            code = args.handler(args, man)
        except (StructuralError, DiagramError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            if getattr(args, "json", False):
                man.verdicts["error"] = str(exc)
                sys.stdout.write(io.dumps(man.to_json()))
            return 2
        _emit(args, man, code)
        return code


if __name__ == "__main__":
    sys.exit(main())
