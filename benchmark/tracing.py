"""Per-layer tracing from outside the library.

A Tracer replaces public functions of bibucalc with timing wrappers in every
module namespace that bound them (``compose`` is bound in calculus, diagram,
groups, cli and the package root, and a wrapper in calculus alone would miss
most calls). Spans nest through a stack, stay in memory, and are written out
when the run ends. The label codec (tup, esc, untup) is only counted: a span
per call would cost more than the calls themselves.

``compose`` is split by path. Before its span opens, one pass over the lmap
fibers of the left factor decides it: the path is principal iff, in every
fiber, the orbit of the first point covers the fiber and that point has a
trivial stabiliser. The pass is excluded from the label counts.
"""
from __future__ import annotations

import contextlib
import json
import sys
import time

from bibucalc.core import StructuralError

SPANNED = {
    "core": ("product_groupoid", "power_groupoid", "validate_groupoid", "validate_category"),
    "bibundle": ("check_principal", "compute_pairing", "validate_bibundle"),
    "calculus": ("find_iso", "tensor_bibundle", "is_weak_isomorphism",
                 "assoc_witness", "comp_witness", "lunit_witness", "runit_witness",
                 "chain_witnesses", "invert_witness", "identity_witness"),
    "diagram": ("tensor_wired", "evaluate", "check_identity", "interchange_blocks",
                "wired_tensor_witness"),
    "groups": ("check_group", "check_monoid", "preinverse", "check_coherence"),
    "linking": ("principality_via_linking", "linking_category", "linking_groupoid"),
    "simplicial": ("nerve", "horn_set", "kan_check"),
    "io": ("load_json", "load_typed", "dumps"),
    "cli": ("main",),
}
COUNTED = ("tup", "esc", "untup")
WITNESSES = frozenset(f"calculus.{n}" for n in (
    "assoc_witness", "comp_witness", "lunit_witness", "runit_witness",
    "chain_witnesses", "invert_witness", "identity_witness"))

# (metric name, span name or group, statistic); statistic is one of
# calls, s (inclusive seconds, outermost spans only) and self_s.
PER_LAYER = [
    ("core.product_groupoid", "core.product_groupoid", ("calls", "s", "self_s")),
    ("core.power_groupoid", "core.power_groupoid", ("calls", "s")),
    ("core.validate_groupoid", "core.validate_groupoid", ("calls", "s")),
    ("core.validate_category", "core.validate_category", ("calls", "s")),
    ("bibundle.check_principal", "bibundle.check_principal", ("calls", "s")),
    ("bibundle.compute_pairing", "bibundle.compute_pairing", ("calls", "s")),
    ("bibundle.validate_bibundle", "bibundle.validate_bibundle", ("calls", "s")),
    ("calculus.compose.orbit", "calculus.compose.orbit", ("calls", "s", "self_s")),
    ("calculus.compose.principal", "calculus.compose.principal", ("calls", "s", "self_s")),
    ("calculus.witnesses", WITNESSES, ("s",)),
    ("calculus.find_iso", "calculus.find_iso", ("calls", "s")),
    ("calculus.all_isos", "calculus.all_isos", ("calls", "s")),
    ("calculus.tensor_bibundle", "calculus.tensor_bibundle", ("calls", "s")),
    ("calculus.is_weak_isomorphism", "calculus.is_weak_isomorphism", ("calls", "s")),
    ("diagram.tensor_wired", "diagram.tensor_wired", ("calls", "s", "self_s")),
    ("diagram.evaluate", "diagram.evaluate", ("s",)),
    ("diagram.check_identity", "diagram.check_identity", ("calls", "s")),
    ("diagram.interchange_blocks", "diagram.interchange_blocks", ("s",)),
    ("diagram.wired_tensor_witness", "diagram.wired_tensor_witness", ("s",)),
    ("groups.check_group", "groups.check_group", ("s",)),
    ("groups.check_monoid", "groups.check_monoid", ("s",)),
    ("groups.preinverse", "groups.preinverse", ("s",)),
    ("groups.check_coherence", "groups.check_coherence", ("s",)),
    ("linking.principality_via_linking", "linking.principality_via_linking", ("s",)),
    ("linking.linking_category", "linking.linking_category", ("s",)),
    ("linking.linking_groupoid", "linking.linking_groupoid", ("s",)),
    ("simplicial.nerve", "simplicial.nerve", ("calls", "s")),
    ("simplicial.horn_set", "simplicial.horn_set", ("s",)),
    ("simplicial.kan_check", "simplicial.kan_check", ("calls", "s")),
    ("io.load_json", "io.load_json", ("s",)),
    ("io.load_typed", "io.load_typed", ("s",)),
    ("io.dumps", "io.dumps", ("s",)),
    ("cli.main", "cli.main", ("calls", "s")),
]


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    out = [(f"labels.{n}.calls", "count") for n in COUNTED]
    out.append(("labels.untup.hit_ratio", "ratio"))
    for metric, _, stats in PER_LAYER:
        out.extend((f"{metric}.{st}", "count" if st == "calls" else "s") for st in stats)
    return out


def _principal_path(M) -> bool:
    """One pass per lmap fiber of M: the orbit of the fiber's first point
    covers the fiber and the point has a trivial stabiliser. A bundle the
    pass cannot read is put on the orbit path; compose reports the fault."""
    H = M.right_groupoid
    fibers: dict[str, list[str]] = {}
    for m in M.carrier:
        fibers.setdefault(M.lmap[m], []).append(m)
    for fiber in fibers.values():
        m0 = fiber[0]
        try:
            images = [M.right_fn(m0, h) for h in H.l_fiber(M.rmap[m0])]
        except (KeyError, ValueError, StructuralError):
            return False
        if images.count(m0) != 1 or not set(fiber) <= set(images):
            return False
    return True


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts = {n: 0 for n in COUNTED}
        self.iso_calls = 0
        self.untup = package.labels.untup  # the original, with cache_info
        self._excluded_cache = [0, 0]      # untup hits, misses of the benchmark's own work
        self._paused = 0
        self._cache_base = (0, 0)

    # -- installing -----------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def _replace(self, orig, wrapper) -> None:
        for mod in self._modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        pkg = self.package
        for modname, names in SPANNED.items():
            mod = getattr(pkg, modname)
            for name in names:
                orig = getattr(mod, name)
                self._replace(orig, self._spanned(f"{modname}.{name}", orig))
        self._replace(pkg.calculus.compose, self._compose(pkg.calculus.compose))
        self._replace(pkg.calculus.all_isos, self._all_isos(pkg.calculus.all_isos))
        for name in COUNTED:
            orig = getattr(pkg.labels, name)
            self._replace(orig, self._counted(name, orig))

    # -- wrappers -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record no spans, and leave the label counts and the untup cache
        statistics as they were: for work the benchmark does itself."""
        counts = dict(self.counts)
        before = self.untup.cache_info()
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1
            after = self.untup.cache_info()
            self.counts.update(counts)
            self._excluded_cache[0] += after.hits - before.hits
            self._excluded_cache[1] += after.misses - before.misses

    def _compose(self, fn):
        def wrapper(M, N):
            if self._paused:
                return fn(M, N)
            with self.paused():
                principal = _principal_path(M)
            idx = self._open("calculus.compose." + ("principal" if principal else "orbit"))
            try:
                return fn(M, N)
            finally:
                self._close(idx)
        return wrapper

    def _all_isos(self, fn):
        """Count the call; time the generator only while it is consumed."""
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            self.iso_calls += 1
            it = fn(*args, **kwargs)

            def consume():
                while True:
                    idx = self._open("calculus.all_isos")
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item
            return consume()
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    # -- measuring ------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (set-up work, earlier rounds)."""
        self.spans.clear()
        self.stack.clear()
        for k in self.counts:
            self.counts[k] = 0
        self.iso_calls = 0
        self._excluded_cache = [0, 0]
        info = self.untup.cache_info()
        self._cache_base = (info.hits, info.misses)

    def metrics(self) -> dict[str, float]:
        """Aggregate the spans recorded since the last reset."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def has_ancestor_in(idx: int, names) -> bool:
            p = spans[idx][3]
            while p >= 0:
                if spans[p][0] in names:
                    return True
                p = spans[p][3]
            return False

        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s: dict[str, float] = {}
        groups = [(metric, src) for metric, src, _ in PER_LAYER if not isinstance(src, str)]
        for idx, (name, start, end, _) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child_time[idx]
            if not has_ancestor_in(idx, (name,)):
                incl[name] = incl.get(name, 0.0) + dur
            for metric, members in groups:
                if name in members and not has_ancestor_in(idx, members):
                    incl[metric] = incl.get(metric, 0.0) + dur
        calls["calculus.all_isos"] = self.iso_calls

        info = self.untup.cache_info()
        hits = info.hits - self._cache_base[0] - self._excluded_cache[0]
        misses = info.misses - self._cache_base[1] - self._excluded_cache[1]
        out: dict[str, float] = {f"labels.{n}.calls": self.counts[n] for n in COUNTED}
        out["labels.untup.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for metric, src, stats in PER_LAYER:
            key = src if isinstance(src, str) else metric
            for st in stats:
                table = {"calls": calls, "s": incl, "self_s": self_s}[st]
                out[f"{metric}.{st}"] = table.get(key, 0 if st == "calls" else 0.0)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
