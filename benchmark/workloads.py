"""The benchmark's workloads.

Each workload builds its inputs in ``setup`` (timed as set-up) and lists its
operations in ``operations``: pairs of a call to time and a judge that checks
the call's outcome against the independent computations of ``checkers``.
The runner judges each outcome as soon as its call returns, outside the
timed span, and then drops it, so that no result outlives its check and the
process's peak memory is the largest single operation's. ``end_round``
reports what can only be judged over a whole round. A round is one setup
followed by every operation once; the runner repeats whole rounds,
rebuilding the inputs each time so that no state cached on an input object
by one round speeds up the next.

Library functions are always reached through their module (``groups.
check_group``, never a bare name) so that the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import random
from dataclasses import dataclass

from bibucalc import bibundle, calculus, cli, groups, linking, simplicial
from bibucalc import io as bio
from bibucalc.generators import random_bibundle, random_right_principal_bibundle

import checkers


@dataclass
class Outcome:
    value: object
    error: BaseException | None
    seconds: float


@dataclass
class Verdict:
    problems: list[str]
    failed: int


def _witness_problems(label: str, witnesses) -> list[str]:
    out = []
    for name, w in witnesses:
        if w is None:
            out.append(f"{label}: no {name} witness")
            continue
        out.extend(f"{label}: {name}: {p}" for p in checkers.witness_problems(w))
    return out


def _raised(label: str, o: Outcome) -> Verdict | None:
    return Verdict([f"{label}: raised {o.error!r}"], 0) if o.error else None


# ---------------------------------------------------------------------------
# group-check


class GroupCheck:
    """check_group on Kronecker fixtures and on the AND monoid.

    (2,1) and (3,1) are crossed modules with a nontrivial inclusion; the
    plain groups (4,4), (6,6) and (8,8) (Z/n with identity arrows only) take
    the preinverse's orbit-path compose and build G^3 and G^4 with up to
    4096 objects. (4,2), (6,3) and (8,4) are left out: each check takes 2 to
    6 s, a 30-second run repeats it only a few times, and the probes that
    scale a time to reference speed (see run.py) do not follow the host's
    speed switches inside a call that long.
    """

    name = "group-check"
    FIXTURES = ((2, 1), (3, 1), (4, 4), (6, 6), (8, 8))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed  # the fixtures are fixed; the seed selects nothing

    def setup(self):
        data = [(f"kronecker{nq}", groups.kronecker_finite(*nq)) for nq in self.FIXTURES]
        data.append(("and-monoid", groups.and_monoid_data()))
        return data

    def operations(self, data):
        return [(lambda d=d: groups.check_group(d),
                 lambda o, label=label, d=d: self._judge(label, d, o)) for label, d in data]

    def end_round(self) -> list[str]:
        return []

    @staticmethod
    def _judge(label, d, o: Outcome) -> Verdict:
        raised = _raised(label, o)
        if raised:
            return raised
        rep = o.value
        mono = rep.monoid
        witnesses = [("associativity", mono.associative.witness),
                     ("left unit", mono.left_unital.witness),
                     ("right unit", mono.right_unital.witness)]
        if label == "and-monoid":
            problems = _witness_problems(label, witnesses)
            if not mono.ok or rep.ok or rep.invertible.ok:
                problems.append(f"{label}: expected a monoid refused as a group")
            return Verdict(problems, 0)
        if not rep.ok:
            return Verdict([f"{label}: not reported as a group"], 0)
        if rep.antipode is None or not rep.antipode.matches_preinverse:
            return Verdict([f"{label}: antipode does not match the preinverse"], 0)
        problems = []
        if len(rep.preinverse_bundle.carrier) != len(d.base.arrows):
            problems.append(f"{label}: preinverse carrier is not |G1|")
        witnesses += [("antipode left", rep.antipode.left.witness),
                      ("antipode right", rep.antipode.right.witness),
                      ("weak inverse left", rep.invertible.left_identity),
                      ("weak inverse right", rep.invertible.right_identity)]
        return Verdict(problems + _witness_problems(label, witnesses), 0)


# ---------------------------------------------------------------------------
# coherence


class Coherence:
    """check_coherence on Kronecker (2,1) and the plain groups (2,2), (3,3)
    and (4,4); on each, every compose takes the principal path.

    (3,1) and (4,2) have that property too but are left out: their checks
    take 4 to 5 s each, too long to repeat often enough in a run for a
    steady time.
    """

    name = "coherence"
    FIXTURES = ((2, 1), (2, 2), (3, 3), (4, 4))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed  # the fixtures are fixed; the seed selects nothing

    def setup(self):
        return [(f"kronecker{nq}", groups.kronecker_finite(*nq)) for nq in self.FIXTURES]

    def operations(self, data):
        return [(lambda d=d: groups.check_coherence(d),
                 lambda o, label=label: self._judge(label, o)) for label, d in data]

    def end_round(self) -> list[str]:
        return []

    @staticmethod
    def _judge(label, o: Outcome) -> Verdict:
        raised = _raised(label, o)
        if raised:
            return raised
        rep = o.value
        if not rep.ok:
            return Verdict([f"{label}: coherence loops do not close ({rep.note})"], 0)
        return Verdict(_witness_problems(label, [("associator", rep.associator),
                                                 ("left unitor", rep.left_unitor),
                                                 ("right unitor", rep.right_unitor)]), 0)


# ---------------------------------------------------------------------------
# random-bundles


def _cost_key(M) -> tuple[int, int]:
    """What a bundle's operation costs grows with: the composition tables of
    the product groupoids G x G and H x H that the comultiplication square
    builds, of |G2|^2 and |H2|^2 entries (G2 the composable pairs)."""
    return (len(M.left_groupoid.comp) ** 2 + len(M.right_groupoid.comp) ** 2,
            len(M.carrier))


class RandomBundles:
    """A seeded stream of small bibundles, every fourth one right principal,
    over groupoids of at most two objects (with three, a round took 9 to
    11 s, too long to repeat often enough in a run).

    Per-bundle cost spans two orders of magnitude, so a plain random draw of
    a hundred bundles moves the batch total and the percentiles from one
    seed to the next by as much as a real change would. The sample is therefore
    drawn systematically: each generator fills a pool eight times the size
    it contributes, the pool is ordered by cost key, and evenly spaced ranks
    are kept. The kept bundles are still the seed's draws from the same
    generators, in draw order, and the spread of costs matches the
    generators' own.
    """

    name = "random-bundles"
    SIZE = 100
    CAP = 12
    POOL = 8

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def _draws(self, rng, principal: bool, count: int):
        pool = []
        while len(pool) < self.POOL * count:
            if principal:
                M = random_right_principal_bibundle(rng, max_objects=2, max_isotropy=2)
            else:
                M = random_bibundle(rng, max_objects=2, max_isotropy=2)
            if len(M.carrier) <= self.CAP:
                pool.append(M)
        ranked = sorted(range(len(pool)), key=lambda i: (_cost_key(pool[i]), i))
        keep = sorted(ranked[(2 * j + 1) * len(pool) // (2 * count)] for j in range(count))
        return [pool[i] for i in keep]

    def setup(self):
        rng = random.Random(self.seed)
        n_rp = len(range(0, self.SIZE, 4))  # positions 0, 4, 8, ...
        rp = iter(self._draws(rng, True, n_rp))
        mix = iter(self._draws(rng, False, self.SIZE - n_rp))
        return [next(rp) if i % 4 == 0 else next(mix) for i in range(self.SIZE)]

    @staticmethod
    def _op(M):
        G, H = M.left_groupoid, M.right_groupoid
        right = bibundle.check_principal(M, "right")
        left = bibundle.check_principal(M, "left")
        pairing = bibundle.compute_pairing(M)
        via = linking.principality_via_linking(M)
        counit = calculus.find_iso(calculus.compose(M, calculus.terminal_bibundle(H)),
                                   calculus.terminal_bibundle(G))
        comult = calculus.find_iso(
            calculus.compose(M, calculus.diagonal_bibundle(H)),
            calculus.compose(calculus.diagonal_bibundle(G), calculus.tensor_bibundle(M, M)))
        return right, left, pairing, via, counit, comult

    def operations(self, sample):
        self.kinds: set[bool] = set()
        return [(lambda M=M: self._op(M), lambda o, i=i, M=M: self._judge(f"bundle {i}", M, o))
                for i, M in enumerate(sample)]

    def end_round(self) -> list[str]:
        if self.kinds != {True, False}:
            return ["sample lacks principal or non-principal bundles"]
        return []

    def _judge(self, label, M, o: Outcome) -> Verdict:
        raised = _raised(label, o)
        if raised:
            return raised
        right, left, pairing, via, counit, comult = o.value
        t = checkers.tables_of(M)
        bf_right = checkers.principality(t, "right")
        bf_left = checkers.principality(t, "left")
        self.kinds.add(bf_right.ok)
        problems = []
        for name, rep, bf in (("right", right, bf_right), ("left", left, bf_left),
                              ("linking", via, bf_right)):
            if (rep.surjective, rep.free, rep.transitive) != (
                    bf.surjective, bf.free, bf.transitive):
                problems.append(f"{label}: {name} principality flags differ from brute force")
        if isinstance(pairing, bibundle.Pairing) != (bf_right.free and bf_right.transitive):
            problems.append(f"{label}: pairing existence differs from brute force")
        elif isinstance(pairing, bibundle.Pairing):
            problems += [f"{label}: {p}" for p in checkers.pairing_problems(t, pairing.table)]
        elif pairing.reason != ("free" if not bf_right.free else "transitive"):
            problems.append(f"{label}: pairing refused for the wrong reason")
        if bf_right.ok != (counit is not None and comult is not None):
            problems.append(f"{label}: principality differs from the two squares")
        problems += _witness_problems(
            label, [(n, w) for n, w in (("counit", counit), ("comultiplication", comult))
                    if w is not None])
        return Verdict(problems, 0)


# ---------------------------------------------------------------------------
# cli-files


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    expect: int | str      # an exit code, or a rule resolved at check time
    key: str               # verdict key the manifest must carry
    known_fault: bool = False


def _cli(argv) -> tuple[int, str]:
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


class CliFiles:
    """In-process ``bibucalc`` calls with --json on files written at set-up.

    Kronecker (6,2) is left out: its eight heaviest calls take about 0.2 s
    each and made a round last 3.5 s, too long to repeat often enough in a
    run for a steady 90th percentile.
    """

    name = "cli-files"
    KRONECKER = ((4, 2), (6, 3), (8, 4))
    RANDOM = 3
    SMALL = (("pair", 3), ("cyclic", 3), ("action", 2), ("action", 3), ("trivial", 3))
    COUNIT = ("--lhs", "delta ; (eps * id)", "--rhs", "id")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.out = os.path.join(workdir, "out")
        self.previous: list[str] | None = None
        self._expect_cache: dict[str, int] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _gen(self, *args) -> None:
        code, _ = _cli(("gen-fixture", *args, "--out", self.dir, "--json"))
        if code != 0:
            raise RuntimeError(f"gen-fixture {args} exited {code}")

    def _seeds(self):
        return [self.seed * 10 + k for k in range(self.RANDOM)]

    def setup(self):
        for n, q in self.KRONECKER:
            self._gen("--family", "kronecker_finite", "--n", str(n), "--q", str(q))
        for s in self._seeds():
            self._gen("--family", "random-groupoid", "--seed", str(s), "--max-size", "2")
            self._gen("--family", "random-right-principal-bibundle", "--seed", str(s),
                      "--max-size", "2")
        for family, n in self.SMALL + (("pair", 2),):
            self._gen("--family", family, "--n", str(n))
        poset = simplicial.poset_category(3)
        bio.save_json(self.path("poset3.json"), bio.category_to_json(poset))
        bio.save_json(self.path("poset3_nerve.json"), bio.sset_to_json(simplicial.nerve(poset, 3)))
        bad = bio.load_json(self.path("cyclic3.json"))
        bad["l"] = 5
        bio.save_json(self.path("cyclic3_bad_l.json"), bad)
        bad = bio.load_json(self.path("pair2.json"))
        bad["objects"] = "01"
        bio.save_json(self.path("pair2_bad_objects.json"), bad)
        return self.plan()

    def plan(self) -> list[Call]:
        p = self.path
        stems = [f"kronecker_{n}_{q}" for n, q in self.KRONECKER]
        rgs = [p(f"random_groupoid_{s}.json") for s in self._seeds()]
        rps = [p(f"random_rp_{s}.json") for s in self._seeds()]
        small = [p(f"{family}{n}.json") for family, n in self.SMALL]
        valid = [p(f"{st}{suf}.json") for st in stems
                 for suf in ("_groupoid", "_mu", "_e", "_i", "")]
        valid += rgs + rps + small + [p("pair2.json"), p("poset3.json"), p("poset3_nerve.json")]
        calls = [Call(("validate", f), 0, f) for f in valid]
        for st in stems:
            mu, inv, G = p(f"{st}_mu.json"), p(f"{st}_i.json"), p(f"{st}_groupoid.json")
            calls += [
                Call(("principal", "--bibundle", mu), 0, "principal"),
                Call(("principal", "--bibundle", mu, "--side", "left"), "mu-not-morita", "principal"),
                Call(("pairing", "--bibundle", mu), 0, "pairing"),
                Call(("pairing", "--bibundle", inv), "biprincipal", "pairing"),
                Call(("linking", "--category", "--bibundle", mu), 0, "arrows"),
                Call(("linking", "--groupoid", "--bibundle", inv), "biprincipal", "arrows"),
                Call(("linking", "--groupoid", "--bibundle", mu), "mu-not-morita", "linking"),
                Call(("morita", "--bibundle", inv), "biprincipal", "morita"),
                Call(("morita", "--bibundle", mu), "mu-not-morita", "morita"),
                Call(("compose", "--left", mu, "--right", inv), 0, "carrier_size"),
                Call(("check", "--groupoid", G, *self.COUNIT), 0, "identity"),
                Call(("kan", "--sset", G, "--n", "3", "--i", "0", "--strict", "--k", "3"), 0, "kan"),
                Call(("kan", "--sset", G, "--n", "4", "--i", "2", "--strict", "--k", "4"), 0, "kan"),
            ]
        for rp in rps:
            calls += [Call(("principal", "--bibundle", rp), 0, "principal"),
                      Call(("pairing", "--bibundle", rp), 0, "pairing"),
                      Call(("linking", "--category", "--bibundle", rp), 0, "arrows")]
        for G in rgs + small:
            calls.append(
                Call(("kan", "--sset", G, "--n", "3", "--i", "3", "--strict", "--k", "3"), 0, "kan"))
        for G in small:
            calls += [Call(("check", "--groupoid", G, *self.COUNIT), 0, "identity"),
                      Call(("kan", "--sset", G, "--n", "4", "--i", "1", "--strict", "--k", "4"), 0, "kan")]
        calls += [
            Call(("kan", "--sset", p("poset3.json"), "--n", "2", "--i", "0", "--strict"), 1, "kan"),
            Call(("kan", "--sset", p("poset3.json"), "--n", "2", "--i", "1", "--strict"), 0, "kan"),
            Call(("kan", "--sset", p("poset3_nerve.json"), "--n", "2", "--i", "0", "--strict"), 1, "kan"),
            Call(("kan", "--sset", p("poset3_nerve.json"), "--n", "3", "--i", "1", "--strict"), 0, "kan"),
            Call(("validate", p("cyclic3_bad_l.json")), 2, "error", known_fault=True),
            Call(("validate", p("pair2_bad_objects.json")), 2, "error", known_fault=True),
        ]
        return [Call((*c.argv, "--json", "--out", self.out), c.expect, c.key, c.known_fault)
                for c in calls]

    def operations(self, plan):
        self.calls, self.stdout = plan, []
        return [(lambda c=c: _cli(c.argv), lambda o, c=c: self._judge(c, o)) for c in plan]

    def end_round(self) -> list[str]:
        problems = []
        if self.previous is not None:
            for c, a, b in zip(self.calls, self.previous, self.stdout):
                if a != b and not c.known_fault:
                    problems.append(f"{' '.join(c.argv[:-3])}: output differs between rounds")
        self.previous = self.stdout
        return problems

    def _expected(self, call: Call) -> int:
        """Exit codes that follow from how an input was made, worked out
        from the file's raw tables, never from the program's answer."""
        if isinstance(call.expect, int):
            return call.expect
        path = call.argv[call.argv.index("--bibundle") + 1]
        key = f"{call.expect}:{path}"
        if key not in self._expect_cache:
            with open(path) as fh:  # not bio.load_json: the tracer would time this
                obj = json.load(fh)
            if call.expect == "biprincipal":
                t = checkers.tables_from_json(obj)
                ok = checkers.principality(t, "right").ok and checkers.principality(t, "left").ok
                code = 0 if ok else 1
            else:
                # A Morita equivalence preserves the number of connected
                # components, and G x G has more of them than G.
                c2 = checkers.components_of_json(obj["leftGroupoid"])
                c1 = checkers.components_of_json(obj["rightGroupoid"])
                code = 1 if c1 != c2 else -1  # -1: nothing follows; never met
            self._expect_cache[key] = code
        return self._expect_cache[key]

    def _judge(self, c: Call, o: Outcome) -> Verdict:
        label = " ".join(c.argv[:-3])
        code, text = (None, "") if o.error else o.value
        self.stdout.append(text)
        want = self._expected(c)
        if code != want:
            if c.known_fault:
                return Verdict([], 1)
            got = f"raised {o.error!r}" if o.error else f"exit {code}"
            return Verdict([f"{label}: {got}, expected exit {want}"], 0)
        try:
            manifest = json.loads(text)
        except ValueError:
            return Verdict([f"{label}: --json output does not parse"], 0)
        if c.key not in manifest.get("verdicts", {}):
            return Verdict([f"{label}: manifest lacks verdict {c.key!r}"], 0)
        return Verdict([], 0)


WORKLOADS = {w.name: w for w in (GroupCheck, Coherence, RandomBundles, CliFiles)}
