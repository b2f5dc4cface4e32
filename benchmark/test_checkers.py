"""Tests of the benchmark's own checkers.

    python3 -m pytest benchmark/test_checkers.py
"""
from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from bibucalc import bibundle_from_tables, cyclic_groupoid, identity_witness  # noqa: E402
from bibucalc.calculus import IsoWitness, identity_bibundle  # noqa: E402
from bibucalc.core import pair_groupoid, trivial_groupoid  # noqa: E402

import checkers  # noqa: E402


def test_witness_checker_accepts_identity_and_rejects_swapped_images():
    M = identity_bibundle(cyclic_groupoid(3))
    w = identity_witness(M)
    assert checkers.witness_problems(w) == []
    forward = dict(w.forward)
    forward["0"], forward["1"] = forward["1"], forward["0"]
    swapped = IsoWitness(M, M, forward, {v: k for k, v in forward.items()})
    assert checkers.witness_problems(swapped)


def test_brute_force_flags_a_non_free_bundle():
    # Z/2 acts trivially on a single point: transitive, not free.
    G, H = trivial_groupoid(1), cyclic_groupoid(2)
    M = bibundle_from_tables(G, H, ["p"], {"p": "0"}, {"p": "*"},
                             {("0", "p"): "p"}, {("p", "0"): "p", ("p", "1"): "p"})
    flags = checkers.principality(checkers.tables_of(M), "right")
    assert (flags.surjective, flags.free, flags.transitive) == (True, False, True)


def test_brute_force_flags_a_non_transitive_bundle():
    # Two points over one object, moved only by units: free, not transitive.
    G = H = trivial_groupoid(1)
    M = bibundle_from_tables(G, H, ["p", "q"], {"p": "0", "q": "0"}, {"p": "0", "q": "0"},
                             {("0", "p"): "p", ("0", "q"): "q"},
                             {("p", "0"): "p", ("q", "0"): "q"})
    flags = checkers.principality(checkers.tables_of(M), "right")
    assert (flags.surjective, flags.free, flags.transitive) == (True, True, False)
    assert not checkers.principality(checkers.tables_of(M), "left").transitive


def test_component_counter():
    for G, want in ((pair_groupoid(3), 1), (trivial_groupoid(3), 3)):
        assert checkers.component_count(G.objects, G.arrows, G.l, G.r) == want
