#!/usr/bin/env python3
"""Build one of the finite group models and run every structural check.

Usage:
    python3 scripts/group_demo.py --n 4 --q 2
    python3 scripts/group_demo.py --n 6 --q 2 --coherence

The (n, q) model is the action groupoid of Z/n on the multiples of
gcd(q, n), with conjugation-twisted multiplication; q = n gives the plain
cyclic group on a discrete base.
"""

import argparse
import sys
import time

from bibucalc import check_coherence, check_group, check_monoid, kronecker_finite


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4, help="order of the ambient cyclic group")
    ap.add_argument("--q", type=int, default=2, help="subgroup parameter (q = n for a plain group)")
    ap.add_argument("--coherence", action="store_true",
                    help="also search for coherent associator/unitor witnesses "
                         "(under a second at n = 6, q = 2; seconds at n = 8, q = 2)")
    args = ap.parse_args()

    t0 = time.perf_counter()
    data = kronecker_finite(args.n, args.q)
    base = data.base
    print(f"base groupoid: {len(base.objects)} objects, {len(base.arrows)} arrows")
    print(f"multiplication carrier: {len(data.mu.carrier)} points")

    monoid = check_monoid(data)
    print(f"monoid laws: associative={monoid.associative.ok} "
          f"left_unital={monoid.left_unital.ok} right_unital={monoid.right_unital.ok}")

    rep = check_group(data)
    print(f"preinverse carrier: {len(rep.preinverse_bundle.carrier)} points")
    print(f"weakly invertible: {rep.invertible.ok}")
    if rep.antipode is not None:
        print(f"antipode identities: left={rep.antipode.left.ok} right={rep.antipode.right.ok}")
        print(f"preinverse is the bundlized inversion: {rep.antipode.matches_preinverse}")
    print(f"group verdict: {rep.ok}  ({time.perf_counter() - t0:.1f}s)")

    if args.coherence:
        t1 = time.perf_counter()
        coh = check_coherence(data)
        print(f"coherence: associator={coh.associator_coherent} units={coh.units_coherent} "
              f"attempts={coh.attempts}  ({time.perf_counter() - t1:.1f}s)")
        if not coh.ok:
            print(f"note: {coh.note}")
            return 1

    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
