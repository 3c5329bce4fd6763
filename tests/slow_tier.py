"""The slow tier: Tier-1's independent checks on whole corpora and large shapes.

Usage (from the repository root)::

    PYTHONPATH=src python tests/slow_tier.py

Tier-1 runs each check below on a sample sized to its time budget.  This
script runs the same check functions of ``tests/test_topology.py`` at full
size, prints each check's time and what it covered, and exits 1 when a
check fails:

- the nabla* count of the topology stage (the nef-partition identity, a
  knapsack where the rays span Z^n) against a scan of nabla*, on every
  accepted partition of the corpus simplices and of their polars, and on
  every P^n shape up to n = 9, sheared up to n = 6;
- chi(Y) against Hirzebruch's closed form by strata on every P^n shape up
  to n = 16 with at most three parts or n + r <= 12, each in a frame of two
  shears (the pulling triangulation of Lambda_dual grows fast in r: P^10
  with 11 parts takes a minute);
- the mirror checks of n <= 3 (chi(Y) = (-1)^n chi(Y_dual), the involution
  and the swap) on every split into at most two parts of the rays of the
  polars of the reflexive polygons and all 265 seeded 3-polytopes.

It takes about a minute.  The name keeps pytest from collecting it.
"""

import random
import sys
import time
import traceback
from collections import Counter

from conftest import reflexive_3polytopes, reflexive_polygons, set_partitions
from test_topology import (
    _mirror_checks,
    _splits,
    check_chi_by_strata,
    check_pn_nabla_dual_counts,
    checked_nabla_dual_count,
    corpus_simplices,
    pn_shapes,
)

from fracmirror.nefpart import NefPartition, validate_nef_partition


def nabla_dual_counts_on_the_corpus_simplices():
    deltas = {}
    for P in corpus_simplices():
        for delta in (P, P.polar_dual()):
            deltas.setdefault(delta.vertices, delta)
    paths = Counter(
        checked_nabla_dual_count(NefPartition(delta, parts))[1]
        for delta in deltas.values()
        for parts in set_partitions(tuple(range(len(delta.facets))))
        if not validate_nef_partition(delta, parts)
    )
    return f"{len(deltas)} simplices, paths {dict(paths)}"


def nabla_dual_counts_on_the_pn_shapes():
    shapes = pn_shapes(9)
    check_pn_nabla_dual_counts(shapes, random.Random(32), 6)
    return f"{len(shapes)} shapes, n <= 9"


def chi_by_strata_up_to_n_16():
    shapes = {
        name: (n, sizes)
        for name, (n, sizes) in pn_shapes(16).items()
        if len(sizes) <= 3 or n + len(sizes) <= 12
    }
    check_chi_by_strata(shapes, random.Random(32))
    return f"{len(shapes)} shapes, n <= 16"


def mirror_checks_up_to_n_3():
    polytopes = [*reflexive_polygons(), *reflexive_3polytopes()]
    accepted = sum(_mirror_checks(P, parts) for P in polytopes for parts in _splits(len(P.vertices)))
    return f"{len(polytopes)} polytopes, {accepted} accepted splits"


CHECKS = (
    nabla_dual_counts_on_the_corpus_simplices,
    nabla_dual_counts_on_the_pn_shapes,
    chi_by_strata_up_to_n_16,
    mirror_checks_up_to_n_3,
)


def main():
    failed = 0
    for check in CHECKS:
        start = time.perf_counter()
        try:
            covered = check()
        except Exception:
            failed += 1
            covered = "FAILED\n" + traceback.format_exc()
        print(f"{check.__name__}: {time.perf_counter() - start:.1f} s, {covered}", flush=True)
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
