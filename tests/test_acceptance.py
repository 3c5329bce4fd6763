"""Acceptance gate: the package's headline results, one test per criterion.

Every comparison is exact integer/Fraction equality; the two series criteria
also carry wall-clock budgets.  Each criterion reports a single line

    criterion NN: PASS/FAIL - <what was checked>

on the real stdout so the report is visible through pytest's capture.
"""

import functools
import random
import sys
import time
from fractions import Fraction

from fracmirror.cohom import deformed_solution
from fracmirror.gkz import build_gkz
from fracmirror.mirror import (
    a_model_correlation,
    frobenius_pair,
    mirror_map,
)
from fracmirror.nefpart import dual_nef_partition
from fracmirror.picard_fuchs import theta_conjugate
from fracmirror.polytope import LatticePolytope
from fracmirror.topology import euler_double_cover
from oracles import (
    EpsPoly,
    SpanHull,
    apply,
    dilate,
    euler_snc_union_oracle,
    frobenius_residue,
    lattice_transform,
    pairing_matrix,
    poly_mul,
    smith_relations,
    volume_by_dilation_counts,
)
from test_polytope import random_unimodular
from test_series import check_reversion_round_trips
from test_topology import quartic_plus_planes_strata


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(
                    f"criterion {num:2d}: FAIL - {desc}",
                    file=sys.__stdout__,
                    flush=True,
                )
                raise
            print(
                f"criterion {num:2d}: PASS - {desc}",
                file=sys.__stdout__,
                flush=True,
            )

        return wrapper

    return deco


def _chain(data, N):
    g = build_gkz(data)
    [ell] = g.kernel
    return g, ell, frobenius_pair(ell, N)


@criterion(1, "dual nef-partitions reproduce both reference nabla polytopes")
def test_criterion_01_duality(k3, quartic):
    _, nabla2, _ = dual_nef_partition(k3)
    assert set(nabla2.vertices) == {(1, 0), (0, 1), (-1, -1)}
    _, nabla3, _ = dual_nef_partition(quartic)
    assert set(nabla3.vertices) == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)}


@criterion(2, "normalized volumes: vol(Delta)=64, K3 mirror Cayley vol=3, A-polytope vol=4")
def test_criterion_02_volumes(quartic, k3):
    assert quartic.delta.normalized_volume() == 64
    assert euler_double_cover(k3).vol_Lambda_dual == 3
    g = build_gkz(quartic)
    columns = list(zip(*g.A))
    # the columns lie on the hyperplane of the first row, all 1: their hull is
    # taken in the coordinates of its affine span
    A_hull = SpanHull(columns)
    assert A_hull.affine_dim == 3
    assert A_hull.span.normalized_volume() == 4


@criterion(3, "Euler/Hodge test: K3 chi 12=12; threefold chi -60/60, h11/h21 1/31 vs 31/1; SNC oracle -60")
def test_criterion_03_topology(k3, quartic):
    t2 = euler_double_cover(k3)
    assert t2.chi_Y == 12 and t2.chi_Y_dual == 12
    t3 = euler_double_cover(quartic)
    assert (t3.chi_Y, t3.chi_Y_dual) == (-60, 60)
    assert (t3.hodge.table[(1, 1)], t3.hodge.table[(2, 1)]) == (1, 31)
    assert (t3.hodge_dual.table[(1, 1)], t3.hodge_dual.table[(2, 1)]) == (31, 1)
    _, chi_snc = euler_snc_union_oracle(4, quartic_plus_planes_strata())
    assert chi_snc == -60


@criterion(4, "GKZ matrix/beta match the displayed form; kernel = Z<(-4,1,1,1,1)>")
def test_criterion_04_gkz(quartic):
    g = build_gkz(quartic)
    rows, beta = g.display_rows()
    assert rows == (
        (1, 1, 1, 1, 1),
        (0, 1, 0, 0, -1),
        (0, 0, 1, 0, -1),
        (0, 0, 0, 1, -1),
    )
    assert beta == (Fraction(-1, 2), 0, 0, 0)
    assert g.kernel == ((-4, 1, 1, 1, 1),)


@criterion(5, "Picard-Fuchs operators equal theta^4-256z(theta+1/8)...(theta+7/8) and theta^4-z(theta+1/2)^4")
def test_criterion_05_picard_fuchs(quartic, eight_hyperplanes):
    for data, offsets, s in (
        (quartic, [Fraction(2 * m + 1, 8) for m in range(4)], 256),
        (eight_hyperplanes, [Fraction(1, 2)] * 4, 1),
    ):
        [ell] = build_gkz(data).kernel
        op = theta_conjugate(ell)
        G = [Fraction(1)]
        for off in offsets:
            G = poly_mul(G, [off, Fraction(1)])
        expected = tuple(
            ((1 if k == 4 else 0), -s * G[k]) for k in range(5)
        )
        assert op.z_polys == expected


@criterion(6, "mirror map q(z)/z(q) coefficients exact through order 3; N=10 under 5 s")
def test_criterion_06_mirror_map(quartic):
    t0 = time.perf_counter()
    _, _, pair = _chain(quartic, 10)
    q_of_x, x_of_q = mirror_map(pair)
    elapsed = time.perf_counter() - t0
    # the package keeps both in x = z/s: q(z) = q(x = z/s), z(q) = s x(q)
    q_of_z, z_of_q = dilate(q_of_x, 1, pair.scale), x_of_q * pair.scale
    # the two expansions are mutually inverse, so the q^3 coefficient below
    # is the unique value compatible with the z(q) coefficients (Lagrange
    # inversion); asserting both pins the consistency
    assert [q_of_z.coeff(n) for n in (1, 2, 3)] == [
        Fraction(1, 256),
        Fraction(247, 1024),
        Fraction(13386541, 524288),
    ]
    assert [z_of_q.coeff(n) for n in (1, 2, 3)] == [256, -4046848, 18282602496]
    assert elapsed < 5.0


@criterion(7, "A-model series match both reference expansions; N=6 under 10 s")
def test_criterion_07_a_model(quartic, eight_hyperplanes):
    t0 = time.perf_counter()
    C = 2  # the classical normalization
    g, ell, pair = _chain(quartic, 6)
    op = theta_conjugate(ell)
    K = a_model_correlation(op, pair, C).K_q
    assert [K.coeff(n) for n in range(4)] == [2, 29504, 1030708800, 38440454795264]
    g, ell, pair = _chain(eight_hyperplanes, 6)
    op = theta_conjugate(ell)
    K = a_model_correlation(op, pair, C).K_q
    assert [K.coeff(n) for n in range(6)] == [
        2,
        64,
        9792,
        1404928,
        205641280,
        30593496064,
    ]
    assert time.perf_counter() - t0 < 10.0


@criterion(8, "Frobenius residue collapses to eps^d at N=12 for d=4, d=4, d=3")
def test_criterion_08_frobenius(quartic, eight_hyperplanes, k3):
    for data, d in ((quartic, 4), (eight_hyperplanes, 4), (k3, 3)):
        [ell] = build_gkz(data).kernel
        op = theta_conjugate(ell)
        W = deformed_solution(ell, 12, d + 1)
        res = frobenius_residue(op, W, 12)
        assert all(res.coeff(k) == (1 if k == d else 0) for k in range(d + 1))


@criterion(9, "transition lattice data: index 8, relation (1,1,1,4,1), rho->nu map, polar dual identity")
def test_criterion_09_lattice(transition):
    rhos = [tuple(v) for v in transition["rhos"]]
    M = [[rhos[j][i] for j in range(5)] for i in range(4)]
    rel = smith_relations(M)
    assert rel.index == 8
    assert len(rel.kernel) == 1
    k = rel.kernel[0]
    if k[3] < 0:
        k = tuple(-x for x in k)
    assert tuple(k) == (1, 1, 1, 4, 1)
    U = transition["U"]
    nus = [tuple(v) for v in transition["nus"]]
    assert list(lattice_transform(U, rhos)) == nus
    nabla2 = LatticePolytope(transition["nabla2"]["vertices"])
    delta2 = LatticePolytope(transition["delta2"]["vertices"])
    assert nabla2.is_reflexive()
    assert nabla2.polar_dual() == delta2


@criterion(10, "property suites: 20 dual involutions, 50 simplex volumes, reversion N=16, annihilation N=20")
def test_criterion_10_properties(quartic):
    rng = random.Random(404)
    seeds = [
        [(3, -1, -1), (-1, 3, -1), (-1, -1, 3), (-1, -1, -1)],
        [(2, -1), (-1, 2), (-1, -1)],
        [(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)],
        [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
         (1, 1, -1), (1, -1, 1), (-1, 1, 1)],
    ]

    for _ in range(20):
        base = rng.choice(seeds)
        P = lattice_transform(random_unimodular(rng, len(base[0])), LatticePolytope(base))
        assert P.is_reflexive() and P.polar_dual().polar_dual() == P

    produced = 0
    sizes = {2: 4, 3: 4, 4: 2, 5: 1}
    while produced < 50:
        d = rng.choice([2, 2, 2, 3, 3, 4, 5])
        span = sizes[d]
        verts = [
            tuple(rng.randint(-span, span) for _ in range(d)) for _ in range(d + 1)
        ]
        P = LatticePolytope(verts)
        if P.affine_dim != d or len(P.vertices) != d + 1:
            continue
        produced += 1
        assert P.normalized_volume() == volume_by_dilation_counts(P)

    check_reversion_round_trips(rng, 3)

    [ell] = build_gkz(quartic).kernel
    op = theta_conjugate(ell)
    assert all(not any(p.A) for p in apply(op, deformed_solution(ell, 20, 1)[0]))


@criterion(
    11,
    "exclusions noted (fan resolutions, period integrals, localization); "
    "symplectic pairing check passes",
)
def test_criterion_11_exclusions_and_pairing():
    # beyond desk scale, hence excluded from this gate: resolving the moduli
    # compactification by Groebner-fan subdivisions, numerical evaluation of
    # the actual period integrals, and orbifold Gromov-Witten invariants via
    # localization.  The covered stand-ins are the correlation series of
    # criterion 7 and the symplectic-basis pairing below.
    half = Fraction(1, 2)
    basis = [
        EpsPoly.constant(4, 1),
        EpsPoly.eps(4, 1),
        EpsPoly.eps(4, 2) * half,
        EpsPoly.eps(4, 3) * half,
    ]
    gram = pairing_matrix(4, 2, basis)
    assert gram == tuple(
        tuple(1 if i + j == 3 else 0 for j in range(4)) for i in range(4)
    )
