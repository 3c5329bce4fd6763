"""GKZ data assembly, kernel vectors, and the holomorphic solution."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st
from oracles import (
    EpsPoly,
    box_annihilation_check,
    dilate,
    gkz_kernel_by_echelon,
    gkz_solution_terms,
    hypergeometric_term_by_term,
    i_function_by_weights,
    kernel_factors,
    rising,
    smith_normal_form,
    smith_relations,
    theta_conjugate_by_fractions,
)

from conftest import DATA, REPO, calls, kernel_vectors

from fracmirror import cli
from fracmirror.cohom import deformed_solution, i_weights_from_kernel
from fracmirror.errors import FracmirrorError, _as_ints
from fracmirror.gkz import (
    GkzSystem,
    Slices,
    build_gkz,
    hypergeometric_series,
    kernel_scale,
    simplex_kernel_vector,
)
from fracmirror.nefpart import NefPartition
from fracmirror.picard_fuchs import theta_conjugate
from fracmirror.polytope import LatticePolytope
from fracmirror.series import RationalSeries
from test_mirror import _one_parameter_cases
from test_topology import GEN


def test_rising_factorial():
    assert rising(Fraction(1, 2), 4) == Fraction(105, 16)
    assert rising(3, 0) == 1
    assert rising(-2, 3) == 0  # the walk crosses zero


# ------------------------------------------------------------- assembly


def test_quartic_matrix_matches_display(quartic):
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
    assert g.column_labels == ((0, 0), (0, 1), (0, 2), (0, 3), (0, 4))


def test_quartic_alpha_and_linear_identities(quartic):
    g = build_gkz(quartic)
    assert g.alpha == (Fraction(-1, 2), 0, 0, 0, 0)
    # A·alpha = beta and A·ell = 0, exactly
    for i, row in enumerate(g.A):
        assert sum(Fraction(a) * x for a, x in zip(row, g.alpha)) == g.beta[i]
        for ell in g.kernel:
            assert sum(a * x for a, x in zip(row, ell)) == 0


def test_distinguished_columns_are_kronecker(eight_hyperplanes):
    g = build_gkz(eight_hyperplanes)
    n, r = g.n, g.r
    assert (n, r) == (3, 4)
    assert len(g.A) == n + r and len(g.A[0]) == 8
    for e, (i, j) in enumerate(g.column_labels):
        col = tuple(g.A[row][e] for row in range(n + r))
        if j == 0:
            assert col[:n] == (0,) * n
        assert col[n:] == tuple(1 if t == i else 0 for t in range(r))


def test_eight_hyperplane_kernel(eight_hyperplanes):
    g = build_gkz(eight_hyperplanes)
    assert g.kernel == ((-1, 1, -1, 1, -1, 1, -1, 1),)


def test_k3_kernel(k3):
    g = build_gkz(k3)
    assert g.kernel == ((-3, 1, 1, 1),)


def test_gkz_system_works_out_the_exponents_and_sizes(quartic):
    # beta, alpha, n and r follow from A, the labels and EXPONENT: on the
    # quartic and on the three-part hexagon, against its golden output too
    golden = REPO / "tests" / "golden"
    hexagon = NefPartition.from_dict(json.loads((golden / "hexagon.json").read_text()))
    for data in (quartic, hexagon):
        g = build_gkz(data)
        got = GkzSystem(g.A, g.kernel, g.column_labels)
        assert (got.beta, got.alpha, got.n, got.r) == (g.beta, g.alpha, g.n, g.r)
    want = json.loads((golden / "hexagon.gkz.json.out").read_text())
    assert {key: got.to_json()[key] for key in ("beta", "alpha", "n", "r")} == {
        key: want[key] for key in ("beta", "alpha", "n", "r")
    }


def test_three_part_hexagon_is_multiparameter():
    hexd = LatticePolytope([(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)])
    data = NefPartition(hexd, [[0, 1], [2, 4], [3, 5]])
    g = build_gkz(data)
    assert len(g.A) == 5 and len(g.A[0]) == 9
    assert g.beta == (0, 0, Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2))
    assert len(g.kernel) == 4
    assert simplex_kernel_vector(data) is None


def test_hexagon_kernel_is_the_smith_lattice():
    # the echelon kernel is another basis of the oracle's saturated kernel:
    # both annihilate A and are saturated, and stacked they still have rank
    # 4, so each lattice contains the other; each vector is signed so its
    # first nonzero entry is negative
    hexd = LatticePolytope([(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)])
    g = build_gkz(NefPartition(hexd, [[0, 1], [2, 4], [3, 5]]))
    oracle = smith_relations(g.A).kernel
    assert len(g.kernel) == len(oracle) == 4
    for v in g.kernel:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in g.A)
        assert next(x for x in v if x) < 0
    for K in (g.kernel, oracle, g.kernel + oracle):
        D, _, _ = smith_normal_form(K)
        assert [D[i][i] for i in range(len(K))] == [1] * 4 + [0] * (len(K) - 4)


def test_matrix_invariant_under_part_reordering(quartic):
    # permuting vertex indices inside a part leaves everything invariant
    data2 = NefPartition(quartic.delta, [[3, 1, 0, 2]])
    g = build_gkz(quartic)
    g2 = build_gkz(data2)
    assert g2.A == g.A and g2.kernel == g.kernel


def test_principal_vector_sign_convention(quartic):
    g = build_gkz(quartic)
    [ell] = g.kernel
    dist = [ell[e] for e, lab in enumerate(g.column_labels) if lab[1] == 0]
    assert all(x <= 0 for x in dist)


def test_negative_kernel_entries_are_the_half_exponent_columns(quartic, eight_hyperplanes, k3):
    # the exponent is a constant: every negative entry of the principal
    # kernel vector sits on a distinguished column, exponent -1/2, and every
    # other entry is positive on a ray column, exponent 0.  The n + 1 rays
    # span R^n with the origin in their interior, so their one relation has
    # all coefficients positive; so the factors and the operator read off
    # ell alone are the ones the exponents give
    systems = [g for _, _, g, _ in _one_parameter_cases(quartic, eight_hyperplanes, k3)]
    for shape, (n, _) in GEN.SHAPES.items():
        U, Uinv = GEN.random_frame(n, 3, random.Random(shape))
        assert U != GEN.identity(n)
        systems.append(build_gkz(NefPartition.from_dict(GEN.framed_input(shape, U, Uinv))))
    assert len(systems) == 53 + len(GEN.SHAPES)
    for g in systems:
        [ell] = g.kernel
        for le, a, (_, j) in zip(ell, g.alpha, g.column_labels):
            assert (le < 0, a) == ((True, Fraction(-1, 2)) if j == 0 else (False, 0))
            assert le != 0
        factors = kernel_factors(ell, g.alpha)
        assert factors == kernel_factors(ell)
        oracle = hypergeometric_term_by_term(*factors, 2, 3)
        assert tuple(hypergeometric_series(ell, 2, 3)) == oracle
        assert kernel_scale(ell) == 4 ** sum(-le for le in ell if le < 0)
        op, oracle = theta_conjugate(ell), theta_conjugate_by_fractions(ell, g.alpha)
        assert op.to_json() == oracle.to_json()


def test_series_jobs_read_the_kernel_vector_without_the_gkz_matrix(monkeypatch):
    # a series job reads ell off the simplex relation, in build_gkz's column
    # order, and labels the bseries classes off the ray parts: the same
    # vector and the same classes as read off build_gkz, on every perfbench
    # shape in two seeded sheared frames, on the bundled inputs, and on the
    # triangles of P(1,1,2) (two parts) and P(1,2,3), whose c_g differ from
    # ray to ray, so the order of a part's rays shows
    inputs = [DATA / f"{name}.json" for name in ("p2_k3", "p3_quartic", "p3_eight_hyperplanes")]
    docs = [json.loads(path.read_text(encoding="utf-8")) for path in inputs]
    docs += [
        {"delta": {"dim": 2, "vertices": [[-1, -1], [-1, 1], [3, -1]]}, "parts": [[0, 2], [1]]},
        {"delta": {"dim": 2, "vertices": [[-1, -1], [-1, 1], [2, -1]]}, "parts": [[0, 1, 2]]},
    ]
    for seed in (1, 2):
        for shape, (n, _) in GEN.SHAPES.items():
            frame = GEN.random_frame(n, 4, random.Random(f"{seed}:{shape}"))
            docs.append(GEN.framed_input(shape, *frame))
    built = calls(monkeypatch, cli, "build_gkz")
    for doc in docs:
        data = NefPartition.from_dict(doc)
        ctx = cli._Context(cli.JobConfig("bseries", "", N=2, fmt="json"), data)
        g = build_gkz(data)
        [ell] = g.kernel
        assert ctx.ell == simplex_kernel_vector(data) == ell
        assert (ell,) == gkz_kernel_by_echelon(g.A)
        classes = {f"D_{i}_{j}": str(ell[e]) for e, (i, j) in enumerate(g.column_labels)}
        assert cli._cmd_bseries(ctx)[0]["ring"]["classes"] == classes
        assert built == []
    assert len(docs) == 5 + 2 * len(GEN.SHAPES)
    # off a simplex the kernel has rank p - n > 1, so ell is refused without
    # building the GKZ system
    hexagon = json.loads((REPO / "tests" / "golden" / "hexagon.json").read_text(encoding="utf-8"))
    hexagon = NefPartition.from_dict(hexagon)
    assert simplex_kernel_vector(hexagon) is None
    ctx = cli._Context(cli.JobConfig("bseries", "", N=2, fmt="json"), hexagon)
    with pytest.raises(FracmirrorError, match="multiparameter moduli unsupported"):
        ctx.ell
    assert built == []


# ------------------------------------------------------------- solutions


def test_holo_solution_quartic_leading_terms(quartic):
    g = build_gkz(quartic)
    [ell] = g.kernel
    s = deformed_solution(ell, 4, 1)[0]
    assert s.coeff(0) == 1
    assert s.coeff(1) == Fraction(105, 16)
    assert s.coeff(2) == Fraction(2027025, 4096)
    # closed form: rising(1/2, 4n) / n!^4
    for n in range(5):
        assert s.coeff(n) == rising(Fraction(1, 2), 4 * n) / Fraction(
            math.factorial(n) ** 4
        )


def test_holo_solution_eight_hyperplanes(eight_hyperplanes):
    g = build_gkz(eight_hyperplanes)
    [ell] = g.kernel
    s = deformed_solution(ell, 3, 1)[0]
    assert s.coeff(1) == Fraction(1, 16)
    for n in range(4):
        assert s.coeff(n) == (rising(Fraction(1, 2), n) / rising(1, n)) ** 4


@pytest.mark.parametrize("m", [1, 2, 4])
def test_hypergeometric_series_matches_rebuilt_products(m):
    # Reference: every c_n rebuilt from all of its linear factors, a zero
    # entry adding none
    ell = (2, -3, 1, 0, -1, 1)
    num = [(Fraction(1, 2), 3), (Fraction(1, 2), 1)]
    den = [(Fraction(1), 2), (Fraction(1), 1), (Fraction(1), 1)]

    def product(factors, n):
        out = EpsPoly.constant(m, 1)
        for a, k in factors:
            for j in range(k * n):
                out = out * EpsPoly(m, (a + j, k))
        return out

    s = hypergeometric_series(ell, m, 7)
    assert len(s) == m and all(x.N == 7 for x in s)
    for n in range(8):
        assert EpsPoly(m, [x.coeff(n) for x in s]) == product(num, n) / product(den, n)


@pytest.mark.parametrize("N", [0, 1, 6])
def test_slices_work_out_the_order(N):
    # N is the last order handed over
    S = hypergeometric_series((-4, 1, 1, 1, 1), 3, N)
    orders = list(zip(zip(*S.U), S.E))
    got = Slices(orders)
    assert got.N == len(orders) - 1 == N
    assert list(got) == list(S)


def test_a_slice_of_the_slices_is_a_tuple():
    # a Python slice selects eps-slices as a tuple's does; an int still counts from the end
    S = hypergeometric_series((-4, 1, 1, 1, 1), 3, 4)
    assert S[0:2] == (S[0], S[1])
    assert S[-1] == S[2]
    assert S[::-1] == (S[2], S[1], S[0]) and S[5:] == ()


def _same_reduced_coefficients(s, oracle):
    # the eps-slices, handed over as integers, equal the RationalSeries built
    # from the oracle's Fractions, in canonical form
    assert (len(s), s[0].N) == (len(oracle), oracle[0].N)
    # a slice is built each time it is read: an index counts from the end as
    # a tuple's does, one past either end raises, and two reads agree
    assert s[-1] == oracle[-1] and s[-len(s)] == oracle[0]
    for k in (len(s), -len(s) - 1):
        with pytest.raises(IndexError):
            s[k]
    first, again = s[0], s[0]
    assert (first.N, first.A, first.D) == (again.N, again.A, again.D)
    assert [x.c for x in s] == [x.c for x in oracle]
    assert tuple(s) == oracle and hash(tuple(s)) == hash(oracle)
    assert all(x.D > 0 and math.gcd(x.D, *x.A) == 1 for x in s)
    assert all(
        type(c) is Fraction and c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
        for x in s
        for c in x.c
    )


def _with_exponents(*ell):
    return ell, tuple(Fraction(-1, 2) if le < 0 else 0 for le in ell)


@settings(max_examples=80, deadline=None)
@given(kernel_vectors(), st.integers(1, 5), st.integers(0, 20))
@example(_with_exponents(-4, 1, 2, 1), 5, 20)
@example(_with_exponents(-5, 1, 1, 1, 1, 1), 6, 16)
@example(_with_exponents(-2, 1, 1, -2, 1, 1, -1, 1), 6, 16)
@example(_with_exponents(-6, 2, 2, 2), 4, 12)
@example(_with_exponents(-5, 1, 1, 1, 1, 1), 2, 20)
@example(_with_exponents(-6, 2, 2, 2), 2, 16)
@example(_with_exponents(-4, 1, 2, 1), 2, 20)
def test_hypergeometric_series_matches_epspoly_loop(data, m, N):
    # balanced kernel vectors with zeros mixed in, at scale 1 and at the
    # I-function's scale s, which clears the numerator factors' denominators.
    # Pinned: P(1,1,2)'s, the I-function's m = d + 1 = 6 on two P4 shapes,
    # whose weight 1 repeats five times, and a weight 2 repeated three times;
    # then the two-register form of m = 2 on the quintic's, on the weight 2
    # repeated three times (r l = 6) and on P(1,1,2)'s
    ell, alpha = data
    factors = kernel_factors(ell, alpha)
    for scale in (1, kernel_scale(ell)):
        oracle = hypergeometric_term_by_term(*factors, m, N, scale)
        _same_reduced_coefficients(hypergeometric_series(ell, m, N, scale), oracle)


@pytest.mark.parametrize("N", [0, 1, 7, 20])
@seed(57)
@settings(max_examples=30, deadline=None)
@given(kernel_vectors())
def test_the_two_register_form_is_the_first_two_slices_of_m_3(N, data):
    # m = 2 runs on two integers; the list recurrence at m = 3 is its oracle,
    # as the first two eps-slices do not depend on m
    ell, _ = data
    for scale in (1, kernel_scale(ell)):
        assert hypergeometric_series(ell, 2, N, scale)[:] == hypergeometric_series(ell, 3, N, scale)[:2]


def test_hypergeometric_series_matches_epspoly_loop_at_order_64(quartic, eight_hyperplanes):
    # the deformation and Frobenius kernels of both threefolds against the
    # EpsPoly loop, and their I-functions against the loop on the weights,
    # every weight its own factor; the coefficients run to hundreds of bits
    for data in (quartic, eight_hyperplanes):
        g = build_gkz(data)
        [ell] = g.kernel
        factors, weights = kernel_factors(ell, g.alpha), i_weights_from_kernel(ell)
        for m in (2, 4):
            s = hypergeometric_series(ell, m, 64)
            _same_reduced_coefficients(s, hypergeometric_term_by_term(*factors, m, 64))
            I = hypergeometric_series(ell, m, 64, kernel_scale(ell))
            _same_reduced_coefficients(I, i_function_by_weights(*weights, m, 64))
    assert max(x.coeff(64).numerator.bit_length() for x in s) > 600


def test_hypergeometric_series_scale_is_a_dilation():
    # sum_n scale^n c_n z^n is the unscaled series at scale z, slice by
    # slice; the scale is folded into each order's step, so this checks the
    # gcd with 2^(sum k) against a rescale done afterwards, on kernel vectors
    # that need not balance
    rng = random.Random(23)
    checked = 0
    for _ in range(60):
        ell, m = [rng.randint(-4, 4) for _ in range(rng.randint(0, 5))], rng.randint(1, 6)
        for N in (0, 1, 2, 9, 16):
            plain = hypergeometric_series(ell, m, N)
            for s in (1, 2, 6, 4 ** rng.randint(1, 4)):
                scaled = hypergeometric_series(ell, m, N, scale=s)
                assert tuple(scaled) == tuple(dilate(S, s) for S in plain), (ell, m, N, s)
                checked += 1
    assert checked == 1200


@pytest.mark.parametrize("factor", [(True, False), (2.0, -2.0), (1.5, -1.5)])
def test_hypergeometric_series_refuses_non_integer_weights(factor):
    # a kernel entry is the weight of its factor, a denominator factor if
    # positive and a numerator factor if negative: a bool is not read as an
    # int, nor a float as the int it equals, on either side
    pos, neg = factor
    for ell in ((-2, pos, 1), (neg, 1, 1)):
        with pytest.raises(TypeError):
            hypergeometric_series(ell, 2, 3)


def test_the_integer_rule_reads_a_one_shot_iterator_once():
    # errors._as_ints reads its values once, so the bool scan does not use
    # up an iterator: each caller reads one as the tuple it yields
    ell = (-4, 1, 1, 1, 1)
    assert _as_ints(iter([1, 2]), "x") == (1, 2)
    with pytest.raises(TypeError, match="x True is not an integer"):
        _as_ints(iter([1, True]), "x")
    assert tuple(hypergeometric_series(iter(ell), 1, 3)) == tuple(hypergeometric_series(ell, 1, 3))
    assert hypergeometric_series(iter(ell), 1, 3)[0].coeff(1) == Fraction(105, 16)  # (1/2)_4, not 1
    assert kernel_scale(iter(ell)) == kernel_scale(ell) == 256
    triangle = [(1, 0), (0, 1), (-1, -1)]
    assert LatticePolytope([iter(v) for v in triangle]) == LatticePolytope(triangle)


@pytest.mark.parametrize(
    "ell",
    [(-4, 1, 2, 1), (1, -3, 1, 1), (-2, 1, 1, -2, 1, 1), (3, -5, 2)],
    ids=["p112", "k3", "p3_22", "unequal"],
)
def test_holomorphic_slice_is_the_rising_factorial_ratio(ell):
    # c_n = prod_(l_e<0) (1/2)_(k_e n) / prod_(l_e>0) (l_e n)!, and at the
    # scale 4^(sum k) each (1/2)_(k n) 4^(k n) is (2 k n)! / (k n)!
    s = kernel_scale(ell)
    for scale in (1, s):
        (c,) = hypergeometric_series(ell, 1, 9, scale)
        for n in range(10):
            num = math.prod(rising(Fraction(1, 2), -le * n) for le in ell if le < 0)
            den = math.prod(math.factorial(le * n) for le in ell if le > 0)
            assert c.coeff(n) == num / den * scale**n
    assert s**9 * num == math.prod(
        Fraction(math.factorial(-2 * le * 9), math.factorial(-le * 9)) for le in ell if le < 0
    )


def test_box_annihilation_quartic(quartic):
    g = build_gkz(quartic)
    [ell] = g.kernel
    assert box_annihilation_check(ell, g.alpha, 20)


def test_box_annihilation_at_order_40(quartic, eight_hyperplanes):
    # the two-term recurrence checked on the integer kernel's holomorphic
    # solution of both threefolds, deep enough for wide coefficients
    for data in (quartic, eight_hyperplanes):
        g = build_gkz(data)
        [ell] = g.kernel
        assert box_annihilation_check(ell, g.alpha, 40)


def test_box_annihilation_negative_control(quartic):
    g = build_gkz(quartic)
    [ell] = g.kernel
    s = deformed_solution(ell, 6, 1)[0]
    corrupted = RationalSeries(
        [s.coeff(n) + (1 if n == 3 else 0) for n in range(7)], 6
    )
    assert not box_annihilation_check(ell, g.alpha, 6, series=corrupted)


def test_box_annihilation_empty_kernel_forces_constant():
    # with no kernel entries the recurrence degenerates to c_n = c_(n-1)
    assert box_annihilation_check((), (), 2, series=RationalSeries([1, 1, 1], 2))
    assert not box_annihilation_check((), (), 2, series=RationalSeries([1, 0, 0], 2))


# ---------------------------------------------------- multiparameter terms


def test_solution_term_enumerator_rank_one(quartic):
    g = build_gkz(quartic)
    terms = dict(gkz_solution_terms(g, cutoff=4))
    ell = (-4, 1, 1, 1, 1)
    neg = tuple(-x for x in ell)
    assert set(terms) == {(0,) * 5, ell, neg}
    assert terms[(0,) * 5] == 1
    # Gamma(1/2)/Gamma(1/2 - 4) = rising(1/2 - 4, 4)
    assert terms[ell] == rising(Fraction(1, 2) - 4, 4) == Fraction(105, 16)
    # the opposite vector hits a Gamma pole on a ray column
    assert terms[neg] == 0


def test_solution_terms_multiparameter_cutoff():
    hexd = LatticePolytope([(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1), (-1, 1)])
    data = NefPartition(hexd, [[0, 1], [2, 4], [3, 5]])
    g = build_gkz(data)
    terms = gkz_solution_terms(g, cutoff=1)
    vecs = [v for v, _ in terms]
    assert (0,) * 9 in vecs
    assert all(max(abs(x) for x in v) <= 1 for v in vecs)
    assert len(set(vecs)) == len(vecs)


def test_gkz_json(quartic):
    j = build_gkz(quartic).to_json()
    assert j["beta"] == ["0", "0", "0", "-1/2"]
    assert j["kernel"] == [[-4, 1, 1, 1, 1]]
    assert j["n"] == 3 and j["r"] == 1
