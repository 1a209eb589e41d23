"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the suite shares one module sweep across the divisibility and
integrity criteria.
"""

import time

import pytest

from supvar.algebra import gl_superalgebra
from supvar.atypicality import atypicality, atypicality_oracle, defect
from supvar.clifford import classify_block, divisibility_check, odd_form_data
from supvar.cohomology import (
    build_complex,
    cohomology_dims,
    ext_dims,
    kac_ext_dims,
    vanishing_bound,
)
from supvar.linalg import IncrementalSpan, RationalMatrix
from supvar.modules import kac_module, simple_module, trivial_module, verify_rep
from supvar.roots import parse_weight
from supvar.support import compare_support, empirical_support
from sweep import ALGEBRAS, dominant_weights


@pytest.fixture(scope="module")
def module_sweep(sweep_modules):
    """The acceptance sweep with the empirical support of every module."""
    sweep, build_time = sweep_modules
    start = time.time()
    supports = [empirical_support(M) for (_, _, _, M, _) in sweep]
    return sweep, supports, build_time + time.time() - start


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_atypicality_oracle_equivalence():
    start = time.time()
    checked = 0
    for m, n in ALGEBRAS:
        for lam in dominant_weights(m, n, -3, 3):
            fast = atypicality(lam).value
            slow = atypicality_oracle(lam)
            assert fast == slow, f"mismatch at gl({m}|{n}) {lam}"
            checked += 1
    report(1, True, f"fast = oracle on {checked} weights in {time.time() - start:.1f}s")


def test_criterion_2_defect():
    ok = all(defect(m, n) == min(m, n) for m in range(1, 5) for n in range(1, 5))
    report(2, ok, "defect(m,n) = min(m,n) for 1 <= m,n <= 4")


def test_criterion_3_cohomology_hilbert_data():
    start = time.time()
    results = {}
    for (m, n), expected in [((1, 1), [1, 0, 1, 0, 1]), ((2, 1), [1, 0, 1, 0, 1]),
                             ((2, 2), [1, 0, 1, 0, 2])]:
        g = gl_superalgebra(m, n)
        results[(m, n)] = cohomology_dims(g, trivial_module(g), 4)
        assert results[(m, n)] == expected, f"gl({m}|{n}): {results[(m, n)]}"
    elapsed = time.time() - start
    assert elapsed < 120
    report(3, True, f"trivial-coefficient dims {results} in {elapsed:.1f}s")


def test_criterion_4_kac_support_trivial():
    tested_points = 0
    for m, n in [(1, 1), (2, 1)]:
        for lam in dominant_weights(m, n, -1, 1):
            emp = empirical_support(kac_module(lam))
            assert emp.subsets == frozenset(), f"gl({m}|{n}) {lam}"
            assert all(verdict for _, _, verdict in emp.tested)
            tested_points += len(emp.tested)
    report(4, True, f"Kac modules projective at all {tested_points} sampled points")


def test_criterion_5_closed_form_support():
    from supvar.roots import parse_weight

    cases = [(1, 1, "0|0"), (1, 1, "1|0"), (1, 1, "2|1"), (2, 2, "0,0|0,0")]
    for m, n, text in cases:
        cmp = compare_support(parse_weight(m, n, text))
        assert cmp.match, f"gl({m}|{n}) {text}: only_theo={cmp.only_theoretical} only_emp={cmp.only_empirical}"
    report(5, True, f"simple-module support matches the closed form on {len(cases)} cases")


def test_criterion_6_ext_route_equivalence_and_vanishing():
    from supvar.roots import parse_weight

    g = gl_superalgebra(1, 1)
    lam0 = parse_weight(1, 1, "0|0")
    lam1 = parse_weight(1, 1, "1|0")
    coeffs = [trivial_module(g), kac_module(lam0), simple_module(lam1)]
    pairs = 0
    for lam in (lam0, lam1):
        K = kac_module(lam)
        for M in coeffs:
            full = ext_dims(K, M, 4).dims
            reduced = kac_ext_dims(lam, M, 4).dims
            assert full == reduced, f"routes disagree for {lam}: {full} vs {reduced}"
            bound = vanishing_bound(lam, M)
            tail = kac_ext_dims(lam, M, max(4, bound + 3)).dims[bound:]
            assert all(d == 0 for d in tail), f"nonvanishing tail for {lam}"
            pairs += 1
    report(6, True, f"both Ext routes agree and vanish beyond the bound on {pairs} pairs")


def test_criterion_7_clifford_classification_table():
    rows = 0
    for dim_c1 in range(1, 6):
        for n in range(dim_c1 + 1):
            gram = RationalMatrix(
                [[1 if (i == j and i < n) else 0 for j in range(dim_c1)]
                 for i in range(dim_c1)]
            )
            form = odd_form_data(gram)
            assert form.n == n and form.z == dim_c1 - n
            assert form.n_tilde == (n + 1) // 2
            cls = classify_block(form)
            assert cls.simple_dim == 2**form.n_tilde
            assert cls.simple_type == ("M" if n % 2 == 0 else "Q")
            expected = (
                2 ** (dim_c1 - form.n_tilde)
                if cls.simple_type == "M"
                else 2 ** (dim_c1 - form.n_tilde + 1)
            )
            assert cls.projective_dim == expected
            assert (2**dim_c1) % cls.projective_dim == 0
            rows += 1
    report(7, True, f"classification table checked on {rows} (dim, radical) rows")


def test_criterion_8_divisibility_regression(module_sweep):
    start = time.time()
    sweep, supports, build_time = module_sweep
    checked = simples = maximal = 0
    for (m, n, name, M, lam), emp in zip(sweep, supports):
        r = defect(m, n)
        rep = divisibility_check(M.dim, M.superdimension, emp.dim, r)
        assert rep.passed, f"gl({m}|{n}) {name}: dim={M.dim} sdim={M.superdimension} d={rep.codim}"
        if name.startswith("kac:"):
            assert emp.subsets == frozenset(), f"Kac support not trivial: gl({m}|{n}) {name}"
        checked += 1
        if name.startswith("simple:") and lam is not None:
            # Kac-Wakimoto: sdim L(lam) != 0 exactly when atyp(lam) = defect
            a = atypicality(lam).value
            assert (M.superdimension != 0) == (a == r), f"gl({m}|{n}) {name}: atyp {a}"
            simples += a < r
            maximal += a == r
    elapsed = time.time() - start + build_time
    assert elapsed < 300
    report(8, True,
           f"{checked} modules pass the codimension law ({simples} subdefect simples "
           f"have superdimension 0, {maximal} maximally atypical ones do not) in "
           f"{elapsed:.1f}s incl. construction")


def test_criterion_9_representation_integrity(module_sweep):
    start = time.time()
    sweep, _, _ = module_sweep
    for m, n, name, M, _ in sweep:
        ok, problems = verify_rep(M)
        assert ok, f"gl({m}|{n}) {name}: {problems[:3]}"
    # d^p stores den times each basis vector's image over the next slice:
    # express it over the next basis and compose with the stored d^{p+1}
    complexes = []
    for m, n in ALGEBRAS:
        g = gl_superalgebra(m, n)
        complexes.append(build_complex(g, trivial_module(g), 4))
    L = simple_module(parse_weight(2, 2, "1,0|0,-1"))
    complexes.append(build_complex(L.algebra, L, 3))
    composed = 0
    for cx in complexes:
        for p in range(cx.p_max):
            span = IncrementalSpan()
            for b in cx.degrees[p + 1].basis:
                span.add(b)
            for col in cx.differentials[p]:
                coords = span.express(col)
                assert coords is not None, f"d^{p} leaves the invariants"
                acc = {}
                for mid, c in coords.items():
                    for dst, c2 in cx.differentials[p + 1][mid].items():
                        acc[dst] = acc.get(dst, 0) + c * c2
                        composed += 1
                assert all(v == 0 for v in acc.values()), f"d.d != 0 at degree {p}"
    assert composed, "every composition was empty"
    report(9, True,
           f"verify_rep on {len(sweep)} modules, d.d = 0 on trivial-coefficient "
           f"complexes and L(1,0|0,-1) of gl(2|2), in {time.time() - start:.1f}s")
