import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supvar.errors import InvariantBroken, NotDominant, ShapeMismatch, WeightParseError
from supvar.roots import (
    bilinear_form,
    dim_L0,
    eps,
    format_weight,
    is_dominant_integral,
    parse_weight,
    rho,
    root_system,
    weight,
)


def test_bilinear_form_examples():
    assert bilinear_form(eps(2, 1, 1), eps(2, 1, 1)) == 1
    assert bilinear_form(eps(2, 1, 3), eps(2, 1, 3)) == -1
    alpha = eps(2, 1, 1) - eps(2, 1, 3)
    assert bilinear_form(alpha, alpha) == 0


def test_bilinear_form_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        bilinear_form(eps(1, 1, 1), eps(2, 1, 1))


def test_rho_values():
    assert format_weight(rho(1, 1)) == "-1/2|1/2"
    assert format_weight(rho(2, 1)) == "0,-1|1"
    assert format_weight(rho(2, 2)) == "-1/2,-3/2|3/2,1/2"


def test_root_counts_and_isotropy():
    for m in range(1, 6):
        for n in range(1, 6):
            rs = root_system(m, n)
            assert len(rs.roots) == (m + n) * (m + n - 1)
            assert len(rs.odd_roots) == 2 * m * n
            for alpha in rs.odd_roots:
                v = alpha.as_weight()
                assert bilinear_form(v, v) == 0


def test_odd_root_pairing_rule():
    # (eps_i - eps_j, eps_k - eps_l) = delta_ik - delta_jl for i,k <= m < j,l
    m, n = 3, 3
    for i in range(1, m + 1):
        for k in range(1, m + 1):
            for j in range(m + 1, m + n + 1):
                for l in range(m + 1, m + n + 1):
                    a = eps(m, n, i) - eps(m, n, j)
                    b = eps(m, n, k) - eps(m, n, l)
                    expected = (1 if i == k else 0) - (1 if j == l else 0)
                    assert bilinear_form(a, b) == expected


def test_bilinear_form_symmetric_and_bilinear():
    rng = random.Random(17)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        def rand_w():
            return weight(m, n, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                 for _ in range(m + n)])
        w1, w2, w3 = rand_w(), rand_w(), rand_w()
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert bilinear_form(w1, w2) == bilinear_form(w2, w1)
        assert bilinear_form(w1 + w3.scale(c), w2) == (
            bilinear_form(w1, w2) + c * bilinear_form(w3, w2)
        )


def test_dominance():
    assert is_dominant_integral(parse_weight(2, 1, "0,0|0"))
    assert not is_dominant_integral(parse_weight(2, 1, "0,1|0"))
    assert is_dominant_integral(parse_weight(2, 2, "3,1|2,0"))
    assert not is_dominant_integral(parse_weight(1, 1, "1/2|0"))


def test_dim_L0_examples(monkeypatch):
    assert dim_L0(parse_weight(2, 2, "0,0|0,0")) == 1
    assert dim_L0(parse_weight(2, 1, "1,0|0")) == 2
    assert dim_L0(parse_weight(2, 1, "2,0|0")) == 3
    with pytest.raises(NotDominant):
        dim_L0(parse_weight(2, 1, "0,1|0"))
    # a non-integral Weyl dimension is an invariant failure, raised even under python -O
    monkeypatch.setattr("supvar.roots._weyl_block_dim", lambda block: Fraction(1, 2))
    with pytest.raises(InvariantBroken):
        dim_L0(parse_weight(2, 1, "1,0|0"))


def _det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += sign * rows[0][j] * _det(minor)
        sign = -sign
    return total


def _schur_dim_jacobi_trudi(partition, m):
    """s_mu(1,...,1) as det[h_{mu_i - i + j}] with h_k(1^m) = C(m+k-1, k)."""
    ell = len(partition)

    def h(k):
        if k < 0:
            return Fraction(0)
        return Fraction(comb(m + k - 1, k))

    rows = [[h(partition[i] - (i + 1) + (j + 1)) for j in range(ell)] for i in range(ell)]
    return _det(rows)


def test_dim_L0_against_schur_oracle():
    # one-block weights (second factor trivial) against the Jacobi-Trudi route
    for m in range(1, 4):
        for partition in combinations_with_replacement(range(4), m):
            mu = tuple(sorted(partition, reverse=True))
            lam = parse_weight(m, 1, ",".join(str(c) for c in mu) + "|0")
            assert dim_L0(lam) == _schur_dim_jacobi_trudi(mu, m)


def test_weight_parsing():
    w = parse_weight(2, 2, "1,0|0,-2")
    assert w.coords == (1, 0, 0, -2)
    assert format_weight(w) == "1,0|0,-2"
    w = parse_weight(1, 1, "1/2|-3/4")
    assert w.coords == (Fraction(1, 2), Fraction(-3, 4))
    for bad in ("1,0", "1|0|2", "a|b", "1,0|0", "1/0|0"):
        with pytest.raises(WeightParseError):
            parse_weight(1, 1, bad)


coordinates = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=6))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_weight_format_round_trip(m, n, data):
    coords = data.draw(st.lists(coordinates, min_size=m + n, max_size=m + n))
    w = weight(m, n, coords)
    assert parse_weight(m, n, format_weight(w)) == w
    for c in parse_weight(m, n, format_weight(w)).coords + w.coords:
        # an integral coordinate is stored as an int, any other as a Fraction
        assert type(c) is (int if c.denominator == 1 else Fraction)
    assert all(type(c) is int for c in (w + w.scale(-1)).coords + (w - w).coords)


def test_weight_arithmetic():
    a = parse_weight(1, 1, "1|2")
    b = parse_weight(1, 1, "3|-1")
    assert (a + b).coords == (4, 1)
    assert (a - b).coords == (-2, 3)
    assert (-a).coords == (-1, -2)
    assert a.scale(Fraction(1, 2)).coords == (Fraction(1, 2), 1)
