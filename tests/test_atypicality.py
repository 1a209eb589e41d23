import importlib
import random

import pytest

from supvar.atypicality import (
    atypicality,
    atypicality_oracle,
    defect,
    theoretical_support,
)
from supvar.errors import InvariantBroken, NotDominant, TooLarge
from supvar.roots import bilinear_form, parse_weight, rho, weight


def test_defect():
    assert defect(2, 3) == 2
    assert defect(1, 1) == 1
    assert defect(4, 4) == 4


def test_atypicality_examples():
    assert atypicality(parse_weight(1, 1, "0|0")).value == 1
    assert atypicality(parse_weight(2, 1, "0,0|0")).value == 1
    assert atypicality(parse_weight(2, 2, "0,0|0,0")).value == 2
    assert atypicality(parse_weight(1, 1, "1|0")).value == 0


def test_oracle_examples():
    assert atypicality_oracle(parse_weight(1, 1, "0|0")) == 1
    assert atypicality_oracle(parse_weight(2, 2, "5,3|1,0")) == 0
    assert atypicality_oracle(parse_weight(2, 2, "1,0|0,-2")) == 1


def test_oracle_enumeration_bound():
    with pytest.raises(TooLarge):
        atypicality_oracle(parse_weight(5, 5, "0,0,0,0,0|0,0,0,0,0"))


def test_fast_equals_oracle_on_random_weights():
    rng = random.Random(23)
    for _ in range(40):
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        lam = weight(m, n, [rng.randint(-4, 4) for _ in range(m + n)])
        assert atypicality(lam).value == atypicality_oracle(lam)


def test_certificate_is_valid():
    for text, mn in [("0,0|0,0", (2, 2)), ("1,0|0,-2", (2, 2)), ("0,0|0", (2, 1))]:
        lam = parse_weight(*mn, text)
        cert = atypicality(lam)
        shifted = lam + rho(*mn)
        assert len(cert.witness) == cert.value
        for alpha in cert.witness:
            v = alpha.as_weight()
            assert alpha.parity == 1
            assert bilinear_form(v, v) == 0
            assert bilinear_form(v, shifted) == 0
        for a in cert.witness:
            for b in cert.witness:
                if a != b:
                    assert bilinear_form(a.as_weight(), b.as_weight()) == 0


def test_atyp_bounded_by_defect(monkeypatch):
    rng = random.Random(31)
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        lam = weight(m, n, [rng.randint(-5, 5) for _ in range(m + n)])
        assert atypicality(lam).value <= defect(m, n)
    # the bound is an invariant check that raises, so it also runs under python -O
    monkeypatch.setattr(importlib.import_module("supvar.atypicality"), "defect", lambda m, n: 0)
    with pytest.raises(InvariantBroken):
        atypicality(parse_weight(1, 1, "0|0"))


def test_theoretical_support_shapes():
    desc = theoretical_support(parse_weight(2, 2, "0,0|0,0"))
    assert desc.dim == 2 and desc.g_support_dim == 2
    assert desc.subsets == frozenset(
        {frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})}
    )
    desc = theoretical_support(parse_weight(1, 1, "1|0"))
    assert desc.dim == 0 and desc.subsets == frozenset({frozenset()})
    desc = theoretical_support(parse_weight(2, 2, "1,0|0,-2"))
    assert desc.dim == 1
    assert desc.subsets == frozenset({frozenset(), frozenset({1}), frozenset({2})})
    assert desc.nonempty_subsets() == [(1,), (2,)]


def test_theoretical_support_requires_dominance():
    with pytest.raises(NotDominant):
        theoretical_support(parse_weight(2, 1, "0,1|0"))


def test_support_family_is_permutation_stable():
    desc = theoretical_support(parse_weight(2, 2, "1,0|0,-2"))
    swapped = frozenset(frozenset(3 - t for t in s) for s in desc.subsets)
    assert swapped == desc.subsets
