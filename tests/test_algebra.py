from fractions import Fraction

import os
import subprocess
import sys
from pathlib import Path

import pytest

import supvar.algebra
from supvar.algebra import (
    DetectingSubalgebra,
    LieSuperalgebraData,
    detecting_subalgebra,
    gl_even_subalgebra,
    gl_superalgebra,
)
from supvar.errors import InvariantBroken, SupvarError
from supvar.linalg import ONE, ZERO, IncrementalSpan, axpy
from test_modules import generator_pairs


def test_gl11_basis_and_parities():
    g = gl_superalgebra(1, 1)
    assert len(g.labels) == 4
    assert sum(1 for lab in g.labels if g.parity[lab] == 0) == 2
    assert sum(1 for lab in g.labels if g.parity[lab] == 1) == 2


def test_matrix_unit_brackets():
    g = gl_superalgebra(1, 1)
    assert g.bracket(("E", 1, 2), ("E", 2, 1)) == {("E", 1, 1): ONE, ("E", 2, 2): ONE}
    assert g.bracket(("E", 1, 1), ("E", 1, 2)) == {("E", 1, 2): ONE}
    g2 = gl_superalgebra(2, 1)
    # [E13, E32] = E12 with both factors odd
    assert g2.bracket(("E", 1, 3), ("E", 3, 2)) == {("E", 1, 2): ONE}
    # even-even commutator keeps its sign
    assert g2.bracket(("E", 2, 1), ("E", 1, 2)) == {("E", 2, 2): ONE, ("E", 1, 1): -ONE}


def test_z_grading():
    g = gl_superalgebra(2, 1)
    assert g.z_degree[("E", 1, 3)] == 1
    assert g.z_degree[("E", 3, 1)] == -1
    assert g.z_degree[("E", 1, 2)] == 0
    assert all(g.z_degree[lab] == 0 for lab in g.even_labels())


def reference_check_axioms(labels, parity, structure):
    """Super-antisymmetry and graded Jacobi on every triple, in Fractions.

    The test-only evidence that the tables ``LieSuperalgebraData`` builds are
    Lie superalgebras: its docstring proves it from the supercommutator instead.
    """
    table = {pair: {k: Fraction(v) for k, v in br.items()} for pair, br in structure.items()}

    def bracket(a, b):
        return table.get((a, b), {})

    def bracket_elements(x, y):
        out: dict = {}
        for la, ca in x.items():
            for lb, cb in y.items():
                br = bracket(la, lb)
                if ca and cb and br:
                    axpy(out, br.items(), ca * cb)
        return out

    for a in labels:
        for b in labels:
            ab, ba = bracket(a, b), bracket(b, a)
            sign = -ONE if (parity[a] and parity[b]) else ONE
            for k in set(ab) | set(ba):
                if ab.get(k, ZERO) + sign * ba.get(k, ZERO) != 0:
                    raise SupvarError(f"super-antisymmetry fails on {a}, {b}")
    for a in labels:
        for b in labels:
            ab = bracket(a, b)
            sgn = -ONE if (parity[a] and parity[b]) else ONE
            for c in labels:
                bc, ac = bracket(b, c), bracket(a, c)
                if not (ab or bc or ac):
                    continue
                lhs = bracket_elements({a: ONE}, bc)
                rhs = bracket_elements(ab, {c: ONE})
                axpy(rhs, bracket_elements({b: ONE}, ac).items(), sgn)
                if lhs != rhs:
                    raise SupvarError(f"graded Jacobi fails on {a}, {b}, {c}")


@pytest.mark.parametrize("m,n", [(m, s - m) for s in range(2, 7) for m in range(1, s)])
def test_axiom_check_agrees_with_reference_on_gl(m, n):
    for g in (gl_superalgebra(m, n), gl_even_subalgebra(m, n)):
        assert all(type(v) is int for br in g.structure.values() for v in br.values())
        reference_check_axioms(g.labels, g.parity, g.structure)


def test_even_subalgebra_is_closed():
    g0 = gl_even_subalgebra(2, 2)
    assert all(g0.parity[lab] == 0 for lab in g0.labels)
    assert len(g0.labels) == 8


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (3, 3)])
def test_even_subalgebra_shares_the_gl_table(m, n):
    g, g0 = gl_superalgebra(m, n), gl_even_subalgebra(m, n)
    assert g0.structure == {(a, b): br for (a, b), br in g.structure.items()
                            if a in g0.index and b in g0.index}
    assert g0.labels == tuple(g.even_labels())
    for table in ("weight_of", "z_degree", "parity"):
        assert getattr(g0, table) == {lab: getattr(g, table)[lab] for lab in g0.labels}
    assert g0.name == f"gl({m})+gl({n})"


def test_label_set_not_closed_under_the_bracket_is_rejected():
    labels = [("E", 1, 2), ("E", 2, 1)]  # [E12, E21] = E11 - E22
    with pytest.raises(SupvarError, match=r"leaves the labels at \('E', 1, 1\)"):
        LieSuperalgebraData("open", labels, 2, 1)


def test_first_label_outside_is_the_same_under_every_hash_seed():
    # E11 and E22 both leave the labels; the first term of [E12, E21] is named
    code = ("from supvar.algebra import LieSuperalgebraData\n"
            "try:\n"
            "    LieSuperalgebraData('open', [('E', 1, 2), ('E', 2, 1)], 2, 1)\n"
            "except Exception as e:\n"
            "    print(e)\n")
    src = Path(__file__).resolve().parent.parent / "src"
    for seed in ("0", "6"):  # a set of the two terms iterates E11 first under 0, E22 under 6
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout == "[('E', 1, 2), ('E', 2, 1)] leaves the labels at ('E', 1, 1)\n"


@pytest.mark.parametrize("label", [("E", 1, 3), ("E", 0, 1), ("F", 1, 2), ("E", 1),
                                   ("E", 1.0, 2), "E12"],
                         ids=["past-m+n", "zero", "not-E", "short", "float", "string"])
def test_label_that_is_not_a_matrix_unit_is_rejected(label):
    g = gl_superalgebra(1, 1)
    with pytest.raises(SupvarError, match="is not a matrix unit of gl\\(1\\|1\\)"):
        LieSuperalgebraData("unrecorded", [*g.labels[:3], label], 1, 1)


def test_repeated_label_is_rejected():
    with pytest.raises(SupvarError, match=r"label \('E', 1, 1\) is repeated in dup"):
        LieSuperalgebraData("dup", [("E", 1, 1)] * 2, 1, 1)


@pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (0, 0)])
def test_empty_block_is_rejected(m, n):
    with pytest.raises(SupvarError, match=r"needs ints m, n >= 1"):
        LieSuperalgebraData("empty", [], m, n)


def test_restriction_to_a_closed_label_set_is_accepted():
    # [E11, E22] = 0 in gl(1|1), so the zero table on E11, E22 is a restriction
    g = LieSuperalgebraData("diagonal", [("E", 1, 1), ("E", 2, 2)], 1, 1)
    assert g.bracket(("E", 1, 1), ("E", 2, 2)) == {}


def test_detecting_generators():
    d = detecting_subalgebra(1, 1)
    assert d.odd_basis == ({("E", 1, 2): ONE, ("E", 2, 1): ONE},)
    d = detecting_subalgebra(2, 2)
    assert d.r == 2
    assert d.odd_basis[0] == {("E", 2, 3): ONE, ("E", 3, 2): ONE}
    assert d.odd_basis[1] == {("E", 1, 4): ONE, ("E", 4, 1): ONE}
    d = detecting_subalgebra(2, 1)
    assert d.r == 1
    assert d.odd_basis[0] == {("E", 2, 3): ONE, ("E", 3, 2): ONE}


def test_detecting_squares_are_diagonal():
    for m, n in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        d = detecting_subalgebra(m, n)
        g = gl_superalgebra(m, n)
        for t, x in enumerate(d.odd_basis):
            sq = {k: Fraction(v, 2) for k, v in g.bracket_elements(x, x).items()}
            assert all(a == b for (_, a, b) in sq)
            # x_t^2 = E_{m+1-t,m+1-t} + E_{m+t,m+t} = E_aa + E_bb for the labels (E_ab, E_ba)
            # of generator_labels(t), as SuperModuleRep._square_eigenvalues reads it
            assert sq == {("E", m - t, m - t): 1, ("E", m + t + 1, m + t + 1): 1}
            (_, a, b), _ = d.generator_labels(t + 1)
            assert sq == {("E", a, a): 1, ("E", b, b): 1}
        for s in range(d.r):
            for t in range(d.r):
                if s != t:
                    assert g.bracket_elements(d.odd_basis[s], d.odd_basis[t]) == {}


def test_detecting_checks_are_invariants(monkeypatch):
    # the generators are fixed elements of gl(m|n), so a failing check is a bug
    class Skewed:
        def bracket_elements(self, x, y):
            return {("E", 1, 2): 1}

    monkeypatch.setattr(supvar.algebra, "gl_superalgebra", lambda m, n: Skewed())
    with pytest.raises(InvariantBroken, match="supercommute"):
        DetectingSubalgebra(2, 2)
    with pytest.raises(InvariantBroken, match="not diagonal"):
        DetectingSubalgebra(2, 1)


def test_element_matrix():
    # x_1 and x_1^2 of gl(2|2) as 4 x 4 matrices of the defining representation
    def element_matrix(element):
        rows = [[ZERO] * 4 for _ in range(4)]
        for (_, a, b), coeff in element.items():
            rows[a - 1][b - 1] += coeff
        return rows

    d = detecting_subalgebra(2, 2)
    x1 = element_matrix(d.odd_basis[0])
    assert x1[1][2] == 1 and x1[2][1] == 1
    assert sum(1 for row in x1 for v in row if v != 0) == 2
    square = [[sum(a * b for a, b in zip(row, col)) for col in zip(*x1)] for row in x1]
    g = gl_superalgebra(2, 2)
    half = {k: Fraction(v, 2) for k, v in g.bracket_elements(d.odd_basis[0], d.odd_basis[0]).items()}
    assert square == element_matrix(half)


SERRE_PAIR_COUNTS = {(1, 1): 3, (2, 1): 10, (2, 2): 25, (3, 2): 46, (3, 3): 73, (4, 4): 145}


def test_serre_pair_counts():
    # against 3, 16, 53, 126, 247 and 681 generator pairs
    for (m, n), count in SERRE_PAIR_COUNTS.items():
        assert len(gl_superalgebra(m, n).serre_pairs) == count


@pytest.mark.parametrize("m, n", [*SERRE_PAIR_COUNTS, (1, 2), (2, 3), (4, 2), (2, 4), (4, 3)])
def test_serre_pairs_are_generator_pairs_whose_relations_and_definitions_hold(m, n):
    for g in (gl_superalgebra(m, n), gl_even_subalgebra(m, n)):
        pairs = g.serre_pairs
        assert len(set(pairs)) == len(pairs) and set(pairs) <= set(generator_pairs(g))
        assert list(pairs) == sorted(pairs, key=lambda p: (g.index[p[0]], g.index[p[1]]))
        defined = set()
        for a, b in pairs:
            br = g.bracket(a, b)
            if (a[1], a[2]) == (b[2], b[1]):  # [e_i, f_i] lies in the Cartan
                assert br and all(k[1] == k[2] for k in br)
            elif br:  # a definition: a multiple of one root label
                (c, v), = br.items()
                assert c[1] != c[2] and v in (1, -1) and c not in defined
                defined.add(c)
        assert defined == {lab for lab in g.labels if abs(lab[1] - lab[2]) > 1}


def _words(content):
    """Every word (tuple of letters) with content[k] letters k."""
    if not any(content):
        yield ()
        return
    for k, c in enumerate(content):
        if c:
            rest = content[:k] + (c - 1,) + content[k + 1:]
            for w in _words(rest):
                yield (k,) + w


def presented_positive_dim(g):
    """dim of the Lie superalgebra generated by the e_i = E_{i,i+1} of g subject to
    the relations among the positive pairs of ``g.serre_pairs``, each read as a
    bracket of the e_i through the definition pairs.

    It is computed in its enveloping algebra U = T(V)/I, with V spanned by the
    e_i and I the ideal the relations generate.  By PBW the presented algebra
    embeds in U as the brackets of the e_i.  It is generated in degree 1, so
    its piece of multidegree beta is spanned by the [e_i, x] with x in
    multidegree beta - alpha_i, and a multidegree where it vanishes is not
    continued.  The roots of gl(m|n) have height at most r, the number of
    e_i, so the count stops after height r + 1.
    """
    gens = [lab for lab in g.labels if lab[2] == lab[1] + 1]
    positive = {lab for lab in g.labels if lab[1] < lab[2]}
    r = len(gens)

    def content(x):
        w = next(iter(x))
        return tuple(w.count(k) for k in range(r))

    def bracket(x, y):  # supercommutator of homogeneous elements of T(V)
        px, py = (sum(g.parity[gens[k]] for k in next(iter(z))) % 2 for z in (x, y))
        out = {}
        for u, a in x.items():
            for v, b in y.items():
                axpy(out, [(u + v, a * b), (v + u, -(-1) ** (px * py) * a * b)], 1)
        return out

    word = {e: {(k,): 1} for k, e in enumerate(gens)}
    pairs = [p for p in g.serre_pairs if p[0] in positive and p[1] in positive]
    while len(word) < len(positive):
        grown = len(word)
        for a, b in pairs:
            if a in word and b in word and g.bracket(a, b):
                (c, v), = g.bracket(a, b).items()
                word.setdefault(c, {w: v * x for w, x in bracket(word[a], word[b]).items()})
        assert len(word) > grown
    relations = [bracket(word[a], word[b]) for a, b in pairs if not g.bracket(a, b)]
    assert all(relations)

    def ideal(beta):
        for rel in relations:
            rest = tuple(b - s for b, s in zip(beta, content(rel)))
            if min(rest) >= 0:
                for w in _words(rest):
                    for cut in range(len(w) + 1):
                        yield {w[:cut] + u + w[cut:]: v for u, v in rel.items()}

    level = {content(x): [x] for x in (word[e] for e in gens)}
    dim = 0
    for _ in range(r + 1):
        dim += sum(map(len, level.values()))
        grown = {}
        for beta, basis in level.items():
            for k in range(r):
                up = beta[:k] + (beta[k] + 1,) + beta[k + 1:]
                grown.setdefault(up, []).extend(bracket({(k,): 1}, x) for x in basis)
        level = {}
        for beta, xs in grown.items():
            span = IncrementalSpan()
            for y in ideal(beta):
                span.add(y)
            kept = [x for x in xs if x and span.add(x)]
            if kept:
                level[beta] = kept
    return dim


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3),
                                  (3, 3), (4, 2), (2, 4), (4, 1), (4, 3), (3, 4)])
def test_serre_relations_present_the_positive_part(m, n):
    # the relations hold in n+, which the e_i generate, so n+ is a quotient of
    # the presented algebra; equal dimensions make it the whole of it
    for g in (gl_superalgebra(m, n), gl_even_subalgebra(m, n)):
        positive = sum(1 for lab in g.labels if lab[1] < lab[2])
        assert presented_positive_dim(g) == positive


def E(a, b):
    return ("E", a, b)


@pytest.mark.parametrize("pair, value, message", [
    ((E(1, 2), E(3, 4)), {E(1, 4): 1}, "the relation"),             # [e_1, e_3]
    ((E(1, 2), E(2, 1)), {E(1, 2): 1}, "the relation"),             # [e_1, f_1] off the Cartan
    ((E(1, 2), E(3, 2)), {E(1, 1): 1}, "the relation"),             # [e_1, f_2]
    ((E(1, 2), E(1, 3)), {E(1, 1): 1}, "the relation"),             # cubic, squaring e_1
    ((E(2, 3), E(2, 3)), {E(2, 2): 2}, "the relation"),             # the odd square
    ((E(2, 3), E(1, 4)), {E(1, 1): 1}, "the relation"),             # the quartic
    ((E(4, 3), E(4, 2)), {E(4, 1): 1}, "the relation"),             # cubic, squaring f_3
    ((E(1, 2), E(2, 3)), {}, r"does not define \('E', 1, 3\)"),
    ((E(2, 1), E(4, 2)), {E(4, 1): 1, E(1, 1): 1}, r"does not define \('E', 4, 1\)"),
])
def test_serre_pairs_reject_a_broken_relation_or_definition(pair, value, message):
    # the table is changed after construction, which builds it from the labels
    g = gl_superalgebra(2, 2)
    h = LieSuperalgebraData("changed", g.labels, 2, 2)
    h.structure = {**g.structure, pair: value}
    with pytest.raises(InvariantBroken, match=message):
        h.serre_pairs
