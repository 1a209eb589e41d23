"""gl(m|n) as explicit structure constants, and its detecting subalgebra.

Basis elements are the matrix units E_{a,b}, labeled ("E", a, b) with 1-based
indices.  The bracket is the supercommutator [A,B] = AB - (-1)^{|A||B|} BA,
so structure constants of matrix units are

    [E_ab, E_cd] = delta_{bc} E_ad - (-1)^{|ab||cd|} delta_{da} E_cb.

``LieSuperalgebraData`` holds the algebra's conventions and checks them once,
at construction: every structure constant is a nonzero int, every label has a
weight and a z-degree, no bracket of two labels leaves the labels, and
super-antisymmetry and the graded Jacobi identity hold on every basis triple
(triples outside the supports are 0 = 0, see ``_check_axioms``).  Readers
rely on these facts and do not re-check them.  The gl(m|n) structure
constants are the plain ints 1 and -1, and the even part gl(m) + gl(n) is the
restriction of the gl(m|n) table to the even labels.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import InvariantBroken, SupvarError
from .linalg import IncrementalSpan, axpy
from .roots import eps

Label = tuple  # ("E", a, b)


def _unit_bracket(m: int, a: int, b: int, c: int, d: int) -> dict:
    """Supercommutator of E_ab and E_cd as a sparse element with int coefficients."""
    p1 = 1 if (a <= m) != (b <= m) else 0
    p2 = 1 if (c <= m) != (d <= m) else 0
    sign = -1 if (p1 and p2) else 1
    out: dict = {}
    if b == c:
        out[("E", a, d)] = 1
    if d == a:
        key = ("E", c, b)
        out[key] = out.get(key, 0) - sign
    return {k: v for k, v in out.items() if v}


class LieSuperalgebraData:
    """Finite basis with parities and structure constants."""

    def __init__(self, name, labels, parity, structure, weight_of, z_degree, m, n):
        self.name = name
        self.labels = tuple(labels)
        self.parity = dict(parity)
        self.structure = structure  # dict[(label, label)] -> dict[label, nonzero int]
        self.weight_of = weight_of
        self.z_degree = z_degree
        self.m = m
        self.n = n
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        for lab in self.labels:
            if lab not in weight_of or lab not in z_degree:
                raise SupvarError(f"label {lab} has no recorded weight or z-degree")
        for (a, b), br in structure.items():
            if any(type(c) is not int or not c for c in br.values()):
                raise SupvarError(f"the constants of [{a}, {b}] must be nonzero ints")
        self._check_axioms()

    def bracket(self, a: Label, b: Label) -> dict:
        return self.structure.get((a, b), {})

    def bracket_elements(self, x: dict, y: dict) -> dict:
        """Bilinear extension of the bracket to sparse elements."""
        out: dict = {}
        for la, ca in x.items():
            if not ca:
                continue
            for lb, cb in y.items():
                br = self.bracket(la, lb)
                if cb and br:
                    axpy(out, br.items(), ca * cb)
        return out

    def even_labels(self) -> list:
        return [lab for lab in self.labels if self.parity[lab] == 0]

    def odd_labels(self) -> list:
        return [lab for lab in self.labels if self.parity[lab] == 1]

    @cached_property
    def chevalley_generators(self) -> frozenset:
        """The labels E_{i,i+1} and E_{i+1,i} of ``labels``, proven to generate.

        Checked once per algebra, raising ``InvariantBroken`` on failure:
        every label b has a recorded weight and each Cartan label E_{i,i}
        brackets it to weight_of[b]_i b, and the generators with the Cartan
        labels generate every label: the span they start, closed under
        brackets with them, has full dimension.  ``verify_rep`` rests on both
        facts.
        """
        labels, weight_of = self.labels, self.weight_of
        cartan = [lab for lab in labels if lab[1] == lab[2]]
        gens = frozenset(lab for lab in labels if abs(lab[1] - lab[2]) == 1)
        for b in labels:
            w = weight_of[b]
            for h in cartan:
                c = w.coords[h[1] - 1]
                if self.bracket(h, b) != ({b: c} if c else {}):
                    raise InvariantBroken(f"{h} does not act on {b} by a recorded weight")
        seeds = [lab for lab in labels if lab in gens or lab in cartan]
        span = IncrementalSpan()
        new = [{lab: 1} for lab in seeds]
        while new:
            new = [x for x in new if span.add(x)]
            new = [self.bracket_elements({s: 1}, x) for s in seeds for x in new]
        if span.dim != len(labels):
            raise InvariantBroken(f"the Chevalley generators and the Cartan labels "
                                  f"span {span.dim} of the {len(labels)} labels of {self.name}")
        return gens

    def _check_axioms(self):
        """Super-antisymmetry and the graded Jacobi identity on every basis triple.

        Jacobi reads [a,[b,c]] = [[a,b],c] + (-1)^{|a||b|} [b,[a,c]].  Let
        support[x] = {c : [x,c] != 0}.  For c outside support[a], support[b]
        and support[k] for every k in [a,b], both [b,c] and [a,c] vanish, and
        [[a,b],c] = sum_k ab_k [k,c] = 0, so the identity reads 0 = 0.  Only
        the other c are visited, in label order, so the first failing triple
        is the one a walk over all triples would meet.  Likewise a pair with
        neither (a,b) nor (b,a) in ``structure`` is 0 = 0 for antisymmetry.
        """
        par, index, bracket = self.parity, self.index, self.bracket
        support: dict = {}  # x -> bitmask of label indices; low bits come first
        for (x, c), br in self.structure.items():
            if br and c in index:
                support[x] = support.get(x, 0) | 1 << index[c]
        pairs = {(x, y) for (x, y) in self.structure if x in index and y in index}
        for a, b in sorted(pairs | {(y, x) for x, y in pairs},
                           key=lambda p: (index[p[0]], index[p[1]])):
            ab, ba = bracket(a, b), bracket(b, a)
            # super-antisymmetry: [a,b] = -(-1)^{|a||b|} [b,a]
            sign = -1 if (par[a] and par[b]) else 1
            for k in set(ab) | set(ba):
                if k not in index:
                    raise SupvarError(f"[{a}, {b}] leaves the labels at {k}")
                if ab.get(k, 0) + sign * ba.get(k, 0) != 0:
                    raise SupvarError(f"super-antisymmetry fails on {a}, {b}")
        labels = self.labels
        for a in labels:
            sa = support.get(a, 0)
            for b in labels:
                ab = bracket(a, b)
                sgn = -1 if (par[a] and par[b]) else 1
                mask = sa | support.get(b, 0)
                for k in ab:
                    mask |= support.get(k, 0)
                while mask:
                    low = mask & -mask
                    mask ^= low
                    c = labels[low.bit_length() - 1]
                    # [a,[b,c]] - [[a,b],c] - sgn [b,[a,c]] must vanish
                    out: dict = {}
                    for k, v in bracket(b, c).items():
                        axpy(out, bracket(a, k).items(), v)
                    for k, v in ab.items():
                        axpy(out, bracket(k, c).items(), -v)
                    for k, v in bracket(a, c).items():
                        axpy(out, bracket(b, k).items(), -sgn * v)
                    if out:
                        raise SupvarError(f"graded Jacobi fails on {a}, {b}, {c}")


def _gl_data(m: int, n: int) -> LieSuperalgebraData:
    size = m + n
    labels = [("E", a, b) for a in range(1, size + 1) for b in range(1, size + 1)]
    parity = {("E", a, b): 1 if (a <= m) != (b <= m) else 0 for (_, a, b) in labels}
    z_degree = {}
    weights = {}
    structure = {}
    for (_, a, b) in labels:
        if (a <= m) == (b <= m):
            z_degree[("E", a, b)] = 0
        elif a <= m:
            z_degree[("E", a, b)] = 1
        else:
            z_degree[("E", a, b)] = -1
        weights[("E", a, b)] = eps(m, n, a) - eps(m, n, b)
    for la in labels:
        for lb in labels:
            br = _unit_bracket(m, la[1], la[2], lb[1], lb[2])
            if br:
                structure[(la, lb)] = br
    return LieSuperalgebraData(f"gl({m}|{n})", labels, parity, structure, weights, z_degree, m, n)


@lru_cache(maxsize=None)
def gl_superalgebra(m: int, n: int) -> LieSuperalgebraData:
    """gl(m|n) with its consistent Z-grading recorded per basis element."""
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    return _gl_data(m, n)


@lru_cache(maxsize=None)
def gl_even_subalgebra(m: int, n: int) -> LieSuperalgebraData:
    """The even part gl(m) + gl(n): the gl(m|n) table restricted to the even labels."""
    g = gl_superalgebra(m, n)
    return LieSuperalgebraData(f"gl({m})+gl({n})", g.even_labels(), g.parity, g.structure,
                               g.weight_of, g.z_degree, m, n)


class DetectingSubalgebra:
    """The rank-variety home: r odd generators inside gl(m|n).

    The odd generators are x_t = E_{m+1-t,m+t} + E_{m+t,m+1-t} for
    t = 1..min(m,n).  They pairwise supercommute and each square is the
    diagonal element E_{m+1-t,m+1-t} + E_{m+t,m+t}.
    """

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("m, n must be >= 1")
        self.m, self.n = m, n
        self.r = min(m, n)
        g = gl_superalgebra(m, n)
        self.odd_basis = tuple(
            {("E", m + 1 - t, m + t): 1, ("E", m + t, m + 1 - t): 1}
            for t in range(1, self.r + 1)
        )
        for s, xs in enumerate(self.odd_basis):
            for t, xt in enumerate(self.odd_basis):
                if s != t and g.bracket_elements(xs, xt):
                    raise InvariantBroken("detecting generators fail to supercommute")
        # x_t^2 = [x_t, x_t] / 2, stored as the even-part generators used here
        doubled = [g.bracket_elements(x, x) for x in self.odd_basis]
        for sq in doubled:
            if any(a != b or v % 2 for (_, a, b), v in sq.items()):
                raise InvariantBroken("a detecting generator square is not diagonal")
        self.squares = tuple({k: v // 2 for k, v in sq.items()} for sq in doubled)

    def generator_labels(self, t: int) -> tuple:
        """The two matrix-unit labels entering x_t (1-based t)."""
        m = self.m
        return (("E", m + 1 - t, m + t), ("E", m + t, m + 1 - t))


@lru_cache(maxsize=None)
def detecting_subalgebra(m: int, n: int) -> DetectingSubalgebra:
    return DetectingSubalgebra(m, n)
