"""gl(m|n) as explicit structure constants, and its detecting subalgebra.

Basis elements are the matrix units E_{a,b}, labeled ("E", a, b) with 1-based
indices.  The bracket is the supercommutator [A,B] = AB - (-1)^{|A||B|} BA,
so structure constants of matrix units are

    [E_ab, E_cd] = delta_{bc} E_ad - (-1)^{|ab||cd|} delta_{da} E_cb.

Super-antisymmetry and the graded Jacobi identity are checked at construction
time on every basis triple; triples outside the supports are 0 = 0, see
``_check_axioms``.  The gl(m|n) structure constants are the plain ints 1 and -1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import InvariantBroken, SupvarError
from .linalg import ONE, IncrementalSpan, axpy
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

    def __init__(self, name, labels, parity, structure, weight_of=None, z_degree=None,
                 m=None, n=None):
        self.name = name
        self.labels = tuple(labels)
        self.parity = dict(parity)
        self.structure = structure  # dict[(label, label)] -> dict[label, exact scalar]
        self.weight_of = weight_of or {}
        self.z_degree = z_degree or {}
        self.m = m
        self.n = n
        self.index = {lab: i for i, lab in enumerate(self.labels)}
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
            w = weight_of.get(b)
            for h in cartan:
                c = None if w is None else w.coords[h[1] - 1]
                if c is None or self.bracket(h, b) != ({b: c} if c else {}):
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


def _gl_labels(m: int, n: int):
    size = m + n
    return [("E", a, b) for a in range(1, size + 1) for b in range(1, size + 1)]


def _gl_data(m: int, n: int, labels, name: str) -> LieSuperalgebraData:
    parity = {("E", a, b): 1 if (a <= m) != (b <= m) else 0 for (_, a, b) in labels}
    z_degree = {}
    weights = {}
    structure = {}
    label_set = set(labels)
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
            br = {k: v for k, v in br.items() if k in label_set}
            if br:
                structure[(la, lb)] = br
    return LieSuperalgebraData(
        name, labels, parity, structure, weight_of=weights, z_degree=z_degree,
        m=m, n=n,
    )


@lru_cache(maxsize=None)
def gl_superalgebra(m: int, n: int) -> LieSuperalgebraData:
    """gl(m|n) with its consistent Z-grading recorded per basis element."""
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    return _gl_data(m, n, _gl_labels(m, n), f"gl({m}|{n})")


@lru_cache(maxsize=None)
def gl_even_subalgebra(m: int, n: int) -> LieSuperalgebraData:
    """The even part gl(m) + gl(n), as a Lie algebra in its own right."""
    labels = [lab for lab in _gl_labels(m, n) if (lab[1] <= m) == (lab[2] <= m)]
    return _gl_data(m, n, labels, f"gl({m})+gl({n})")


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
            {("E", m + 1 - t, m + t): ONE, ("E", m + t, m + 1 - t): ONE}
            for t in range(1, self.r + 1)
        )
        # x_t^2 = [x_t, x_t] / 2, stored as the even-part generators used here
        self.squares = tuple(
            {k: Fraction(v, 2) for k, v in g.bracket_elements(x, x).items()}
            for x in self.odd_basis
        )
        for s, xs in enumerate(self.odd_basis):
            for t, xt in enumerate(self.odd_basis):
                if s != t and g.bracket_elements(xs, xt):
                    raise InvariantBroken("detecting generators fail to supercommute")
        for sq in self.squares:
            if any(a != b for (_, a, b) in sq):
                raise InvariantBroken("a detecting generator square is not diagonal")

    def generator_labels(self, t: int) -> tuple:
        """The two matrix-unit labels entering x_t (1-based t)."""
        m = self.m
        return (("E", m + 1 - t, m + t), ("E", m + t, m + 1 - t))


@lru_cache(maxsize=None)
def detecting_subalgebra(m: int, n: int) -> DetectingSubalgebra:
    return DetectingSubalgebra(m, n)
