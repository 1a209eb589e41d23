"""gl(m|n) as explicit structure constants, and its detecting subalgebra.

Basis elements are the matrix units E_{a,b}, labeled ("E", a, b) with 1-based
indices.  The bracket is the supercommutator [A,B] = AB - (-1)^{|A||B|} BA,
so structure constants of matrix units are

    [E_ab, E_cd] = delta_{bc} E_ad - (-1)^{|ab||cd|} delta_{da} E_cb.

``LieSuperalgebraData`` holds the algebra's conventions.  It reads the
consistent Z-grading off the labels (E_ab has weight eps_a - eps_b, z-degree
[a <= m] - [b <= m] and parity that z-degree mod 2), checks once, at
construction, that every label is a matrix unit and that no bracket of two
labels leaves the labels, and builds its table as the supercommutator above
restricted to the labels.  So super-antisymmetry, the graded Jacobi identity
and the weight grading hold as theorems (see ``LieSuperalgebraData``), and
readers rely on them without re-checking: [g_i, g_j] lies in g_{i+j}, so
[odd, odd] is even and the even part stabilizes each g_{+-1}.  The structure
constants are the plain ints 1 and -1, and the even part gl(m) + gl(n) is
gl(m|n) restricted to the even labels.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import InvariantBroken, SupvarError
from .linalg import axpy
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
    """Matrix-unit labels of gl(m|n) closed under the supercommutator.

    ``structure`` maps each ordered pair of labels with a nonzero bracket to
    ``_unit_bracket`` of the pair, built at construction.  ``weight_of``,
    ``z_degree`` and ``parity`` map each label to its ``Weight``, its z-degree
    and its parity, read off its indices.

    The table needs no axiom check.  The matrix units span the associative
    superalgebra of (m+n)-square matrices, E_ab E_cd = delta_{bc} E_ad,
    graded by their indices: E_ab has parity [a <= m] + [b <= m] mod 2 and
    weight eps_a - eps_b, and E_ab E_cd has parity and weight the sums of
    theirs.  The supercommutator of an associative superalgebra satisfies
    super-antisymmetry and the graded Jacobi identity, and [E_ab, E_cd] has
    weight eps_a - eps_b + eps_c - eps_d, as its terms E_ad (b = c) and E_cb
    (d = a) do.  A bracket-closed set of labels inherits all three, so the
    one check the table needs is closure.
    """

    def __init__(self, name, labels, m, n):
        self.name = name
        self.labels = tuple(labels)
        self.m = m
        self.n = n
        self.index = index = {lab: i for i, lab in enumerate(self.labels)}
        self.weight_of, self.z_degree, self.parity = {}, {}, {}
        for lab in self.labels:
            if not (type(lab) is tuple and len(lab) == 3 and lab[0] == "E"
                    and all(type(i) is int and 1 <= i <= m + n for i in lab[1:])):
                raise SupvarError(f"label {lab!r} is not a matrix unit of gl({m}|{n})")
            _, a, b = lab
            self.weight_of[lab] = eps(m, n, a) - eps(m, n, b)
            self.z_degree[lab] = (a <= m) - (b <= m)
            self.parity[lab] = self.z_degree[lab] % 2
        # pairs in label order and terms in the order of [a, b], so the first
        # label outside is named the same way from run to run
        self.structure = {}  # dict[(label, label)] -> dict[label, 1 or -1]
        for a in self.labels:
            for b in self.labels:
                ab = _unit_bracket(m, a[1], a[2], b[1], b[2])
                for k in ab:
                    if k not in index:
                        raise SupvarError(f"[{a}, {b}] leaves the labels at {k}")
                if ab:
                    self.structure[(a, b)] = ab

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
    def serre_pairs(self) -> tuple:
        """The label pairs ``verify_rep`` checks: a Serre presentation of gl(m|n).

        With e_i = E_{i,i+1}, f_i = E_{i+1,i} (e_m odd): (e_i, f_j) for all i, j;
        the definitions (e_i, E_{i+1,j}), j >= i+2; the Serre relations read
        through them, (e_i, e_j) for |i-j| > 1, (e_i, E_{i,i+2}) for i != m,
        (e_{i+1}, E_{i,i+2}) for i+1 != m, (e_m, e_m), and (e_m, E_{m-1,m+2}) if
        m, n >= 2; and the same for the f_i.  Pairs with a label outside
        ``labels`` are dropped, which for the even part leaves gl(m) + gl(n).
        Pairs and tuple are in label order.  Checked once per algebra, raising
        ``InvariantBroken``: each Cartan E_{i,i} brackets each label b to
        weight_of[b]_i b, each relation to 0 ([e_i, f_i] into the Cartan), each
        definition to a nonzero multiple of its label, and every E_{a,b} with
        |a-b| > 1 is defined.
        """
        labels, index, m, top = self.labels, self.index, self.m, self.m + self.n
        cartan = [lab for lab in labels if lab[1] == lab[2]]
        for b in labels:
            for h in cartan:
                c = self.weight_of[b].coords[h[1] - 1]
                if self.bracket(h, b) != ({b: c} if c else {}):
                    raise InvariantBroken(f"{h} does not act on {b} by a recorded weight")

        def E(a, b):
            return ("E", a, b)

        def flip(lab):  # E_{a,b} -> E_{b,a} takes each e_i to f_i
            return E(lab[2], lab[1])

        up = [(E(i, i + 1), E(j, j + 1)) for i in range(1, top) for j in range(i + 2, top)]
        up += [(E(i + s, i + 1 + s), E(i, i + 2))
               for i in range(1, top - 1) for s in (0, 1) if i + s != m]
        up += [(E(m, m + 1), E(m, m + 1))]
        up += [(E(m, m + 1), E(m - 1, m + 2))] if m > 1 and self.n > 1 else []
        defs = [(E(i, i + 1), E(i + 1, j), E(i, j))
                for i in range(1, top) for j in range(i + 2, top + 1)]
        defs += [tuple(map(flip, d)) for d in defs]
        rels = [(E(i, i + 1), E(j + 1, j)) for i in range(1, top) for j in range(1, top)]
        rels += up + [tuple(map(flip, p)) for p in up]
        rels, defs = ([p for p in ps if p[0] in index and p[1] in index] for ps in (rels, defs))
        for a, b in rels:
            br = self.bracket(a, b)
            if br and (b != flip(a) or any(k[1] != k[2] for k in br)):
                raise InvariantBroken(f"the relation ({a}, {b}) fails in {self.name}")
        for a, b, c in defs:
            if self.bracket(a, b).keys() != {c}:
                raise InvariantBroken(f"({a}, {b}) does not define {c} in {self.name}")
        unreached = {lab for lab in labels if abs(lab[1] - lab[2]) > 1} - {d[2] for d in defs}
        if unreached:
            raise InvariantBroken(f"no definition reaches {min(unreached)} in {self.name}")
        pairs = {tuple(sorted(p[:2], key=index.get)) for p in rels + defs}
        return tuple(sorted(pairs, key=lambda p: (index[p[0]], index[p[1]])))


def same_algebra(g: LieSuperalgebraData, h: LieSuperalgebraData) -> bool:
    """Whether g and h are one algebra: the same labels of the same gl(m|n)."""
    return g is h or (g.m, g.n, g.labels) == (h.m, h.n, h.labels)


@lru_cache(maxsize=None)
def gl_superalgebra(m: int, n: int) -> LieSuperalgebraData:
    """gl(m|n) with its consistent Z-grading recorded per basis element."""
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    labels = [("E", a, b) for a in range(1, m + n + 1) for b in range(1, m + n + 1)]
    return LieSuperalgebraData(f"gl({m}|{n})", labels, m, n)


@lru_cache(maxsize=None)
def gl_even_subalgebra(m: int, n: int) -> LieSuperalgebraData:
    """The even part gl(m) + gl(n): gl(m|n) restricted to the even labels."""
    return LieSuperalgebraData(f"gl({m})+gl({n})", gl_superalgebra(m, n).even_labels(), m, n)


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
        # x_t^2 = [x_t, x_t] / 2 is diagonal, so _square_eigenvalues reads it off weights
        for x in self.odd_basis:
            if any(a != b or v % 2 for (_, a, b), v in g.bracket_elements(x, x).items()):
                raise InvariantBroken("a detecting generator square is not diagonal")

    def generator_labels(self, t: int) -> tuple:
        """The two matrix-unit labels entering x_t (1-based t)."""
        m = self.m
        return (("E", m + 1 - t, m + t), ("E", m + t, m + 1 - t))


@lru_cache(maxsize=None)
def detecting_subalgebra(m: int, n: int) -> DetectingSubalgebra:
    return DetectingSubalgebra(m, n)
