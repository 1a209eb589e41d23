"""Exact rational linear algebra over one sparse elimination engine.

Everything is exact over Q, so nothing here ever rounds.  Inputs may be
ints, ``fractions.Fraction``s or ``p/q`` strings; floats are rejected.
``IncrementalSpan`` holds the only elimination loop in the package: sparse
vectors are reduced one at a time against the rows accepted so far.  The
loop is fraction-free (integer-preserving, as in Bareiss, Math. Comp. 22,
1968): every vector is scaled once to a primitive int vector and no step
divides, so ranks and span membership are decided on ints alone.
Coordinates are assembled as ints when first asked for.  Only ``express``
and ``kernel_basis`` (and ``solve``, over ``express``) return ``Fraction``s;
``column_kernel`` returns primitive int relations.
``column_kernel`` and ``span_dim`` wrap it, and so do the dense ``rank``,
``kernel_basis`` and ``solve`` over the immutable ``RationalMatrix``, kept
only for the benchmark tracer and the tests.

No result depends on the pivot order.  Ranks and span membership are
invariants of the subspace, and coordinates over independent vectors are
unique.  Kernels come from column relations: adding the columns in order,
column j either enlarges the span or is a unique combination of the earlier
columns that did.  In the second case the kernel vector is 1 at j, minus
those coefficients on the earlier columns, and 0 elsewhere.  That is the
basis read off the reduced row echelon form, whichever rows the elimination
pivots on; ``column_kernel`` returns each such vector times the least
positive int that makes it integral.  ``solve`` expresses the right-hand
side over the same columns, so its free variables are 0.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .errors import ShapeMismatch

ZERO = Fraction(0)
ONE = Fraction(1)


def scalar(value) -> Fraction:
    """Coerce an int, Fraction, or ``p/q`` string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_scalar(q: Fraction) -> str:
    """Render a rational as ``p`` or ``p/q`` (lowest terms, q > 0)."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def axpy(out: dict, items: Iterable, c) -> None:
    """out += c * vec for a sparse vec given as (key, value) pairs.

    Entries that cancel to zero are removed, so sparse vectors never store
    zeros and an empty dict is the zero vector.  Missing keys start at int 0,
    so Fraction inputs give Fractions and int inputs stay ints.  The product
    is skipped for c = ONE, the coefficient of basis vectors, which saves a
    Fraction multiplication per entry on the commonest call.
    """
    unit = c is ONE
    for k, v in items:
        nv = out.get(k, 0) + (v if unit else c * v)
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)


class RationalMatrix:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(tuple(scalar(x) for x in row) for row in entries)
        self.entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise ShapeMismatch("ragged rows")

    def __repr__(self):
        body = "; ".join(" ".join(format_scalar(x) for x in row) for row in self.entries)
        return f"RationalMatrix[{self.rows}x{self.cols}]({body})"


class IncrementalSpan:
    """Growable subspace with exact membership and coordinates.

    Vectors are sparse dicts ``{key: value}`` or dense sequences (keys
    0..n-1) of ints, ``Fraction``s or ``p/q`` strings.  Keys may be any
    hashables, of mixed types: each is numbered the first time the span sees
    it and only those numbers are ever compared.  A new row pivots on its most
    recently numbered key, which keeps fill-in lower than the oldest key on
    the zero-block rank test.

    The elimination is fraction-free.  Each input is scaled once to a
    primitive int vector w = (u/v) vec (one lcm, one gcd), and rows are
    stored primitive with a positive pivot entry p.  Clearing a pivot whose
    entry in the working vector is c replaces it by (p/g) w - (c/g) row,
    g = gcd(p, c), so no step divides; a vector that stays nonzero is divided
    once by its signed content to become a row.  Each step is recorded as
    the ints (index, p/g, c/g).

    Each accepted row keeps only its own steps.  The rows' coordinates over
    the accepted w's are assembled from those as ints over one denominator
    per row, in acceptance order, the first time ``express`` or
    ``column_kernel`` needs them, so callers that only add vectors never pay
    for coordinates.  They become ``Fraction`` coefficients of the accepted
    vectors only in the coordinates ``express`` returns.
    """

    def __init__(self):
        self._numbers: dict = {}  # key -> number, in order of first sight
        self._rows: list = []     # (pivot, pivot entry > 0, primitive int row), in acceptance order
        self._row_of: dict = {}   # pivot -> index of its row
        self._steps: list = []    # per accepted vector: ((u, v), content, [(index, a, b)])
        self._coords: list = []   # per accepted row: (den, ints) over the accepted w's

    def _sparse(self, vec) -> tuple[dict, tuple[int, int]]:
        """vec as a primitive int vector w over key numbers, and (u, v) with w = (u/v) vec."""
        numbers = self._numbers
        out = {}
        rational = False
        for key, x in vec.items() if isinstance(vec, dict) else enumerate(vec):
            if not isinstance(x, int):
                x = scalar(x)
                rational = True
            if x:
                k = numbers.get(key)
                if k is None:
                    k = numbers[key] = len(numbers)
                out[k] = x
        if not out:
            return out, (1, 1)
        den = 1
        if rational:
            den = lcm(*[x.denominator for x in out.values()])
            out = {k: x.numerator * (den // x.denominator) for k, x in out.items()}
        g = gcd(*out.values())
        if g != 1:
            out = {k: x // g for k, x in out.items()}
        return out, (den, g)

    def _reduce(self, vec: dict) -> list:
        """Clear every pivot from vec in place; returns the steps (index, a, b).

        Step j replaces vec by a_j vec - b_j row[index_j].  A row is zero at
        the pivots of the rows accepted before it, so clearing in acceptance
        order clears them all.  Only rows whose pivot vec holds, or a cleared
        row brings in, are visited: the heap yields them in that order.
        """
        rows, row_of = self._rows, self._row_of
        queue = [i for i in map(row_of.get, vec) if i is not None]
        heapify(queue)
        queued = set(queue)
        steps = []
        while queue:
            index = heappop(queue)
            pivot, p, row = rows[index]
            c = vec.get(pivot)
            if not c:
                continue
            g = gcd(p, c)
            a, b = p // g, c // g
            if a != 1:
                for k in vec:
                    vec[k] *= a
            axpy(vec, row.items(), -b)
            steps.append((index, a, b))
            if not vec:
                break
            for j in map(row_of.get, row):
                if j is not None and j not in queued:
                    queued.add(j)
                    heappush(queue, j)
        return steps

    def _place(self, vec) -> tuple | None:
        """Accept vec and return None if it is new, else return (scale, steps) of its reduction."""
        vec, scale = self._sparse(vec)
        steps = self._reduce(vec)
        if not vec:
            return scale, steps
        pivot = max(vec)
        content = gcd(*vec.values())
        if vec[pivot] < 0:
            content = -content
        if content != 1:
            vec = {k: x // content for k, x in vec.items()}
        self._row_of[pivot] = len(self._rows)
        self._rows.append((pivot, vec[pivot], vec))
        self._steps.append((scale, content, steps))
        return None

    def _sum(self, steps: list) -> tuple[int, int, dict]:
        """(A, L, X) with A w - X / L what the steps left of w; X over the accepted w's.

        Step j replaced v by a_j v - b_j row_j, so A = a_0...a_J and row_j
        enters with b_j a_{j+1}...a_J: after dividing by A, with the
        coefficient b_j / (a_0...a_j).  L is the lcm of the rows' coordinate
        denominators, which must already be assembled.
        """
        coords = self._coords
        A = prod(a for _, a, _ in steps)
        L = lcm(*[coords[index][0] for index, _, _ in steps])
        out: dict = {}
        prefix = 1
        for index, a, b in steps:
            prefix *= a
            den, row = coords[index]
            axpy(out, row.items(), b * (A // prefix) * (L // den))
        return A, L, out

    def _combination(self, scale: tuple, steps: list) -> tuple[int, dict]:
        """(D, N) with D vec = sum_i N_i vec_i, D > 0, for a vec whose w reduced to zero.

        Each row's coordinates over the accepted w's are kept as ints over
        one positive denominator, assembled here on first need.  The sum is
        then brought over one lcm of the accepted vectors' scales, so D and
        the N_i are ints, with no gcd taken.
        """
        coords, accepted = self._coords, self._steps
        for _, content, row_steps in accepted[len(coords):]:
            # content * row = A w_k - X / L for the w_k the row was accepted from
            A, L, combo = self._sum(row_steps)
            combo[len(coords)] = -A * L
            den = -content * L
            g = gcd(den, *combo.values())
            if den < 0:
                g = -g
            coords.append((den // g, {k: x // g for k, x in combo.items()}))
        A, L, combo = self._sum(steps)
        # A w = X / L with w = (u/v) vec and w_i = (u_i/v_i) vec_i, so over
        # V = lcm(v_i): A L u V vec = sum_i X_i u_i v (V / v_i) vec_i
        u, v = scale
        V = lcm(*[accepted[i][0][1] for i in combo])
        out = {}
        for i, x in combo.items():
            u_i, v_i = accepted[i][0]
            out[i] = x * u_i * v * (V // v_i)
        return A * L * u * V, out

    def add(self, vec) -> bool:
        """Add a vector; returns True if it enlarged the span."""
        return self._place(vec) is None

    def express(self, vec) -> dict | None:
        """Coordinates of vec over the accepted vectors, or None if outside.

        Keys are acceptance indices: 0 is the first vector that enlarged the
        span.
        """
        vec, scale = self._sparse(vec)
        steps = self._reduce(vec)
        if vec:
            return None
        D, N = self._combination(scale, steps)
        return {i: Fraction(x, D) for i, x in N.items()}

    @property
    def dim(self) -> int:
        return len(self._rows)


def column_kernel(columns: Sequence) -> list[dict]:
    """Basis of {x : sum_j x_j columns[j] = 0}, as primitive int relations.

    Columns are sparse dicts or dense sequences; the basis vectors are sparse
    dicts over column positions, one per column j that depends on earlier
    ones.  Each is the reduced-echelon vector of j (1 at j) times the least
    positive int that clears its denominators, so it is positive at j, its
    largest position, and its entries have gcd 1.
    """
    span = IncrementalSpan()
    independent = []  # positions of the columns that enlarged the span
    basis = []
    for j, col in enumerate(columns):
        relation = span._place(col)
        if relation is None:
            independent.append(j)
        else:
            D, N = span._combination(*relation)
            g = gcd(D, *N.values())
            vec = {independent[i]: -x // g for i, x in N.items()}
            vec[j] = D // g
            basis.append(vec)
    return basis


def span_dim(vectors: Iterable) -> int:
    """Dimension of the span of the given vectors."""
    span = IncrementalSpan()
    for v in vectors:
        span._place(v)
    return span.dim


def rank(A: RationalMatrix) -> int:
    """Exact rank over Q."""
    return span_dim(A.entries)


def kernel_basis(A: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Reduced-echelon basis of the right null space (free variable set to 1)."""
    basis = []
    for vec in column_kernel(list(zip(*A.entries))):
        lead = vec[max(vec)]
        basis.append(tuple(Fraction(vec.get(j, 0), lead) for j in range(A.cols)))
    return basis


def solve(A: RationalMatrix, b: Sequence) -> tuple[Fraction, ...] | None:
    """One exact solution of A x = b (free variables set to 0), or None."""
    b = [scalar(x) for x in b]
    if len(b) != A.rows:
        raise ShapeMismatch("right-hand side length does not match row count")
    span = IncrementalSpan()
    independent = [j for j, col in enumerate(zip(*A.entries)) if span._place(col) is None]
    coords = span.express(b)
    if coords is None:
        return None
    x = [ZERO] * A.cols
    for i, c in coords.items():
        x[independent[i]] = c
    return tuple(x)
