"""The three benchmark workloads: pools, seeded rounds, jobs and their checks.

Each workload is closed loop with one client: one job at a time, no threads.
A round is a seeded stratified sample: the pool is sorted by a cost key
computed from the input alone (Kac dimension, atypicality) and cut into
strata, and a round takes one job from each stratum in a seeded order, plus
any fixed jobs the workload always runs.  With an odd number of strata the
median job, and with a suitable percentile the tail job, falls inside a
stratum rather than on the edge between two.  Each stratum is cut again into
``cycle`` parts, and every ``cycle`` consecutive rounds draw from each part
once, so a run of that many rounds covers the whole cost range of every
stratum.  Rounds are numbered; round k of a seed is the same list of jobs on
every run and every commit.

A job returns a record of basis-independent outputs (dimensions,
superdimensions, weight multisets, support families, cohomology and Ext
tables).  Its digest is compared with ``reference.json``, and every job is
also checked against answers that do not come from the code under test: the
Weyl dimension formula, the brute-force atypicality oracle, the closed-form
support, the second Ext route, the BKN I Hilbert series, Hom out of a Kac
module, and the two-divisibility law.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement


def digest(record) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def weyl_dim(block) -> int:
    """Weyl dimension of the simple gl(k) module of a dominant integral weight."""
    d = Fraction(1)
    k = len(block)
    for i in range(k):
        for j in range(i + 1, k):
            d *= Fraction(block[i] - block[j] + j - i, j - i)
    return int(d)


def kac_dim(m: int, n: int, coords) -> int:
    return 2 ** (m * n) * weyl_dim(coords[:m]) * weyl_dim(coords[m:])


def atypicality_count(m: int, n: int, coords) -> int:
    """Number of matched pairs (lam+rho)_i = -(lam+rho)_j, by a greedy match."""
    shifted = [c + r for c, r in zip(coords, _rho(m, n))]
    used, count = set(), 0
    for i in range(m):
        for j in range(m, m + n):
            if j not in used and shifted[j] == -shifted[i]:
                used.add(j)
                count += 1
                break
    return count


def _rho(m: int, n: int) -> list:
    """Half the even positive roots minus half the odd positive roots."""
    two = [0] * (m + n)
    for i in range(m + n):
        for j in range(i + 1, m + n):
            sign = 1 if (i < m) == (j < m) else -1
            two[i] += sign
            two[j] -= sign
    return [Fraction(t, 2) for t in two]


def hilbert_coefficients(r: int, p_max: int) -> list[int]:
    """Coefficients of prod_{i=1..r} 1/(1 - t^{2i}) up to t^p_max (BKN I)."""
    coeffs = [1] + [0] * p_max
    for i in range(1, r + 1):
        step = 2 * i
        for p in range(step, p_max + 1):
            coeffs[p] += coeffs[p - step]
    return coeffs


def dominant_coords(m: int, n: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    firsts = combinations_with_replacement(range(hi, lo - 1, -1), m)
    seconds = list(combinations_with_replacement(range(hi, lo - 1, -1), n))
    return [tuple(f) + tuple(s) for f in firsts for s in seconds]


def wstr(m: int, coords) -> str:
    return ",".join(map(str, coords[:m])) + "|" + ",".join(map(str, coords[m:]))


def weight_multiset(M) -> list:
    counts: dict = {}
    for w in M.weights:
        key = ",".join(str(c) for c in w.coords)
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def module_record(M) -> dict:
    return {"dim": M.dim, "sdim": M.superdimension, "weights": weight_multiset(M)}


def family(subsets) -> list:
    return sorted((sorted(s) for s in subsets if s), key=lambda s: (len(s), s))


def tested_record(emp) -> list:
    return [[list(subset), [str(c) for c in coords], verdict]
            for subset, coords, verdict in emp.tested]


def cut(jobs: list, k: int) -> list[list]:
    """Split a sorted list into k consecutive parts of near-equal size."""
    return [jobs[i * len(jobs) // k:(i + 1) * len(jobs) // k] for i in range(k)]


class Job:
    """One unit of closed-loop work: its input, and a key naming that input."""

    __slots__ = ("key", "spec")

    def __init__(self, key: str, spec: tuple):
        self.key = key
        self.spec = spec


class Workload:
    name = ""
    why = ""
    algebras: tuple = ()
    strata_count = 1
    cycle = 1
    tail_percentile = 75

    def pool(self) -> list[Job]:
        raise NotImplementedError

    def cost_key(self, job: Job):
        raise NotImplementedError

    def fixed_jobs(self) -> list[Job]:
        return []

    def short_jobs(self) -> list[Job]:
        """A few cheap jobs for the self-test."""
        raise NotImplementedError

    def setup(self, sv):
        """Build the algebras this workload uses (part of set-up time)."""
        for m, n in self.algebras:
            sv.gl_superalgebra(m, n)
            sv.gl_even_subalgebra(m, n)
            sv.detecting_subalgebra(m, n)

    def strata(self) -> list[list[Job]]:
        return cut(sorted(self.pool(), key=lambda j: (self.cost_key(j), j.key)), self.strata_count)

    def run(self, sv, job: Job) -> tuple[list[str], dict]:
        """Run one job; returns (problems, basis-independent record)."""
        raise NotImplementedError


class Rounds:
    """The seeded stream of rounds of one workload."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.strata = workload.strata()
        self.fixed = workload.fixed_jobs()

    def round(self, k: int) -> list[Job]:
        tag = f"{self.workload.name}:{self.seed}"
        rng = random.Random(f"{tag}:{k}")
        jobs = list(self.fixed)
        for i, stratum in enumerate(self.strata):
            parts = min(self.workload.cycle, len(stratum))
            order = list(range(parts))
            random.Random(f"{tag}:cycle{k // parts}:{i}").shuffle(order)
            jobs.append(rng.choice(cut(stratum, parts)[order[k % parts]]))
        rng.shuffle(jobs)
        return jobs


# ---------------------------------------------------------------------------
# sweep-gl22


class SweepGL22(Workload):
    name = "sweep-gl22"
    why = ("the acceptance sweep users run: gl(2|2) Kac and simple modules, "
           "verify_rep on both, supports, atypicality oracle, divisibility")
    algebras = ((2, 2),)
    strata_count = 9
    cycle = 4
    tail_percentile = 70

    def pool(self):
        return [Job(f"gl22:{wstr(2, c)}", (2, 2, c)) for c in dominant_coords(2, 2, -2, 2)]

    def cost_key(self, job):
        m, n, c = job.spec
        return (kac_dim(m, n, c), -atypicality_count(m, n, c))

    def short_jobs(self):
        return [Job(f"gl22:{wstr(2, c)}", (2, 2, c))
                for c in ((0, 0, 0, 0), (1, 0, 0, -1), (2, 1, 0, 0))]

    def run(self, sv, job):
        m, n, coords = job.spec
        lam = sv.weight(m, n, coords)
        r = min(m, n)
        problems = []
        K = sv.kac_module(lam)
        L = sv.simple_module(lam)
        for label, M in (("K", K), ("L", L)):
            ok, found = sv.verify_rep(M)
            if not ok:
                problems.append(f"verify_rep({label}): {found[:2]}")
        if K.dim != kac_dim(m, n, coords):
            problems.append(f"dim K = {K.dim}, Weyl formula gives {kac_dim(m, n, coords)}")
        atyp = sv.atypicality(lam).value
        oracle = sv.atypicality_oracle(lam)
        if atyp != oracle:
            problems.append(f"atypicality {atyp} != oracle {oracle}")
        emp = sv.empirical_support(L)
        theo = sv.theoretical_support(lam)
        if family(emp.subsets) != family(theo.subsets) or emp.dim != theo.dim:
            problems.append(f"support {family(emp.subsets)} != closed form {family(theo.subsets)}")
        # Kac modules have trivial support, so their codimension is r
        for label, M, dim in (("K", K, 0), ("L", L, emp.dim)):
            rep = sv.divisibility_check(M.dim, M.superdimension, dim, r)
            if not rep.passed:
                problems.append(f"divisibility law fails on {label}")
        record = {
            "kac": module_record(K), "simple": module_record(L), "atyp": atyp,
            "support": family(emp.subsets), "tested": tested_record(emp),
        }
        return problems, record


# ---------------------------------------------------------------------------
# support-gl33


# Kac dimension range of each job kind.  Smaller modules do no work at scale.
# Larger Kac modules make single jobs of 3 to 20 s, too few per run for a
# median; simple heads above 512 cost 0.3 to 2.5 s with no input property
# that predicts which, which makes the sampled tail unsteady.
SUPPORT_DIMS = {"kac": (192, 1536), "simple": (192, 512)}


class SupportGL33(Workload):
    name = "support-gl33"
    why = ("Kac modules of dim 192 to 1536 on gl(3|2) and gl(3|3): Kac straightening, "
           "the zero-block rank test and simple heads, with no verify_rep")
    algebras = ((3, 2), (3, 3))
    strata_count = 9  # 5 of kac jobs, 4 of simple jobs
    cycle = 6
    tail_percentile = 75

    def pool(self):
        jobs = []
        for m, n in self.algebras:
            for c in dominant_coords(m, n, -1, 1):
                for kind, (lo, hi) in SUPPORT_DIMS.items():
                    if lo <= kac_dim(m, n, c) <= hi:
                        jobs.append(Job(f"gl{m}{n}:{kind}:{wstr(m, c)}", (m, n, c, kind)))
        return jobs

    def cost_key(self, job):
        m, n, c, _ = job.spec
        return (kac_dim(m, n, c), -atypicality_count(m, n, c))

    def strata(self):
        # the two kinds differ in cost at equal dimension, so each gets its own strata
        pool = sorted(self.pool(), key=lambda j: (self.cost_key(j), j.key))
        return (cut([j for j in pool if j.spec[3] == "kac"], 5)
                + cut([j for j in pool if j.spec[3] == "simple"], 4))

    def short_jobs(self):
        return [Job(f"gl32:{kind}:{wstr(3, c)}", (3, 2, c, kind))
                for c in ((1, 0, 0, 0, -1), (1, 1, 0, 0, 0)) for kind in ("kac", "simple")]

    def run(self, sv, job):
        m, n, coords, kind = job.spec
        lam = sv.weight(m, n, coords)
        r = min(m, n)
        problems = []
        if kind == "kac":
            K = sv.kac_module(lam)
            if K.dim != kac_dim(m, n, coords):
                problems.append(f"dim K = {K.dim}, Weyl formula gives {kac_dim(m, n, coords)}")
            emp = sv.empirical_support(K)
            if emp.subsets or not all(v for _, _, v in emp.tested):
                problems.append(f"Kac support is not trivial: {family(emp.subsets)}")
            rep = sv.divisibility_check(K.dim, K.superdimension, emp.dim, r)
            if not rep.passed:
                problems.append("divisibility law fails on K")
            record = {"kac": module_record(K), "tested": tested_record(emp)}
        else:
            cmp = sv.compare_support(lam)
            if not cmp.match:
                problems.append(f"support mismatch: only closed form {cmp.only_theoretical}, "
                                f"only sampled {cmp.only_empirical}")
            atyp = atypicality_count(m, n, coords)
            if cmp.theoretical.dim != atyp:
                problems.append(f"closed-form support dim {cmp.theoretical.dim} != atypicality {atyp}")
            record = {"support": family(cmp.empirical.subsets),
                      "closed_form": family(cmp.theoretical.subsets),
                      "tested": tested_record(cmp.empirical)}
        return problems, record


# ---------------------------------------------------------------------------
# complex-ext


# (Kac weight, coefficient kind, coefficient weight, p_max), in four strata of
# questions of similar cost; Berezinian twists of one question share a
# stratum, so a seed changes the inputs but hardly the amount of work
EXT_STRATA = (
    [((k, k, -k, -k), "kac", (k, k, -k, -k), 1) for k in (-1, 0, 1)],
    [((0, 0, 0, 0), "simple", (0, -1, 1, 0), 1), ((1, 1, -1, -1), "simple", (1, 0, 0, -1), 1)],
    [((0, 0, 0, 0), "kac", (1, 1, -1, -1), 1), ((0, 0, 0, 0), "kac", (-1, -1, 1, 1), 1),
     ((1, 1, -1, -1), "kac", (0, 0, 0, 0), 1), ((-1, -1, 1, 1), "kac", (0, 0, 0, 0), 1)],
    [((0, 0, 0, 0), "simple", (1, 0, 0, -1), 1), ((-1, -1, 1, 1), "simple", (1, 0, 0, -1), 2)],
)

COHOMOLOGY_JOBS = ((2, 2, 4), (3, 2, 4), (3, 3, 4))


def _ext_job(lam, kind, mu, p) -> Job:
    target = "K" if kind == "kac" else "L"
    return Job(f"ext:K({wstr(2, lam)})->{target}({wstr(2, mu)}):p{p}", (lam, kind, mu, p))


class ComplexExt(Workload):
    name = "complex-ext"
    why = ("relative cochain complexes: trivial-coefficient cohomology of gl(2|2), "
           "gl(3|2), gl(3|3) and full-complex Ext on gl(2|2) against the layer route")
    algebras = ((2, 2), (3, 2), (3, 3))
    strata_count = len(EXT_STRATA)
    cycle = 4
    tail_percentile = 70

    def pool(self):
        return [_ext_job(*q) for stratum in EXT_STRATA for q in stratum]

    def strata(self):
        return [[_ext_job(*q) for q in stratum] for stratum in EXT_STRATA]

    def fixed_jobs(self):
        return [Job(f"cohom:gl{m}{n}:p{p}", (m, n, p)) for m, n, p in COHOMOLOGY_JOBS]

    def short_jobs(self):
        return [Job("cohom:gl22:p4", (2, 2, 4)),
                _ext_job((0, 0, 0, 0), "simple", (1, 0, 0, -1), 1)]

    def run(self, sv, job):
        problems = []
        if job.key.startswith("cohom:"):
            m, n, p = job.spec
            g = sv.gl_superalgebra(m, n)
            dims = sv.cohomology_dims(g, sv.trivial_module(g), p)
            expected = hilbert_coefficients(min(m, n), p)
            if dims != expected:
                problems.append(f"H(gl({m}|{n})) = {dims}, Hilbert series gives {expected}")
            return problems, {"cohomology": dims}
        lam_c, kind, mu_c, p = job.spec
        lam = sv.weight(2, 2, lam_c)
        K = sv.kac_module(lam)
        mu = sv.weight(2, 2, mu_c)
        N = sv.kac_module(mu) if kind == "kac" else sv.simple_module(mu)
        full = list(sv.ext_dims(K, N, p).dims)
        layer = list(sv.kac_ext_dims(lam, N, p).dims)
        if full != layer:
            problems.append(f"Ext routes disagree: full {full}, layer {layer}")
        # Hom(K(lam), L(mu)) = delta(lam, mu); End(K(lam)) is one-dimensional
        if kind == "simple" and full[0] != int(lam_c == mu_c):
            problems.append(f"Hom(K, L) = {full[0]}")
        if kind == "kac" and lam_c == mu_c and full[0] != 1:
            problems.append(f"End(K) = {full[0]}")
        return problems, {"ext": full}


WORKLOADS = {w.name: w for w in (SweepGL22(), ComplexExt(), SupportGL33())}
