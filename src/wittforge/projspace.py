"""Cohomology of line bundles on projective space, monomial by monomial.

The Cech complex of O(m) on the standard cover of P^r splits as a direct
sum over Laurent monomials of total degree m, and the summand of a
monomial depends only on which exponents are negative.  For each such
support pattern the summand is a (reduced, when the pattern is nonempty)
simplicial cochain complex, evaluated here over the query field with
exact ranks; the monomials are then counted per pattern.  Only the
all-nonnegative and all-negative patterns carry homology, which is what
confines cohomology to the two ends and forces the vanishing window
-r <= m <= -1.  The dimensions are independently cross-checked against
the binomial closed forms.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

from . import linalg
from .errors import BoundsExceeded, ParityError, WittforgeError
from .fields import FieldSpec

#: dimension cap: monomial enumeration is exponential in r
MAX_R = 6
#: cap on enumerated monomials per query (witness lists stay printable)
MAX_MONOMIALS = 100_000


class ProjLineBundleQuery:
    """O(m) on P^r over a chosen field."""

    __slots__ = ("r", "m", "field")

    def __init__(self, r, m, field):
        r, m = int(r), int(m)
        if not 1 <= r <= MAX_R:
            raise BoundsExceeded(f"projective dimension r={r} outside 1..{MAX_R}")
        if comb(abs(m) + r, r) > MAX_MONOMIALS:
            raise BoundsExceeded(f"twist m={m} enumerates too many monomials")
        self.r = r
        self.m = m
        self.field = field

    def __repr__(self):
        return f"ProjLineBundleQuery(O({self.m}) on P^{self.r} / {self.field})"

    def to_json(self):
        return {"r": self.r, "m": self.m, "field": self.field.to_json()}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["r"], obj["m"], FieldSpec.from_json(obj["field"]))


class CohomologyReport:
    """Dimensions (h^0, .., h^r) with the contributing Laurent monomials."""

    __slots__ = ("r", "m", "dims", "witnesses")

    def __init__(self, r, m, dims, witnesses):
        dims = tuple(int(d) for d in dims)
        if any(d < 0 for d in dims):
            raise ValueError("negative cohomology dimension")
        if any(d for d in dims[1:-1]):
            raise ValueError("intermediate cohomology must vanish on P^r")
        self.r = r
        self.m = m
        self.dims = dims
        self.witnesses = {i: tuple(w) for i, w in witnesses.items() if w}

    def is_zero(self):
        return not any(self.dims)

    def __repr__(self):
        return f"CohomologyReport(P^{self.r}, O({self.m}), dims={self.dims})"

    def to_json(self):
        return {
            "r": self.r,
            "m": self.m,
            "dims": list(self.dims),
            "witnesses": {
                str(i): [list(exps) for exps in ws]
                for i, ws in sorted(self.witnesses.items())
            },
        }


def _compositions(total, parts):
    """All tuples of ``parts`` nonnegative integers with the given sum."""
    if total < 0:
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=None)
def _pattern_cohomology(field, r, negative):
    """Exact cochain homology (h^0, .., h^r) of the Cech summand of one support pattern.

    ``negative`` is the sorted tuple of the pattern's indices.  Faces are the
    index sets I of the cover with negative ⊆ I, graded by p = |I| - 1; the
    coboundary drops one index with the alternating sign.  The summand does
    not depend on the twist, so each (field, r, pattern) is computed once.
    """
    pattern = set(negative)
    faces = {
        p: [
            I
            for I in itertools.combinations(range(r + 1), p + 1)
            if pattern <= set(I)
        ]
        for p in range(r + 1)
    }
    ranks = {}
    for p in range(1, r + 1):
        rows, cols = faces[p], faces[p - 1]
        if not rows or not cols:
            ranks[p] = 0
            continue
        index = {I: i for i, I in enumerate(cols)}
        signs = (field.one(), field.from_int(-1))
        mat = []
        for I in rows:
            row = {}
            for k in range(len(I)):
                j = index.get(I[:k] + I[k + 1 :])
                if j is not None:
                    row[j] = signs[k % 2]
            mat.append(row)
        ranks[p] = linalg.rank(field, mat)
    return tuple(len(faces[p]) - ranks.get(p, 0) - ranks.get(p + 1, 0) for p in range(r + 1))


def _pattern_count_and_witnesses(r, m, negative):
    """How many degree-m Laurent monomials have this negative support."""
    n = r + 1
    if not negative:
        if m < 0:
            return 0, []
        monomials = [exps for exps in _compositions(m, n)]
        return len(monomials), monomials
    if len(negative) == n:
        budget = -m - n
        if budget < 0:
            return 0, []
        monomials = [
            tuple(-1 - b for b in exps) for exps in _compositions(budget, n)
        ]
        return len(monomials), monomials
    # mixed patterns hold infinitely many monomials; their summand is exact,
    # so the count never multiplies a nonzero dimension
    return None, []


def closed_formula_dims(r, m):
    """The binomial values (h^0, .., h^r): C(m+r, r) at 0, C(-m-1, r) at r."""
    dims = [0] * (r + 1)
    if m >= 0:
        dims[0] = comb(m + r, r)
    if m <= -r - 1:
        dims[r] = comb(-m - 1, r)
    return tuple(dims)


def cohomology(q):
    """h^*(P^r, O(m)) by exact monomial decomposition of the Cech complex.

    Every negative-support pattern's summand is evaluated over the query
    field; measured homology is then weighted by the monomial count of the
    pattern.  The result is cross-checked against the closed formulas
    before it is returned.
    """
    r, m, field = q.r, q.m, q.field
    dims = [0] * (r + 1)
    witnesses = {}
    for size in range(r + 2):
        for negative in itertools.combinations(range(r + 1), size):
            pattern = set(negative)
            homology = _pattern_cohomology(field, r, negative)
            if not any(homology):
                continue
            count, mons = _pattern_count_and_witnesses(r, m, pattern)
            if count is None:
                raise WittforgeError(
                    f"mixed support pattern {sorted(pattern)} has nonzero "
                    "cohomology; the monomial decomposition is inconsistent"
                )
            if count == 0:
                continue
            for p, h in enumerate(homology):
                if h:
                    dims[p] += count * h
                    witnesses.setdefault(p, []).extend(mons)
    dims = tuple(dims)
    expected = closed_formula_dims(r, m)
    if dims != expected:
        raise WittforgeError(
            f"monomial decomposition gave {dims}, closed formula {expected}"
        )
    return CohomologyReport(r, m, dims, witnesses)


def canonical_twist(r):
    """The twist of the relative canonical bundle of P^r over a point."""
    r = int(r)
    if r < 1:
        raise BoundsExceeded(f"projective dimension r={r} must be at least 1")
    return -r - 1


def pushforward_phi_r(r, field):
    """Certificate that the half-canonical form on P^r pushes forward to zero.

    The form lives on O(-(r+1)/2), which only exists for odd r; its
    push-forward lives on the total cohomology of that twist, which sits
    inside the vanishing window, so the certificate is the all-zero
    cohomology report of the intermediate twist.
    """
    r = int(r)
    if r % 2 == 0:
        raise ParityError(
            f"r={r}: the half-canonical twist -(r+1)/2 is not integral for even r"
        )
    twist = -(r + 1) // 2
    report = cohomology(ProjLineBundleQuery(r, twist, field))
    if not report.is_zero():
        raise WittforgeError(
            f"O({twist}) on P^{r} has nonzero cohomology {report.dims}"
        )
    return report
