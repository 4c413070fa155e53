"""Koszul complexes of sections, the duality pairing, and the trace map.

The exterior algebra on d letters is indexed by subsets of {1..d} in
lexicographic order, and every sign in this module comes from one rule:
the sign of merging two disjoint subsets is the parity of their
inversions.  Contraction, wedge multiplication, the duality pairing and
the splitting isomorphisms are all instances of that rule, so the tests
pin the small cases once and the rest cannot drift independently.

The normalization of the pairing is the one forced by the ambient sign
conventions of ``complexes``: under those, the dual of [R -> R] by s
carries +s again, so the length-one pairing is (+1, +1) and everything
longer is its tensor power.  Presentations that negate the dual
differential write the same space with components (-1, 1); the two differ
by a unit change of basis, not in substance.  The flagship check below
(``x_map`` against ``koszul_form``) is convention-independent either way:
both sides are built from the same frozen rules through disjoint code
paths.  ``verify``'s theta cases run it together with the laws it rests
on: the multiplication ``delta_map`` is unital and associative, and the
tensor-hom adjunction satisfies its triangle identities.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache
from math import comb

from . import linalg
from .complexes import (
    RANK_CAP,
    ChainComplex,
    ChainMap,
    DualityDatum,
    adjunction_unit,
    associator,
    bidual_map,
    cone,
    dual_line,
    dualize,
    dualize_map,
    duality_interchange,
    graded_homology_dims,
    hom_post,
    infer_grading,
    left_unitor,
    scale_map,
    single,
    tensor,
    tensor_layout,
    tensor_map,
)
from .errors import BoundsExceeded, NotAChainMap, NotRegularSequence
from .fields import kept

#: default internal-degree bound for graded exactness certificates
DEFAULT_BOUND = 6


class KoszulDatum:
    """A free module of rank d with a section (s_1, .., s_d) and a twist.

    The twist is a unit of the ring standing in for the determinant line;
    it never enters a matrix, only the duality bookkeeping.
    """

    __slots__ = ("ring", "rank", "section", "twist", "_memo")

    def __init__(self, ring, section, twist=None):
        section = tuple(ring.element(s) for s in section)
        if not section:
            raise ValueError("a Koszul datum needs a section of rank >= 1")
        if any(s.is_zero() for s in section):
            raise ValueError("section entries must be nonzero")
        twist = ring.one() if twist is None else ring.element(twist)
        self.ring = ring
        self.rank = len(section)
        self.section = section
        self.twist = twist
        self._memo = {}
        self.duality()  # rejects non-unit twists

    def duality(self):
        """Duality against the inverse determinant line, shifted by the rank."""
        return DualityDatum(self.ring, twist=_unit_inverse(self.ring, self.twist), degree=self.rank)

    def __repr__(self):
        return f"KoszulDatum(rank={self.rank}, section={list(self.section)!r})"

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "section": [s.to_json() for s in self.section],
            "twist": self.twist.to_json(),
        }


def _unit_inverse(ring, x):
    if getattr(ring, "is_field", False):
        return x.inverse()
    return ring.constant(x.constant_value().inverse())


@lru_cache(maxsize=None)
def _subsets(d, k):
    return tuple(itertools.combinations(range(1, d + 1), k))


@lru_cache(maxsize=None)
def _subset_index(d, k):
    return {s: i for i, s in enumerate(_subsets(d, k))}


def _shuffle_sign(s, t):
    """Sign of sorting s ++ t into one subset; 0 when they overlap."""
    if set(s) & set(t):
        return 0
    inversions = sum(1 for a in s for b in t if a > b)
    return -1 if inversions % 2 else 1


@kept
def koszul_complex(k):
    """Contraction with the section; the term in degree i has rank C(d, i).

    Built on first use and kept on the datum, so every construction from
    ``k`` shares one complex.
    """
    ring, d = k.ring, k.rank
    terms = {i: comb(d, i) for i in range(d + 1)}
    mats = {}
    for i in range(1, d + 1):
        rows = _subset_index(d, i - 1)
        mat = defaultdict(dict)
        for c, subset in enumerate(_subsets(d, i)):
            for pos, j in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1 :]
                entry = k.section[j - 1]
                mat[rows[rest]][c] = entry if pos % 2 == 0 else -entry
        mats[i] = mat
    return ChainComplex(ring, terms, mats)


class SymmetricSpace:
    """A complex with a chain-map form into its twisted dual.

    The symmetry sign is measured, never asserted: the constructor
    computes dualize(form) . bidual and records whether that is +form or
    -form, refusing anything else.
    """

    __slots__ = ("carrier", "duality", "form", "symmetry_sign")

    def __init__(self, carrier, duality, form):
        d = duality.degree
        if form.source != carrier or form.target != dualize(carrier, d):
            raise NotAChainMap("the form must map the carrier to its dual")
        transposed = dualize_map(form, d).compose(bidual_map(carrier, d))
        if transposed == form:
            sign = 1
        elif transposed == scale_map(form, carrier.ring.from_int(-1)):
            sign = -1
        else:
            raise ValueError("the form is neither symmetric nor antisymmetric")
        self.carrier = carrier
        self.duality = duality
        self.form = form
        self.symmetry_sign = sign

    def __repr__(self):
        ranks = ", ".join(f"{n}:{r}" for n, r in sorted(self.carrier.terms.items()))
        return f"SymmetricSpace([{ranks}], sign={self.symmetry_sign:+d})"

    def to_json(self):
        return {
            "ranks": {str(n): r for n, r in sorted(self.carrier.terms.items())},
            "duality": self.duality.to_json(),
            "symmetry_sign": self.symmetry_sign,
            "metadata": {},
        }


def koszul_form(k):
    """The pairing Kos -> Hom(Kos, twist[d]): wedge onto the top power.

    Component i sends the basis vector of a subset S to the functional
    picking out the complementary subset, weighted by the merge sign.
    """
    ring, d = k.ring, k.rank
    kos = koszul_complex(k)
    datum = k.duality()
    everything = set(range(1, d + 1))
    mats = {}
    for i in range(d + 1):
        rows = _subset_index(d, d - i)
        mat = {}
        for u, subset in enumerate(_subsets(d, i)):
            other = tuple(sorted(everything - set(subset)))
            mat[rows[other]] = {u: ring.from_int(_shuffle_sign(subset, other))}
        mats[i] = mat
    form = ChainMap(kos, dualize(kos, d), mats)
    return SymmetricSpace(kos, datum, form)


def delta_map(k):
    """Exterior multiplication Kos (x) Kos -> Kos with merge signs."""
    ring, d = k.ring, k.rank
    kos = koszul_complex(k)
    mats = {}
    for n in kos.terms:
        mat = defaultdict(dict)
        rows = _subset_index(d, n)
        for (i, j), (off, _, rb) in tensor_layout(kos, kos, n).items():
            for p, left in enumerate(_subsets(d, i)):
                for q, right in enumerate(_subsets(d, j)):
                    sign = _shuffle_sign(left, right)
                    if sign:
                        merged = tuple(sorted(left + right))
                        mat[rows[merged]][off + p * rb + q] = ring.from_int(sign)
        mats[n] = mat
    return ChainMap(tensor(kos, kos), kos, mats)


def sigma_map(k):
    """Projection onto the top exterior power: the identity in degree d, into
    the line the duals of the Koszul complex map into."""
    kos = koszul_complex(k)
    return ChainMap(kos, dual_line(kos, k.rank), {k.rank: {0: {0: k.ring.one()}}})


def unit_inclusion(k):
    """The ring into degree 0 of the Koszul complex; the unit for delta."""
    return ChainMap(single(k.ring, 0), koszul_complex(k), {0: {0: {0: k.ring.one()}}})


def delta_unital(k):
    """delta . (unit (x) id) agrees with the left unitor, matrix-exactly."""
    kos = koszul_complex(k)
    via_delta = delta_map(k).compose(tensor_map(unit_inclusion(k), ChainMap.identity(kos)))
    return via_delta == left_unitor(kos)


def delta_associative(k):
    """delta . (delta (x) id) = delta . (id (x) delta) . associator."""
    kos = koszul_complex(k)
    delta = delta_map(k)
    one = ChainMap.identity(kos)
    lhs = delta.compose(tensor_map(delta, one))
    rhs = delta.compose(tensor_map(one, delta)).compose(associator(kos, kos, kos))
    return lhs == rhs


def x_map(k):
    """The adjoint of (top-power projection) . (wedge multiplication).

    Built entirely from the tensor-hom adjunction: the unit sends a to the
    map b -> a (x) b, post-composition by delta then sigma lands in the
    twisted dual.  Shares no code with ``koszul_form``, which is the point:
    the two are compared matrix-exactly.
    """
    for total in (2**k.rank, 4**k.rank, 8**k.rank):  # Kos, Kos (x) Kos, Hom(Kos, Kos (x) Kos)
        if total > RANK_CAP:  # the cap of each, in build order, before any is built
            raise BoundsExceeded(f"total rank {total} exceeds cap {RANK_CAP}")
    kos = koszul_complex(k)
    return hom_post(kos, sigma_map(k).compose(delta_map(k))).compose(adjunction_unit(kos, kos))


@kept
def split_section(k, head):
    """Split the section after position ``head``: the head datum, which keeps
    the twist, the tail datum, and Kos_F -> Kos_head (x) Kos_tail, which
    splits each subset at ``head``.

    The plain subset split is already a chain map: elements of the head
    block precede the tail block, so no inversions appear.  The split is kept
    on ``k`` per head, so it shares its Koszul complexes and builds its iso once.
    """
    if not 1 <= head < k.rank:
        raise ValueError(f"split position must satisfy 1 <= head < {k.rank}")
    first = KoszulDatum(k.ring, k.section[:head], twist=k.twist)
    second = KoszulDatum(k.ring, k.section[head:])
    ring, d = k.ring, k.rank
    kos = koszul_complex(k)
    a = koszul_complex(first)
    b = koszul_complex(second)
    one = ring.one()
    mats = {}
    for n in kos.terms:
        mat = {}
        layout = tensor_layout(a, b, n)
        for u, subset in enumerate(_subsets(d, n)):
            low = tuple(x for x in subset if x <= head)
            high = tuple(x - head for x in subset if x > head)
            off, _, rb = layout[(len(low), len(high))]
            p = _subset_index(head, len(low))[low]
            q = _subset_index(d - head, len(high))[high]
            mat[off + p * rb + q] = {u: one}
        mats[n] = mat
    return first, second, ChainMap(kos, tensor(a, b), mats)


def theta_multiplicative(k, head):
    """Whether the pairing of F corresponds to the tensor pairing of a split."""
    first, second, c = split_section(k, head)
    s1, s2 = koszul_form(first), koszul_form(second)
    d1, d2 = s1.duality.degree, s2.duality.degree
    lam = duality_interchange(s1.carrier, s2.carrier, d1, d2)
    rhs = (
        dualize_map(c, d1 + d2)
        .compose(lam)
        .compose(tensor_map(s1.form, s2.form))
        .compose(c)
    )
    return koszul_form(k).form == rhs


# ---------------------------------------------------------------------------
# the trace diagram and the split certificate
# ---------------------------------------------------------------------------


class TraceDiagram:
    """The twisted augmented Koszul complex and its exactness certificate."""

    __slots__ = ("middle", "certificate")

    def __init__(self, middle, certificate):
        self.middle = middle
        self.certificate = certificate

    def __repr__(self):
        return f"TraceDiagram(socle={self.certificate['socle_dims']!r})"


def trace_diagram(k, bound=DEFAULT_BOUND):
    """The augmented Koszul complex and its exactness.

    The middle row has the i-th exterior power in degree -i with the
    wedge-by-the-section differential.  The certificate records the graded
    homology through the internal-degree bound, which must be concentrated
    in degree -d; anything else raises with the offending dimensions.  A bound
    below every internal degree of the other terms checks nothing: it raises.
    A nonzero constant entry makes R/(s) = 0, so s is not regular (Matsumura,
    Sec. 16): it raises first, with the constant entries by position as witness.
    """
    ring, d = k.ring, k.rank
    units = {i: repr(s) for i, s in enumerate(k.section, 1) if s.total_degree() == 0}
    if units:
        raise NotRegularSequence(
            f"section entries that are nonzero constants make R/(s) = 0: {sorted(units.items())}",
            witness=units,
            key="constant_entries",
        )
    # wedging with the section is the transpose of contracting with it
    contraction = koszul_complex(k)._mats
    wedge = {-i: linalg.transpose(contraction[i + 1]) for i in range(d)}
    middle = ChainComplex(ring, {-i: comb(d, i) for i in range(d + 1)}, wedge)
    low = min(t for (n, _), t in infer_grading(middle).items() if n != -d)
    if bound < low:
        raise BoundsExceeded(
            f"internal-degree bound {bound} is below {low}, the lowest at which "
            f"homology away from degree {-d} can live"
        )
    homology = graded_homology_dims(middle, bound)
    stray = {key: v for key, v in homology.items() if key[0] != -d}
    if stray:
        raise NotRegularSequence(
            f"graded homology away from degree {-d}: {sorted(stray.items())}",
            witness=stray,
            key="homology",
        )
    certificate = {
        "bound": bound,
        "socle_degree": -d,
        "socle_dims": {t: v for (_, t), v in sorted(homology.items())},
    }
    return TraceDiagram(middle, certificate)


class SplitCertificate:
    """Certified splitting of a Koszul space along its last section entry."""

    __slots__ = (
        "rank",
        "split",
        "iso",
        "iso_inverse",
        "iso_invertible",
        "form_factorizes",
        "cone_factor",
        "cone_matches",
    )

    def __init__(
        self,
        rank,
        split,
        iso,
        iso_inverse,
        iso_invertible,
        form_factorizes,
        cone_factor,
        cone_matches,
    ):
        self.rank = rank
        self.split = split
        self.iso = iso
        self.iso_inverse = iso_inverse
        self.iso_invertible = iso_invertible
        self.form_factorizes = form_factorizes
        self.cone_factor = cone_factor
        self.cone_matches = cone_matches

    def __bool__(self):
        return self.iso_invertible and self.form_factorizes and self.cone_matches

    def __repr__(self):
        status = "ok" if self else "FAILED"
        return f"SplitCertificate(rank={self.rank}, split={self.split}, {status})"

    def to_json(self):
        return {
            "rank": self.rank,
            "split": list(self.split),
            "iso_invertible": self.iso_invertible,
            "form_factorizes": self.form_factorizes,
            "cone_matches": self.cone_matches,
            # a factor exhibited as the cone of a map of line complexes is
            # hyperbolic up to homotopy, hence trivial in the Witt group
            "witt_trivial_factor": self.cone_matches,
        }


def split_factorization(k):
    """Split off the last section entry and certify the factorization.

    Certifies three matrix-exact facts: the subset-splitting map is an
    isomorphism, the pairing corresponds to the tensor of the two smaller
    pairings, and the length-one factor is the cone of multiplication by
    its entry on the twist line.  For rank one the splitting is trivial
    and only the cone identification is in play.
    """
    ring, d = k.ring, k.rank
    kos = koszul_complex(k)
    line = single(ring, 0)
    cone_factor = cone(ChainMap(line, line, {0: {0: {0: k.section[-1]}}}))
    if d == 1:
        iso = inverse = ChainMap.identity(kos)
        form_factorizes = True
        cone_matches = cone_factor == kos
        split = (1,)
    else:
        _, tail, iso = split_section(k, d - 1)
        transposes = {n: linalg.transpose(iso._mats.get(n, {})) for n in iso._degrees}
        inverse = ChainMap(iso.target, iso.source, transposes)
        form_factorizes = theta_multiplicative(k, d - 1)
        cone_matches = cone_factor == koszul_complex(tail)
        split = (d - 1, 1)
    invertible = inverse.compose(iso).is_identity() and iso.compose(inverse).is_identity()
    return SplitCertificate(
        rank=d,
        split=split,
        iso=iso,
        iso_inverse=inverse,
        iso_invertible=invertible,
        form_factorizes=form_factorizes,
        cone_factor=cone_factor,
        cone_matches=cone_matches,
    )
