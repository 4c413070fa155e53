"""Bounded chain complexes of finite free modules, with duality.

Complexes use homological indexing (differentials lower the degree) and are
validated at construction: shapes line up, and d . d = 0 and a chain map's
f . d = d . f hold exactly (:func:`~wittforge.linalg.products_equal`, which
builds no product).  The sign scheme everything else derives from is

    d(a (x) b) = da (x) b + (-1)^{|a|} a (x) db
    (df)(a)    = d(f(a)) - (-1)^{|f|} f(da)

Duality against a rank-one twist in a fixed degree is Hom into a one-term
complex, so its signs are instances of the Hom rule, the bidual morphism
carries (-1)^{|a| |phi|}, and dual chain maps are plain (unsigned)
precomposition.  The twist never enters a matrix, so the dual constructions
take the degree alone.  These choices are mutually coherent; the tests pin
each one so a change anywhere breaks loudly.

A complex is immutable, so what is derived from it is built once and kept in
its one ``_memo`` by :func:`~wittforge.fields.kept`, the package's one memo
rule: its grading, the one-term line its duals map into per degree, and
``tensor(a, b)`` and ``hom_complex(a, b)`` per second factor, kept on the
first factor ``a``; the dual is the Hom into that line.

Each matrix of a complex or a chain map is stored once, as a
:mod:`~wittforge.linalg` sparse matrix ``{row: {col: nonzero entry}}``
(``_mats``) that every check, equality test and construction reads.  The
constructors take such matrices, whose entries are already nonzero
elements of the ring, and check everything but the entries.  Dense rows
are read in one place, :meth:`ChainComplex.from_json`; the dense tuples of
``diffs`` are a read-only view derived from ``_mats`` on access.
"""

from __future__ import annotations

from collections import defaultdict
from operator import add

from . import linalg
from .errors import (
    BoundsExceeded,
    GradingInconsistent,
    NotAChainComplex,
    NotAChainMap,
    NotAField,
    NotHomogeneous,
    RingMismatch,
)
from .fields import FieldSpec, kept
from .polynomials import MultiPolynomial, PolyRing

#: cap on the total rank of a complex and on the internal degrees of a graded
#: window: exact arithmetic over Q can blow up on bigger ones
RANK_CAP = 4096


# ---------------------------------------------------------------------------
# checked sparse matrices
# ---------------------------------------------------------------------------


def _ranks(terms):
    """degree -> rank without the zero ranks, once no rank is negative and
    the total is within ``RANK_CAP``."""
    clean = {}
    for n, r in terms.items():
        n, r = int(n), int(r)
        if r < 0:
            raise NotAChainComplex(f"negative rank {r} in degree {n}")
        if r:
            clean[n] = r
    total = sum(clean.values())
    if total > RANK_CAP:
        raise BoundsExceeded(f"total rank {total} exceeds cap {RANK_CAP}")
    return clean


def _fitted(mat, shape, error, what):
    """``mat`` without empty rows, once every index is checked against ``shape``."""
    mat = {i: row for i, row in mat.items() if row}
    if not linalg.fits(mat, shape):
        raise error(f"{what} does not fit the shape {shape}")
    return mat


def _identities(a):
    """The identity of A, degree by degree."""
    return {n: linalg.identity(a.ring, r) for n, r in a.terms.items()}


def _negated(mats):
    """Each matrix of ``mats`` with its entries negated (no ring product)."""
    return {n: {i: {j: -x for j, x in r.items()} for i, r in m.items()} for n, m in mats.items()}


def _same_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring} vs {b.ring}")


class ChainComplex:
    """terms: degree -> rank; mats: degree n -> sparse matrix A_n -> A_{n-1}.

    The entries of ``mats`` are nonzero elements of ``ring``; the ranks,
    the shapes and d . d = 0 are checked.  Zero differentials are absent
    from ``diffs`` and ``_mats``.
    """

    __slots__ = ("ring", "terms", "_mats", "_memo")

    def __init__(self, ring, terms, mats):
        self.ring = ring
        self.terms = _ranks(terms)
        clean = {}
        for n, mat in mats.items():
            mat = _fitted(mat, self._shape(n), NotAChainComplex, f"differential at degree {n}")
            if mat:  # canonical form: zero differentials are absent
                clean[n] = mat
        self._mats = clean
        self._memo = {}
        for n, mat in clean.items():
            if n - 1 in clean and not linalg.products_equal(ring, clean[n - 1], mat, {}, {}):
                raise NotAChainComplex(f"d_{n-1} . d_{n} != 0")

    @property
    def diffs(self):
        """degree n -> the nonzero differential at n as dense row tuples."""
        return {n: self._dense(n) for n in self._mats}

    def _dense(self, n):
        return linalg.dense(self.ring, self._mats.get(n, {}), self._shape(n))

    def _shape(self, n):
        return (self.rank(n - 1), self.rank(n))

    # -- inspection ----------------------------------------------------

    def rank(self, n):
        return self.terms.get(n, 0)

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.terms == other.terms
            and self._mats == other._mats
        )

    def __repr__(self):
        terms = ", ".join(f"{n}:{r}" for n, r in sorted(self.terms.items()))
        return f"ChainComplex({{{terms}}})"

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "terms": {str(n): r for n, r in sorted(self.terms.items())},
            "diffs": {
                str(n): linalg.dense_json(self.ring, self._mats[n], self._shape(n))
                for n in sorted(self._mats)
            },
        }

    @classmethod
    def from_json(cls, obj):
        """The complex ``to_json`` writes: the one reader of dense differentials.

        The containers are checked first (``ring``, ``terms`` and optional
        ``diffs`` objects, each differential a list of rows), then the ranks,
        then each differential's shape; one between missing terms must be zero.
        """
        if not isinstance(obj, dict) or any(
            not isinstance(obj.get(key, {}), dict) for key in ("ring", "terms", "diffs")
        ):
            raise ValueError("a complex is a JSON object with 'ring', 'terms' and 'diffs' objects")
        for degree, rows in obj.get("diffs", {}).items():
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise ValueError(f"the differential at degree {degree} must be a list of rows, each a list of entries")
        try:
            ring = ring_from_json(obj["ring"])
            terms = {int(n): r for n, r in obj["terms"].items()}
            diffs = {
                int(n): [[element_from_ring_json(ring, x) for x in row] for row in mat]
                for n, mat in obj.get("diffs", {}).items()
            }
        except KeyError as err:
            raise ValueError(f"the complex JSON has no {err.args[0]!r} key") from None
        terms = _ranks(terms)
        mats = {}
        for n, mat in diffs.items():
            shape = (terms.get(n - 1, 0), terms.get(n, 0))
            what = f"differential at degree {n}"
            if 0 in shape:
                if any(not x.is_zero() for row in mat for x in row):
                    raise NotAChainComplex(f"{what} maps between missing terms")
            elif len(mat) != shape[0] or any(len(row) != shape[1] for row in mat):
                raise NotAChainComplex(f"{what} has shape {linalg.shape(mat)}, expected {shape}")
            else:
                mats[n] = linalg.sparse(mat)
        return cls(ring, terms, mats)


def ring_from_json(obj):
    if "vars" in obj:
        return PolyRing.from_json(obj)
    return FieldSpec.from_json(obj)


def element_from_ring_json(ring, obj):
    if isinstance(ring, PolyRing) and isinstance(obj, dict):
        return MultiPolynomial.from_json(ring, obj)
    return ring.element(obj)


def single(ring, degree):
    """The ring itself in one degree; in degree 0 it is the tensor unit."""
    return ChainComplex(ring, {degree: 1}, {})


class ChainMap:
    """Degreewise sparse matrices commuting with the differentials.

    The entries of ``mats`` are nonzero elements of the ring; the rings,
    the shapes and the commutation are checked.  ``_degrees`` lists each
    given component between nonzero terms, zero ones included; ``_mats``
    keeps the nonzero ones.
    """

    __slots__ = ("source", "target", "_degrees", "_mats")

    def __init__(self, source, target, mats):
        _same_ring(source, target)
        self.source = source
        self.target = target
        ring = source.ring
        degrees, clean = [], {}
        for n, mat in mats.items():
            shape = self._shape(n)
            if 0 in shape:
                continue
            degrees.append(n)
            mat = _fitted(mat, shape, NotAChainMap, f"component at degree {n}")
            if mat:
                clean[n] = mat
        self._degrees = tuple(degrees)
        self._mats = clean
        for n in set(source.terms) | set(target.terms):
            f, d_src, d_tgt = clean.get(n - 1, {}), source._mats.get(n, {}), target._mats.get(n, {})
            if not linalg.products_equal(ring, f, d_src, d_tgt, clean.get(n, {})):
                raise NotAChainMap(f"does not commute with d at degree {n}")

    def _shape(self, n):
        return (self.target.rank(n), self.source.rank(n))

    @classmethod
    def identity(cls, complex_):
        return cls(complex_, complex_, _identities(complex_))

    def compose(self, other):
        """self . other (apply ``other`` first)."""
        if other.target != self.source:
            raise NotAChainMap("composition mismatch")
        ring = self.source.ring
        mats = {
            n: linalg.product(ring, self._mats.get(n, {}), other._mats.get(n, {}))
            for n in set(self._degrees) | set(other._degrees)
        }
        return ChainMap(other.source, self.target, mats)

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self._mats == other._mats
        )

    def is_identity(self):
        return self.source == self.target and self._mats == _identities(self.source)

    def __repr__(self):
        return f"ChainMap({self.source!r} -> {self.target!r})"

    def to_json(self):
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "components": {
                str(n): linalg.dense_json(self.source.ring, self._mats.get(n, {}), self._shape(n))
                for n in sorted(self._degrees)
            },
        }


def scale_map(f, c):
    """The chain map c . f for a scalar c of the ring."""
    c = f.source.ring.element(c)
    mats = {} if c.is_zero() else f._mats
    return ChainMap(
        f.source, f.target, {n: linalg.scaled(c, mats.get(n, {})) for n in f._degrees}
    )


# ---------------------------------------------------------------------------
# tensor, hom
# ---------------------------------------------------------------------------


def tensor_layout(a, b, n):
    """Summands of (A (x) B)_n in basis order: (i, j) -> (offset, rank_a, rank_b)."""
    out = {}
    offset = 0
    for i, ra in sorted(a.terms.items()):
        rb = b.rank(n - i)
        if rb:
            out[(i, n - i)] = (offset, ra, rb)
            offset += ra * rb
    return out


@kept
def tensor(a, b):
    """A (x) B with the Koszul sign rule; basis (a_p (x) b_q), p major."""
    _same_ring(a, b)
    layouts = {n: tensor_layout(a, b, n) for n in {i + j for i in a.terms for j in b.terms}}
    terms = {n: sum(ra * rb for _, ra, rb in layout.values()) for n, layout in layouts.items()}
    # d_B with either sign, built once and shared by every summand
    signed_b = (b._mats, _negated(b._mats))
    mats = {}
    for n in sorted(layouts):
        src, dst = layouts[n], layouts.get(n - 1)
        if not dst:
            continue
        mats[n] = mat = {}
        for (i, j), (off, ra, rb) in src.items():
            if (i - 1, j) in dst and i in a._mats:  # d_A (x) 1 : (i, j) -> (i - 1, j)
                linalg.kron(a._mats[i], rb, (rb, rb), mat, (dst[(i - 1, j)][0], off))
            if (i, j - 1) in dst and j in b._mats:  # (-1)^i 1 (x) d_B : (i, j) -> (i, j - 1)
                roff, _, rb2 = dst[(i, j - 1)]
                linalg.kron(ra, signed_b[i % 2][j], (rb2, rb), mat, (roff, off))
    return ChainComplex(a.ring, terms, mats)


def hom_layout(a, b, n):
    """Summands of Hom(A, B)_n in basis order: i -> (offset, rank_a_i, rank_b_{i+n}).

    The summand Hom(A_i, B_{i+n}) is spanned by elementary maps a_v -> b_u,
    flattened v-major (index v * rank_b + u).
    """
    out = {}
    offset = 0
    for i, ra in sorted(a.terms.items()):
        rb = b.rank(i + n)
        if rb:
            out[i] = (offset, ra, rb)
            offset += ra * rb
    return out


@kept
def hom_complex(a, b):
    """Hom(A, B) with (df)(x) = d(f(x)) - (-1)^{|f|} f(dx)."""
    _same_ring(a, b)
    layouts = {n: hom_layout(a, b, n) for n in {m - i for i in a.terms for m in b.terms}}
    terms = {n: sum(ra * rb for _, ra, rb in layout.values()) for n, layout in layouts.items()}
    # d_A transposed, with either sign, built once and shared by every summand
    transposed = {i: linalg.transpose(m) for i, m in a._mats.items()}
    signed_at = (transposed, _negated(transposed))
    mats = {}
    for n in sorted(layouts):
        src, dst = layouts[n], layouts.get(n - 1)
        if not dst:
            continue
        mats[n] = mat = {}
        for i, (off, ra, rb) in src.items():
            if i in dst and (i + n) in b._mats:  # 1 (x) d_B : summand i -> summand i
                roff, _, rb2 = dst[i]
                linalg.kron(ra, b._mats[i + n], (rb2, rb), mat, (roff, off))
            if (i + 1) in dst and (i + 1) in a._mats:  # -(-1)^n d_A^T (x) 1 : i -> i + 1
                pre = signed_at[1 - n % 2][i + 1]
                linalg.kron(pre, rb, (rb, rb), mat, (dst[i + 1][0], off))
    return ChainComplex(a.ring, terms, mats)


# ---------------------------------------------------------------------------
# canonical isomorphisms of the tensor structure
# ---------------------------------------------------------------------------


def left_unitor(a):
    """unit (x) A -> A (identity on entries)."""
    return ChainMap(tensor(single(a.ring, 0), a), a, _identities(a))


def associator(a, b, c):
    """(A (x) B) (x) C -> A (x) (B (x) C), a sign-free basis permutation: summand
    ((i, j), k) is 1_{ra} (x) 1_{rb r_c} at the offset of (j, k) in (B (x) C)_{j+k}."""
    ab, bc = tensor(a, b), tensor(b, c)
    src = tensor(ab, c)
    mats = {}
    for n in src.terms:
        mats[n] = mat = {}
        dst_layout = tensor_layout(a, bc, n)
        for (m, k), (off_src, _, r_c) in tensor_layout(ab, c, n).items():
            for (i, j), (off_ab, ra, rb) in tensor_layout(a, b, m).items():
                jk_layout = tensor_layout(b, c, j + k)
                if (i, j + k) not in dst_layout or (j, k) not in jk_layout:
                    raise RuntimeError(f"summand ({i}, ({j}, {k})) missing from A (x) (B (x) C)")
                off_dst, _, r_bc = dst_layout[(i, j + k)]
                off_jk = jk_layout[(j, k)][0]
                block = linalg.identity(a.ring, rb * r_c)
                linalg.kron(ra, block, (r_bc, rb * r_c), mat, (off_dst + off_jk, off_src + off_ab * r_c))
    return ChainMap(src, tensor(a, bc), mats)


def tensor_map(f, g):
    """f (x) g for degree-0 chain maps: blockwise Kronecker products."""
    src = tensor(f.source, g.source)
    dst = tensor(f.target, g.target)
    mats = {}
    for n in src.terms:
        mats[n] = mat = {}
        dst_layout = tensor_layout(f.target, g.target, n)
        for (i, j), (off, _, rb) in tensor_layout(f.source, g.source, n).items():
            if (i, j) in dst_layout and i in f._mats and j in g._mats:
                off2, _, rb2 = dst_layout[(i, j)]
                linalg.kron(f._mats[i], g._mats[j], (rb2, rb), mat, (off2, off))
    return ChainMap(src, dst, mats)


def hom_post(b, g):
    """Hom(B, g): post-composition with a degree-0 chain map, sign-free.

    Its source and target are kept on ``b``, the first factor, as every product
    and dual is: ``x_map``'s unit and post-composition share Hom(B, B (x) B).
    """
    src = hom_complex(b, g.source)
    dst = hom_complex(b, g.target)
    mats = {}
    for n in src.terms:
        mats[n] = mat = {}
        dst_layout = hom_layout(b, g.target, n)
        for j, (off, rb, rcs) in hom_layout(b, g.source, n).items():
            if j in dst_layout and j + n in g._mats:  # 1 (x) g
                off2, _, rct = dst_layout[j]
                linalg.kron(rb, g._mats[j + n], (rct, rcs), mat, (off2, off))
    return ChainMap(src, dst, mats)


def adjunction_unit(a, b):
    """The unit of (- (x) B) -| Hom(B, -): a -> (b -> a (x) b)."""
    t = tensor(a, b)
    h = hom_complex(b, t)
    one = a.ring.one()
    mats = {}
    for i, ra in a.terms.items():
        if not h.rank(i):
            continue
        mat = defaultdict(dict)
        for j, (off_h, rb, rt) in hom_layout(b, t, i).items():
            off_t = tensor_layout(a, b, i + j)[(i, j)][0]
            for p in range(ra):
                for q in range(rb):
                    mat[off_h + q * rt + (off_t + p * rb + q)][p] = one
        mats[i] = mat
    return ChainMap(a, h, mats)


def adjunction_counit(b, c):
    """The counit: Hom(B, C) (x) B -> C, phi (x) b -> phi(b)."""
    h = hom_complex(b, c)
    t = tensor(h, b)
    one = b.ring.one()
    mats = {}
    for n in t.terms:
        mat = defaultdict(dict)
        for (i, j), (off, _, rb) in tensor_layout(h, b, n).items():
            summand = hom_layout(b, c, i).get(j)
            if summand is None:
                continue
            off_h, _, rc = summand
            for q in range(rb):
                for u in range(rc):
                    mat[u][off + (off_h + q * rc + u) * rb + q] = one
        mats[n] = mat
    return ChainMap(t, c, mats)


def adjunction_triangle_check(a, b, c):
    """Both triangle identities of the tensor-hom adjunction, matrix-exactly.

    T1: counit_{A(x)B} . (unit_A (x) id_B) = id_{A(x)B}
    T2: Hom(B, counit_C) . unit_{Hom(B,C)} = id_{Hom(B,C)}
    """
    first = adjunction_counit(b, tensor(a, b)).compose(
        tensor_map(adjunction_unit(a, b), ChainMap.identity(b))
    )
    second = hom_post(b, adjunction_counit(b, c)).compose(adjunction_unit(hom_complex(b, c), b))
    return first.is_identity() and second.is_identity()


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


class DualityDatum:
    """A rank-one twist (a unit of the ring) sitting in a fixed degree; the
    dual constructions read only the degree, the twist is bookkeeping."""

    __slots__ = ("twist", "degree")

    def __init__(self, ring, twist=None, degree=0):
        twist = ring.one() if twist is None else ring.element(twist)
        if not _is_unit(ring, twist):
            raise ValueError(f"twist {twist!r} is not a unit")
        self.twist = twist
        self.degree = int(degree)

    def __repr__(self):
        return f"DualityDatum(twist={self.twist!r}, degree={self.degree})"

    def to_json(self):
        return {"twist": self.twist.to_json(), "degree": self.degree}


def _is_unit(ring, x):
    if getattr(ring, "is_field", False):
        return not x.is_zero()
    return x.total_degree() == 0  # nonzero constants over the coefficient field


@kept
def dual_line(a, degree):
    """The one-term complex in ``degree`` that the duals of ``a`` map into,
    kept on ``a`` so every Hom from ``a`` into it is one memo entry."""
    return single(a.ring, degree)


def dualize(a, degree):
    """D(A) = Hom(A, R[degree]): ranks flip around ``degree``, signed transposes."""
    return hom_complex(a, dual_line(a, degree))


def dualize_map(f, degree):
    """D on maps: plain precomposition, component at n is f_{degree-n} transposed."""
    src = dualize(f.target, degree)
    dst = dualize(f.source, degree)
    mats = {n: linalg.transpose(f._mats.get(degree - n, {})) for n in src.terms}
    return ChainMap(src, dst, mats)


def bidual_map(a, degree):
    """bid: A -> DD(A), a -> (phi -> (-1)^{|a||phi|} phi(a)).

    Degreewise it is (-1)^{n (degree - n)} times the identity; the constructor
    certifies it commutes with the differentials.
    """
    dd = dualize(dualize(a, degree), degree)
    mats = {}
    for n, r in a.terms.items():
        s = a.ring.from_int(-1 if (n * (degree - n)) % 2 else 1)
        mats[n] = {i: {i: s} for i in range(r)}
    return ChainMap(a, dd, mats)


def bidual_involution_check(a, degree):
    """D(bid_A) . bid_{DA} = Id_{DA}, matrix-exactly."""
    da = dualize(a, degree)
    lhs = dualize_map(bidual_map(a, degree), degree).compose(bidual_map(da, degree))
    return lhs.is_identity()


def duality_interchange(a, b, degree_a, degree_b):
    """The lax-monoidal map D(A) (x) D(B) -> D(A (x) B), each dual in its
    own degree and that of A (x) B in their sum.

    On pure tensors it is (phi (x) psi)(x (x) y) =
    (-1)^{|psi| |x|} phi(x) psi(y); identifying a dual term with the source
    basis in place, the matrix is a signed permutation.
    """
    dual_a, dual_b = dualize(a, degree_a), dualize(b, degree_b)
    src = tensor(dual_a, dual_b)
    dst = dualize(tensor(a, b), degree_a + degree_b)
    signs = ({0: {0: a.ring.one()}}, {0: {0: -a.ring.one()}})
    mats = {}
    for n in src.terms:
        mats[n] = mat = {}
        dst_layout = tensor_layout(a, b, degree_a + degree_b - n)
        for (i, j), (off, ria, rjb) in tensor_layout(dual_a, dual_b, n).items():
            # onto the summand (p, q) of A (x) B, as (-1)^{jp} times its identity
            p, q = degree_a - i, degree_b - j
            size = ria * rjb
            linalg.kron(signs[j * p % 2], size, (size, size), mat, (dst_layout[(p, q)][0], off))
    return ChainMap(src, dst, mats)


# ---------------------------------------------------------------------------
# cones and homology
# ---------------------------------------------------------------------------


def cone(f):
    """C(f)_n = B_n + A_{n-1}, d(b, a) = (db + fa, -da)."""
    a, b = f.source, f.target
    terms = {n: b.rank(n) + a.rank(n - 1) for n in set(b.terms) | {n + 1 for n in a.terms}}
    mats = {}
    for n in terms:
        rb, rb1 = b.rank(n), b.rank(n - 1)
        mat = defaultdict(dict, {i: dict(row) for i, row in b._mats.get(n, {}).items()})
        for i, row in f._mats.get(n - 1, {}).items():
            mat[i].update((rb + j, x) for j, x in row.items())
        for i, row in a._mats.get(n - 1, {}).items():
            mat[rb1 + i] = {rb + j: -x for j, x in row.items()}
        mats[n] = mat
    return ChainComplex(a.ring, terms, mats)


def homology_dims(a):
    """degree -> dim H_n, by exact ranks; the ring must be a field."""
    if not getattr(a.ring, "is_field", False):
        raise NotAField("homology over a field only; use graded_homology_dims")
    ranks = {n: linalg.rank(a.ring, list(mat.values())) for n, mat in a._mats.items()}
    return _homology(a.terms, ranks)


def _homology(dims, ranks):
    """degree -> dims[n] - rank d_n - rank d_{n+1} (rank-nullity), nonzero only."""
    return {n: h for n, d in dims.items() if (h := d - ranks.get(n, 0) - ranks.get(n + 1, 0))}


# ---------------------------------------------------------------------------
# graded pieces over polynomial rings
# ---------------------------------------------------------------------------


@kept
def infer_grading(a):
    """Internal degree of each generator, by propagation from degree-0 anchors.

    Every nonzero differential entry must be homogeneous; an entry of degree
    e from generator (n, u) to (n-1, v) forces deg(n, u) = deg(n-1, v) + e.
    Disconnected blocks are anchored at internal degree 0 (preferring
    homological degree 0 anchors).  The grading is inferred on first use and
    kept on the complex; callers must not modify the returned dict.
    """
    if not isinstance(a.ring, PolyRing):
        raise NotHomogeneous("graded pieces need a polynomial ring")
    edges = {}  # (n, u) -> list of ((n-1, v), entry degree)
    nodes = [(n, u) for n in sorted(a.terms) for u in range(a.rank(n))]
    for node in nodes:
        edges[node] = []
    for n, mat in a._mats.items():
        for v in sorted(mat):
            row = mat[v]
            for u in sorted(row):
                e = row[u].homogeneous_degree()
                if e is None:
                    raise NotHomogeneous(
                        f"entry at degree {n}, position ({v}, {u}) is not homogeneous"
                    )
                # deg(n, u) = deg(n-1, v) + e, stored as directed offsets
                edges[(n, u)].append(((n - 1, v), -e))
                edges[(n - 1, v)].append(((n, u), e))
    grading = {}
    anchors = sorted(nodes, key=lambda t: (t[0] != 0, t))
    for anchor in anchors:
        if anchor in grading:
            continue
        grading[anchor] = 0
        queue = [anchor]
        while queue:
            node = queue.pop()
            g = grading[node]
            for neigh, w in edges[node]:
                expected = g + w
                if neigh in grading:
                    if grading[neigh] != expected:
                        raise GradingInconsistent(
                            f"generator {neigh} receives degrees "
                            f"{grading[neigh]} and {expected}"
                        )
                else:
                    grading[neigh] = expected
                    queue.append(neigh)
    return grading


def _graded_basis(ring, grading, a, n, t):
    """Basis of the internal-degree-t piece of A_n: (generator, monomial exp)."""
    monomials = ring.monomials_of_degree
    return [(u, mono) for u in range(a.rank(n)) for mono in monomials(t - grading[(n, u)])]


def _graded_rows(columns, src_basis, dst_basis):
    """The nonzero rows of one graded piece of a differential, as row dicts.

    ``columns[u]`` lists the nonzero entries (v, polynomial) of column u.
    Source (u, mono) meets target (v, exp + mono) through the term exp of
    entry (v, u) alone, so every matrix position receives one coefficient.
    """
    index = {key: i for i, key in enumerate(dst_basis)}
    rows = defaultdict(dict)
    for c, (u, mono) in enumerate(src_basis):
        for v, entry in columns.get(u, ()):
            for exp, coef in entry.terms.items():
                r = index.get((v, tuple(map(add, exp, mono))))
                if r is not None:
                    rows[r][c] = coef
    return list(rows.values())


def graded_homology_dims(a, degree_bound):
    """(homological degree, internal degree <= bound) -> dim H, exactly.

    Each internal degree is a finite complex over the coefficient field;
    homology is computed by exact ranks, and zero dimensions are omitted.
    Each graded piece of each differential is built once, straight into
    sparse rows, and ranked once.  A bound below the lowest internal degree
    of the complex leaves an empty window, and a window of more than
    ``RANK_CAP`` internal degrees is too large: both raise before any piece
    is built.
    """
    grading = infer_grading(a)
    ring = a.ring
    out = {}
    if not a.terms:
        return out
    low = min(grading.values())
    if degree_bound < low:
        raise BoundsExceeded(f"bound {degree_bound} is below the lowest internal degree {low}")
    if degree_bound - low >= RANK_CAP:
        raise BoundsExceeded(
            f"internal-degree window {low}..{degree_bound} holds {degree_bound - low + 1} "
            f"degrees, above the cap {RANK_CAP}"
        )
    columns = {}
    for n, mat in a._mats.items():
        columns[n] = cols = defaultdict(list)
        for v, row in mat.items():
            for u, x in row.items():
                cols[u].append((v, x))
    for t in range(low, degree_bound + 1):
        bases = {n: _graded_basis(ring, grading, a, n, t) for n in a.terms}
        ranks = {
            n: linalg.rank(ring.field, _graded_rows(cols, bases[n], bases[n - 1]))
            for n, cols in columns.items()
            if bases[n] and bases[n - 1]
        }
        dims = _homology({n: len(basis) for n, basis in bases.items()}, ranks)
        out.update(((n, t), h) for n, h in dims.items())
    return out
