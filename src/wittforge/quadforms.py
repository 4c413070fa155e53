"""Quadratic forms, Witt decomposition, and Witt-group arithmetic.

Forms are symmetric Gram matrices over a :class:`~wittforge.fields.FieldSpec`
of characteristic != 2, stored as :mod:`~wittforge.linalg` sparse matrices
and diagonalized by :func:`~wittforge.linalg.congruence`.
The Witt-group machinery is complete over finite fields (an isotropic vector
comes from a square ratio -d_i/d_j, or else from a ternary scan over the
field's elements, which Chevalley-Warning makes end at a hit) and over Q
(Hasse-Minkowski invariants decide isotropy and Witt equality; explicit
isotropic vectors come from exact square detection, Legendre-style ternary
solving, and a locally-filtered common-value search).  Over Q each rational is factored once, into its
square class (a squarefree integer, with the primes dividing it), and the
Hasse symbols are taken one Hilbert symbol per entry and place.  Anisotropy
over Q is always certified by invariants, never by a search running out of
patience; conversely, if the invariants promise a vector that the bounded
searches cannot exhibit, :class:`~wittforge.errors.Inconclusive` is raised
rather than guessing.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import linalg
from .errors import DegenerateForm, FieldMismatch, Inconclusive, UnsupportedField
from .fields import is_square, isprime, kept, rational_sqrt, require_exact_primality, sqrt


class Place:
    """A place of Q: the real place or a finite prime."""

    __slots__ = ("p",)

    def __init__(self, p=None):
        if p is not None and not isprime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @classmethod
    def infinity(cls):
        return cls(None)

    @property
    def is_infinite(self):
        return self.p is None

    @classmethod
    def parse(cls, text):
        text = str(text).strip().lower()
        if text in ("inf", "infinity", "oo", "real"):
            return cls.infinity()
        return cls(require_exact_primality(int(text), "a place is a prime"))

    def __eq__(self, other):
        return isinstance(other, Place) and self.p == other.p

    def __hash__(self):
        return hash(("place", self.p))

    def __repr__(self):
        return "oo" if self.p is None else f"p={self.p}"

    def to_json(self):
        return "inf" if self.p is None else self.p


class QuadraticForm:
    """A symmetric bilinear form given by its Gram matrix.

    Forms are immutable.  The constructor takes the dim x dim Gram matrix
    as a :mod:`~wittforge.linalg` sparse matrix whose entries are nonzero
    elements of ``field``, checks its indices and its symmetry, and stores
    it once (``_mat``); ``to_json`` writes it as dense rows, and the CLI's
    ``parse_form`` is the one reader of dense rows.  The diagonal entries
    of a congruence diagonalization (:func:`diagonalize`) are computed on
    first use and kept in ``_memo`` (:func:`~wittforge.fields.kept`), which
    takes no part in equality, hashing or JSON.
    """

    __slots__ = ("field", "dim", "_mat", "_memo")

    def __init__(self, field, mat, dim):
        if not linalg.fits(mat, (dim, dim)):
            raise ValueError(f"Gram matrix does not fit the shape {(dim, dim)}")
        if mat != linalg.transpose(mat):
            raise ValueError("Gram matrix must be symmetric")
        self.field, self.dim, self._mat, self._memo = field, dim, mat, {}

    @classmethod
    def diagonal(cls, field, entries):
        entries = [field.element(e) for e in entries]
        mat = {i: {i: e} for i, e in enumerate(entries) if not e.is_zero()}
        return cls(field, mat, len(entries))

    def is_degenerate(self):
        """Whether the form has a radical: a zero entry of its diagonalization."""
        return any(e.is_zero() for e in _diagonal_entries(self))

    def perp(self, other):
        """Orthogonal sum."""
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        n, m = self.dim, other.dim
        block = linalg.block_diag([(self._mat, (n, n)), (other._mat, (m, m))])
        return QuadraticForm(self.field, block, n + m)

    def tensor(self, other):
        """Tensor (Kronecker) product of forms."""
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        m = other.dim
        product = linalg.kron(self._mat, other._mat, (m, m), {}, (0, 0))
        return QuadraticForm(self.field, product, self.dim * m)

    def scale(self, c):
        c = self.field.element(c)
        mat = {} if c.is_zero() else linalg.scaled(c, self._mat)
        return QuadraticForm(self.field, mat, self.dim)

    def neg(self):
        return self.scale(self.field.from_int(-1))

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return (self.field, self.dim, self._mat) == (other.field, other.dim, other._mat)

    def __hash__(self):
        return hash((self.field, self.dim))

    def __repr__(self):
        return f"QuadraticForm({self.field!r}, dim={self.dim})"

    def to_json(self):
        return {
            "field": self.field.to_json(),
            "gram": linalg.dense_json(self.field, self._mat, (self.dim, self.dim)),
        }


def hyperbolic_plane(field):
    return QuadraticForm(field, {0: {1: field.one()}, 1: {0: field.one()}}, 2)


def diagonalize(form):
    """Diagonalize by congruence: returns (entries, basis) with basis^T G basis diagonal.

    ``basis`` is a sparse matrix whose columns are the vectors of
    :func:`linalg.congruence`, over any supported field (characteristic != 2);
    the trailing entries of a degenerate form are zero.  Callers that need
    only the entries use :func:`_diagonal_entries`, which skips the basis.
    """
    entries, vectors = linalg.congruence(form.field, form._mat, form.dim, True)
    return entries, linalg.transpose(vectors)


@kept
def _diagonal_entries(form):
    """The entries of :func:`diagonalize`, computed once per form without a basis."""
    return tuple(linalg.congruence(form.field, form._mat, form.dim, False)[0])


def _nondegenerate(entries):
    """``entries`` of a diagonalization, refused when one is zero."""
    if any(e.is_zero() for e in entries):
        raise DegenerateForm("the Gram matrix is singular")
    return entries


class WittClass:
    """anisotropic part + number of split hyperbolic planes.

    ``certificate`` (when produced by :func:`witt_decompose`, which checks it)
    is a change of basis P, a sparse matrix, with P^T G P = H + ... + H + A.
    """

    __slots__ = ("field", "anisotropic", "hyperbolic", "certificate")

    def __init__(self, field, anisotropic, hyperbolic, certificate=None):
        self.field = field
        self.anisotropic = anisotropic
        self.hyperbolic = hyperbolic
        self.certificate = certificate

    def is_zero(self):
        return self.anisotropic.dim == 0

    def __repr__(self):
        return (
            f"WittClass({self.field!r}, aniso_dim={self.anisotropic.dim}, "
            f"hyperbolic={self.hyperbolic})"
        )

    def to_json(self):
        return {"anisotropic": self.anisotropic.to_json(), "hyperbolic": self.hyperbolic}


def _as_form(x):
    if isinstance(x, WittClass):
        h = hyperbolic_plane(x.field)
        form = x.anisotropic
        for _ in range(x.hyperbolic):
            form = form.perp(h)
        return form
    return x


def _as_diagonal_entries(x):
    form = _as_form(x)
    if form.dim == 0:
        return form.field, []
    return form.field, list(_nondegenerate(_diagonal_entries(form)))


# ---------------------------------------------------------------------------
# Hilbert symbols over Q
# ---------------------------------------------------------------------------


def _square_class(value):
    """(d, primes): the squarefree integer d in value's class in Q*/Q*^2 and
    the primes dividing d; the one place a rational is factored.  Inside this
    module a square class is its squarefree int, whose valuation at a prime
    is 0 or 1."""
    import sympy

    n = _integer_in_class(value)
    primes = [p for p, e in sympy.factorint(abs(n)).items() if e % 2]
    return math.prod(primes) * (-1 if n < 0 else 1), primes


def _integer_in_class(value):
    """n * d for a nonzero rational n/d: an integer in its square class."""
    f = Fraction(value)
    if f == 0:
        raise ValueError("0 has no square class")
    return f.numerator * f.denominator


def _class_product(a, b):
    """The square class of a*b, for squarefree integers a and b."""
    return a * b // math.gcd(a, b) ** 2


def hilbert_symbol(a, b, place):
    """The Hilbert symbol (a, b)_v over Q, computed by the local formulas.

    At the real place: -1 iff both arguments are negative.  At a finite
    place see :func:`_hilbert`; a rational n/d enters as n * d, so nothing
    is factored.
    """
    a, b = _integer_in_class(a), _integer_in_class(b)
    if place.is_infinite:
        return -1 if (a < 0 and b < 0) else 1
    return _hilbert(a, b, place.p)


def _hilbert(a, b, p):
    """(a, b)_p for nonzero integers a, b and a prime p.

    With a = p^alpha * u and b = p^beta * w (u, w prime to p; only alpha and
    beta mod 2 matter), at an odd prime

        (a,b)_p = (-1)^(alpha*beta*(p-1)/2) * (u|p)^beta * (w|p)^alpha

    using Legendre symbols, and at p = 2

        (a,b)_2 = (-1)^(eps(u)eps(w) + alpha*omega(w) + beta*omega(u))

    where eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 mod 2 (Serre, *A Course
    in Arithmetic*, Ch. III, Thm. 1).  v_p is read by repeated division.
    """
    alpha, u = _split_prime(a, p)
    beta, w = _split_prime(b, p)
    if p != 2:
        sign = -1 if alpha * beta and (p - 1) // 2 % 2 else 1
        return sign * (_legendre(u, p) if beta else 1) * (_legendre(w, p) if alpha else 1)
    eps_u = ((u - 1) // 2) % 2
    eps_w = ((w - 1) // 2) % 2
    omega_u = ((u * u - 1) // 8) % 2
    omega_w = ((w * w - 1) // 8) % 2
    exp = eps_u * eps_w + alpha * omega_w + beta * omega_u
    return -1 if exp % 2 else 1


def _split_prime(a, p):
    """(v_p(a) mod 2, a / p^v_p(a)) for a nonzero integer a."""
    parity = 0
    while a % p == 0:
        a //= p
        parity ^= 1
    return parity, a


def _legendre(u, p):
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def relevant_places(values):
    """oo, 2, and every odd prime dividing a square class of the values."""
    primes = {2}.union(*(_square_class(v)[1] for v in values))
    return [Place.infinity()] + [Place(p) for p in sorted(primes)]


# ---------------------------------------------------------------------------
# isotropy over Q: invariants first, explicit vectors second
# ---------------------------------------------------------------------------


class _QInvariants:
    """dim, square class of det, signature, and Hasse symbols of a diagonal form.

    It is built from the entries' square classes, ``(d, primes)`` pairs as
    :func:`_square_class` gives them, so a caller factors each entry once.
    ``classes`` are the d, ``det`` is the class of their product, and ``hasse`` maps
    2 and every prime dividing an entry to the Hasse symbol
    prod_{i<j} (d_i, d_j)_p, taken one symbol per entry as the running
    product prod_j (d_1...d_{j-1}, d_j)_p (bimultiplicativity).
    """

    __slots__ = ("n", "classes", "det", "sig", "hasse")

    def __init__(self, squares):
        self.classes = [d for d, _ in squares]
        self.n = len(self.classes)
        self.sig = sum(1 if d > 0 else -1 for d in self.classes)
        self.hasse = dict.fromkeys({2}.union(*(primes for _, primes in squares)), 1)
        prefix = 1
        for d in self.classes:
            for p in self.hasse:
                self.hasse[p] *= _hilbert(prefix, d, p)
            prefix = _class_product(prefix, d)
        self.det = prefix

    def is_isotropic(self):
        """Hasse-Minkowski: local isotropy at every place."""
        n, d = self.n, self.det
        if n <= 1 or abs(self.sig) == n:
            return False  # a line, or definite over R
        if n == 2:
            return d == -1
        if n == 3:
            return all(_hilbert(-1, -d, p) == eps for p, eps in self.hasse.items())
        if n == 4:
            hasse = self.hasse.items()
            return all(not _is_local_square(d, p) or eps == _hilbert(-1, -1, p) for p, eps in hasse)
        return True  # indefinite of dimension >= 5

    def is_witt_trivial(self):
        """Whether the form is hyperbolic.  Hyperbolic planes are split off
        in place while the form is isotropic: q = q' + H takes n to n - 2,
        det to -det and each Hasse symbol eps_p to eps_p * (det(q'), -1)_p."""
        while self.n > 0 and self.is_isotropic():
            self.n -= 2
            self.det = -self.det
            for p in self.hasse:
                self.hasse[p] *= _hilbert(self.det, -1, p)
        return self.n == 0


def _is_local_square(d, p):
    """Whether the squarefree integer d is a square in Q_p."""
    if d % p == 0:
        return False
    return d % 8 == 1 if p == 2 else _legendre(d, p) == 1


# ---------------------------------------------------------------------------
# explicit isotropic vectors
# ---------------------------------------------------------------------------


def _finite_isotropic_vector(field, entries):
    """A nonzero vector of a diagonal form over a finite field, or None exactly
    when the form is anisotropic: n <= 1, or n = 2 with -d0/d1 not a square
    (Chevalley-Warning: every form of dimension >= 3 is isotropic)."""
    n = len(entries)
    # pairs split by a square root
    for i in range(n):
        for j in range(i + 1, n):
            ratio = -entries[i] / entries[j]
            if is_square(ratio):
                vec = [field.zero()] * n
                vec[i] = field.one()
                vec[j] = sqrt(ratio)
                return vec
    if n < 3:
        return None
    # ternary on the first three slots: d1 x^2 + d2 y^2 = -d3 always solves
    d1, d2, d3 = entries[0], entries[1], entries[2]
    for x in field.elements():
        rhs = (-d3 - d1 * x * x) / d2
        if is_square(rhs):
            vec = [field.zero()] * n
            vec[0] = x
            vec[1] = sqrt(rhs)
            vec[2] = field.one()
            return vec
    raise Inconclusive("finite ternary scan failed")  # unreachable for odd q


def _q_ternary_vector(entries):
    """Nonzero rational zero of a x^2 + b y^2 + c z^2 via Legendre descent, or None.

    sympy's descent depends on the order of the coefficients: on the
    isotropic 6x^2 - y^2 + 3z^2 it finds nothing, and on 3x^2 - y^2 + 6z^2
    it returns a non-solution.  So the orders are tried in turn, the given
    one first, and only a checked zero is returned.
    """
    from sympy.abc import x, y, z
    from sympy.solvers.diophantine.diophantine import diop_ternary_quadratic

    denom = math.lcm(*(e.denominator for e in entries))
    ints = [int(e * denom) for e in entries]
    for order in itertools.permutations(range(3)):
        a, b, c = (ints[i] for i in order)
        sol = diop_ternary_quadratic(a * x**2 + b * y**2 + c * z**2)
        if sol is None or any(s is None for s in sol):
            continue
        vec = [Fraction(0)] * 3
        for i, s in zip(order, sol):
            vec[i] = Fraction(int(s))
        if any(vec) and sum(f * v * v for f, v in zip(entries, vec)) == 0:
            return vec
    return None


def _q_isotropic_vector(entries, squares):
    """An explicit nonzero zero of the diagonal form, or None when anisotropic.

    ``entries`` are nonzero rationals, made Fractions here so ``/`` is exact;
    ``squares`` are their square classes, which every subform reuses.
    The decision is always by invariants; the witness search escalates:
    square-split pairs, isotropic ternary subforms (Legendre descent), then
    a 2 + (n-2) block split on a common value t, |t| < 400, that the
    invariants let both blocks represent.  The head block runs over every
    pair <d_0, d_j>, j = 1 first, and a t whose sub-descent is inconclusive
    is passed over.  There is no search past that: a form the split misses
    raises :class:`~wittforge.errors.Inconclusive`.
    """
    entries = [Fraction(e) for e in entries]
    inv = _QInvariants(squares)
    if not inv.is_isotropic():
        return None
    n = len(entries)
    # pairs
    d = inv.classes
    for i in range(n):
        for j in range(i + 1, n):
            if d[i] == -d[j]:
                ratio = -entries[i] / entries[j]
                root = rational_sqrt(ratio)
                if root is None:
                    raise RuntimeError(f"-d{i}/d{j} = {ratio} has square class 1 but is no square")
                vec = [Fraction(0)] * n
                vec[i], vec[j] = Fraction(1), root
                return vec
    # ternary subforms
    for combo in itertools.combinations(range(n), 3):
        sub = [entries[i] for i in combo]
        if _QInvariants([squares[i] for i in combo]).is_isotropic():
            part = _q_ternary_vector(sub)
            if part is not None:
                vec = [Fraction(0)] * n
                for i, v in zip(combo, part):
                    vec[i] = v
                return vec
    if n == 3:
        raise Inconclusive("ternary descent failed on an isotropic form")
    # a value t represented by a head pair <d_0, d_j> and, negated, by the rest
    for j in range(1, n):
        head, tail = [0, j], [i for i in range(1, n) if i != j]
        head_squares, tail_squares = [squares[i] for i in head], [squares[i] for i in tail]
        for t, primes in _candidate_values():
            if (_QInvariants(head_squares + [(-t, primes)]).is_isotropic()
                    and _QInvariants(tail_squares + [(t, primes)]).is_isotropic()):
                try:
                    head_vec = _q_represent([entries[i] for i in head], head_squares, t, primes)
                    tail_vec = _q_represent([entries[i] for i in tail], tail_squares, -t, primes)
                except Inconclusive:
                    continue  # this t's sub-descent failed; another t may serve
                vec = [Fraction(0)] * n
                for i, v in zip(head + tail, head_vec + tail_vec):
                    vec[i] = v
                return vec
    raise Inconclusive(
        "invariants certify isotropy but no witness was found within the caps"
    )


def _candidate_values():
    """The square classes (t, primes) of the squarefree integers 0 < |t| < 400,
    by absolute value, positive first; the primes come from trial division."""
    for m in range(1, 400):
        primes = [p for p in range(2, m + 1) if m % p == 0 and all(p % q for q in range(2, p))]
        if math.prod(primes) == m:  # squarefree
            yield m, primes
            yield -m, primes


def _q_represent(entries, squares, value, primes):
    """A rational vector with sum d_i y_i^2 = value, or None, for a squarefree
    integer value whose prime divisors are ``primes``."""
    vec = _q_isotropic_vector(entries + [-value], squares + [(-value, primes)])
    if vec is None:
        return None
    if vec[-1] != 0:
        return [v / vec[-1] for v in vec[:-1]]
    # the head itself is isotropic, hence universal: walk the hyperbolic pair
    head = vec[:-1]
    k = next(i for i, v in enumerate(head) if v != 0)
    u = [Fraction(0)] * len(entries)
    u[k] = 1 / (entries[k] * head[k])  # b(head, u) = 1
    qu = sum(f * x * x for f, x in zip(entries, u))
    t = (value - qu) / 2
    return [a + t * b for a, b in zip(u, head)]


# ---------------------------------------------------------------------------
# Witt decomposition
# ---------------------------------------------------------------------------


def witt_decompose(form):
    """q = (anisotropic part) + k * H with an explicit congruence certificate.

    The certificate is a basis matrix P with P^T G P block-diagonal: k copies
    of [[0,1],[1,0]] followed by the anisotropic Gram matrix, re-multiplied
    before returning.  Anisotropy of the residual part is certified by
    exhaustive search over finite fields and by Hasse-Minkowski invariants over Q.
    """
    form = _as_form(form)
    field = form.field
    if form.dim == 0:
        return WittClass(field, form, 0, certificate={})
    # one diagonalization serves the nondegeneracy check and the first split
    entries, vectors = linalg.congruence(field, form._mat, form.dim, True)
    _nondegenerate(entries)
    if field.kind == "Q":
        def finder(entries):
            rationals = [e.payload for e in entries]
            vec = _q_isotropic_vector(rationals, [_square_class(x) for x in rationals])
            return None if vec is None else [field.element(x) for x in vec]
    elif field.is_finite:
        def finder(entries):
            return _finite_isotropic_vector(field, entries)
    else:
        raise UnsupportedField(f"no Witt decomposition over {field}")

    # rows: the current complement's basis in original coordinates
    basis = linalg.identity(field, form.dim)
    subform = form
    cert_rows = []  # v_1, u_1, v_2, u_2, ... in original coordinates

    while True:
        vec_diag = finder(entries)
        if vec_diag is None:
            break
        # everything below happens inside the current complement's coordinates
        v = linalg.product(field, linalg.sparse([vec_diag]), vectors)[0]
        u = _hyperbolic_partner(subform, v)
        # the change of basis: rows v, u, then the pair's orthogonal complement
        change = dict(enumerate([v, u] + _orthogonal_complement(field, subform, v, u)))
        rows = linalg.product(field, change, basis)
        cert_rows += [rows[0], rows[1]]
        basis = {k - 2: row for k, row in rows.items() if k >= 2}
        if not basis:
            break  # nothing left: the form was a sum of hyperbolic planes
        restricted = _restrict_gram(field, form._mat, basis)
        subform = QuadraticForm(field, restricted, subform.dim - 2)
        entries, vectors = linalg.congruence(field, subform._mat, subform.dim, True)

    hyperbolic = len(cert_rows) // 2
    if basis:
        aniso = QuadraticForm.diagonal(field, entries)
        aniso_rows = linalg.product(field, vectors, basis)
        cert_rows += [aniso_rows[k] for k in range(len(entries))]
    else:
        aniso = QuadraticForm(field, {}, 0)
    # the certificate P, re-multiplied: P^T G P must be H + ... + H + A
    pt, one = dict(enumerate(cert_rows)), field.one()
    blocks = [({0: {1: one}, 1: {0: one}}, (2, 2))] * hyperbolic + [(aniso._mat, (aniso.dim,) * 2)]
    if _restrict_gram(field, form._mat, pt) != linalg.block_diag(blocks):
        raise RuntimeError("witt_decompose: the certificate P^T G P is not H + ... + H + A")
    return WittClass(field, aniso, hyperbolic, certificate=linalg.transpose(pt))


def _restrict_gram(field, gram, basis_rows):
    """The Gram matrix of ``gram`` on the span of the rows of ``basis_rows``."""
    restricted = linalg.product(field, basis_rows, gram)
    return linalg.product(field, restricted, linalg.transpose(basis_rows))


def _pairings(form, w):
    """b(w, e_k) for every standard basis vector e_k, for a sparse row w, as a sparse row."""
    return linalg.product(form.field, {0: w}, form._mat).get(0, {})


def _hyperbolic_partner(form, v):
    """Complete isotropic v to a hyperbolic pair (v, u): q(u)=0, b(v,u)=1 (sparse rows)."""
    field = form.field
    bv = _pairings(form, v)
    if not bv:
        raise DegenerateForm("isotropic vector is in the radical")
    k = min(bv)
    c = bv[k].inverse()
    # u = c e_k - q(c e_k)/2 * v keeps b(v,u) = 1 and kills q(u)
    t = -(field.from_int(2).inverse() * c * c * form._mat[k].get(k, field.zero()))
    return linalg.product(field, linalg.sparse([[c, t]]), {0: {k: field.one()}, 1: v})[0]


def _orthogonal_complement(field, form, v, u):
    """Sparse rows spanning the orthogonal complement of the hyperbolic pair.

    ``(v, u)`` is a hyperbolic pair for ``form``; projecting the standard
    basis along the pair spans its complement, from which an independent
    subset of size dim - 2 is kept.
    """
    n, one = form.dim, field.one()
    bv, bu = _pairings(form, v), _pairings(form, u)
    # subtract the H-components, x - b(x,u) v - b(x,v) u for every x = e_k, as
    # one product [1 | -b(e_k,u) | -b(e_k,v)] . [1; v; u]
    minus = linalg.transpose(linalg.scaled(-one, {n: bu, n + 1: bv}))
    coeffs = {k: {k: one, **minus.get(k, {})} for k in range(n)}
    keep, pivots = [], {}
    for c in linalg.product(field, coeffs, {**linalg.identity(field, n), n: v, n + 1: u}).values():
        if linalg.extend_pivots(field._kernel, pivots, {j: x.payload for j, x in c.items()}):
            keep.append(c)
    if len(keep) != n - 2:
        raise RuntimeError(f"complement of a hyperbolic pair has rank {len(keep)}, not {n - 2}")
    return keep


# ---------------------------------------------------------------------------
# Witt-group operations and equality
# ---------------------------------------------------------------------------


def witt_zero(field):
    return WittClass(field, QuadraticForm(field, {}, 0), 0)


def witt_add(a, b):
    fa, fb = _as_form(a), _as_form(b)
    return witt_decompose(fa.perp(fb))


def witt_neg(a):
    return witt_decompose(_as_form(a).neg())


def witt_mul(a, b):
    fa, fb = _as_form(a), _as_form(b)
    return witt_decompose(fa.tensor(fb))


def signed_discriminant(x):
    """d(q) = (-1)^(n(n-1)/2) det(q), as a field element (mod squares)."""
    field, entries = _as_diagonal_entries(x)
    n = len(entries)
    det = field.one()
    for e in entries:
        det = det * e
    sign = field.from_int(-1) if (n * (n - 1) // 2) % 2 else field.one()
    return sign * det


def require_witt_decision(field):
    """Refuse a field over which :func:`witt_equal` decides nothing: it
    decides over finite fields and Q alone."""
    if not (field.is_finite or field.kind == "Q"):
        raise UnsupportedField(f"no Witt equality decision over {field}")


def witt_equal(a, b):
    """Equality in the Witt group W(F) for F finite or Q.

    Over a finite field the class is determined by (dim mod 2, signed
    discriminant); over Q the difference form is reduced by the invariant
    recursion (signature, discriminant, and Hasse symbols at oo, 2, and the
    primes dividing the entries) until anisotropic, and must vanish.
    """
    fa = _as_form(a)
    fb = _as_form(b)
    if fa.field != fb.field:
        raise FieldMismatch(f"{fa.field} vs {fb.field}")
    require_witt_decision(fa.field)
    _, ea = _as_diagonal_entries(fa)
    _, eb = _as_diagonal_entries(fb)
    if fa.field.is_finite:
        if (len(ea) - len(eb)) % 2:
            return False
        da = signed_discriminant(fa)
        db = signed_discriminant(fb)
        return is_square(da * db)  # da/db is a square iff da*db is
    difference = [e.payload for e in ea] + [-e.payload for e in eb]
    return _QInvariants([_square_class(x) for x in difference]).is_witt_trivial()
