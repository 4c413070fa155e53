"""Push-forward of quadratic forms along finite field extensions.

A finite extension E/F is presented by an :class:`ExtensionDatum`: the
flattened power basis of the tower plus the multiplication matrices it
induces, both by shift-and-reduce with no product in E.  On top of that sit
the trace, the trace form, the Scharlau transfer on Gram matrices, the
unit/counit of the restriction / Hom_F(E,-) adjunction with machine-checked
triangle identities (the unit's E-linearity is certified on one generator
per tower step: an F-linear map that commutes with a generating set of an
F-algebra, whose words span it, is linear over the algebra), and a second,
independently-computed route to the transfer that goes through the duality
pairing and the explicit change-of-basis between functional spaces (the
Cartan matrix, a :class:`LinearMapOverF`: a sparse matrix with its shape);
``verify``'s adjunction suite checks that the matrix is invertible and that
this route equals the Scharlau transfer.  The module also packages
executable checks of the composition, base-change, and projection formulas,
each returning a :class:`CheckReport` {claim, lhs, rhs, equal, witness}.
"""

from __future__ import annotations

from . import linalg
from .errors import (
    DegenerateForm,
    DegenerateTraceForm,
    FieldMismatch,
    UnsupportedField,
)
from .fields import FieldElement, FieldSpec, embed, factor_univariate, kept, spec_extends
from .quadforms import QuadraticForm, require_witt_decision, signed_discriminant, witt_equal


class ExtensionDatum:
    """A finite extension E/F with an explicit F-basis of E.

    The basis is the flattened power basis of the tower: for E = K[y]/(m)
    over F it is ``{b * y^j}`` with ``b`` running through the basis of K/F
    (inner index fastest), so the coordinates of an element are its nested
    payload flattened.  The basis and each M(e) come from :func:`_times_basis`;
    the table, the basis traces and the trace form are derived on first use
    and kept in ``_memo`` (:func:`~wittforge.fields.kept`), outside equality.
    Matrices are :mod:`~wittforge.linalg` sparse matrices.
    """

    __slots__ = ("top", "bottom", "basis", "_one_coords", "_memo")

    def __init__(self, top, bottom):
        if not spec_extends(top, bottom):
            raise FieldMismatch(f"{top} does not extend {bottom}")
        self.top, self.bottom = top, bottom
        self.basis = [FieldElement(top, b) for b in _times_basis(top, bottom, top._kernel.one)]
        self._one_coords = linalg.sparse([self.coordinates(top.one())])[0]
        self._memo = {}

    @property
    def degree(self):
        return len(self.basis)

    def coordinates(self, x):
        """F-coordinates of x in the datum's basis: its payload flattened level by level."""
        if x.spec != self.top:
            raise FieldMismatch(f"element of {x.spec}, expected {self.top}")
        return [FieldElement(self.bottom, c) for c in self._flattened([x.payload])]

    def _flattened(self, payloads):
        """The F payloads of a list of E payloads, each flattened level by level, in turn."""
        spec = self.top
        while spec != self.bottom:
            spec, payloads = spec.base, [c for p in payloads for c in p]
        return payloads

    def mult_matrix(self, e):
        """Matrix of multiplication by e on E as an F-space (columns = images)."""
        if e.spec != self.top:
            raise FieldMismatch(f"element of {e.spec}, expected {self.top}")
        n, is_zero, mat = self.degree, self.bottom._kernel.is_zero, {}
        for at, c in enumerate(self._flattened(_times_basis(self.top, self.bottom, e.payload))):
            if not is_zero(c):
                mat.setdefault(at % n, {})[at // n] = FieldElement(self.bottom, c)
        return mat

    @kept
    def _mult_table(self):
        """The multiplication table [M(b_0), ..., M(b_{n-1})], built on first use."""
        return [self.mult_matrix(b) for b in self.basis]

    @kept
    def _basis_traces(self):
        """[Tr(b_0), ..., Tr(b_{n-1})]: the diagonal sums of the multiplication table."""
        zero, n = self.bottom.zero(), self.degree
        return [
            sum((m.get(i, {}).get(i, zero) for i in range(n)), zero) for m in self._mult_table()
        ]

    def trace(self, e):
        """Trace of multiplication-by-e: an F-element; conjugate sum if separable.

        By linearity Tr(e) = sum_k coords(e)_k * Tr(b_k).
        """
        coords = self.coordinates(e)  # a FieldMismatch comes before the table is built
        return sum((c * t for c, t in zip(coords, self._basis_traces())), self.bottom.zero())

    def __eq__(self, other):
        if not isinstance(other, ExtensionDatum):
            return NotImplemented
        return self.top == other.top and self.bottom == other.bottom  # the basis follows

    def __repr__(self):
        return f"ExtensionDatum({self.top!r} / {self.bottom!r}, degree {self.degree})"


def _times_basis(spec, bottom, payload):
    """Payloads of e * b (e of this payload) for b through the flattened basis of ``spec``
    over ``bottom``, in order, with no product in ``spec``: e * b_i comes from the step
    below, and y times a column is a shift plus its top entry times the modulus tail."""
    if spec == bottom:
        return [payload]
    k = spec.base._kernel
    tail = [(i, k.neg(c.payload)) for i, c in enumerate(spec.modulus[:-1]) if not c.is_zero()]
    out = list(zip(*[_times_basis(spec.base, bottom, c) for c in payload]))
    for at in range(len(out) * (spec.degree - 1)):  # y * out[at] = out[at + [base : bottom]]
        lead, shifted = out[at][-1], [k.zero, *out[at][:-1]]
        for i, t in tail if not k.is_zero(lead) else ():
            shifted[i] = k.add(shifted[i], k.mul(lead, t))
        out.append(tuple(shifted))
    return out


def _trace_gram(ext):
    """The matrix [Tr(b_i b_k)]: row i is (Tr b_0, ..., Tr b_{n-1}) * M(b_i),
    read off the multiplication table, so no basis pair is multiplied in E."""
    traces = linalg.sparse([ext._basis_traces()])
    rows = (linalg.product(ext.bottom, traces, m).get(0) for m in ext._mult_table())
    return {i: row for i, row in enumerate(rows) if row}


@kept
def trace_form(ext):
    """Gram[i][j] = Tr(b_i * b_j); nondegenerate exactly when E/F is separable.

    The Gram is :func:`_trace_gram`, whose symmetry check tests
    Tr(b_i b_j) = Tr(b_j b_i).  The form is built once per datum and kept
    only after its diagonal entries show it nondegenerate, so a degenerate
    datum raises on every call; the returned form keeps those entries.
    """
    form = QuadraticForm(ext.bottom, _trace_gram(ext), ext.degree)
    if form.is_degenerate():
        raise DegenerateTraceForm(
            f"trace form of {ext.top}/{ext.bottom} is degenerate (inseparable?)"
        )
    return form


def scharlau_transfer(ext, q):
    """Transfer of a nondegenerate form along E/F: (x, y) -> Tr(b_E(x, y)).

    The Gram matrix is assembled blockwise: the (a, c) block is
    T * M(G[a][c]) where T is the trace-form Gram and M the multiplication
    matrix, since (T * M(e))[i][j] = Tr(b_i * e * b_j).  G is symmetric, so
    each block is computed for a <= c and written at (a, c) and (c, a).
    """
    if q.field != ext.top:
        raise FieldMismatch(f"form over {q.field}, expected {ext.top}")
    if q.is_degenerate():
        raise DegenerateForm("cannot transfer a degenerate form")
    t_gram = trace_form(ext)._mat
    n = ext.degree
    field = ext.bottom
    out = {}
    for a, row in q._mat.items():
        for c, e in row.items():
            if c < a:
                continue
            block = linalg.product(field, t_gram, ext.mult_matrix(e))
            linalg.kron(1, block, (n, n), out, (a * n, c * n))
            linalg.kron(1, block, (n, n), out, (c * n, a * n))
    return QuadraticForm(field, out, n * q.dim)


def restrict_form(q, target):
    """Base-change a form along F -> target (entrywise lift of the Gram)."""
    if not spec_extends(target, q.field):
        raise FieldMismatch(f"{target} does not extend {q.field}")
    return _mapped(q, target, lambda x: embed(x, target))


def _mapped(q, target, hom):
    """q with each Gram entry sent into ``target`` by the field homomorphism ``hom``."""
    mat = {i: {j: hom(x) for j, x in row.items()} for i, row in q._mat.items()}
    return QuadraticForm(target, mat, q.dim)


# ---------------------------------------------------------------------------
# the adjunction (restriction, Hom_F(E, -)) in explicit matrices
# ---------------------------------------------------------------------------


class LinearMapOverF:
    """A sparse matrix over F with its shape (rows, columns), acting on columns.

    The matrix is stored once, as a :mod:`~wittforge.linalg` sparse matrix
    (``_mat``) checked against ``shape``; ``matrix`` is a dense view derived
    on access.
    """

    __slots__ = ("field", "_mat", "shape")

    def __init__(self, field, mat, shape):
        if not linalg.fits(mat, shape):
            raise ValueError(f"matrix does not fit the shape {shape}")
        self.field, self._mat, self.shape = field, mat, shape

    @property
    def matrix(self):
        """The matrix as dense row tuples, zeros included."""
        return linalg.dense(self.field, self._mat, self.shape)

    def __repr__(self):
        return f"LinearMapOverF({self.shape[0]} x {self.shape[1]} over {self.field!r})"

    def to_json(self):
        return {"matrix": linalg.dense_json(self.field, self._mat, self.shape)}


def _actions(ext, blocks, copies):
    """The action of each b_l on ``copies`` copies of an n-dimensional module,
    from its action ``blocks[l]`` on one: M(b_l) on E (b_i v_a at index a*n+i),
    M(b_l)^T on Hom_F(E, F), where (e.phi)(x) = phi(x e)."""
    n = ext.degree
    return [linalg.kron(copies, m, (n, n), {}, (0, 0)) for m in blocks]


def unit_matrix(ext, actions):
    """Unit v -> (e -> e.v) of an E-module presented by the actions of the basis.

    ``actions[l]`` is the F-matrix of multiplication by b_l on the module;
    the unit lands in Hom_F(E, V|_F) with basis index k*n + l for the
    functional b_l -> w_k: row k*n + l is row k of ``actions[l]``.
    """
    n = ext.degree
    return {k * n + l: row for l, action in enumerate(actions) for k, row in action.items()}


def counit_matrix(ext, dim_w):
    """Counit phi -> phi(1) on Hom_F(E, F^dim_w) (basis index k*n + i)."""
    return linalg.kron(dim_w, {0: ext._one_coords}, (1, ext.degree), {}, (0, 0))


def triangle_identities_check(ext, dim_e, dim_f):
    """Both triangle identities of (restriction, Hom_F(E,-)), matrix-exactly.

    Also certifies that the unit of V = E^dim_e is E-linear, which is what
    makes the identity-check over F conclusive for maps of E-spaces; see
    :func:`_unit_is_E_linear`.  Every action is read off the table.
    """
    n, field = ext.degree, ext.bottom
    table = ext._mult_table()
    # first triangle, on V = E^dim_e: counit_{V|_F} . (unit_V)|_F = id
    unit_v = unit_matrix(ext, _actions(ext, table, dim_e))
    t1 = linalg.product(field, counit_matrix(ext, dim_e * n), unit_v)
    ok1 = t1 == linalg.identity(field, dim_e * n)
    # second triangle, on W = F^dim_f: Hom(E, counit_W) . unit_{Hom(E,W)} = id,
    # Hom(E, g) being post-composition with g, the matrix g (x) 1_n
    unit_hw = unit_matrix(ext, _actions(ext, [linalg.transpose(m) for m in table], dim_f))
    hom_counit = linalg.kron(counit_matrix(ext, dim_f), n, (n, n), {}, (0, 0))
    t2 = linalg.product(field, hom_counit, unit_hw)
    ok2 = t2 == linalg.identity(field, dim_f * n)
    ok3 = _unit_is_E_linear(ext, unit_v, dim_e)
    return CheckReport(
        claim=f"triangle identities for {ext.top}/{ext.bottom}, "
        f"dims ({dim_e}, {dim_f})",
        lhs={"first_triangle": linalg.dense_json(field, t1, (dim_e * n, dim_e * n))},
        rhs={"second_triangle": linalg.dense_json(field, t2, (dim_f * n, dim_f * n))},
        equal=ok1 and ok2 and ok3,
        witness={"unit_E_linear": ok3},
    )


def _unit_is_E_linear(ext, unit_v, dim_e):
    """Whether the unit of V = E^dim_e intertwines E on V and on Hom_F(E, V|_F),
    checked on one generator g per tower step, bottom step first.

    A_g = sum_l coords_l(g) M(b_l) is read off the table (g is a basis
    element, so it is one entry).  Three sub-checks: (1) unit . (1 (x) A_g) =
    (1 (x) A_g^T) . unit for each g; (2) the A_g commute pairwise; (3) the
    words in the A_g applied to the coordinates of 1 span F^n (they are the
    basis vectors, in basis order).  Why this is
    enough: let Phi(c) = sum_l c_l U_l, U_l the action of b_l that the unit
    reads.  (1) says Phi(A_g x) = Phi(x) A_g, and the first triangle says
    Phi(1) = I, so Phi(w . 1) = w for every word w, its letters in any order
    by (2).  By (3) Phi(x) = M(x) for every x, hence U_l U_m = Phi(M(b_m) e_l)
    for all l and m: the identity that intertwining every basis element
    certifies.  Without (3), generators whose words miss part of E would pass.
    """
    n, field = ext.degree, ext.bottom
    gens, spec = [], ext.top  # (degree, generator) of each step
    while spec != ext.bottom:
        gens.insert(0, (spec.degree, embed(spec.generator(), ext.top)))
        spec = spec.base
    # A_g = (1_n (x) coords(g)) . (the unit of E), which for g = 1 is the first triangle
    unit_e = unit_matrix(ext, ext._mult_table())
    words, actions = [ext._one_coords], []
    for degree, g in gens:
        row = linalg.sparse([ext.coordinates(g)])
        a = linalg.product(field, linalg.kron(n, row, (1, n), {}, (0, 0)), unit_e)
        a_t = linalg.transpose(a)
        unit_side = linalg.kron(dim_e, a, (n, n), {}, (0, 0))
        hom_side = linalg.kron(dim_e * n, a_t, (n, n), {}, (0, 0))
        pairs = [(unit_v, unit_side, hom_side, unit_v)] + [(a, b, b, a) for b in actions]
        if not all(linalg.products_equal(field, *pair) for pair in pairs):
            return False
        actions.append(a)
        power = dict(enumerate(words))  # rows, so power . A_g^T is (A_g . power)^T
        for _ in range(degree - 1):
            power = linalg.product(field, power, a_t)
            words += power.values()
    return linalg.rank(field, words) == n


def cartan_isomorphism(ext, dim_e):
    """Hom_E(V, Hom_F(E,F))|_F -> Hom_F(V|_F, F), phi -> (x -> phi(x)(1)), as a matrix.

    For V = E^dim_e with basis v_a, take the F-basis phi_{a,i} of the source
    with phi_{a,i}(v_a) = b_i . Tr; its image sends b_k v_a to Tr(b_i b_k).
    So the matrix is 1_{dim_e} (x) [Tr(b_i b_k)], invertible exactly when Tr
    generates Hom_F(E, F) over E: a degenerate trace gives a singular matrix.
    """
    n = ext.degree
    mat = linalg.kron(dim_e, _trace_gram(ext), (n, n), {}, (0, 0))
    return LinearMapOverF(ext.bottom, mat, (dim_e * n, dim_e * n))


def pushforward_via_cartan(ext, q):
    """The transfer computed through the duality pairing and Cartan matrix.

    The E-linear pairing map psi: V -> Hom_E(V, Hom_F(E,F)) sends b_k v_c to
    the map v_a -> G[a][c] b_k . Tr, whose coordinates on the basis
    phi_{a,i} of :func:`cartan_isomorphism` are the E-coordinates of
    G[a][c] b_k: no trace is taken here.  The Cartan matrix then carries psi
    to Hom_F(V|_F, F), where its matrix is the Gram of the transfer.  Its E
    products are on purpose: the table has none, so the routes share no product code.
    """
    if q.field != ext.top:
        raise FieldMismatch(f"form over {q.field}, expected {ext.top}")
    n = ext.degree
    r = q.dim
    field = ext.bottom
    psi = {}
    for a, row in q._mat.items():
        for c, g in row.items():
            for k, b in enumerate(ext.basis):
                for i, x in enumerate(ext.coordinates(g * b)):
                    if not x.is_zero():
                        psi.setdefault(a * n + i, {})[c * n + k] = x
    gram = linalg.product(field, cartan_isomorphism(ext, r)._mat, psi)
    return QuadraticForm(field, gram, r * n)


# ---------------------------------------------------------------------------
# theorem specializations as executable checks
# ---------------------------------------------------------------------------


class CheckReport:
    """Outcome of a theorem specialization: truthy iff the claim held."""

    __slots__ = ("claim", "lhs", "rhs", "equal", "witness")

    def __init__(self, claim, lhs, rhs, equal, witness=None):
        self.claim = claim
        self.lhs = lhs
        self.rhs = rhs
        self.equal = bool(equal)
        self.witness = witness

    def __bool__(self):
        return self.equal

    def __repr__(self):
        status = "holds" if self.equal else "FAILS"
        return f"CheckReport({self.claim!r}: {status})"

    def to_json(self):
        return {
            "claim": self.claim,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "equal": self.equal,
            "witness": self.witness,
        }


def _class_summary(form):
    return {"dim": form.dim, "signed_disc": signed_discriminant(form).to_json()}


def transfer_compose_check(outer, inner, q):
    """transfer_{E/F} = transfer_{K/F} . transfer_{E/K} on the given form.

    ``outer`` is K/F, ``inner`` is E/K; the direct route uses the flattened
    E/F datum.
    """
    if inner.bottom != outer.top:
        raise FieldMismatch(
            f"tower mismatch: inner bottom {inner.bottom}, outer top {outer.top}"
        )
    direct = ExtensionDatum(inner.top, outer.bottom)
    lhs = scharlau_transfer(direct, q)
    rhs = scharlau_transfer(outer, scharlau_transfer(inner, q))
    equal = witt_equal(lhs, rhs)
    return CheckReport(
        claim=f"composition of transfers along {inner.top}/{inner.bottom}"
        f"/{outer.bottom}",
        lhs=_class_summary(lhs),
        rhs=_class_summary(rhs),
        equal=equal,
        witness={"lhs_gram": lhs.to_json()["gram"], "rhs_gram": rhs.to_json()["gram"]}
        if not equal
        else None,
    )


def split_algebra(ext, L):
    """The factors of E (x)_F L as extensions of L, with the evaluation maps.

    E must be a one-step extension F[x]/(m); the factors are L[x]/(m_i) for
    the irreducible factors m_i of m over L, each packaged as (field, image
    of x).  L is finite or Q, where :func:`~wittforge.fields.factor_univariate`
    factors; over any other L it raises ``FactorizationUnsupported``.
    Inseparable (nonreduced) tensor products are rejected by the
    underlying factorization.
    """
    if ext.top.base != ext.bottom:
        raise UnsupportedField(
            "base change needs a one-step extension (flatten towers first)"
        )
    if not spec_extends(L, ext.bottom):
        raise FieldMismatch(f"{L} does not extend {ext.bottom}")
    modulus = [embed(ext.bottom.element(c), L) for c in ext.top.modulus]
    factors = factor_univariate(modulus, L)
    out = []
    for f in factors:
        if len(f) == 2:  # linear: x - root
            root = -f[0] / f[1]
            out.append((L, root))
        else:
            ei = FieldSpec.extension(L, list(f), assume_irreducible=True)
            out.append((ei, ei.generator()))
    return out


def _evaluate_into(e, target, x_image, bottom):
    """Apply the F-algebra map E -> target sending the generator to x_image."""
    acc = target.zero()
    for c in reversed(e.payload):  # Horner's rule
        acc = acc * x_image + embed(FieldElement(bottom, c), target)
    return acc


def base_change_check(ext, L, q):
    """res_L(transfer_{E/F} q) = sum of transfers over the factors of E(x)L.

    Scalars L over which :func:`witt_equal` decides nothing (neither finite
    nor Q) are refused before E's modulus is factored: the two sides could
    be built but never compared.
    """
    if q.field != ext.top:
        raise FieldMismatch(f"form over {q.field}, expected {ext.top}")
    require_witt_decision(L)
    factors = split_algebra(ext, L)
    lhs = restrict_form(scharlau_transfer(ext, q), L)
    rhs = QuadraticForm(L, {}, 0)
    pieces = []
    for target, x_image in factors:
        q_i = _mapped(q, target, lambda x: _evaluate_into(x, target, x_image, ext.bottom))
        piece = scharlau_transfer(ExtensionDatum(target, L), q_i)
        pieces.append(piece.dim)
        rhs = rhs.perp(piece)
    equal = witt_equal(lhs, rhs)
    return CheckReport(
        claim=f"base change of the transfer along {ext.top}/{ext.bottom} to {L}",
        lhs=_class_summary(lhs),
        rhs=_class_summary(rhs),
        equal=equal,
        witness={"factor_dims": pieces},
    )


def projection_formula_check(ext, x, y):
    """transfer(x . res(y)) = transfer(x) . y in W(F)."""
    if x.field != ext.top:
        raise FieldMismatch(f"form over {x.field}, expected {ext.top}")
    if y.field != ext.bottom:
        raise FieldMismatch(f"form over {y.field}, expected {ext.bottom}")
    lhs = scharlau_transfer(ext, x.tensor(restrict_form(y, ext.top)))
    rhs = scharlau_transfer(ext, x).tensor(y)
    equal = witt_equal(lhs, rhs)
    return CheckReport(
        claim=f"projection formula along {ext.top}/{ext.bottom}",
        lhs=_class_summary(lhs),
        rhs=_class_summary(rhs),
        equal=equal,
        witness=None,
    )
