"""Push-forward of quadratic forms along finite field extensions.

A finite extension E/F is presented by an :class:`ExtensionDatum`: the
flattened power basis of the tower (or a user-supplied basis) plus the
multiplication matrices it induces.  On top of that sit the trace, the trace
form, the Scharlau transfer on Gram matrices, the unit/counit of the
restriction / Hom_F(E,-) adjunction with machine-checked triangle
identities, and a second, independently-computed route to the transfer that
goes through the duality pairing and the explicit change-of-basis between
functional spaces.  The module also packages executable checks of the
composition, base-change, and projection formulas, each returning a
:class:`CheckReport` {claim, lhs, rhs, equal, witness}.
"""

from __future__ import annotations

from . import linalg
from .errors import (
    DegenerateForm,
    DegenerateTraceForm,
    FieldMismatch,
    UnsupportedField,
)
from .fields import FieldElement, FieldSpec, embed, factor_univariate, poly_eval, spec_extends
from .quadforms import (
    QuadraticForm,
    _diagonal_entries,
    signed_discriminant,
    witt_equal,
)


class ExtensionDatum:
    """A finite extension E/F with an explicit F-basis of E.

    The default basis is the flattened power basis of the tower: for
    E = K[y]/(m) over F it is ``{b * y^j}`` with ``b`` running through the
    basis of K/F (inner index fastest).  A custom basis is certified by the
    invertibility of its coordinate matrix.  The basis traces and the trace
    form are derived on first use and kept in private slots.
    """

    __slots__ = (
        "top",
        "bottom",
        "basis",
        "_to_custom",
        "_one_coords",
        "_basis_traces",
        "_trace_form",
    )

    def __init__(self, top, bottom, basis=None):
        if not spec_extends(top, bottom):
            raise FieldMismatch(f"{top} does not extend {bottom}")
        self.top = top
        self.bottom = bottom
        canonical = _flattened_basis(top, bottom)
        if basis is None:
            self.basis = canonical
            self._to_custom = None
        else:
            basis = [top.element(b) for b in basis]
            if len(basis) != len(canonical):
                raise ValueError(
                    f"basis has length {len(basis)}, expected {len(canonical)}"
                )
            cols = [_canonical_coords(b, bottom) for b in basis]
            mat = linalg.transpose(cols)
            inv = linalg.inverse(bottom, mat)
            if inv is None:
                raise ValueError("proposed basis is not F-linearly independent")
            self.basis = basis
            self._to_custom = inv
        self._one_coords = self.coordinates(top.one())
        self._basis_traces = None
        self._trace_form = None

    @property
    def degree(self):
        return len(self.basis)

    def coordinates(self, x):
        """F-coordinates of x in the datum's basis."""
        if x.spec != self.top:
            raise FieldMismatch(f"element of {x.spec}, expected {self.top}")
        coords = _canonical_coords(x, self.bottom)
        if self._to_custom is None:
            return coords
        return linalg.mat_vec(self.bottom, self._to_custom, coords)

    def from_coordinates(self, coords):
        x = self.top.zero()
        for c, b in zip(coords, self.basis):
            x = x + embed(self.bottom.element(c), self.top) * b
        return x

    def mult_matrix(self, e):
        """Matrix of multiplication by e on E as an F-space (columns = images)."""
        cols = [self.coordinates(e * b) for b in self.basis]
        return linalg.transpose(cols)

    def trace(self, e):
        """Trace of multiplication-by-e: an F-element; conjugate sum if separable.

        By linearity Tr(e) = sum_k coords(e)_k * Tr(b_k); the basis traces
        are the diagonal sums of the basis multiplication matrices, computed
        on first use.
        """
        if e.spec != self.top:
            raise FieldMismatch(f"element of {e.spec}, expected {self.top}")
        zero = self.bottom.zero()
        if self._basis_traces is None:
            mats = [self.mult_matrix(b) for b in self.basis]
            self._basis_traces = [
                sum((m[i][i] for i in range(self.degree)), zero) for m in mats
            ]
        return sum((c * t for c, t in zip(self.coordinates(e), self._basis_traces)), zero)

    def __eq__(self, other):
        if not isinstance(other, ExtensionDatum):
            return NotImplemented
        return (
            self.top == other.top
            and self.bottom == other.bottom
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"ExtensionDatum({self.top!r} / {self.bottom!r}, degree {self.degree})"

    def to_json(self):
        return {
            "top": self.top.to_json(),
            "bottom": self.bottom.to_json(),
            "basis": [b.to_json() for b in self.basis],
        }

    @classmethod
    def from_json(cls, obj):
        top = FieldSpec.from_json(obj["top"])
        bottom = FieldSpec.from_json(obj["bottom"])
        basis = [top.element(b) for b in obj["basis"]] if "basis" in obj else None
        return cls(top, bottom, basis=basis)


def _flattened_basis(top, bottom):
    if top == bottom:
        return [top.one()]
    inner = _flattened_basis(top.base, bottom)
    gen = top.generator()
    out = []
    power = top.one()
    for _ in range(top.degree):
        for b in inner:
            out.append(embed(b, top) * power)
        power = power * gen
    return out


def _canonical_coords(x, bottom):
    if x.spec == bottom:
        return [x]
    base = x.spec.base
    out = []
    for component in x.payload:
        out.extend(_canonical_coords(FieldElement(base, component), bottom))
    return out


def trace_form(ext):
    """Gram[i][j] = Tr(b_i * b_j); nondegenerate exactly when E/F is separable.

    Only the upper triangle is traced (the Gram is symmetric).  The form is
    built once per datum and kept only after its diagonal entries show it
    nondegenerate, so a degenerate datum raises on every call; the returned
    form carries those cached entries.
    """
    if ext._trace_form is None:
        n = ext.degree
        basis = ext.basis
        gram = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = ext.trace(basis[i] * basis[j])
        form = QuadraticForm(ext.bottom, gram)
        if any(e.is_zero() for e in _diagonal_entries(form)):
            raise DegenerateTraceForm(
                f"trace form of {ext.top}/{ext.bottom} is degenerate (inseparable?)"
            )
        ext._trace_form = form
    return ext._trace_form


def scharlau_transfer(ext, q):
    """Transfer of a nondegenerate form along E/F: (x, y) -> Tr(b_E(x, y)).

    The Gram matrix is assembled blockwise: the (a, c) block is
    T * M(G[a][c]) where T is the trace-form Gram and M the multiplication
    matrix, since (T * M(e))[i][j] = Tr(b_i * e * b_j).  G is symmetric, so
    each block is computed for a <= c and written at (a, c) and (c, a).
    """
    if q.field != ext.top:
        raise FieldMismatch(f"form over {q.field}, expected {ext.top}")
    if any(e.is_zero() for e in _diagonal_entries(q)):
        raise DegenerateForm("cannot transfer a degenerate form")
    t_gram = trace_form(ext).gram_rows()
    n = ext.degree
    r = q.dim
    field = ext.bottom
    out = [[field.zero()] * (n * r) for _ in range(n * r)]
    for a in range(r):
        for c in range(a, r):
            e = q.gram[a][c]
            if e.is_zero():
                continue
            block = linalg.mat_mul(field, t_gram, ext.mult_matrix(e))
            for i in range(n):
                for j in range(n):
                    out[a * n + i][c * n + j] = out[c * n + i][a * n + j] = block[i][j]
    return QuadraticForm(field, out)


def restrict_form(q, target):
    """Base-change a form along F -> target (entrywise lift of the Gram)."""
    if not spec_extends(target, q.field):
        raise FieldMismatch(f"{target} does not extend {q.field}")
    gram = [[embed(x, target) for x in row] for row in q.gram]
    return QuadraticForm(target, gram)


# ---------------------------------------------------------------------------
# the adjunction (restriction, Hom_F(E, -)) in explicit matrices
# ---------------------------------------------------------------------------


class LinearMapOverF:
    """A matrix over F together with descriptors of its domain and codomain.

    Descriptors are dicts with at least ``space`` (a label) and
    ``dim_over_base``; matrices act on column vectors.
    """

    __slots__ = ("field", "matrix", "domain", "codomain")

    def __init__(self, field, matrix, domain, codomain):
        rows, cols = linalg.shape(matrix)
        if rows != codomain["dim_over_base"] or cols != domain["dim_over_base"]:
            raise ValueError(
                f"matrix is {rows}x{cols}, expected "
                f"{codomain['dim_over_base']}x{domain['dim_over_base']}"
            )
        self.field = field
        self.matrix = matrix
        self.domain = dict(domain)
        self.codomain = dict(codomain)

    def __repr__(self):
        return f"LinearMapOverF({self.domain['space']} -> {self.codomain['space']})"

    def to_json(self):
        return {
            "domain": self.domain,
            "codomain": self.codomain,
            "matrix": [[x.to_json() for x in row] for row in self.matrix],
        }


def _space(label, dim):
    return {"space": label, "dim_over_base": dim}


def module_action(ext, rank, e):
    """Action of e on E^rank viewed over F (basis b_i v_a at index a*n+i)."""
    m = ext.mult_matrix(e)
    return linalg.block_diag(ext.bottom, [m] * rank)


def hom_action(ext, dim_w, e):
    """Action of e on Hom_F(E, W): (e.phi)(x) = phi(x e); per-block M(e)^T."""
    mt = linalg.transpose(ext.mult_matrix(e))
    return linalg.block_diag(ext.bottom, [mt] * dim_w)


def unit_matrix(ext, action_of):
    """Unit v -> (e -> e.v) of an E-module presented by its action matrices.

    ``action_of(e)`` is the F-matrix of multiplication by e on the module;
    the unit lands in Hom_F(E, V|_F) with basis index k*n + l for the
    functional b_l -> w_k.
    """
    field = ext.bottom
    n = ext.degree
    actions = [action_of(b) for b in ext.basis]
    s = linalg.shape(actions[0])[0]
    out = [[field.zero()] * s for _ in range(s * n)]
    for l in range(n):
        a = actions[l]
        for k in range(s):
            out[k * n + l] = list(a[k])
    return out


def counit_matrix(ext, dim_w):
    """Counit phi -> phi(1) on Hom_F(E, F^dim_w) (basis index k*n + i)."""
    field = ext.bottom
    n = ext.degree
    one = ext._one_coords
    out = [[field.zero()] * (dim_w * n) for _ in range(dim_w)]
    for k in range(dim_w):
        for i in range(n):
            out[k][k * n + i] = one[i]
    return out


def hom_on_map(ext, g):
    """Hom_F(E, -) applied to an F-linear map g (post-composition)."""
    return linalg.kron(ext.bottom, g, linalg.identity(ext.bottom, ext.degree))


def adjunction_data(ext, dim_e, dim_f):
    """The unit for V = E^dim_e and the counit for W = F^dim_f, as matrices."""
    n = ext.degree
    unit = LinearMapOverF(
        ext.bottom,
        unit_matrix(ext, lambda e: module_action(ext, dim_e, e)),
        _space(f"E^{dim_e} over F", dim_e * n),
        _space(f"Hom_F(E, E^{dim_e}|_F) over F", dim_e * n * n),
    )
    counit = LinearMapOverF(
        ext.bottom,
        counit_matrix(ext, dim_f),
        _space(f"Hom_F(E, F^{dim_f}) over F", dim_f * n),
        _space(f"F^{dim_f}", dim_f),
    )
    return unit, counit


def triangle_identities_check(ext, dim_e, dim_f):
    """Both triangle identities of (restriction, Hom_F(E,-)), matrix-exactly.

    Also certifies that the unit matrices are E-linear (they commute with
    every basis action), which is what makes the identity-check over F
    conclusive for maps of E-spaces.
    """
    field = ext.bottom
    n = ext.degree
    # first triangle, on V = E^dim_e: counit_{V|_F} . (unit_V)|_F = id
    unit_v = unit_matrix(ext, lambda e: module_action(ext, dim_e, e))
    t1 = linalg.mat_mul(field, counit_matrix(ext, dim_e * n), unit_v)
    ok1 = linalg.mat_eq(t1, linalg.identity(field, dim_e * n))
    # second triangle, on W = F^dim_f: Hom(E, counit_W) . unit_{Hom(E,W)} = id
    unit_hw = unit_matrix(ext, lambda e: hom_action(ext, dim_f, e))
    t2 = linalg.mat_mul(field, hom_on_map(ext, counit_matrix(ext, dim_f)), unit_hw)
    ok2 = linalg.mat_eq(t2, linalg.identity(field, dim_f * n))
    # E-linearity of the units
    ok3 = True
    for b in ext.basis:
        lhs_lin = linalg.mat_mul(field, unit_v, module_action(ext, dim_e, b))
        rhs_lin = linalg.mat_mul(field, hom_action(ext, dim_e * n, b), unit_v)
        if not linalg.mat_eq(lhs_lin, rhs_lin):
            ok3 = False
    return CheckReport(
        claim=f"triangle identities for {ext.top}/{ext.bottom}, "
        f"dims ({dim_e}, {dim_f})",
        lhs={"first_triangle": _mat_json(t1)},
        rhs={"second_triangle": _mat_json(t2)},
        equal=ok1 and ok2 and ok3,
        witness={"unit_E_linear": ok3},
    )


def cartan_isomorphism(ext, dim_e):
    """Hom_E(V, Hom_F(E,F))|_F ~ Hom_F(V|_F, F), as an explicit matrix.

    In the bases chosen here -- functionals determined by their values on
    the module basis, indexed compatibly on both sides -- the map
    phi -> (a -> phi(a)(1)) is the identity permutation; returning it as a
    matrix keeps the composition with the duality route basis-explicit.
    """
    n = ext.degree
    size = dim_e * n
    return LinearMapOverF(
        ext.bottom,
        linalg.identity(ext.bottom, size),
        _space(f"Hom_E(E^{dim_e}, Hom_F(E,F)) over F", size),
        _space(f"Hom_F(E^{dim_e}|_F, F)", size),
    )


def pushforward_via_cartan(ext, q):
    """The transfer computed through the duality pairing and Cartan matrix.

    Independently of :func:`scharlau_transfer`, build the matrix of the
    E-linear pairing map psi: V -> Hom_E(V, Hom_F(E,F)) by literal
    functional evaluation (the coefficient of a functional on the dual
    basis is its value on the basis), then push through the Cartan matrix
    to land in Hom_F(V|_F, F) and read off the Gram.
    """
    if q.field != ext.top:
        raise FieldMismatch(f"form over {q.field}, expected {ext.top}")
    n = ext.degree
    r = q.dim
    field = ext.bottom
    psi = [[field.zero()] * (r * n) for _ in range(r * n)]
    for c in range(r):
        for k in range(n):
            # psi(b_k v_c) sends v_a to the functional x -> Tr(x * b_k * G[a][c])
            for a in range(r):
                e = q.gram[a][c] * ext.basis[k]
                for i in range(n):
                    psi[a * n + i][c * n + k] = ext.trace(ext.basis[i] * e)
    cartan = cartan_isomorphism(ext, r).matrix
    gram = linalg.mat_mul(field, cartan, psi)
    return QuadraticForm(field, gram)


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


def _mat_json(m):
    return [[x.to_json() for x in row] for row in m]


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
        witness={"lhs_gram": _mat_json(lhs.gram_rows()), "rhs_gram": _mat_json(rhs.gram_rows())}
        if not equal
        else None,
    )


def split_algebra(ext, L):
    """The factors of E (x)_F L as extensions of L, with the evaluation maps.

    E must be a one-step extension F[x]/(m); the factors are L[x]/(m_i) for
    the irreducible factors m_i of m over L, each packaged as (field, image
    of x).  Inseparable (nonreduced) tensor products are rejected by the
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
    coeffs = [embed(FieldElement(bottom, c), target) for c in e.payload]
    return poly_eval(target, coeffs, x_image)


def base_change_check(ext, L, q):
    """res_L(transfer_{E/F} q) = sum of transfers over the factors of E(x)L."""
    if q.field != ext.top:
        raise FieldMismatch(f"form over {q.field}, expected {ext.top}")
    factors = split_algebra(ext, L)
    lhs = restrict_form(scharlau_transfer(ext, q), L)
    rhs = QuadraticForm(L, [])
    pieces = []
    for target, x_image in factors:
        gram = [
            [_evaluate_into(x, target, x_image, ext.bottom) for x in row]
            for row in q.gram
        ]
        q_i = QuadraticForm(target, gram)
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
