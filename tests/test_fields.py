"""Field arithmetic: axioms, extensions, squares, and factorization.

The factorization cases were computed first with the brute-force oracles at
the bottom of this file (exhaustive products of monic candidates) and the
expected values are frozen into the assertions.
"""

import copy
import itertools
import json
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge import linalg
from wittforge.errors import (
    BoundsExceeded,
    FactorizationUnsupported,
    FieldMismatch,
    NotAField,
    UnsupportedCharacteristic,
)
from wittforge.fields import (
    MAX_TOWER_DEGREE,
    FieldSpec,
    _first_nonsquare,
    _is_irreducible,
    _poly_mul,
    embed,
    factor_univariate,
    find_irreducible,
    frobenius,
    is_square,
    poly_divmod,
    poly_eval,
    poly_gcd,
    rational_roots,
    sqrt,
)
from wittforge.transfer import ExtensionDatum

Q = FieldSpec.Q()
F3 = FieldSpec.Fp(3)
F5 = FieldSpec.Fp(5)
F7 = FieldSpec.Fp(7)
F9 = FieldSpec.extension(F3, [1, 0, 1])  # x^2 + 1
F25 = FieldSpec.extension(F5, [2, 0, 1])  # x^2 + 2
QSQRT2 = FieldSpec.extension(Q, [-2, 0, 1])


def sample_fields():
    return [Q, F3, F5, F7, F9, QSQRT2, FieldSpec.extension(F9, find_irreducible(F9, 2))]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_char_2_rejected():
    with pytest.raises(UnsupportedCharacteristic):
        FieldSpec.Fp(2)


def test_composite_p_rejected():
    with pytest.raises(NotAField):
        FieldSpec.Fp(9)


def test_reducible_modulus_rejected():
    # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(NotAField):
        FieldSpec.extension(F3, [-1, 0, 1])
    with pytest.raises(NotAField):
        FieldSpec.extension(Q, [-4, 0, 1])


def test_non_monic_modulus_rejected():
    with pytest.raises(NotAField):
        FieldSpec.extension(F3, [1, 0, 2])


def test_tower_degree_cap():
    f81 = FieldSpec.extension(F3, find_irreducible(F3, 4))
    with pytest.raises(BoundsExceeded):
        FieldSpec.extension(f81, find_irreducible(f81, 5))


def test_find_irreducible_checks_the_cap_before_searching():
    with pytest.raises(BoundsExceeded):
        find_irreducible(F3, MAX_TOWER_DEGREE + 1)
    with pytest.raises(BoundsExceeded):
        find_irreducible(F9, MAX_TOWER_DEGREE // 2 + 1)


def test_quartic_over_q_needs_certificate():
    with pytest.raises(NotAField):
        FieldSpec.extension(Q, [2, 0, 0, 0, 1])  # x^4 + 2, irreducible but undecided
    spec = FieldSpec.extension(Q, [2, 0, 0, 0, 1], assume_irreducible=True)
    assert spec.degree == 4


def test_field_orders():
    assert F9.order() == 9
    assert F9.char == 3
    f81 = FieldSpec.extension(F9, find_irreducible(F9, 2))
    assert f81.order() == 81
    assert f81.absolute_degree() == 4


# ---------------------------------------------------------------------------
# field axioms on randomized triples
# ---------------------------------------------------------------------------


def test_field_axioms_random_triples():
    rng = random.Random(20240817)
    for spec in sample_fields():
        one = spec.one()
        zero = spec.zero()
        for _ in range(1000 // len(sample_fields()) + 1):
            a = spec.random_element(rng)
            b = spec.random_element(rng)
            c = spec.random_element(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a + (-a) == zero
            if not a.is_zero():
                assert a * a.inverse() == one
                assert (a / a) == one


@given(st.fractions(), st.fractions())
def test_q_matches_fraction_arithmetic(x, y):
    a, b = Q.element(x), Q.element(y)
    assert (a + b).payload == x + y
    assert (a * b).payload == x * y


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F5.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        Q.one() / Q.zero()


def test_cross_field_arithmetic_rejected():
    with pytest.raises(FieldMismatch):
        F3.one() + F5.one()


def test_pow_and_negative_pow():
    a = F7.from_int(3)
    assert a**6 == F7.one()  # Fermat
    assert a**-1 == a.inverse()
    g = F9.generator()
    assert g**8 == F9.one()
    assert g**2 == F9.from_int(-1)  # modulus x^2 + 1


# ---------------------------------------------------------------------------
# extension arithmetic and Frobenius
# ---------------------------------------------------------------------------


def test_f9_generator_relations():
    a = F9.generator()
    assert a * a == F9.from_int(-1)
    assert (a + 1) * (a - 1) == a * a - 1


def test_frobenius_is_additive_and_multiplicative():
    rng = random.Random(7)
    for spec in [F3, F5, F9, FieldSpec.extension(F9, find_irreducible(F9, 2))]:
        for _ in range(50):
            a = spec.random_element(rng)
            b = spec.random_element(rng)
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)


def test_frobenius_fixes_prime_field():
    for n in range(3):
        x = embed(F3.from_int(n), F9)
        assert frobenius(x) == x


def test_embed_tower_is_ring_homomorphism():
    rng = random.Random(11)
    f81 = FieldSpec.extension(F9, find_irreducible(F9, 2))
    for _ in range(30):
        a = F3.random_element(rng)
        b = F3.random_element(rng)
        assert embed(a + b, f81) == embed(a, f81) + embed(b, f81)
        assert embed(a * b, f81) == embed(a, f81) * embed(b, f81)


def test_sqrt2_arithmetic():
    r = QSQRT2.generator()
    assert r * r == QSQRT2.from_int(2)
    x = (1 + r) * (1 - r)
    assert x == QSQRT2.from_int(-1)


# ---------------------------------------------------------------------------
# squares and square roots
# ---------------------------------------------------------------------------


def test_squares_mod_5_oracle():
    squares = sorted({(n * n) % 5 for n in range(5)})
    for n in range(5):
        assert is_square(F5.from_int(n)) == (n in squares)


def test_finite_sqrt_roundtrip():
    rng = random.Random(99)
    for spec in [F3, F5, F7, F9, FieldSpec.extension(F3, find_irreducible(F3, 3))]:
        for _ in range(40):
            a = spec.random_element(rng)
            s = a * a
            r = sqrt(s)
            assert r * r == s


def test_nonsquare_is_not_a_square():
    for spec in [F3, F5, F7, F9]:
        assert not is_square(_first_nonsquare(spec))


def test_rational_squares():
    assert is_square(Q.element(Fraction(9, 4)))
    assert sqrt(Q.element(Fraction(9, 4))) == Q.element(Fraction(3, 2))
    assert not is_square(Q.element(Fraction(-9, 4)))
    assert not is_square(Q.element(Fraction(2)))


def test_sqrt2_field_squares():
    r = QSQRT2.generator()
    assert is_square(QSQRT2.from_int(2))  # sqrt(2)^2
    assert sqrt(QSQRT2.from_int(2)) in (r, -r)
    # 3 + 2*sqrt(2) = (1 + sqrt(2))^2
    x = QSQRT2.element([3, 2])
    assert is_square(x)
    s = sqrt(x)
    assert s * s == x
    assert not is_square(QSQRT2.from_int(3))
    assert not is_square(QSQRT2.from_int(-1))


# ---------------------------------------------------------------------------
# univariate polynomial helpers
# ---------------------------------------------------------------------------


def test_poly_divmod_identity():
    rng = random.Random(5)
    for _ in range(50):
        f = tuple(F7.random_element(rng) for _ in range(6))
        g = tuple(F7.random_element(rng) for _ in range(3))
        if all(c.is_zero() for c in g):
            continue
        q, r = poly_divmod(F7, f, g)
        recon = _poly_mul(F7, q, g)
        n = max(len(recon), len(r), len(f), 1)
        pad = lambda cs: tuple(cs) + (F7.zero(),) * (n - len(cs))
        total = tuple(a + b for a, b in zip(pad(recon), pad(r)))
        assert total == pad(f)
        g_degree = max(i for i, c in enumerate(g) if not c.is_zero())
        assert len(r) <= g_degree  # deg r < deg g


def test_poly_gcd_of_coprime():
    # gcd(x^2+1, x) = 1 over F3
    g = poly_gcd(F3, (F3.one(), F3.zero(), F3.one()), (F3.zero(), F3.one()))
    assert len(g) == 1


def test_rational_roots_oracle():
    # (x - 2)(x + 1/3)(x^2 + 1) has rational roots 2 and -1/3
    lin1 = (Q.element(-2), Q.one())
    lin2 = (Q.element(Fraction(1, 3)), Q.one())
    quad = (Q.one(), Q.zero(), Q.one())
    poly = _poly_mul(Q, _poly_mul(Q, lin1, lin2), quad)
    roots = rational_roots([c.payload for c in poly])
    assert set(r.payload for r in roots) == {Fraction(2), Fraction(-1, 3)}


# ---------------------------------------------------------------------------
# irreducibility and factorization (oracle-first)
# ---------------------------------------------------------------------------


def brute_force_monic_factors(field, coeffs, degree):
    """Oracle: all monic divisors of the given degree, by exhaustion."""
    elems = list(field.elements())
    found = []
    for tail in itertools.product(elems, repeat=degree):
        cand = tuple(tail) + (field.one(),)
        _, rem = poly_divmod(field, coeffs, cand)
        if not rem:
            found.append(cand)
    return found


def test_x4_plus_1_over_f5_oracle_and_frozen():
    # oracle: x^4 + 1 has no roots mod 5 but splits into two monic quadratics
    f = (F5.one(), F5.zero(), F5.zero(), F5.zero(), F5.one())
    assert brute_force_monic_factors(F5, f, 1) == []
    quads = brute_force_monic_factors(F5, f, 2)
    frozen = {
        (F5.from_int(2), F5.zero(), F5.one()),  # x^2 + 2
        (F5.from_int(3), F5.zero(), F5.one()),  # x^2 + 3
    }
    assert set(quads) == frozen

    factors = factor_univariate([1, 0, 0, 0, 1], F5)
    assert {tuple(g) for g in factors} == frozen
    prod = (F5.one(),)
    for g in factors:
        prod = _poly_mul(F5, prod, g)
    assert prod == f


def test_factor_linear_split():
    # x^2 + 1 over F5 = (x-2)(x+2)
    factors = factor_univariate([1, 0, 1], F5)
    assert len(factors) == 2
    assert all(len(g) == 2 for g in factors)
    roots = {(-g[0]).payload for g in factors}
    assert roots == {2, 3}


def test_factor_remultiplication_random():
    rng = random.Random(13)
    for spec in [F3, F5, F9]:
        for _ in range(20):
            deg = rng.randint(2, 5)
            coeffs = [spec.random_element(rng) for _ in range(deg)] + [spec.one()]
            der = [spec.from_int(i) * c for i, c in enumerate(coeffs)][1:]
            if len(poly_gcd(spec, tuple(coeffs), tuple(der))) != 1:
                continue  # oracle needs squarefree input
            factors = factor_univariate(coeffs, spec)
            prod = (spec.one(),)
            for g in factors:
                assert g[-1] == spec.one()
                prod = _poly_mul(spec, prod, g)
            assert prod == tuple(coeffs)
            # no factor admits a further root (degree <= 3 pieces certified)
            for g in factors:
                if len(g) == 3:
                    assert brute_force_monic_factors(spec, g, 1) == []


def test_factor_x2_minus_2_over_sqrt2():
    factors = factor_univariate([-2, 0, 1], QSQRT2)
    assert len(factors) == 2
    r = QSQRT2.generator()
    roots = {-g[0] for g in factors}
    assert roots == {r, -r}


def test_factor_x2_minus_2_over_sqrt5():
    qsqrt5 = FieldSpec.extension(Q, [-5, 0, 1])
    factors = factor_univariate([-2, 0, 1], qsqrt5)
    assert len(factors) == 1  # stays irreducible: 2 is not a square in Q(sqrt 5)


def test_factor_rejects_non_squarefree():
    with pytest.raises(FactorizationUnsupported):
        factor_univariate([0, 0, 1], F5)  # x^2


def test_find_irreducible_lex_first():
    assert find_irreducible(F3, 2) == (F3.one(), F3.zero(), F3.one())  # x^2 + 1
    mod = find_irreducible(F5, 2)
    # oracle: first (c1, c0) in lex order with x^2 + c1 x + c0 irreducible
    expected = None
    for c1 in range(5):
        for c0 in range(5):
            cand = (F5.from_int(c0), F5.from_int(c1), F5.one())
            if not brute_force_monic_factors(F5, cand, 1):
                expected = cand
                break
        if expected:
            break
    assert mod == expected


# moduli returned by the former exhaustive divisor search: Ben-Or's test
# must keep the lexicographically first choice, so towers keep their bytes
FROZEN_MODULI = {
    (3, 2): [1, 0, 1],
    (3, 3): [1, 2, 0, 1],
    (3, 4): [2, 1, 0, 0, 1],
    (3, 5): [1, 2, 0, 0, 0, 1],
    (3, 6): [2, 1, 0, 0, 0, 0, 1],
    (3, 7): [2, 0, 1, 0, 0, 0, 0, 1],
    (3, 8): [2, 0, 1, 0, 0, 0, 0, 0, 1],
    (3, 9): [1, 0, 1, 2, 0, 0, 0, 0, 0, 1],
    (5, 2): [2, 0, 1],
    (5, 3): [1, 1, 0, 1],
    (5, 4): [2, 0, 0, 0, 1],
    (5, 5): [1, 4, 0, 0, 0, 1],
    (5, 6): [2, 1, 0, 0, 0, 0, 1],
    (5, 7): [1, 1, 0, 0, 0, 0, 0, 1],
    (5, 8): [2, 0, 0, 0, 0, 0, 0, 0, 1],
    (5, 9): [3, 2, 1, 0, 0, 0, 0, 0, 0, 1],
    (7, 2): [1, 0, 1],
    (7, 3): [2, 0, 0, 1],
    (7, 4): [1, 1, 0, 0, 1],
    (7, 5): [3, 1, 0, 0, 0, 1],
    (7, 6): [2, 0, 0, 0, 0, 0, 1],
    (7, 7): [1, 6, 0, 0, 0, 0, 0, 1],
    (7, 8): [3, 1, 0, 0, 0, 0, 0, 0, 1],
    (7, 9): [2, 0, 0, 0, 0, 0, 0, 0, 0, 1],
}


@pytest.mark.parametrize("p,degree", sorted(FROZEN_MODULI))
def test_find_irreducible_frozen_moduli(p, degree):
    modulus = find_irreducible(FieldSpec.Fp(p), degree)
    assert [c.payload for c in modulus] == FROZEN_MODULI[(p, degree)]


def sympy_is_irreducible(p, coeffs):
    """Oracle: sympy's irreducibility test over F_p (coefficients low to high)."""
    return sympy.Poly(coeffs[::-1], sympy.Symbol("x"), modulus=p).is_irreducible


@pytest.mark.parametrize("p,max_degree", [(3, 5), (5, 3), (7, 3)])
def test_is_irreducible_matches_sympy_exhaustively(p, max_degree):
    field = FieldSpec.Fp(p)
    for degree in range(1, max_degree + 1):
        for tail in itertools.product(range(p), repeat=degree):
            coeffs = list(tail) + [1]
            f = tuple(field.from_int(c) for c in coeffs)
            assert _is_irreducible(field, f) == sympy_is_irreducible(p, coeffs), coeffs


@st.composite
def monic_over_small_prime(draw):
    p = draw(st.sampled_from([3, 5, 7, 11]))
    degree = draw(st.integers(1, 12))
    tail = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    return p, tail + [1]


@settings(deadline=None)
@given(monic_over_small_prime())
def test_is_irreducible_matches_sympy_random(case):
    p, coeffs = case
    field = FieldSpec.Fp(p)
    f = tuple(field.from_int(c) for c in coeffs)
    assert _is_irreducible(field, f) == sympy_is_irreducible(p, coeffs)


@pytest.mark.parametrize("field,max_degree", [(F9, 3), (F25, 2)])
def test_is_irreducible_matches_products_over_extensions(field, max_degree):
    # oracle: a monic polynomial is reducible iff it is a product of two
    # monic polynomials of lower degree
    elems = list(field.elements())
    monic = {
        d: [tail + (field.one(),) for tail in itertools.product(elems, repeat=d)]
        for d in range(1, max_degree + 1)
    }
    for degree in range(2, max_degree + 1):
        products = {
            _poly_mul(field, g, h)
            for k in range(1, degree // 2 + 1)
            for g in monic[k]
            for h in monic[degree - k]
        }
        for f in monic[degree]:
            assert _is_irreducible(field, f) == (f not in products)


def test_poly_eval():
    f = (F7.from_int(1), F7.from_int(2), F7.one())  # 1 + 2x + x^2
    assert poly_eval(F7, f, F7.from_int(3)) == F7.from_int(1 + 6 + 9)


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------


def test_fieldspec_json_roundtrip():
    for spec in sample_fields():
        assert FieldSpec.from_json(spec.to_json()) == spec


def test_element_json_roundtrip():
    rng = random.Random(3)
    for spec in sample_fields():
        for _ in range(10):
            x = spec.random_element(rng)
            assert spec.element(x.to_json()) == x


def test_specs_and_elements_survive_pickle_and_copy():
    # a spec's kernel holds closures, so pickling rebuilds the spec
    rng = random.Random(5)
    for spec in sample_fields():
        x = spec.random_nonzero(rng)
        for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert clone == x and clone.spec == spec
            assert clone * clone.inverse() == spec.one()


def test_element_string_coercions():
    assert Q.element("3/4").payload == Fraction(3, 4)
    assert Q.element("-2").payload == Fraction(-2)
    assert F7.element(10) == F7.from_int(3)
    assert F9.element([1, 2]) == F9.one() + 2 * F9.generator()


# ---------------------------------------------------------------------------
# the raw-payload kernel against independent oracles
# ---------------------------------------------------------------------------

X, Y = sympy.symbols("x y")


def _sympy_mod_p(payload, p):
    return sympy.Poly(list(payload)[::-1], X, modulus=p)


def _coeffs_mod_p(poly, n):
    coeffs = [int(c) % poly.get_modulus() for c in poly.all_coeffs()[::-1]]
    return tuple(coeffs + [0] * (n - len(coeffs)))


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("degree", range(2, 10))
def test_prime_extension_kernel_matches_sympy(p, degree):
    base = FieldSpec.Fp(p)
    spec = FieldSpec.extension(base, find_irreducible(base, degree))
    modulus = _sympy_mod_p([c.payload for c in spec.modulus], p)
    rng = random.Random(p * 100 + degree)
    for _ in range(6):
        a, b = spec.random_nonzero(rng), spec.random_element(rng)
        fa, fb = _sympy_mod_p(a.payload, p), _sympy_mod_p(b.payload, p)
        assert (a * b).payload == _coeffs_mod_p((fa * fb).rem(modulus), degree)
        assert a.inverse().payload == _coeffs_mod_p(fa.invert(modulus), degree)
        assert all(isinstance(c, int) and 0 <= c < p for c in (a * b).payload)


def _tower_expr(x):
    """A tower element over F_p as a sympy polynomial in x (inner) and y (outer)."""
    return sum(
        (c * X**i * Y**j for j, inner in enumerate(x.payload) for i, c in enumerate(inner)),
        sympy.Integer(0),
    )


def _tower_payload(expr, p, d_inner, d_outer):
    poly = sympy.Poly(expr, Y, X, modulus=p)
    return tuple(
        tuple(int(poly.coeff_monomial(Y**j * X**i)) % p for i in range(d_inner))
        for j in range(d_outer)
    )


TOWERS = ("F3^2-cubic", "F81/F9/F3", "F27^3")


def _tower(name):
    """A tower over F3, built when a test runs rather than at collection."""
    f27 = FieldSpec.extension(F3, find_irreducible(F3, 3))
    base, degree = {"F3^2-cubic": (F9, 3), "F81/F9/F3": (F9, 2), "F27^3": (f27, 3)}[name]
    return FieldSpec.extension(base, find_irreducible(base, degree))


@pytest.mark.parametrize("name", TOWERS)
def test_tower_kernel_matches_flattened_matrices(name):
    # the F3-linear route: coordinates of a*b are M(a) times those of b, and
    # the inverse has the coordinates M(a)^-1 (1), by Gauss-Jordan over F3
    top = _tower(name)
    ext = ExtensionDatum(top, F3)
    rng = random.Random(len(name))
    for _ in range(6):
        a, b = top.random_nonzero(rng), top.random_element(rng)
        m = ext.mult_matrix(a)
        assert ext.coordinates(a * b) == linalg.mat_vec(F3, m, ext.coordinates(b))
        one = ext.coordinates(top.one())
        assert ext.coordinates(a.inverse()) == linalg.mat_vec(F3, linalg.inverse(F3, m), one)


@pytest.mark.parametrize("name", TOWERS)
def test_tower_kernel_matches_sympy_reduction(name):
    # {m_inner(x), m_outer(x, y)} is a lex Groebner basis (y > x), so the
    # normal form of a product is the product in the tower
    top = _tower(name)
    mid = top.base
    d_inner, d_outer = mid.degree, top.degree
    m_inner = sum(c.payload * X**i for i, c in enumerate(mid.modulus))
    m_outer = _tower_expr(top.element(list(top.modulus[:-1]))) + Y**d_outer
    rng = random.Random(7 * len(name))
    for _ in range(6):
        a, b = top.random_element(rng), top.random_element(rng)
        _, rem = sympy.reduced(
            _tower_expr(a) * _tower_expr(b), [m_outer, m_inner], Y, X, modulus=3, order="lex"
        )
        assert (a * b).payload == _tower_payload(rem, 3, d_inner, d_outer)


def test_qsqrt2_kernel_matches_sympy():
    r = sympy.sqrt(2)
    rng = random.Random(41)
    for _ in range(20):
        a, b = QSQRT2.random_nonzero(rng), QSQRT2.random_element(rng)
        ea = a.payload[0] + a.payload[1] * r
        eb = b.payload[0] + b.payload[1] * r
        for got, expr in ((a * b, ea * eb), (a.inverse(), sympy.radsimp(1 / ea))):
            expr = sympy.expand(expr)
            assert got.payload == (expr.subs(r, 0), expr.coeff(r))
            assert all(isinstance(c, Fraction) for c in got.payload)


def test_payloads_are_raw():
    assert F7.from_int(9).payload == 2
    assert F9.element([1, 2]).payload == (1, 2)
    top = _tower("F27^3")
    assert top.one().payload == ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    assert embed(F3.from_int(2), top).payload == ((2, 0, 0), (0, 0, 0), (0, 0, 0))
    assert QSQRT2.generator().payload == (Fraction(0), Fraction(1))


# to_json and repr of seeded elements, taken from the boxed implementation
PINNED_ELEMENTS = {
    "F9": [[1, 0], [2, 2], [1, 0], [0, 1], [1, 0], [0, 0], [2, 2], [0, 2]],
    "F27^3": [
        [[2, 1, 2], [1, 2, 0], [2, 2, 1]],
        [[1, 1, 2], [2, 2, 0], [1, 2, 2]],
        [[1, 2, 0], [2, 0, 2], [2, 1, 2]],
        [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [1, 0, 2], [0, 1, 2]],
        [[1, 0, 0], [0, 0, 0], [2, 1, 1]],
    ],
    "Qsqrt2": [
        ["-5/9", "-3/7"], ["-4/3", "1/2"], ["-2", "1/7"], ["0", "1"],
        ["1", "0"], ["0", "0"], ["59/189", "37/126"], ["0", "1/2"],
    ],
}


def test_element_json_and_repr_pinned():
    rng = random.Random(2024)
    for name, spec in (("F9", F9), ("F27^3", _tower("F27^3")), ("Qsqrt2", QSQRT2)):
        xs = [spec.random_element(rng) for _ in range(3)]
        xs += [spec.generator(), spec.one(), spec.zero()]
        xs += [xs[0] * xs[1], xs[3].inverse()]
        assert [x.to_json() for x in xs] == PINNED_ELEMENTS[name]
        assert [repr(x) for x in xs] == [
            json.dumps(j).replace('"', "") for j in PINNED_ELEMENTS[name]
        ]
    assert repr(_tower("F27^3")) == (
        "F3[x]/(1+2*x+1*x^3)[x]/([0, 0, 1]+[0, 0, 2]*x+[1, 0, 0]*x^3)"
    )


@st.composite
def squarefree_monic_over_prime(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    degree = draw(st.integers(2, 7))
    tail = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    return p, tail + [1]


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@settings(max_examples=150, deadline=None)
@given(squarefree_monic_over_prime())
def test_factor_univariate_matches_sympy(case):
    p, coeffs = case
    poly = sympy.Poly(coeffs[::-1], X, modulus=p)
    if sympy.degree(sympy.gcd(poly, poly.diff(X))) > 0:
        return  # factor_univariate takes squarefree input only
    field = FieldSpec.Fp(p)
    got = sorted(tuple(c.payload for c in g) for g in factor_univariate(coeffs, field))
    _, factors = sympy.factor_list(poly.as_expr(), X, modulus=p)
    expected = sorted(
        _coeffs_mod_p(sympy.Poly(f, X, modulus=p).monic(), sympy.degree(f, X) + 1)
        for f, _ in factors
    )
    assert got == expected
