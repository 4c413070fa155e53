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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wittforge import fields, linalg
from wittforge.errors import (
    BoundsExceeded,
    FactorizationUnsupported,
    FieldMismatch,
    NotAField,
    UnsupportedCharacteristic,
    UnsupportedField,
)
from wittforge.fields import (
    MAX_TOWER_DEGREE,
    FieldElement,
    FieldSpec,
    _divmod_raw,
    _euclid,
    _first_nonsquare,
    _is_irreducible,
    _monic_candidates,
    embed,
    factor_univariate,
    find_irreducible,
    is_square,
    isprime,
    kept,
    prime_power,
    rational_roots,
    rational_sqrt,
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


def test_integral_rational_payloads():
    # construction and the eliminations box an integral value as an int;
    # sums and products keep the Fraction, equal to the int in value, hash
    # and JSON
    half = Q.element(Fraction(1, 2))
    assert type(Q.element(Fraction(4, 2)).payload) is int
    assert type(Q.element("6/3").payload) is int
    assert type(linalg.inverse(Q, [[half]])[0][0].payload) is int
    two = {0: {0: Q.from_int(2)}}
    for value in (half * 2, half + half, linalg.product(Q, {0: {0: half}}, two)[0][0]):
        assert value.payload == Fraction(1, 1) and type(value.payload) is Fraction
        assert value == Q.one() and hash(value) == hash(Q.one())
        assert value.to_json() == Q.one().to_json() == "1"


class _Memoed:
    __slots__ = ("_memo",)

    def __init__(self):
        self._memo = {}


def test_kept_builds_once_per_argument():
    builds = []

    @kept
    def derived(obj, *args):
        builds.append(args)
        return [len(builds)]

    obj, other = _Memoed(), _Memoed()
    first = derived(obj)
    assert derived(obj) is first and derived(other) is not first
    # an int by value, anything else by its id, and stored with the entry
    assert derived(obj, 3) is derived(obj, 3) is not first
    assert derived(obj, other) is derived(obj, other)
    assert derived(obj, _Memoed()) is not derived(obj, _Memoed())
    assert builds[:4] == [(), (), (3,), (other,)] and len(builds) == 6
    assert sum(other in args for _, args in obj._memo.values()) == 1
    # obj itself is never stored: that would be a cycle
    derived(obj, obj)
    assert not any(part is obj for _, args in obj._memo.values() for part in args)


def test_kept_stores_nothing_when_the_build_raises():
    calls = []

    @kept
    def refused(obj):
        calls.append(obj)
        raise ValueError("refused")

    obj = _Memoed()
    for _ in range(2):
        with pytest.raises(ValueError):
            refused(obj)
    assert calls == [obj, obj] and obj._memo == {}


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
            p = spec.char
            assert (a + b) ** p == a**p + b**p
            assert (a * b) ** p == a**p * b**p


def test_frobenius_fixes_prime_field():
    for n in range(3):
        x = embed(F3.from_int(n), F9)
        assert x**3 == x


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


def _near_square(root):
    return st.integers(-1, 1).map(lambda k: root * root + k)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(-(2**70), 2**70),
        st.integers(0, 2**80).flatmap(_near_square),
        st.fractions(),
        st.builds(
            lambda a, b, sign: sign * Fraction(a, b),
            st.integers(0, 2**80).flatmap(_near_square),
            st.integers(1, 2**80).flatmap(_near_square).filter(bool),
            st.sampled_from([1, -1]),
        ),
    )
)
@example(0)
@example(Fraction(0))
@example(-4)
@example(2**64)
@example((2**64 + 1) ** 2)
@example(Fraction((2**70 + 3) ** 2, (2**65 - 1) ** 2))
def test_rational_sqrt_matches_integer_nthroot(f):
    # oracle: sympy's integer square root of numerator and denominator
    rn, okn = sympy.integer_nthroot(f.numerator, 2) if f >= 0 else (0, False)
    rd, okd = sympy.integer_nthroot(f.denominator, 2)
    root = rational_sqrt(f)
    assert root == (Fraction(rn, rd) if okn and okd else None)
    assert root is None or (type(root) is Fraction and root >= 0 and root * root == f)


def test_char0_extensions_have_no_square_roots():
    # square roots in characteristic 0 are rational ones: Q(sqrt 2) has no
    # Witt decision, so nothing needs its squares
    for x in (QSQRT2.from_int(2), QSQRT2.element([3, 2]), QSQRT2.zero()):
        with pytest.raises(UnsupportedField):
            is_square(x)
        with pytest.raises(UnsupportedField):
            sqrt(x)


# ---------------------------------------------------------------------------
# univariate polynomials on raw payload lists
# ---------------------------------------------------------------------------


def schoolbook_product(field, f, g):
    """Oracle: the product of two boxed coefficient sequences, term by term."""
    out = [field.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return tuple(out)


def product_payloads(field, factors):
    """Oracle: the payloads of a product of boxed factors (sympy over F_p, else schoolbook)."""
    if field.kind != "Fp":
        prod = (field.one(),)
        for g in factors:
            prod = schoolbook_product(field, prod, g)
        return tuple(c.payload for c in prod)
    prod = sympy.Poly(1, X, modulus=field.p)
    for g in factors:
        prod *= _sympy_mod_p([c.payload for c in g], field.p)
    return _coeffs_mod_p(prod, prod.degree() + 1)


def test_poly_divmod_identity():
    rng = random.Random(5)
    for _ in range(50):
        f = [F7.random_element(rng).payload for _ in range(6)]
        g = [F7.random_element(rng).payload for _ in range(3)]
        while g and g[-1] == 0:
            g.pop()
        if not g:
            continue
        q, r = _divmod_raw(F7._kernel, f, g)
        recon = _sympy_mod_p(q, 7) * _sympy_mod_p(g, 7) + _sympy_mod_p(r, 7)
        assert recon == _sympy_mod_p(f, 7)
        assert len(r) < len(g)  # deg r < deg g
        assert 0 not in q[-1:] + r[-1:]  # both trimmed


def test_poly_divmod_raises_on_inconsistent_arithmetic():
    # a throwaway spec whose products are off by one: no pass can cancel
    # its leading term, so division must stop instead of looping
    spec = FieldSpec.Fp(7)
    spec._kernel.mul = lambda a, b: (a * b + 1) % 7
    with pytest.raises(RuntimeError, match="did not cancel"):
        _divmod_raw(spec._kernel, [1, 2, 3, 4], [1, 1])


def test_extension_inverse_raises_on_inconsistent_arithmetic():
    # the same fault under F7[x]/(x^2 + 1): the inverse's Euclid loop runs the
    # checked division step, so it raises instead of looping
    spec = FieldSpec.Fp(7)
    spec._kernel.mul = lambda a, b: (a * b + 1) % 7
    ext = FieldSpec.extension(spec, [1, 0, 1], assume_irreducible=True)
    with pytest.raises(RuntimeError, match="did not cancel"):
        ext.element([1, 2]).inverse()


def test_poly_gcd_of_coprime():
    # gcd(x^2+1, x) = 1 over F3, and the cofactor s has s*x = 1 mod x^2+1
    r, s = _euclid(F3._kernel, [1, 0, 1], [0, 1], True)
    assert len(r) == 1
    assert (_sympy_mod_p(s, 3) * _sympy_mod_p([0, 1], 3)).rem(
        _sympy_mod_p([1, 0, 1], 3)
    ) == _sympy_mod_p(r, 3)


def _poly_product(k, f, g):
    out = [k.zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g, i):
            out[j] = k.add(out[j], k.mul(x, y))
    return out


@pytest.mark.parametrize("field", [F3, F9, Q], ids=repr)
def test_gcd_without_cofactor_is_the_extended_gcd(field):
    # seeded pairs a*c, b*c with a random common factor c, so most gcds are not units
    rng, k = random.Random(23), field._kernel
    for _ in range(40):
        a, b, c = (
            [field.random_element(rng).payload for _ in range(rng.randint(1, 4))] + [k.one]
            for _ in range(3)
        )
        f, g = _poly_product(k, a, c), _poly_product(k, b, c)
        r, s = _euclid(k, f, g, False)
        assert s is None
        assert r == _euclid(k, f, g, True)[0]


def test_gcds_that_read_no_cofactor_build_none(monkeypatch):
    # Ben-Or's gcds and the squarefree test read only the gcd: with the
    # cofactor's product refused, the modulus search and factoring still
    # answer, while the extension inverse, which reads the cofactor, does not
    F27 = _prime_power_field("F27")
    element = F27.element([1, 2])

    def refused(*args):
        raise AssertionError("a cofactor was built")

    monkeypatch.setattr(fields, "_sub_product", refused)
    modulus = find_irreducible.__wrapped__(F27, 3)  # past the cache
    assert [c.payload for c in modulus] == [(0, 0, 1), (0, 0, 2), (0, 0, 0), (1, 0, 0)]
    for name, coeffs, expected in FROZEN_FACTORIZATIONS:
        if name == "F3":
            assert [[c.payload for c in f] for f in factor_univariate(coeffs, F3)] == expected
    with pytest.raises(AssertionError, match="cofactor"):
        element.inverse()


def test_rational_roots_oracle():
    # (x - 2)(x + 1/3)(x^2 + 1) has rational roots 2 and -1/3
    poly = sympy.Poly((X - 2) * (X + sympy.Rational(1, 3)) * (X**2 + 1), X)
    roots = rational_roots([Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()[::-1]])
    assert set(r.payload for r in roots) == {Fraction(2), Fraction(-1, 3)}


# ---------------------------------------------------------------------------
# irreducibility and factorization (oracle-first)
# ---------------------------------------------------------------------------


def brute_force_monic_factors(field, coeffs, degree):
    """Oracle: all monic divisors of the given degree, by exhaustion."""
    elems = list(field.elements())
    f = [c.payload for c in coeffs]
    found = []
    for tail in itertools.product(elems, repeat=degree):
        cand = tuple(tail) + (field.one(),)
        _, rem = _divmod_raw(field._kernel, f, [c.payload for c in cand])
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
    assert product_payloads(F5, factors) == (1, 0, 0, 0, 1)


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
            der = [(spec.from_int(i) * c).payload for i, c in enumerate(coeffs)][1:]
            while der and der[-1] == spec.zero().payload:
                der.pop()
            if len(_euclid(spec._kernel, [c.payload for c in coeffs], der, False)[0]) != 1:
                continue  # oracle needs squarefree input
            factors = factor_univariate(coeffs, spec)
            assert all(g[-1] == spec.one() for g in factors)
            assert product_payloads(spec, factors) == tuple(c.payload for c in coeffs)
            # no factor admits a further root (degree <= 3 pieces certified)
            for g in factors:
                if len(g) == 3:
                    assert brute_force_monic_factors(spec, g, 1) == []


def test_char0_extensions_neither_factor_nor_decide_irreducibility():
    # characteristic-0 factoring is over Q alone; over Q(sqrt 2), x^2 - 2 is
    # refused, and so is the modulus of a would-be Q(sqrt 2, sqrt 3)
    with pytest.raises(FactorizationUnsupported):
        factor_univariate([-2, 0, 1], QSQRT2)
    with pytest.raises(NotAField):
        FieldSpec.extension(QSQRT2, [-3, 0, 1])


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


# moduli over extension bases (the second step of every tower), taken from
# the boxed polynomial implementation; each base is find_irreducible's own
FROZEN_EXTENSION_MODULI = {
    ("F9", 2): [(1, 1), (0, 0), (1, 0)],
    ("F9", 3): [(0, 1), (0, 1), (0, 0), (1, 0)],
    ("F9", 4): [(1, 1), (0, 0), (0, 0), (0, 0), (1, 0)],
    ("F9", 5): [(1, 1), (1, 0), (0, 0), (0, 0), (0, 0), (1, 0)],
    ("F9", 6): [(1, 2), (0, 0), (0, 1), (0, 0), (0, 0), (0, 0), (1, 0)],
    ("F9", 7): [(0, 1), (0, 1), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, 0)],
    ("F9", 8): [(1, 1), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (1, 0)],
    ("F25", 2): [(0, 1), (0, 0), (1, 0)],
    ("F25", 3): [(1, 1), (0, 0), (0, 0), (1, 0)],
    ("F25", 4): [(0, 1), (0, 0), (0, 0), (0, 0), (1, 0)],
    ("F25", 5): [(0, 1), (1, 0), (0, 0), (0, 0), (0, 0), (1, 0)],
    ("F27", 2): [(0, 0, 1), (0, 0, 0), (1, 0, 0)],
    ("F27", 3): [(0, 0, 1), (0, 0, 2), (0, 0, 0), (1, 0, 0)],
    ("F27", 4): [(0, 0, 2), (0, 0, 1), (0, 0, 0), (0, 0, 0), (1, 0, 0)],
    ("F27", 5): [(0, 1, 1), (0, 0, 1), (0, 0, 0), (0, 0, 0), (0, 0, 0), (1, 0, 0)],
    ("F49", 2): [(1, 2), (0, 0), (1, 0)],
    ("F49", 3): [(0, 2), (0, 0), (0, 0), (1, 0)],
    ("F49", 4): [(1, 2), (0, 0), (0, 0), (0, 0), (1, 0)],
}


def _prime_power_field(name):
    p, degree = {"F9": (3, 2), "F25": (5, 2), "F27": (3, 3), "F49": (7, 2)}[name]
    base = FieldSpec.Fp(p)
    return FieldSpec.extension(base, find_irreducible(base, degree))


@pytest.mark.parametrize("name,degree", sorted(FROZEN_EXTENSION_MODULI))
def test_find_irreducible_frozen_extension_moduli(name, degree):
    modulus = find_irreducible(_prime_power_field(name), degree)
    assert [c.payload for c in modulus] == FROZEN_EXTENSION_MODULI[(name, degree)]


# (field, monic squarefree input, factors in the order returned), taken from
# the boxed polynomial implementation: trial division finds the factors in
# candidate order, and rational roots come in divisor-then-sign order
FROZEN_FACTORIZATIONS = [
    ("F3", [0, 2, 2, 1], [[0, 1], [2, 2, 1]]),
    ("F3", [0, 1, 0, 2, 1, 1], [[0, 1], [1, 1], [1, 2, 0, 1]]),
    ("F3", [0, 1, 1, 1, 1, 1], [[0, 1], [1, 1, 1, 1, 1]]),
    ("F3", [1, 1, 0, 0, 1], [[2, 1], [2, 1, 1, 1]]),
    ("F3", [1, 0, 2, 1, 1, 1, 1, 1], [[1, 0, 2, 1, 1, 1, 1, 1]]),
    ("F9", [[1, 2], [2, 1], [0, 1], [1, 0]], [[[1, 1], [1, 0]], [[0, 2], [2, 0], [1, 0]]]),
    (
        "F9",
        [[2, 1], [1, 2], [1, 1], [2, 1], [2, 2], [1, 0]],
        [[[1, 1], [1, 0]], [[0, 1], [1, 0], [2, 2], [1, 1], [1, 0]]],
    ),
    (
        "F9",
        [[0, 2], [2, 1], [1, 0], [1, 0], [0, 2], [1, 0]],
        [[[1, 0], [1, 0]], [[1, 2], [1, 0]], [[2, 1], [1, 2], [1, 0], [1, 0]]],
    ),
    (
        "F9",
        [[2, 2], [1, 1], [2, 1], [1, 0], [0, 2], [0, 2], [1, 0]],
        [[[1, 1], [1, 0]], [[1, 1], [0, 1], [1, 0]], [[1, 2], [1, 2], [2, 0], [1, 0]]],
    ),
    ("F9", [1, 0, 1], [[[0, 1], [1, 0]], [[0, 2], [1, 0]]]),  # F9's own modulus splits
    ("F9", [1, 2, 0, 1], [[[1, 0], [2, 0], [0, 0], [1, 0]]]),  # F27's modulus stays whole
    ("F25", [2, 0, 1], [[[0, 1], [1, 0]], [[0, 4], [1, 0]]]),
    ("Q", [6, -5, -2, 1], [["-1", "1"], ["2", "1"], ["-3", "1"]]),
    ("Q", [4, 0, -5, 0, 1], [["-1", "1"], ["1", "1"], ["-2", "1"], ["2", "1"]]),
    ("Q", [0, -2, 0, 1], [["0", "1"], ["-2", "0", "1"]]),
    ("Q", ["-1/3", "1/2", 0, 1], [["-1/3", "1/2", "0", "1"]]),
]


@pytest.mark.parametrize("name,coeffs,expected", FROZEN_FACTORIZATIONS)
def test_factor_univariate_frozen_order(name, coeffs, expected):
    fields = {"F3": F3, "Q": Q}
    field = fields[name] if name in fields else _prime_power_field(name)
    factors = factor_univariate([field.element(c) for c in coeffs], field)
    assert [[c.to_json() for c in g] for g in factors] == expected


def trial_division_factors(field, f):
    """Oracle: the former finite factorization, trial division of a monic
    payload list by every monic candidate up to half the remaining degree,
    restarting in candidate order after each factor found."""
    factors, work, degree = [], f, 1
    while 2 * degree <= len(work) - 1:
        for cand in _monic_candidates(field, degree):
            quot, rem = _divmod_raw(field._kernel, work, cand)
            if not rem:
                factors.append(cand)
                work = quot
                break
        else:
            degree += 1
    if len(work) > 1:
        factors.append(work)
    return factors


def _is_squarefree(field, f):
    k = field._kernel
    der = [k.mul(k.from_int(i), c) for i, c in enumerate(f) if i]
    while der and k.is_zero(der[-1]):
        der.pop()
    return bool(der) and len(_euclid(k, f, der, False)[0]) == 1


@pytest.mark.parametrize("name", ["F3", "F5", "F7", "F9", "F27"])
def test_factor_univariate_matches_trial_division(name):
    # seeded draws of degree <= 8; among them, parts of two and three
    # factors of one degree (over F27: three quadratics)
    field = {"F3": F3, "F5": F5, "F7": F7}.get(name) or _prime_power_field(name)
    rng = random.Random(f"dd-{name}")
    tested = 0
    while tested < 12:
        degree = rng.randint(1, 8)
        f = [field.random_element(rng).payload for _ in range(degree)] + [field._kernel.one]
        if not _is_squarefree(field, f):
            continue
        tested += 1
        got = [[c.payload for c in g] for g in factor_univariate(f, field)]
        assert got == trial_division_factors(field, f), f


# F_{3^7}: q^2 = 4,782,969 exceeds the enumeration cap
F3_7 = FieldSpec.extension(F3, find_irreducible(F3, 7))


def test_single_factor_parts_need_no_enumeration():
    # an F3 quartic stays irreducible over F_{3^7} (4 and 7 are coprime): its
    # one distinct-degree part is a single factor, so no candidates are listed
    quartic = tuple(F3_7.element(c) for c in find_irreducible(F3, 4))
    assert factor_univariate(quartic, F3_7) == [quartic]


def test_equal_degree_split_past_the_cap_raises():
    # (x^2 + 1)(x^2 + x + 2): two quadratics that stay irreducible over the
    # odd-degree F_{3^7}, so the degree-2 part needs q^2 candidates
    with pytest.raises(FactorizationUnsupported):
        factor_univariate([2, 1, 0, 1, 1], F3_7)


@pytest.mark.parametrize(
    "coeffs,expected",
    [
        ([6, -5, -2, 1], ["1", "-2", "3"]),
        ([0, Fraction(-2, 3), Fraction(1, 3), 1], ["0", "-1", "2/3"]),
        ([4, 0, -5, 0, 1], ["1", "-1", "2", "-2"]),
        ([Fraction(1, 4), 0, -1], ["1/2", "-1/2"]),
    ],
)
def test_rational_roots_frozen_order(coeffs, expected):
    assert [r.to_json() for r in rational_roots(coeffs)] == expected


def sympy_is_irreducible(p, coeffs):
    """Oracle: sympy's irreducibility test over F_p (coefficients low to high)."""
    return sympy.Poly(coeffs[::-1], sympy.Symbol("x"), modulus=p).is_irreducible


@pytest.mark.parametrize("p,max_degree", [(3, 5), (5, 3), (7, 3)])
def test_is_irreducible_matches_sympy_exhaustively(p, max_degree):
    field = FieldSpec.Fp(p)
    for degree in range(1, max_degree + 1):
        for tail in itertools.product(range(p), repeat=degree):
            coeffs = list(tail) + [1]
            assert _is_irreducible(field, coeffs) == sympy_is_irreducible(p, coeffs), coeffs


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
    assert _is_irreducible(FieldSpec.Fp(p), coeffs) == sympy_is_irreducible(p, coeffs)


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
            schoolbook_product(field, g, h)
            for k in range(1, degree // 2 + 1)
            for g in monic[k]
            for h in monic[degree - k]
        }
        for f in monic[degree]:
            assert _is_irreducible(field, [c.payload for c in f]) == (f not in products)


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


def column(vector):
    """A dense vector as a sparse one-column matrix."""
    return linalg.transpose(linalg.sparse([vector]))


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
        assert column(ext.coordinates(a * b)) == linalg.product(F3, m, column(ext.coordinates(b)))
        one = ext.coordinates(top.one())
        inv = linalg.inverse(F3, linalg.dense(F3, m, (ext.degree, ext.degree)))
        assert column(ext.coordinates(a.inverse())) == linalg.product(F3, inv, column(one))


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
            assert all(isinstance(c, (int, Fraction)) for c in got.payload)


# ---------------------------------------------------------------------------
# the rational kernel: an int payload when integral, a Fraction otherwise
# ---------------------------------------------------------------------------

rationals = st.one_of(
    st.integers(-(10**12), 10**12),
    st.fractions(max_denominator=60).filter(lambda f: f.denominator != 1),
)


@settings(max_examples=300, deadline=None)
@given(rationals, rationals)
def test_rational_kernel_matches_fraction_arithmetic(a, b):
    k, fa, fb = Q._kernel, Fraction(a), Fraction(b)
    for got, expected in ((k.add(a, b), fa + fb), (k.sub(a, b), fa - fb), (k.mul(a, b), fa * fb)):
        assert got == expected and isinstance(got, (int, Fraction))
        if type(a) is type(b) is int:
            assert type(got) is int  # integral work stays on machine ints
    assert k.neg(a) == -fa and type(k.neg(a)) is type(a)
    if a:
        inv = k.inv(a)
        assert inv == 1 / fa
        assert (type(inv) is int) == ((1 / fa).denominator == 1)


def test_rational_inverse_returns_the_units_themselves():
    inv = Q._kernel.inv
    for unit in (1, -1):
        assert inv(unit) == unit and type(inv(unit)) is int
    assert inv(2) == Fraction(1, 2) and type(inv(2)) is Fraction
    assert inv(Fraction(1, 3)) == 3 and type(inv(Fraction(1, 3))) is int


@settings(max_examples=200, deadline=None)
@given(rationals)
def test_rational_payload_is_int_exactly_when_integral(x):
    f = Fraction(x)
    integral = f.denominator == 1
    for el in (Q.element(f), Q.element(x), Q.element(str(f))):
        assert el.payload == f and (type(el.payload) is int) == integral
    if integral:
        assert type(Q.from_int(f.numerator).payload) is int
    if f:
        inv = Q.element(f).inverse()
        assert inv.payload == 1 / f
        assert (type(inv.payload) is int) == ((1 / f).denominator == 1)
    # the same value with a Fraction payload: equal, same hash, same wire form
    el, boxed = Q.element(f), FieldElement(Q, f)
    assert el == boxed and hash(el) == hash(boxed)
    assert el.to_json() == boxed.to_json() and repr(el) == repr(boxed)
    back = pickle.loads(pickle.dumps(el))
    assert back == boxed and type(back.payload) is type(el.payload)


def test_random_rationals_are_int_exactly_when_integral():
    rng, oracle = random.Random(7), random.Random(7)
    for _ in range(300):
        x = Q.random_element(rng)
        f = Fraction(oracle.randint(-9, 9), oracle.randint(1, 9))  # the same draws
        assert x.payload == f and (type(x.payload) is int) == (f.denominator == 1)
    assert rng.random() == oracle.random()


def test_rational_from_int_refuses_fractions():
    for value in (Fraction(1, 2), Fraction(3)):
        with pytest.raises(TypeError):
            Q.from_int(value)
    assert Q.from_int(-4).payload == -4


@pytest.mark.parametrize("n", [2, 5])
def test_quadratic_rational_extension_keeps_fractional_coordinates(n):
    # coordinates over Q may be ints or Fractions; neither may be truncated
    spec = FieldSpec.extension(Q, [-n, 0, 1])
    r = sympy.sqrt(n)
    half, third = spec.element([Fraction(1, 2)]), spec.element([0, Fraction(1, 3)])
    assert (half * third).payload == (0, Fraction(1, 6))
    assert (third * third).payload == (Fraction(n, 9), 0)
    rng = random.Random(n)
    for _ in range(25):
        a, b = (
            spec.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)])
            for _ in range(2)
        )
        ea, eb = (x.payload[0] + x.payload[1] * r for x in (a, b))
        pairs = [(a * b, ea * eb), (a + b, ea + eb), (a - b, ea - eb)]
        if not a.is_zero():
            pairs.append((a.inverse(), sympy.radsimp(1 / ea)))
        for got, expr in pairs:
            expr = sympy.expand(expr)
            assert got.payload == (expr.subs(r, 0), expr.coeff(r))


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


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------


def test_isprime_matches_sympy_below_200000():
    assert [n for n in range(-3, 200_000) if isprime(n) != sympy.isprime(n)] == []


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1))
@example(2**61 - 1)
@example(2**64 - 59)  # the largest prime below 2^64
def test_isprime_matches_sympy_below_2_to_the_64(n):
    assert isprime(n) == sympy.isprime(n)


@pytest.mark.parametrize(
    "n",
    [
        56052361,  # 211 * 421 * 631, Carmichael: a^(n-1) = 1 is reached from a root of 1 other than -1
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # to every prime base up to 23
        318665857834031151167461,  # to every prime base up to 37
        3317044064679887385961981,  # to every prime base up to 41: sympy decides it
    ],
)
def test_isprime_rejects_pseudoprimes(n):
    assert not isprime(n)
    assert isprime(2**89 - 1)  # above the Miller-Rabin bound, a Mersenne prime


def test_prime_power_matches_factoring():
    for q in range(1, 20_000):
        factors = sympy.factorint(q)
        expected = next(iter(factors.items())) if len(factors) == 1 else None
        assert prime_power(q) == expected, q


@pytest.mark.parametrize(
    "p, k",
    [(3, 40), (1000000007, 1), (2**61 - 1, 1), (2**61 - 1, 7), (10007, 100), (3, 1000)],
)
def test_prime_power_of_large_powers(p, k):
    assert prime_power(p**k) == (p, k)
    assert prime_power(p**k + 2 * p) is None  # p times a cofactor prime to p
