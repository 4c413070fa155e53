"""Exact arithmetic over the supported coefficient fields.

A field is described by a :class:`FieldSpec`: the rationals ``Q``, an odd
prime field ``Fp``, or a simple extension ``ext`` of another spec by a monic
irreducible modulus.  Extensions may be stacked into towers; the absolute
degree of a tower is capped at :data:`MAX_TOWER_DEGREE`.

Elements are immutable :class:`FieldElement` values carrying their spec.
The payload conventions are:

* ``Q``    -- a ``fractions.Fraction``
* ``Fp``   -- an ``int`` in ``[0, p)``
* ``ext``  -- a tuple of base-field elements ``(c0, ..., c_{n-1})``, the
  coordinates in the power basis ``1, a, ..., a^{n-1}`` of the generator.

Characteristic 2 is rejected at construction time: every quadratic-form
routine downstream assumes ``2`` is invertible.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import sympy

from .errors import (
    BoundsExceeded,
    FactorizationUnsupported,
    FieldMismatch,
    NotAField,
    UnsupportedCharacteristic,
    UnsupportedField,
)

#: Largest permitted absolute degree of an extension tower.
MAX_TOWER_DEGREE = 16

#: Cap on exhaustive enumerations: the elements of a finite field
#: (:meth:`FieldSpec.elements`) and the trial divisors of ``_factor_finite``.
ENUMERATION_CAP = 10**6


class FieldSpec:
    """An exact field: ``Q``, ``Fp`` (p an odd prime), or a simple extension.

    Instances are immutable, hashable, and compared structurally, so they can
    key caches.  Use the factory classmethods :meth:`Q`, :meth:`Fp`, and
    :meth:`extension` rather than the constructor.
    """

    __slots__ = ("kind", "p", "base", "modulus", "_hash")

    is_field = True

    def __init__(self, kind, p=None, base=None, modulus=None):
        self.kind = kind
        self.p = p
        self.base = base
        self.modulus = modulus
        self._hash = None

    # -- construction -------------------------------------------------

    _Q_SINGLETON = None

    @classmethod
    def Q(cls):
        if cls._Q_SINGLETON is None:
            cls._Q_SINGLETON = cls("Q")
        return cls._Q_SINGLETON

    @classmethod
    def Fp(cls, p):
        if p == 2:
            raise UnsupportedCharacteristic("characteristic 2 is not supported")
        if not sympy.isprime(p):
            raise NotAField(f"{p} is not prime")
        return cls("Fp", p=p)

    @classmethod
    def extension(cls, base, modulus, assume_irreducible=False):
        """Extend ``base`` by a monic modulus (coefficients low to high).

        The modulus must be monic of degree >= 2 and irreducible over
        ``base``.  Irreducibility is decided by Ben-Or's gcd test over
        finite fields, by the rational-root test (complete through degree
        3) over Q, and by a discriminant square test for quadratics over
        the supported Q-extensions; outside those regimes the caller must
        vouch with ``assume_irreducible=True``.
        """
        coeffs = tuple(base.element(c) for c in modulus)
        coeffs = _poly_trim(coeffs)
        deg = len(coeffs) - 1
        if deg < 2:
            raise NotAField("extension modulus must have degree >= 2")
        if coeffs[-1] != base.one():
            raise NotAField("extension modulus must be monic")
        if base.absolute_degree() * deg > MAX_TOWER_DEGREE:
            raise BoundsExceeded(
                f"tower degree {base.absolute_degree() * deg} exceeds "
                f"{MAX_TOWER_DEGREE}"
            )
        if not assume_irreducible and not _is_irreducible(base, coeffs):
            raise NotAField("extension modulus is reducible")
        return cls("ext", base=base, modulus=coeffs)

    # -- structural data ----------------------------------------------

    @property
    def degree(self):
        """Degree over the immediate base (1 for Q and Fp)."""
        return len(self.modulus) - 1 if self.kind == "ext" else 1

    def absolute_degree(self):
        """Degree over the prime field (or over Q)."""
        if self.kind == "ext":
            return self.base.absolute_degree() * self.degree
        return 1

    @property
    def char(self):
        if self.kind == "Q":
            return 0
        if self.kind == "Fp":
            return self.p
        return self.base.char

    @property
    def is_finite(self):
        return self.char != 0

    def order(self):
        if not self.is_finite:
            raise UnsupportedField("infinite field has no order")
        return self.char ** self.absolute_degree()

    # -- elements -----------------------------------------------------

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        if self.kind == "Q":
            return FieldElement(self, Fraction(n))
        if self.kind == "Fp":
            return FieldElement(self, n % self.p)
        payload = [self.base.from_int(n)]
        payload += [self.base.zero()] * (self.degree - 1)
        return FieldElement(self, tuple(payload))

    def element(self, value):
        """Coerce ``value`` (element, int, Fraction, str, coefficient list)."""
        if isinstance(value, FieldElement):
            if value.spec == self:
                return value
            if self.kind == "ext":
                # constants lift from anywhere in the tower below
                lifted = embed(value, self)
                return lifted
            raise FieldMismatch(f"cannot coerce element of {value.spec} into {self}")
        if isinstance(value, bool):
            raise TypeError("bool is not a field element")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            if self.kind == "Q":
                return FieldElement(self, value)
            if self.kind == "Fp":
                return self.from_int(value.numerator) / self.from_int(value.denominator)
            return self.element(self.base.element(value))
        if isinstance(value, str):
            text = value.strip()
            if "/" in text:
                num, den = text.split("/")
                return self.element(Fraction(int(num), int(den)))
            return self.from_int(int(text))
        if isinstance(value, (list, tuple)):
            if self.kind != "ext":
                raise TypeError(f"coefficient arrays only coerce into extensions, not {self}")
            if len(value) > self.degree:
                raise ValueError("coefficient array longer than extension degree")
            payload = [self.base.element(c) for c in value]
            payload += [self.base.zero()] * (self.degree - len(payload))
            return FieldElement(self, tuple(payload))
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def generator(self):
        """The class of x in base[x]/(modulus)."""
        if self.kind != "ext":
            raise UnsupportedField(f"{self} has no generator")
        payload = [self.base.zero()] * self.degree
        payload[1] = self.base.one()
        return FieldElement(self, tuple(payload))

    def elements(self):
        """Iterate every element (finite fields only, deterministic order)."""
        if not self.is_finite:
            raise UnsupportedField("cannot enumerate an infinite field")
        if self.order() > ENUMERATION_CAP:
            raise BoundsExceeded(f"field of order {self.order()} exceeds enumeration cap")
        if self.kind == "Fp":
            for n in range(self.p):
                yield self.from_int(n)
        else:
            for payload in itertools.product(self.base.elements(), repeat=self.degree):
                yield FieldElement(self, payload)

    def random_element(self, rng):
        if self.kind == "Q":
            return FieldElement(self, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if self.kind == "Fp":
            return self.from_int(rng.randrange(self.p))
        return FieldElement(
            self, tuple(self.base.random_element(rng) for _ in range(self.degree))
        )

    def random_nonzero(self, rng):
        while True:
            x = self.random_element(rng)
            if not x.is_zero():
                return x

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == "Q":
            return True
        if self.kind == "Fp":
            return self.p == other.p
        return self.base == other.base and self.modulus == other.modulus

    def __hash__(self):
        if self._hash is None:
            if self.kind == "Q":
                self._hash = hash(("Q",))
            elif self.kind == "Fp":
                self._hash = hash(("Fp", self.p))
            else:
                self._hash = hash(("ext", self.base, self.modulus))
        return self._hash

    def __repr__(self):
        if self.kind == "Q":
            return "Q"
        if self.kind == "Fp":
            return f"F{self.p}"
        return f"{self.base!r}[x]/({'+'.join(_fmt_poly(self.modulus))})"

    # -- serialization ------------------------------------------------

    def to_json(self):
        if self.kind == "Q":
            return {"kind": "Q"}
        if self.kind == "Fp":
            return {"kind": "Fp", "p": self.p}
        return {
            "kind": "ext",
            "base": self.base.to_json(),
            "modulus": [c.to_json() for c in self.modulus],
        }

    @classmethod
    def from_json(cls, obj):
        kind = obj["kind"]
        if kind == "Q":
            return cls.Q()
        if kind == "Fp":
            return cls.Fp(obj["p"])
        if kind == "ext":
            base = cls.from_json(obj["base"])
            return cls.extension(
                base, obj["modulus"], assume_irreducible=obj.get("irreducible", False)
            )
        raise ValueError(f"unknown field kind {kind!r}")


def _fmt_poly(coeffs):
    parts = []
    for i, c in enumerate(coeffs):
        if c.is_zero():
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*x")
        else:
            parts.append(f"{c}*x^{i}")
    return parts or ["0"]


class FieldElement:
    """An immutable element of a :class:`FieldSpec`.

    Arithmetic mixes freely with ``int``; everything else must already live
    over the same spec (a :class:`FieldMismatch` is raised otherwise).
    """

    __slots__ = ("spec", "payload")

    def __init__(self, spec, payload):
        self.spec = spec
        self.payload = payload

    def is_zero(self):
        if self.spec.kind == "Q":
            return self.payload == 0
        if self.spec.kind == "Fp":
            return self.payload == 0
        return all(c.is_zero() for c in self.payload)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise FieldMismatch(f"{self.spec} vs {other.spec}")
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = self.spec.kind
        if k == "Q":
            return FieldElement(self.spec, self.payload + other.payload)
        if k == "Fp":
            return FieldElement(self.spec, (self.payload + other.payload) % self.spec.p)
        return FieldElement(
            self.spec, tuple(a + b for a, b in zip(self.payload, other.payload))
        )

    __radd__ = __add__

    def __neg__(self):
        k = self.spec.kind
        if k == "Q":
            return FieldElement(self.spec, -self.payload)
        if k == "Fp":
            return FieldElement(self.spec, (-self.payload) % self.spec.p)
        return FieldElement(self.spec, tuple(-c for c in self.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        k = self.spec.kind
        if k == "Q":
            return FieldElement(self.spec, self.payload * other.payload)
        if k == "Fp":
            return FieldElement(self.spec, (self.payload * other.payload) % self.spec.p)
        prod = _poly_mul(self.spec.base, self.payload, other.payload)
        rem = _poly_mod(self.spec.base, prod, self.spec.modulus)
        return FieldElement(self.spec, _pad(self.spec.base, rem, self.spec.degree))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError(f"zero has no inverse in {self.spec}")
        k = self.spec.kind
        if k == "Q":
            return FieldElement(self.spec, 1 / self.payload)
        if k == "Fp":
            return FieldElement(self.spec, pow(self.payload, -1, self.spec.p))
        # extended Euclid in base[x] against the (irreducible) modulus
        base, mod = self.spec.base, self.spec.modulus
        g, s, _ = _poly_xgcd(base, _poly_trim(self.payload), mod)
        # g is a unit (degree 0) because the modulus is irreducible
        lead_inv = g[0].inverse()
        inv = tuple(c * lead_inv for c in s)
        inv = _poly_mod(base, inv, mod)
        return FieldElement(self.spec, _pad(base, inv, self.spec.degree))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.spec.one()
        square = self
        while n:
            if n & 1:
                result = result * square
            square = square * square
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.spec.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec == other.spec and self.payload == other.payload

    def __hash__(self):
        return hash((self.spec, self.payload))

    def __repr__(self):
        if self.spec.kind == "ext":
            return "[" + ", ".join(repr(c) for c in self.payload) + "]"
        return str(self.payload)

    def sort_key(self):
        """A deterministic total order key (used for canonical choices)."""
        if self.spec.kind == "Q":
            return (self.payload.numerator, self.payload.denominator)
        if self.spec.kind == "Fp":
            return (self.payload,)
        return tuple(c.sort_key() for c in self.payload)

    def to_json(self):
        if self.spec.kind == "Q":
            f = self.payload
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        if self.spec.kind == "Fp":
            return self.payload
        return [c.to_json() for c in self.payload]


# ---------------------------------------------------------------------------
# dense univariate polynomial helpers (coefficient tuples, low to high)
# ---------------------------------------------------------------------------


def _poly_trim(coeffs):
    coeffs = tuple(coeffs)
    n = len(coeffs)
    while n > 0 and coeffs[n - 1].is_zero():
        n -= 1
    return coeffs[:n]


def _pad(base, coeffs, length):
    coeffs = tuple(coeffs)
    return coeffs + (base.zero(),) * (length - len(coeffs))


def poly_add(base, f, g):
    n = max(len(f), len(g))
    f = _pad(base, f, n)
    g = _pad(base, g, n)
    return _poly_trim(a + b for a, b in zip(f, g))


def poly_scale(base, c, f):
    return _poly_trim(c * a for a in f)


def _poly_mul(base, f, g):
    f = _poly_trim(f)
    g = _poly_trim(g)
    if not f or not g:
        return ()
    out = [base.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return _poly_trim(out)


def poly_mul(base, f, g):
    return _poly_mul(base, f, g)


def poly_divmod(base, f, g):
    f = list(_poly_trim(f))
    g = _poly_trim(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    # a monic divisor needs no inverse (in a tower that would be a full xgcd)
    lead_inv = None if g[-1] == base.one() else g[-1].inverse()
    dg = len(g) - 1
    quot = [base.zero()] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and f:
        c = f[-1] if lead_inv is None else f[-1] * lead_inv
        k = len(f) - 1 - dg
        quot[k] = c
        for i in range(len(g)):
            f[k + i] = f[k + i] - c * g[i]
        f = list(_poly_trim(f))
    return _poly_trim(quot), _poly_trim(f)


def _poly_mod(base, f, g):
    return poly_divmod(base, f, g)[1]


def _poly_powmod(base, f, n, mod):
    """f^n mod ``mod`` by square-and-multiply (n >= 0)."""
    result = (base.one(),)
    square = _poly_mod(base, f, mod)
    while n:
        if n & 1:
            result = _poly_mod(base, _poly_mul(base, result, square), mod)
        n >>= 1
        if n:
            square = _poly_mod(base, _poly_mul(base, square, square), mod)
    return result


def _poly_xgcd(base, f, g):
    """Extended gcd: returns (gcd, s, t) with s*f + t*g = gcd."""
    r0, r1 = _poly_trim(f), _poly_trim(g)
    s0, s1 = (base.one(),), ()
    t0, t1 = (), (base.one(),)
    while r1:
        q, r = poly_divmod(base, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(base, s0, poly_scale(base, base.from_int(-1), _poly_mul(base, q, s1)))
        t0, t1 = t1, poly_add(base, t0, poly_scale(base, base.from_int(-1), _poly_mul(base, q, t1)))
    return r0, s0, t0


def poly_gcd(base, f, g):
    r0, r1 = _poly_trim(f), _poly_trim(g)
    while r1:
        r0, r1 = r1, _poly_mod(base, r0, r1)
    if r0:
        r0 = poly_scale(base, r0[-1].inverse(), r0)
    return r0


def poly_eval(base, f, x):
    acc = base.zero()
    for c in reversed(_poly_trim(f)):
        acc = acc * x + c
    return acc


def poly_derivative(base, f):
    return _poly_trim(base.from_int(i) * c for i, c in enumerate(f) if i > 0)


# ---------------------------------------------------------------------------
# irreducibility and factorization
# ---------------------------------------------------------------------------


def _monic_candidates(field, degree):
    """Monic polynomials of the given degree, lexicographically smallest first.

    The order is lexicographic on the coefficient tuple (c_{k-1}, ..., c_0)
    with field elements in their canonical enumeration order, which makes
    every "first irreducible found" choice deterministic.
    """
    elems = list(field.elements())
    for tail in itertools.product(elems, repeat=degree):
        yield tail[::-1] + (field.one(),)


def _ben_or_irreducible(base, coeffs):
    """Ben-Or's test over a finite base of order q.

    A polynomial f of degree n is irreducible iff gcd(x^(q^i) - x, f) = 1
    for i = 1 .. n // 2: a reducible f has an irreducible factor of some
    degree k <= n // 2, and every such factor divides x^(q^k) - x.  Most
    reducible candidates have a small factor, so they stop at a small i.
    """
    deg = len(coeffs) - 1
    q = base.order()
    minus_x = (base.zero(), base.from_int(-1))
    power = (base.zero(), base.one())  # x, then x^(q^i) mod f
    for _ in range(deg // 2):
        power = _poly_powmod(base, power, q, coeffs)
        if len(poly_gcd(base, poly_add(base, power, minus_x), coeffs)) > 1:
            return False
    return True


def rational_roots(coeffs):
    """All rational roots of a polynomial with Fraction coefficients."""
    Q = FieldSpec.Q()
    f = _poly_trim(tuple(Q.element(c) for c in coeffs))
    if not f:
        raise ValueError("zero polynomial")
    roots = []
    if f[0].is_zero():
        roots.append(Q.zero())
        while f and f[0].is_zero():
            f = f[1:]
    if len(f) <= 1:
        return roots
    denom = 1
    for c in f:
        denom = sympy.ilcm(denom, c.payload.denominator)
    ints = [int(c.payload * denom) for c in f]
    poly = [Q.element(Fraction(i)) for i in ints]
    for num in sympy.divisors(abs(ints[0])):
        for den in sympy.divisors(abs(ints[-1])):
            for sign in (1, -1):
                cand = Q.element(Fraction(sign * num, den))
                if cand not in roots and poly_eval(Q, poly, cand).is_zero():
                    roots.append(cand)
    return roots


def _is_irreducible(base, coeffs):
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if base.is_finite:
        return _ben_or_irreducible(base, coeffs)
    if base.kind == "Q":
        if rational_roots([c.payload for c in coeffs]):
            return False
        if deg <= 3:
            return True  # no root: degree 2 and 3 cannot factor at all
        raise NotAField(
            "irreducibility over Q is only decided through degree 3; "
            "pass assume_irreducible=True to vouch for this modulus"
        )
    # char-0 extension base: quadratics via the discriminant square test
    if deg == 2:
        disc = coeffs[1] * coeffs[1] - 4 * coeffs[0] * coeffs[2]
        try:
            return not is_square(disc)
        except UnsupportedField:
            pass
    raise NotAField(
        "irreducibility over this field is undecided; "
        "pass assume_irreducible=True to vouch for this modulus"
    )


@lru_cache(maxsize=None)
def find_irreducible(field, degree):
    """Lexicographically first monic irreducible of ``degree`` (finite field).

    The tower-degree cap is checked before the search, since a modulus past
    it could never become an extension.
    """
    if not field.is_finite:
        raise UnsupportedField("deterministic modulus search needs a finite field")
    if field.absolute_degree() * degree > MAX_TOWER_DEGREE:
        raise BoundsExceeded(
            f"tower degree {field.absolute_degree() * degree} exceeds {MAX_TOWER_DEGREE}"
        )
    if degree == 1:
        return (field.zero(), field.one())
    for cand in _monic_candidates(field, degree):
        if _is_irreducible(field, cand):
            return cand
    raise NotAField(f"no irreducible of degree {degree}?")  # unreachable


def factor_univariate(coeffs, field):
    """Factor a monic squarefree polynomial into monic irreducibles over ``field``.

    ``coeffs`` are coercible into ``field`` (low to high).  Over finite
    fields the factorization is complete: trial division by the monic
    polynomials of each degree up to half the remaining degree, while their
    number stays under :data:`ENUMERATION_CAP`.  In characteristic 0 the
    supported regime is degree <= 6 with rational coefficients: rational
    roots are stripped, quadratics are decided by a discriminant square test
    in ``field``, and cubics that survive root stripping are certified
    irreducible by degree count.  Anything else raises :class:`FactorizationUnsupported`.
    """
    f = _poly_trim(tuple(field.element(c) for c in coeffs))
    if len(f) < 2:
        raise FactorizationUnsupported("constant polynomial")
    if f[-1] != field.one():
        raise FactorizationUnsupported("polynomial must be monic")
    der = poly_derivative(field, f)
    if len(poly_gcd(field, f, der)) != 1:
        raise FactorizationUnsupported("polynomial must be squarefree")

    if field.is_finite:
        return _factor_finite(field, f)
    return _factor_char0(field, f)


def _factor_finite(field, f):
    q = field.order()
    factors = []
    work = f
    k = 1
    while 2 * k <= len(work) - 1:
        if q**k > ENUMERATION_CAP:
            raise FactorizationUnsupported(
                f"divisor enumeration of size {q**k} exceeds the cap"
            )
        found = False
        for cand in _monic_candidates(field, k):
            quot, rem = poly_divmod(field, work, cand)
            if not rem:
                factors.append(cand)
                work = quot
                found = True
                break
        if not found:
            k += 1
    if len(work) > 1:
        factors.append(work)
    return factors


def _factor_char0(field, f):
    deg = len(f) - 1
    if deg > 6:
        raise FactorizationUnsupported("degree > 6 over characteristic 0")
    # the rational model must exist: every supported caller factors a modulus
    # with rational coefficients over Q or over a quadratic extension of Q
    rational = []
    for c in f:
        r = _rational_preimage(c)
        if r is None:
            raise FactorizationUnsupported(
                "characteristic-0 factorization needs rational coefficients"
            )
        rational.append(r)

    Q = FieldSpec.Q()
    over_q = _factor_rational_poly(tuple(Q.element(r) for r in rational))
    factors = []
    for g in over_q:
        g_emb = tuple(field.element(c.payload) for c in g)
        dg = len(g_emb) - 1
        if dg == 1 or field.kind == "Q":
            factors.append(g_emb)
        elif dg == 2:
            factors.extend(_split_quadratic(field, g_emb))
        elif dg == 3:
            # a cubic irreducible over Q stays irreducible over any field of
            # degree coprime to 3 over Q; the supported extensions are quadratic
            if field.absolute_degree() % 3 == 0:
                raise FactorizationUnsupported("cubic over a degree-divisible extension")
            factors.append(g_emb)
        else:
            raise FactorizationUnsupported(
                f"degree-{dg} irreducible over Q cannot be refined here"
            )
    return factors


def _rational_preimage(x):
    """The Fraction under a tower constant, or None if x is not rational."""
    if x.spec.kind == "Q":
        return x.payload
    if x.spec.kind == "ext":
        if any(not c.is_zero() for c in x.payload[1:]):
            return None
        return _rational_preimage(x.payload[0])
    return None


def _factor_rational_poly(f):
    """Monic squarefree factorization over Q: roots + quadratic/cubic logic."""
    Q = FieldSpec.Q()
    work = f
    factors = []
    roots = rational_roots([c.payload for c in work])
    for r in roots:
        lin = (-r, Q.one())
        quot, rem = poly_divmod(Q, work, lin)
        if rem:
            continue
        factors.append(lin)
        work = quot
    deg = len(work) - 1
    if deg == 0:
        return factors
    if deg == 1:
        factors.append(work)
    elif deg == 2:
        factors.extend(_split_quadratic(Q, work))
    elif deg == 3:
        factors.append(work)  # no rational root: an irreducible cubic
    else:
        raise FactorizationUnsupported(
            f"residual degree {deg} over Q needs methods beyond roots and quadratics"
        )
    return factors


def _split_quadratic(field, g):
    """Split a monic quadratic over ``field`` if its discriminant is a square."""
    c0, c1, _ = g
    disc = c1 * c1 - 4 * c0
    if not is_square(disc):
        return [g]
    s = sqrt(disc)
    two_inv = field.from_int(2).inverse()
    r1 = (-c1 + s) * two_inv
    r2 = (-c1 - s) * two_inv
    return [(-r1, field.one()), (-r2, field.one())]


# ---------------------------------------------------------------------------
# squares, square roots, embeddings, frobenius
# ---------------------------------------------------------------------------


def is_square(x):
    """Decide whether ``x`` is a square in its field."""
    if x.is_zero():
        return True
    spec = x.spec
    if spec.kind == "Q":
        f = x.payload
        if f < 0:
            return False
        rn, okn = sympy.integer_nthroot(f.numerator, 2)
        rd, okd = sympy.integer_nthroot(f.denominator, 2)
        return okn and okd
    if spec.is_finite:
        q = spec.order()
        return (x ** ((q - 1) // 2)) == spec.one()
    if spec.kind == "ext" and spec.base.kind == "Q" and spec.degree == 2:
        return _quadratic_ext_sqrt(x) is not None
    raise UnsupportedField(f"no square test over {spec}")


def sqrt(x):
    """An exact square root, or raise ValueError when ``x`` is not a square."""
    spec = x.spec
    if x.is_zero():
        return x
    if spec.kind == "Q":
        f = x.payload
        if f < 0:
            raise ValueError("negative rational is not a square")
        rn, okn = sympy.integer_nthroot(f.numerator, 2)
        rd, okd = sympy.integer_nthroot(f.denominator, 2)
        if not (okn and okd):
            raise ValueError(f"{f} is not a square in Q")
        return spec.element(Fraction(rn, rd))
    if spec.is_finite:
        return _finite_sqrt(x)
    if spec.kind == "ext" and spec.base.kind == "Q" and spec.degree == 2:
        root = _quadratic_ext_sqrt(x)
        if root is None:
            raise ValueError(f"{x!r} is not a square in {spec}")
        return root
    raise UnsupportedField(f"no square root over {spec}")


def _finite_sqrt(x):
    """Tonelli-Shanks with field arithmetic only (any odd prime power)."""
    spec = x.spec
    q = spec.order()
    if (x ** ((q - 1) // 2)) != spec.one():
        raise ValueError(f"{x!r} is not a square in {spec}")
    if q % 4 == 3:
        return x ** ((q + 1) // 4)
    # write q-1 = 2^s * t with t odd, then walk the 2-Sylow tower
    s, t = 0, q - 1
    while t % 2 == 0:
        s += 1
        t //= 2
    z = _first_nonsquare(spec)
    c = z**t
    r = x ** ((t + 1) // 2)
    u = x**t
    m = s
    one = spec.one()
    while u != one:
        # find least i with u^(2^i) = 1
        i, probe = 0, u
        while probe != one:
            probe = probe * probe
            i += 1
        b = c ** (2 ** (m - i - 1))
        r = r * b
        c = b * b
        u = u * c
        m = i
    return r


def _first_nonsquare(spec):
    q = spec.order()
    if spec.kind == "Fp":
        for n in range(2, spec.p):
            x = spec.from_int(n)
            if (x ** ((q - 1) // 2)) != spec.one():
                return x
    else:
        # lazy payload walk: no order cap, and a nonsquare shows up within
        # a handful of candidates (half of all nonzero elements qualify)
        for payload in itertools.product(spec.base.elements(), repeat=spec.degree):
            x = FieldElement(spec, payload)
            if x.is_zero():
                continue
            if (x ** ((q - 1) // 2)) != spec.one():
                return x
    raise NotAField("every element is a square?")  # unreachable for odd q


def nonsquare(spec):
    """A canonical non-square (finite fields), for square-class normal forms."""
    return _first_nonsquare(spec)


def _quadratic_ext_sqrt(x):
    """Closed-form square root in Q[a]/(a^2 + u*a + v), or None.

    Writing x = p + q*a and y = c + e*a, the equation y^2 = x reduces to a
    rational quadratic in w = e^2 whose solvability is decided exactly.
    """
    spec = x.spec
    Q = FieldSpec.Q()
    v, u, _ = (c.payload for c in spec.modulus)  # a^2 = -v - u*a
    p, q = (c.payload for c in x.payload)

    def _rat_sqrt(f):
        if f < 0:
            return None
        rn, okn = sympy.integer_nthroot(f.numerator, 2)
        rd, okd = sympy.integer_nthroot(f.denominator, 2)
        return Fraction(rn, rd) if (okn and okd) else None

    candidates = []
    if q == 0:
        r = _rat_sqrt(p)
        if r is not None:
            candidates.append((r, Fraction(0)))
        # p may also be the square of a purely "irrational" element:
        # (e*a)^2 = e^2 * a^2 only stays rational when u = 0
        if u == 0:
            r = _rat_sqrt(p / Fraction(-v)) if v != 0 else None
            if r is not None:
                candidates.append((Fraction(0), r))
    if not candidates:
        # general case: (u^2 - 4v) w^2 + (2uq - 4p) w + q^2 = 0 with w = e^2
        A = Fraction(u * u - 4 * v)
        B = 2 * u * q - 4 * p
        C = q * q
        disc = B * B - 4 * A * C
        root = _rat_sqrt(disc) if disc >= 0 else None
        if root is not None and A != 0:
            for sign in (1, -1):
                w = (-B + sign * root) / (2 * A)
                e = _rat_sqrt(w)
                if e is None or e == 0:
                    continue
                c = (q / e + u * e) / 2
                candidates.append((c, e))
    for c, e in candidates:
        y = spec.element([c, e])
        if y * y == x:
            return y
    return None


def embed(x, target):
    """Embed ``x`` into ``target``, which must extend ``x``'s field as a tower."""
    if x.spec == target:
        return x
    if target.kind == "ext":
        inner = embed(x, target.base)
        payload = [inner] + [target.base.zero()] * (target.degree - 1)
        return FieldElement(target, tuple(payload))
    raise FieldMismatch(f"{x.spec} does not embed into {target}")


def spec_extends(top, bottom):
    """True when ``bottom`` appears in ``top``'s tower (possibly top == bottom)."""
    while True:
        if top == bottom:
            return True
        if top.kind != "ext":
            return False
        top = top.base


def frobenius(x):
    """The Frobenius power x -> x^p (finite fields)."""
    if not x.spec.is_finite:
        raise UnsupportedField("Frobenius needs positive characteristic")
    return x ** x.spec.char

