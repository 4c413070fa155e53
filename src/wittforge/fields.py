"""Exact arithmetic over the supported coefficient fields.

A field is described by a :class:`FieldSpec`: the rationals ``Q``, an odd
prime field ``Fp``, or a simple extension ``ext`` of another spec by a monic
irreducible modulus.  Extensions may be stacked into towers; the absolute
degree of a tower is capped at :data:`MAX_TOWER_DEGREE`.

Elements are immutable :class:`FieldElement` values carrying their spec and
a raw payload:

* ``Q``    -- a ``fractions.Fraction``
* ``Fp``   -- an ``int`` in ``[0, p)``
* ``ext``  -- a tuple ``(c0, ..., c_{n-1})`` of the base field's *raw*
  payloads (nested tuples in a tower, never boxed elements), the
  coordinates in the power basis ``1, a, ..., a^{n-1}`` of the generator.

Every payload is canonical (reduced ints, fixed-length tuples), so payloads
compare and hash by value.  Each spec derives one arithmetic kernel for its
kind when it is built (private slot ``_kernel``); element operations run the
kernel on payloads and box only their result.  Extension products are
schoolbook products reduced once by the monic modulus (over F_p the integer
sums are reduced mod p once, at the end), and inverses run the extended
Euclidean algorithm on raw coefficient lists.

Characteristic 2 is rejected at construction time: every quadratic-form
routine downstream assumes ``2`` is invertible.
"""

from __future__ import annotations

import itertools
import operator
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

    __slots__ = ("kind", "p", "base", "modulus", "_hash", "_kernel")

    is_field = True

    def __init__(self, kind, p=None, base=None, modulus=None):
        self.kind = kind
        self.p = p
        self.base = base
        self.modulus = modulus
        self._hash = None
        if kind == "Q":
            self._kernel = _rational_kernel()
        elif kind == "Fp":
            self._kernel = _prime_kernel(p)
        else:
            self._kernel = _extension_kernel(base._kernel, tuple(c.payload for c in modulus))

    def __reduce__(self):
        # the kernel holds closures, so pickle and copy rebuild it
        return (FieldSpec, (self.kind, self.p, self.base, self.modulus))

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
        return FieldElement(self, self._kernel.zero)

    def one(self):
        return FieldElement(self, self._kernel.one)

    def from_int(self, n):
        return FieldElement(self, self._kernel.from_int(n))

    def element(self, value):
        """Coerce ``value`` (element, int, Fraction, str, coefficient list)."""
        if isinstance(value, FieldElement):
            if value.spec == self:
                return value
            if self.kind == "ext":
                # constants lift from anywhere in the tower below
                return embed(value, self)
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
            payload = tuple([self.base.element(c).payload for c in value])
            return FieldElement(self, payload + self._kernel.zero[len(payload) :])
        raise TypeError(f"cannot coerce {value!r} into {self}")

    def generator(self):
        """The class of x in base[x]/(modulus)."""
        if self.kind != "ext":
            raise UnsupportedField(f"{self} has no generator")
        zero = self._kernel.zero
        return FieldElement(self, zero[:1] + (self.base._kernel.one,) + zero[2:])

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
            coefficients = [x.payload for x in self.base.elements()]
            for payload in itertools.product(coefficients, repeat=self.degree):
                yield FieldElement(self, payload)

    def random_element(self, rng):
        if self.kind == "Q":
            return FieldElement(self, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if self.kind == "Fp":
            return self.from_int(rng.randrange(self.p))
        return FieldElement(
            self, tuple([self.base.random_element(rng).payload for _ in range(self.degree)])
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
        return (self.kind, self.p, self.base, self.modulus) == (
            other.kind, other.p, other.base, other.modulus
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.kind, self.p, self.base, self.modulus))
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
    over the same spec (a :class:`FieldMismatch` is raised otherwise).  Each
    operator runs its spec's kernel on the raw payloads; ``_mixed`` coerces
    only when the other operand is not an element of the same spec object.
    """

    __slots__ = ("spec", "payload")

    def __init__(self, spec, payload):
        self.spec = spec
        self.payload = payload

    def is_zero(self):
        return self.spec._kernel.is_zero(self.payload)

    def _mixed(self, other, op, reflected=False):
        """``op`` after coercing ``other`` into this spec: every operator's slow path."""
        if isinstance(other, FieldElement):
            if other.spec != self.spec:
                raise FieldMismatch(f"{self.spec} vs {other.spec}")
            other = FieldElement(self.spec, other.payload)
        elif isinstance(other, int):
            other = self.spec.from_int(other)
        else:
            return NotImplemented
        return op(other, self) if reflected else op(self, other)

    def __add__(self, other):
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            return self._mixed(other, operator.add)
        return FieldElement(spec, spec._kernel.add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.spec, self.spec._kernel.neg(self.payload))

    def __sub__(self, other):
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            return self._mixed(other, operator.sub)
        return FieldElement(spec, spec._kernel.sub(self.payload, other.payload))

    def __rsub__(self, other):
        return self._mixed(other, operator.sub, reflected=True)

    def __mul__(self, other):
        spec = self.spec
        if other.__class__ is not FieldElement or other.spec is not spec:
            return self._mixed(other, operator.mul)
        return FieldElement(spec, spec._kernel.mul(self.payload, other.payload))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError(f"zero has no inverse in {self.spec}")
        return FieldElement(self.spec, self.spec._kernel.inv(self.payload))

    def __truediv__(self, other):
        if other.__class__ is not FieldElement or other.spec is not self.spec:
            return self._mixed(other, operator.truediv)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._mixed(other, operator.truediv, reflected=True)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        kernel = self.spec._kernel
        result, square = kernel.one, self.payload
        while n:
            if n & 1:
                result = kernel.mul(result, square)
            n >>= 1
            if n:
                square = kernel.mul(square, square)
        return FieldElement(self.spec, result)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.payload == self.spec._kernel.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.payload == other.payload and self.spec == other.spec

    def __hash__(self):
        return hash((self.spec, self.payload))

    def __repr__(self):
        if self.spec.kind == "ext":
            base = self.spec.base
            return "[" + ", ".join(repr(FieldElement(base, c)) for c in self.payload) + "]"
        return str(self.payload)

    def to_json(self):
        if self.spec.kind == "Q":
            f = self.payload
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
        if self.spec.kind == "Fp":
            return self.payload
        return [FieldElement(self.spec.base, c).to_json() for c in self.payload]


# ---------------------------------------------------------------------------
# arithmetic kernels on raw payloads, one per field kind
# ---------------------------------------------------------------------------


class _Kernel:
    """The arithmetic of one field on raw payloads.

    The operations are callables stored on the instance (builtins, or
    closures over p and the modulus), so a call is one attribute load and no
    method binding.
    """

    __slots__ = ("zero", "one", "is_zero", "from_int", "add", "sub", "mul", "neg", "inv")


def _rational_kernel():
    """Arithmetic on ``Fraction`` payloads."""
    k = _Kernel()
    k.zero, k.one, k.from_int = Fraction(0), Fraction(1), Fraction
    # a truth test: Fraction.__bool__ is far cheaper than == against Fraction(0)
    k.is_zero = operator.not_
    k.add, k.sub, k.mul, k.neg = operator.add, operator.sub, operator.mul, operator.neg
    k.inv = Fraction(1).__truediv__
    return k


def _prime_kernel(p):
    """Arithmetic on ``int`` payloads in ``[0, p)``."""
    k = _Kernel()
    k.zero, k.one, k.is_zero = 0, 1, operator.not_
    k.from_int = p.__rmod__  # n -> n % p
    k.add = lambda a, b: (a + b) % p
    k.sub = lambda a, b: (a - b) % p
    k.mul = lambda a, b: a * b % p
    k.neg = lambda a: -a % p
    k.inv = lambda a: pow(a, -1, p)
    return k


def _extension_kernel(base, modulus):
    """Arithmetic on coefficient tuples of ``base`` payloads modulo a monic modulus.

    Products accumulate with ``acc_add``/``acc_mul`` and pass each
    coefficient through ``settle`` once: over a prime base (int payloads)
    these are plain int operations and a single reduction mod p; over any
    other base they are the base kernel's own operations.

    Payload tuples are built from lists: ``tuple()`` of a bare iterator
    over-allocates and then resizes, bypassing CPython's per-size tuple free
    lists, which the freed payloads then fill and keep allocated.
    """
    n = len(modulus) - 1
    is_zero = base.is_zero
    # x^n = -(m_0 + m_1 x + ... + m_{n-1} x^{n-1}): the nonzero terms of that tail
    tail = tuple((i, base.neg(c)) for i, c in enumerate(modulus[:n]) if not is_zero(c))
    if type(base.zero) is int:
        acc_add, acc_mul, settle = operator.add, operator.mul, base.from_int
    else:
        acc_add, acc_mul, settle = base.add, base.mul, None

    def mul(a, b):
        """Schoolbook product, then one reduction by the monic modulus."""
        prod = [base.zero] * (2 * n - 1)
        for i, x in enumerate(a):
            if not is_zero(x):
                for j, y in enumerate(b, i):
                    prod[j] = acc_add(prod[j], acc_mul(x, y))
        for j in range(2 * n - 2, n - 1, -1):
            c = prod[j] if settle is None else settle(prod[j])
            if not is_zero(c):
                for i, t in tail:
                    prod[j - n + i] = acc_add(prod[j - n + i], acc_mul(c, t))
        return tuple(prod[:n] if settle is None else list(map(settle, prod[:n])))

    def inv(a):
        """Extended Euclid against the modulus, on raw coefficient lists.

        Both remainders keep r = s*a (mod modulus); once r1 is a nonzero
        constant, s1 / r1 is the inverse.
        """
        r0, r1 = list(modulus), _trim_raw(list(a), is_zero)
        s0, s1 = [], [base.one]
        while len(r1) > 1:
            lead_inv = base.inv(r1[-1])
            while len(r0) >= len(r1):
                c, k = base.mul(r0[-1], lead_inv), len(r0) - len(r1)
                r0, s0 = _sub_shifted(base, r0, c, k, r1), _sub_shifted(base, s0, c, k, s1)
            r0, r1, s0, s1 = r1, r0, s1, s0
        if not r1:
            raise ZeroDivisionError("not invertible: the modulus is reducible")
        c = base.inv(r1[0])
        return tuple([base.mul(c, x) for x in s1]) + kernel.zero[len(s1) :]

    kernel = _Kernel()
    kernel.zero = (base.zero,) * n
    kernel.one = (base.one,) + kernel.zero[1:]
    kernel.is_zero = lambda a: all(map(is_zero, a))
    kernel.from_int = lambda m: (base.from_int(m),) + kernel.zero[1:]
    kernel.add = lambda a, b: tuple(list(map(base.add, a, b)))
    kernel.sub = lambda a, b: tuple(list(map(base.sub, a, b)))
    kernel.neg = lambda a: tuple(list(map(base.neg, a)))
    kernel.mul, kernel.inv = mul, inv
    return kernel


def _sub_shifted(base, f, c, k, g):
    """f - c * x^k * g on lists of raw coefficients over ``base``, trimmed."""
    f = f + [base.zero] * (k + len(g) - len(f))
    for i, y in enumerate(g, k):
        f[i] = base.sub(f[i], base.mul(c, y))
    return _trim_raw(f, base.is_zero)


def _trim_raw(coeffs, is_zero):
    """Drop trailing zero payloads from a list, in place."""
    while coeffs and is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# dense univariate polynomial helpers (coefficient tuples, low to high)
# ---------------------------------------------------------------------------


def _poly_trim(coeffs):
    coeffs = tuple(coeffs)
    n = len(coeffs)
    while n > 0 and coeffs[n - 1].is_zero():
        n -= 1
    return coeffs[:n]


def poly_add(base, f, g):
    return _poly_trim(a + b for a, b in itertools.zip_longest(f, g, fillvalue=base.zero()))


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
    spec, raw = x.spec, x.payload
    while spec.kind == "ext":
        if raw[1:] != spec._kernel.zero[1:]:
            return None
        spec, raw = spec.base, raw[0]
    return raw if spec.kind == "Q" else None


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
    """Decide whether ``x`` is a square in its field (Euler's criterion if finite)."""
    spec = x.spec
    if x.is_zero():
        return True
    if spec.is_finite:
        return x ** ((spec.order() - 1) // 2) == spec.one()
    return _char0_sqrt(x) is not None


def sqrt(x):
    """An exact square root, or raise ValueError when ``x`` is not a square."""
    if x.is_zero():
        return x
    root = _finite_sqrt(x) if x.spec.is_finite else _char0_sqrt(x)
    if root is None:
        raise ValueError(f"{x!r} is not a square in {x.spec}")
    return root


def _char0_sqrt(x):
    """A square root in Q or in a quadratic extension of Q, or None."""
    spec = x.spec
    if spec.kind == "Q":
        root = _rational_sqrt(x.payload)
        return None if root is None else spec.element(root)
    if spec.kind == "ext" and spec.base.kind == "Q" and spec.degree == 2:
        return _quadratic_ext_sqrt(x)
    raise UnsupportedField(f"no square root over {spec}")


def _rational_sqrt(f):
    """The nonnegative square root of a Fraction, or None when it has none in Q."""
    if f < 0:
        return None
    rn, okn = sympy.integer_nthroot(f.numerator, 2)
    rd, okd = sympy.integer_nthroot(f.denominator, 2)
    return Fraction(rn, rd) if okn and okd else None


def _finite_sqrt(x):
    """Tonelli-Shanks with field arithmetic only (any odd prime power), or None."""
    spec = x.spec
    q = spec.order()
    if (x ** ((q - 1) // 2)) != spec.one():
        return None
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
    """The first nonsquare of a finite field in the canonical element order.

    The payloads are walked lazily: no order cap, and a nonsquare shows up
    within a handful of candidates (half of all nonzero elements qualify).
    """
    if spec.kind == "Fp":
        payloads = range(spec.p)
    else:
        coefficients = [c.payload for c in spec.base.elements()]
        payloads = itertools.product(coefficients, repeat=spec.degree)
    for payload in payloads:
        x = FieldElement(spec, payload)
        if not is_square(x):
            return x
    raise NotAField("every element is a square?")  # unreachable for odd q


def _quadratic_ext_sqrt(x):
    """Closed-form square root in Q[a]/(a^2 + u*a + v), or None.

    Writing x = p + q*a and y = c + e*a, the equation y^2 = x reduces to a
    rational quadratic in w = e^2 whose solvability is decided exactly.
    """
    spec = x.spec
    v, u, _ = (c.payload for c in spec.modulus)  # a^2 = -v - u*a
    p, q = x.payload
    candidates = []
    if q == 0:
        r = _rational_sqrt(p)
        if r is not None:
            candidates.append((r, Fraction(0)))
        # p may also be the square of a purely "irrational" element:
        # (e*a)^2 = e^2 * a^2 only stays rational when u = 0
        if u == 0:
            r = _rational_sqrt(p / Fraction(-v)) if v != 0 else None
            if r is not None:
                candidates.append((Fraction(0), r))
    if not candidates:
        # general case: (u^2 - 4v) w^2 + (2uq - 4p) w + q^2 = 0 with w = e^2
        A = Fraction(u * u - 4 * v)
        B = 2 * u * q - 4 * p
        C = q * q
        disc = B * B - 4 * A * C
        root = _rational_sqrt(disc)
        if root is not None and A != 0:
            for sign in (1, -1):
                w = (-B + sign * root) / (2 * A)
                e = _rational_sqrt(w)
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
        return FieldElement(target, (inner.payload,) + target._kernel.zero[1:])
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

