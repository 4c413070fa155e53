"""Exact arithmetic over the supported coefficient fields.

A field is described by a :class:`FieldSpec`: the rationals ``Q``, an odd
prime field ``Fp``, or a simple extension ``ext`` of another spec by a monic
irreducible modulus.  Extensions may be stacked into towers; the absolute
degree of a tower is capped at :data:`MAX_TOWER_DEGREE`.

Elements are immutable :class:`FieldElement` values carrying their spec and
a raw payload:

* ``Q``    -- an ``int`` or a ``fractions.Fraction``.  Element construction
  and the eliminations of :mod:`~wittforge.linalg` box an integral value as
  an ``int``; sums and products may keep an integral ``Fraction``, which
  equals, hashes and serializes like the ``int``
* ``Fp``   -- an ``int`` in ``[0, p)``
* ``ext``  -- a tuple ``(c0, ..., c_{n-1})`` of the base field's *raw*
  payloads (nested tuples in a tower, never boxed elements), the
  coordinates in the power basis ``1, a, ..., a^{n-1}`` of the generator.

Payloads compare and hash by value (reduced ints, fixed-length tuples, and
``n == Fraction(n)`` with equal hashes).  Each spec derives one arithmetic
kernel for its kind when it is built (private slot ``_kernel``); element
operations run the kernel on payloads and box only their result.  Extension
products are schoolbook products reduced once by the monic modulus (over F_p
the integer sums are reduced mod p once, at the end).

Univariate polynomials have one representation: lists of a field's raw
payloads, low to high, driven by its kernel.  One checked division step
(which raises when a leading term fails to cancel) underlies one extended
Euclid loop, shared by extension inverses, distinct-degree factorization
(whose first rung is Ben-Or's irreducibility test) and the squarefree test
of :func:`factor_univariate`; the powers x^(q^i) mod f are taken in the
extension kernel of f itself.  Only results (moduli, factors, roots) are
boxed.

Characteristic 2 is rejected at construction time: every quadratic-form
routine downstream assumes ``2`` is invertible.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache, wraps

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

#: Cap on exhaustive enumerations: the modulus candidates' coefficients in
#: :func:`find_irreducible` and the trial divisors of one equal-degree part.
#: :meth:`FieldSpec.elements` is lazy and uncapped: its caller stops at its
#: first hit.
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
        self._hash = hash((kind, p, base, modulus))
        if kind == "Q":
            self._kernel = _rational_kernel()
        elif kind == "Fp":
            self._kernel = _prime_kernel(p)
        else:
            self._kernel = _extension_kernel(base, tuple(c.payload for c in modulus))

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
        if not isprime(require_exact_primality(p, "F_p takes p")):
            raise NotAField(f"{p} is not prime")
        return cls("Fp", p=p)

    @classmethod
    def extension(cls, base, modulus, assume_irreducible=False):
        """Extend ``base`` by a monic modulus (coefficients low to high).

        The modulus must be monic of degree >= 2 and irreducible over
        ``base``.  Irreducibility is decided by Ben-Or's gcd test, the first
        rung of distinct-degree factorization, over finite fields, and by the
        rational-root test (complete through degree 3) over Q; outside those
        regimes (a higher degree over Q, any modulus over an extension of Q)
        it raises ``NotAField`` unless the caller vouches with
        ``assume_irreducible=True``.
        """
        coeffs = _trim_raw([base.element(c).payload for c in modulus], base._kernel.is_zero)
        deg = len(coeffs) - 1
        if deg < 2:
            raise NotAField("extension modulus must have degree >= 2")
        if coeffs[-1] != base._kernel.one:
            raise NotAField("extension modulus must be monic")
        if base.absolute_degree() * deg > MAX_TOWER_DEGREE:
            raise BoundsExceeded(
                f"tower degree {base.absolute_degree() * deg} exceeds "
                f"{MAX_TOWER_DEGREE}"
            )
        if not assume_irreducible and not _is_irreducible(base, coeffs):
            raise NotAField("extension modulus is reducible")
        return cls("ext", base=base, modulus=tuple([FieldElement(base, c) for c in coeffs]))

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
                return FieldElement(self, _rational(value))
            if self.kind == "Fp":
                if value.denominator % self.p == 0:
                    raise ValueError(f"{value} has no image in {self}: p divides its denominator")
                return self.from_int(value.numerator) / self.from_int(value.denominator)
            return self.element(self.base.element(value))
        if isinstance(value, str):
            text = value.strip()
            num, slash, den = text.partition("/")
            try:
                num, den = int(num), int(den) if slash else 1
            except ValueError:
                raise ValueError(f"{text!r} is not an integer or a fraction n/d") from None
            if not slash:
                return self.from_int(num)
            if den == 0:
                raise ValueError(f"{text!r} has a zero denominator")
            return self.element(Fraction(num, den))
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
        """Iterate every element, lazily (finite fields only, deterministic order)."""
        if not self.is_finite:
            raise UnsupportedField("cannot enumerate an infinite field")
        for payload in _payloads(self):
            yield FieldElement(self, payload)

    def random_element(self, rng):
        if self.kind == "Q":
            return FieldElement(self, _rational(Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
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
        """The field of :meth:`to_json`.  JSON cannot vouch for a modulus:
        every extension is checked as :meth:`extension` checks it."""
        kind = obj["kind"]
        if kind == "Q":
            return cls.Q()
        if kind == "Fp":
            return cls.Fp(obj["p"])
        if kind == "ext":
            return cls.extension(cls.from_json(obj["base"]), obj["modulus"])
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
        return FieldElement(self.spec, _power(self.spec._kernel, self.payload, n))

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
            return str(self.payload)  # "n" or "n/d"
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
    """Arithmetic on rational payloads: ``int`` or ``Fraction``.

    The ``operator`` builtins keep integral work (every Koszul sign) on machine
    ints, with no Fraction gcd; ``inv`` returns the units 1 and -1 as they are.
    They do not normalize: ``Fraction(1, 2) * 2`` stays ``Fraction(1, 1)``,
    equal to ``1`` with the same hash and JSON; :func:`_rational` is the
    canonical boxing that element construction and the eliminations apply.
    """
    k = _Kernel()
    k.zero, k.one, k.from_int = 0, 1, operator.index  # index: a Fraction raises, never truncates
    k.is_zero = operator.not_
    k.add, k.sub, k.mul, k.neg = operator.add, operator.sub, operator.mul, operator.neg
    k.inv = lambda a: a if a in (1, -1) else _rational(Fraction(1, a))
    return k


def _rational(f):
    """The Q payload of a Fraction: its numerator when it is integral."""
    return f.numerator if f.denominator == 1 else f


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


def _extension_kernel(spec, modulus):
    """Arithmetic on coefficient tuples of ``spec`` payloads modulo a monic modulus.

    Products accumulate with ``acc_add``/``acc_mul`` and pass each
    coefficient through ``settle`` once: over a prime base these are plain
    int operations and a single reduction mod p; over any other base
    (Q included, whose payloads may be ints too) they are the base kernel's
    own operations.

    Payload tuples are built from lists: ``tuple()`` of a bare iterator
    over-allocates and then resizes, bypassing CPython's per-size tuple free
    lists, which the freed payloads then fill and keep allocated.
    """
    n = len(modulus) - 1
    base = spec._kernel
    is_zero = base.is_zero
    # x^n = -(m_0 + m_1 x + ... + m_{n-1} x^{n-1}): the nonzero terms of that tail
    tail = tuple((i, base.neg(c)) for i, c in enumerate(modulus[:n]) if not is_zero(c))
    if spec.kind == "Fp":
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
        """Extended Euclid against the modulus: s * a = r (mod modulus), then s / r."""
        r, s = _euclid(base, list(modulus), _trim_raw(list(a), is_zero), True)
        if len(r) != 1:
            raise ZeroDivisionError("not invertible: the modulus is reducible")
        c = base.inv(r[0])
        return tuple([base.mul(c, x) for x in s]) + kernel.zero[len(s) :]

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


def _power(kernel, a, n):
    """a^n (n >= 0) on payloads, by square-and-multiply."""
    result, square = kernel.one, a
    while n:
        if n & 1:
            result = kernel.mul(result, square)
        n >>= 1
        if n:
            square = kernel.mul(square, square)
    return result


def _payloads(spec):
    """Every payload of a finite field, lazily, in the canonical element order."""
    if spec.kind == "Fp":
        return range(spec.p)
    return itertools.product(list(_payloads(spec.base)), repeat=spec.degree)


# ---------------------------------------------------------------------------
# univariate polynomials: lists of raw payloads over a kernel, low to high
# ---------------------------------------------------------------------------


def _trim_raw(coeffs, is_zero):
    """Drop trailing zero payloads from a list, in place."""
    while coeffs and is_zero(coeffs[-1]):
        coeffs.pop()
    return coeffs


def _divmod_raw(k, f, g):
    """(quotient, remainder), trimmed, of f by a trimmed nonzero g over the kernel ``k``.

    One elimination pass per quotient coefficient.  Each pass must cancel its
    leading term; a term that survives means the field arithmetic is
    inconsistent, which raises instead of looping.
    """
    is_zero, sub, mul = k.is_zero, k.sub, k.mul
    f = list(f)
    dg = len(g) - 1
    # a monic divisor needs no inverse (in a tower that would be a full Euclid)
    lead_inv = None if g[-1] == k.one else k.inv(g[-1])
    quot = [k.zero] * max(len(f) - dg, 0)
    for i in reversed(range(len(quot))):
        lead = f[i + dg]
        if is_zero(lead):
            continue
        c = quot[i] = lead if lead_inv is None else mul(lead, lead_inv)
        for j, y in enumerate(g, i):
            f[j] = sub(f[j], mul(c, y))
        if not is_zero(f[i + dg]):
            raise RuntimeError(f"polynomial division: the degree-{i + dg} term did not cancel")
    return _trim_raw(quot, is_zero), _trim_raw(f[:dg], is_zero)


def _sub_product(k, f, g, h):
    """f - g*h on payload lists, trimmed."""
    is_zero, sub, mul = k.is_zero, k.sub, k.mul
    out = f + [k.zero] * (len(g) + len(h) - 1 - len(f))
    for i, x in enumerate(g):
        if not is_zero(x):
            for j, y in enumerate(h, i):
                out[j] = sub(out[j], mul(x, y))
    return _trim_raw(out, is_zero)


def _euclid(k, r0, r1, with_cofactor):
    """Euclid on trimmed payload lists, until a remainder is constant.

    Returns ``(r, s)``: r is a gcd of r0 and r1 up to a unit (a nonzero constant
    exactly when they are coprime); s * r1 = r modulo r0, or None without ``with_cofactor``.
    """
    s0, s1 = ([], [k.one]) if with_cofactor else (None, None)
    while len(r1) > 1:
        quot, rem = _divmod_raw(k, r0, r1)
        r0, r1, s0, s1 = r1, rem, s1, None if s1 is None else _sub_product(k, s0, quot, s1)
    return (r1, s1) if r1 else (r0, s0)


# ---------------------------------------------------------------------------
# irreducibility and factorization
# ---------------------------------------------------------------------------


def _monic_candidates(field, degree):
    """Monic payload lists of the given degree, lexicographically smallest first.

    The order is lexicographic on the coefficient tuple (c_{k-1}, ..., c_0)
    with payloads in the canonical element order, which makes every "first
    irreducible found" choice deterministic.
    """
    payloads, one = list(_payloads(field)), [field._kernel.one]
    for tail in itertools.product(payloads, repeat=degree):
        yield list(tail[::-1]) + one


def rational_roots(coeffs):
    """All rational roots of a polynomial with rational (int or Fraction) coefficients."""
    import sympy

    Q = FieldSpec.Q()
    f = _trim_raw([Q.element(c).payload for c in coeffs], operator.not_)
    if not f:
        raise ValueError("zero polynomial")
    roots = []
    if not f[0]:
        roots.append(0)
        while not f[0]:
            f = f[1:]
    if len(f) > 1:
        denom = math.lcm(*(c.denominator for c in f))
        ints = [int(c * denom) for c in f]
        numerators, denominators = sympy.divisors(abs(ints[0])), sympy.divisors(abs(ints[-1]))
        for num, den, sign in itertools.product(numerators, denominators, (1, -1)):
            cand = _rational(Fraction(sign * num, den))
            # f(cand) is the remainder of f by x - cand
            if cand not in roots and not _divmod_raw(Q._kernel, f, [-cand, 1])[1]:
                roots.append(cand)
    return [FieldElement(Q, r) for r in roots]


def _distinct_degree(base, f):
    """Distinct-degree factorization of a monic payload list f over a finite base.

    Yields ``(i, g)`` for i = 1, 2, ...: g = gcd(x^(q^i) - x, what is left of
    f), divided out, is the product of its degree-i irreducible factors up
    to a unit (a trivial g is skipped).  Once 2i exceeds the degree left, the
    rest is one irreducible, yielded with its degree.  The powers stay in the
    kernel of base[x]/(f) for the f given.  Ben-Or's test is this loop
    stopped at its first yield, so no g is made monic here: f of degree n,
    repeated factors or not, is irreducible iff that yield has i = n.
    """
    k, q = base._kernel, base.order()
    ring = _extension_kernel(base, tuple(f))
    x = ring.zero[:1] + (k.one,) + ring.zero[2:]
    power, i = x, 1  # then x^(q^i) mod the f given
    while 2 * i <= len(f) - 1:
        power = _power(ring, power, q)
        g = _euclid(k, f, _trim_raw(list(ring.sub(power, x)), k.is_zero), False)[0]
        if len(g) > 1:
            yield i, g
            f = _divmod_raw(k, f, g)[0]
        i += 1
    if len(f) > 1:
        yield len(f) - 1, f


def _is_irreducible(base, coeffs):
    """Decide irreducibility of a monic payload list over ``base`` (see ``extension``)."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if base.is_finite:
        return next(_distinct_degree(base, coeffs))[0] == deg
    if base.kind == "Q":
        if rational_roots(coeffs):
            return False
        if deg <= 3:
            return True  # no root: degree 2 and 3 cannot factor at all
        raise NotAField("irreducibility over Q is only decided through degree 3")
    raise NotAField("irreducibility over this field is undecided")


@lru_cache(maxsize=None)
def find_irreducible(field, degree):
    """Lexicographically first monic irreducible of ``degree`` (finite field).

    The tower-degree cap and the enumeration cap are checked before the
    search, since a modulus past the first could never become an extension.
    """
    if not field.is_finite:
        raise UnsupportedField("deterministic modulus search needs a finite field")
    if field.absolute_degree() * degree > MAX_TOWER_DEGREE:
        raise BoundsExceeded(
            f"tower degree {field.absolute_degree() * degree} exceeds {MAX_TOWER_DEGREE}"
        )
    if degree == 1:
        return (field.zero(), field.one())
    if field.order() > ENUMERATION_CAP:
        raise BoundsExceeded(f"field of order {field.order()} exceeds enumeration cap")
    for cand in _monic_candidates(field, degree):
        if _is_irreducible(field, cand):
            return tuple([FieldElement(field, c) for c in cand])
    raise NotAField(f"no irreducible of degree {degree}?")  # unreachable


def factor_univariate(coeffs, field):
    """Factor a monic squarefree polynomial into monic irreducibles over ``field``.

    ``coeffs`` are coercible into ``field`` (low to high).  Over finite
    fields the factorization is complete: distinct-degree factorization,
    then trial division by the monic polynomials of one degree splits each
    part with more than one factor, while their number stays under
    :data:`ENUMERATION_CAP`.  Characteristic 0 means Q alone, through degree
    6: rational roots are stripped, and a residual of degree 2 or 3 has no
    root, so it is irreducible.  Any other field (Q(sqrt n) and its kin, where
    no Witt equality is decided anyway) and any other residual raise
    :class:`FactorizationUnsupported`.
    """
    if not field.is_finite and field.kind != "Q":
        raise FactorizationUnsupported(f"characteristic-0 factorization over Q only, not {field}")
    k = field._kernel
    f = _trim_raw([field.element(c).payload for c in coeffs], k.is_zero)
    if len(f) < 2:
        raise FactorizationUnsupported("constant polynomial")
    if f[-1] != k.one:
        raise FactorizationUnsupported("polynomial must be monic")
    der = _trim_raw([k.mul(k.from_int(i), c) for i, c in enumerate(f) if i], k.is_zero)
    if len(_euclid(k, f, der, False)[0]) != 1:
        raise FactorizationUnsupported("polynomial must be squarefree")

    if field.is_finite:
        return [tuple([FieldElement(field, c) for c in g]) for g in _factor_finite(field, f)]
    if len(f) > 7:
        raise FactorizationUnsupported("degree > 6 over Q")
    return [tuple(field.element(c) for c in g) for g in _factor_rational_poly(f)]


def _factor_finite(field, f):
    """Monic irreducible payload lists of f: each distinct-degree part with more
    than one factor is split by trial division, in candidate order."""
    k, q = field._kernel, field.order()
    factors = []
    for i, g in _distinct_degree(field, f):
        lead_inv = k.inv(g[-1])
        g = [k.mul(lead_inv, c) for c in g]
        if len(g) - 1 > i and q**i > ENUMERATION_CAP:
            raise FactorizationUnsupported(f"divisor enumeration of size {q**i} exceeds the cap")
        candidates = _monic_candidates(field, i)
        while len(g) - 1 > i:
            cand = next(candidates)
            quot, rem = _divmod_raw(k, g, cand)
            if not rem:
                factors.append(cand)
                g = quot
        factors.append(g)
    return factors


def _factor_rational_poly(f):
    """Monic squarefree factorization over Q, on payload lists.

    Every rational root splits off a linear factor.  What remains has no
    rational root, so up to degree 3 it is irreducible over Q.
    """
    Q = FieldSpec.Q()
    work = f
    factors = []
    for r in rational_roots(work):
        factors.append([-r.payload, 1])
        work = _divmod_raw(Q._kernel, work, factors[-1])[0]
    deg = len(work) - 1
    if deg > 3:
        raise FactorizationUnsupported(
            f"residual degree {deg} over Q needs methods beyond roots and quadratics"
        )
    if deg > 0:
        factors.append(work)
    return factors


# ---------------------------------------------------------------------------
# squares, square roots, embeddings
# ---------------------------------------------------------------------------


def is_square(x):
    """Decide whether ``x`` is a square in its field (Euler's criterion if finite)."""
    spec = x.spec
    if spec.is_finite:
        return x.is_zero() or x ** ((spec.order() - 1) // 2) == spec.one()
    return _char0_sqrt(x) is not None


def sqrt(x):
    """An exact square root, or raise ValueError when ``x`` is not a square."""
    root = _finite_sqrt(x) if x.spec.is_finite else _char0_sqrt(x)
    if root is None:
        raise ValueError(f"{x!r} is not a square in {x.spec}")
    return root


def _char0_sqrt(x):
    """A square root in Q, or None; no other field of characteristic 0 has one here."""
    if x.spec.kind != "Q":
        raise UnsupportedField(f"no square root over {x.spec}")
    root = rational_sqrt(x.payload)
    return None if root is None else x.spec.element(root)


def rational_sqrt(f):
    """The nonnegative square root of a rational (int or Fraction) as a Fraction, or None."""
    if f < 0:
        return None
    rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
    return Fraction(rn, rd) if rn * rn == f.numerator and rd * rd == f.denominator else None


def _finite_sqrt(x):
    """Tonelli-Shanks with field arithmetic only (any odd prime power), or None."""
    spec = x.spec
    q = spec.order()
    if x.is_zero():
        return x
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
    for payload in _payloads(spec):
        x = FieldElement(spec, payload)
        if not is_square(x):
            return x
    raise NotAField("every element is a square?")  # unreachable for odd q


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


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

#: Miller-Rabin on the first thirteen primes as bases decides every n below
#: ``MR_BOUND`` (Sorenson and Webster, *Math. Comp.* 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def require_exact_primality(n, what):
    """``n`` below ``MR_BOUND``, where :func:`isprime` is exact and fast; else
    ``BoundsExceeded`` naming ``what``, not n.  Input primes pass here first."""
    if n >= MR_BOUND:
        raise BoundsExceeded(f"{what} below {MR_BOUND}, where primality is exact")
    return n


def isprime(n):
    """Whether the integer n is prime: deterministic Miller-Rabin below
    3.3e24, sympy's test above."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    try:
        require_exact_primality(n, "Miller-Rabin takes n")
    except BoundsExceeded:  # past the exact range: sympy's test
        import sympy
        return sympy.isprime(n)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def prime_power(q):
    """``(p, k)`` with p prime and p**k == q, or None: one integer k-th root per
    k up to log2(q), each by Newton's descent from a start just above it."""
    log_q = math.log2(q)
    for k in range(1, q.bit_length()):
        e = log_q / k
        root = 1 << math.ceil(e) + 1 if e >= 1000 else int(2**e * (1 + 1e-9)) + 2
        while (step := ((k - 1) * root + q // root ** (k - 1)) // k) < root:
            root = step
        if root**k == q and isprime(root):
            return root, k
    return None


# ---------------------------------------------------------------------------
# the one memo rule for derived data, here because every module imports fields
# ---------------------------------------------------------------------------


def kept(build):
    """``build(obj, *args)``, computed once per ``args`` and kept in ``obj._memo``.

    The key is ``build`` alone for no arguments; an ``int`` argument enters it
    by value, any other by its id.  Such an argument is stored with the entry,
    so its id is not reused while the entry lives; ``obj`` itself never is,
    which would be a cycle.  A build that raises stores nothing.
    """

    @wraps(build)
    def derived(obj, *args):
        key = build
        for a in args:
            key = (key, a if type(a) is int else id(a))
        entry = obj._memo.get(key)  # one lookup, hit or miss
        if entry is not None:
            return entry[0]
        value = build(obj, *args)
        if id(obj) in map(id, args):  # never store obj itself: a cycle
            args = tuple(a for a in args if a is not obj)
        obj._memo[key] = (value, args)
        return value

    return derived
