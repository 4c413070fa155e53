"""Sparse multivariate polynomials over an exact coefficient field.

A :class:`PolyRing` fixes the field and an ordered variable tuple; a
:class:`MultiPolynomial` stores ``{exponent tuple: nonzero coefficient}``.
Terms serialize in lexicographic exponent order so every wire encoding is
deterministic.  These are deliberately minimal: the chain-complex code only
needs ring arithmetic, homogeneity checks, and graded-piece extraction.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import FieldMismatch, RingMismatch
from .fields import FieldSpec


class PolyRing:
    """``field[vars]`` with a fixed variable order."""

    __slots__ = ("field", "vars", "_hash")

    is_field = False

    def __init__(self, field, variables):
        self.field = field
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("duplicate variable names")
        self._hash = hash((field, self.vars))

    def zero(self):
        return MultiPolynomial(self, {})

    def one(self):
        return self.constant(self.field.one())

    def constant(self, c):
        c = self.field.element(c)
        if c.is_zero():
            return self.zero()
        return MultiPolynomial(self, {(0,) * len(self.vars): c})

    def from_int(self, n):
        return self.constant(self.field.from_int(n))

    def variable(self, which):
        if isinstance(which, str):
            which = self.vars.index(which)
        exp = [0] * len(self.vars)
        exp[which] = 1
        return MultiPolynomial(self, {tuple(exp): self.field.one()})

    def element(self, value):
        if isinstance(value, MultiPolynomial):
            if value.ring != self:
                raise RingMismatch(f"{value.ring} vs {self}")
            return value
        return self.constant(self.field.element(value))

    def monomials_of_degree(self, degree):
        """All exponent tuples of the given total degree, lex order (a tuple, cached)."""
        return exponent_tuples(len(self.vars), degree)

    def __eq__(self, other):
        if not isinstance(other, PolyRing):
            return NotImplemented
        return self.field == other.field and self.vars == other.vars

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.vars)}]"

    def to_json(self):
        return {"field": self.field.to_json(), "vars": list(self.vars)}

    @classmethod
    def from_json(cls, obj):
        return cls(FieldSpec.from_json(obj["field"]), obj["vars"])


class MultiPolynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    def is_zero(self):
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, MultiPolynomial):
            if other.ring != self.ring:
                raise RingMismatch(f"{self.ring} vs {other.ring}")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        try:
            return self.ring.constant(self.ring.field.element(other))
        except (TypeError, FieldMismatch):
            return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            terms[e] = c if s is None else s + c
        return MultiPolynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPolynomial(self.ring, {e: -c for e, c in self.terms.items()})

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
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = terms.get(e)
                terms[e] = c if s is None else s + c
        return MultiPolynomial(self.ring, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.from_int(other)
        if not isinstance(other, MultiPolynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def total_degree(self):
        """Max total degree, or -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def homogeneous_degree(self):
        """The common total degree of all terms, or None if mixed/zero."""
        degrees = set(map(sum, self.terms))
        return degrees.pop() if len(degrees) == 1 else None

    def constant_value(self):
        """The field value of a constant polynomial (raises otherwise)."""
        if self.is_zero():
            return self.ring.field.zero()
        ((e, c),) = self.terms.items()
        if any(e):
            raise ValueError(f"{self!r} is not constant")
        return c

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: item[0])

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [v if k == 1 else f"{v}^{k}" for v, k in zip(self.ring.vars, e) if k]
            if factors:
                head = "" if c == self.ring.field.one() else f"{c}*"
                parts.append(head + "*".join(factors))
            else:
                parts.append(f"{c}")
        return " + ".join(parts)

    def to_json(self):
        terms = [{"exp": list(e), "coef": c.to_json()} for e, c in self.sorted_terms()]
        return {"vars": list(self.ring.vars), "terms": terms}

    @classmethod
    def from_json(cls, ring, obj):
        if tuple(obj.get("vars", ring.vars)) != ring.vars:
            raise RingMismatch("variable list does not match the ring")
        terms = {}
        for t in obj["terms"]:
            e = tuple(t["exp"])
            if len(e) != len(ring.vars) or not all(type(k) is int and k >= 0 for k in e):
                raise ValueError(f"exponent {t['exp']} is not one natural number per variable")
            terms[e] = terms.get(e, ring.field.zero()) + ring.field.element(t["coef"])
        return cls(ring, terms)


@lru_cache(maxsize=None)
def exponent_tuples(n, degree):
    """The exponent tuples of n variables and total degree ``degree`` (none for
    a negative degree), lex order, as one tuple.  One variable is a base case,
    so the work is linear in the number of tuples."""
    if n == 0:
        return ((),) if degree == 0 else ()
    if n == 1:
        return ((degree,),) if degree >= 0 else ()
    # each one-variable entry is read once, so two variables build theirs uncached
    inner = exponent_tuples.__wrapped__ if n == 2 else exponent_tuples
    return tuple((e,) + rest for e in range(degree, -1, -1) for rest in inner(n - 1, degree - e))
