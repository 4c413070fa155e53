"""Exception types shared across the package.

Every failure that carries mathematical meaning gets its own class so that
callers (and the CLI) can distinguish "you asked a malformed question" from
"the computation refused for a principled reason" and report a witness.
"""


class WittforgeError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatch(WittforgeError):
    """Two operands live over different field specifications."""


class NotAField(WittforgeError):
    """A field specification is invalid (composite p, reducible modulus, ...)."""


class UnsupportedCharacteristic(WittforgeError):
    """Characteristic 2 is outside the scope of every quadratic-form routine."""


class BoundsExceeded(WittforgeError):
    """A tower degree, enumeration size, or search cap was exceeded."""


class FactorizationUnsupported(WittforgeError):
    """The requested factorization lies outside the feasible regime."""


class DegenerateForm(WittforgeError):
    """A Gram matrix is singular where a nondegenerate form is required."""


class DegenerateTraceForm(WittforgeError):
    """The trace form of an extension is degenerate (inseparable data)."""


class UnsupportedField(WittforgeError):
    """The operation has no decision procedure over the given field."""


class Inconclusive(WittforgeError):
    """A bounded search exhausted its cap without certifying either answer."""


class RingMismatch(WittforgeError):
    """Complexes or maps over different coefficient rings were combined."""


class GradingInconsistent(WittforgeError):
    """No internal grading makes every differential entry homogeneous."""


class NotHomogeneous(WittforgeError):
    """A polynomial entry is not homogeneous where the grading needs it."""


class NotAChainComplex(WittforgeError):
    """Differentials fail d · d = 0 or have mismatched shapes."""


class NotAChainMap(WittforgeError):
    """Components fail to commute with the differentials."""


class NotRegularSequence(WittforgeError):
    """A section is not regular.  ``witness`` is a dict, filed in JSON under
    ``key``: ``homology`` for graded homology away from the socle degree,
    ``constant_entries`` for section entries that are nonzero constants."""

    def __init__(self, message, witness, key):
        super().__init__(message)
        self.witness = witness
        self.key = key

    def witness_json(self):
        """The witness under its key, each of its keys written as a string."""
        return {self.key: {str(k): v for k, v in sorted(self.witness.items())}}


class ParityError(WittforgeError):
    """The requested construction only exists for the other parity."""
