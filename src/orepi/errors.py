"""Exception types shared across the package."""


class OrepiError(Exception):
    """Base class for all orepi errors."""


class CtxMismatch(OrepiError):
    """Operands live in different coefficient fields."""


class DivisionByZero(OrepiError):
    """Inversion of zero, or a fraction with zero denominator."""


class DenominatorVanishes(OrepiError):
    """A specialization sends a denominator to zero."""


class UnassignedParameter(OrepiError):
    """A specialization is missing a parameter value."""


class ZeroInput(OrepiError):
    """Zero passed where a nonzero field element is required."""


class ParseError(OrepiError):
    """Malformed coefficient or polynomial expression."""


class NumberTooLarge(OrepiError):
    """A number with more decimal digits than the interpreter writes out
    (sys.get_int_max_str_digits()), met while a value is printed."""


class InvalidField(OrepiError, ValueError):
    """A field descriptor names no field: a cyclotomic level outside
    1 .. fields.MAX_CYCLOTOMIC_LEVEL (the table that reduces modulo
    Phi_N grows as phi(N)^2), repeated parameter names, a Galois
    characteristic that is not a prime <= 101, or a modulus of degree
    outside 1 .. 6 or reducible over GF(p).  Also a ValueError, as these
    were before they were typed."""


class PreconditionViolation(OrepiError):
    """A validity condition on an operation's input fails: a family
    parameter its builder refuses (the two subclasses below) or does not
    read, a Weyl or BiQuad3 value of the wrong shape, a malformed
    Presentation (repeated names, weights not one per generator and >= 1,
    an incomplete precedence, an empty left side), beta = 0 given to
    gwa_auto_order (BetaZero), a decider's family condition, down-up
    roots that are not roots of t^2 - alpha t - beta, a spanning
    check's caps, a negative exponent given to rewrite.power, or a
    quantum-plane matrix model's order above MAX_QPLANE_ORDER."""


class ZeroParameter(PreconditionViolation):
    """A family parameter that must be a unit is zero."""


class DownUpNotNoetherian(PreconditionViolation):
    """Down-up algebras need beta != 0 to be Noetherian (equivalently, a domain)."""


class NonAntisymmetricLambda(OrepiError):
    """Lambda matrix fails lambda_ii = 1 or lambda_ij * lambda_ji = 1."""


class OrientationFailure(OrepiError):
    """A rewrite rule's right side is not strictly below its left side."""


class LemmaRangeError(OrepiError):
    """Identity index outside the lemma's stated range."""


class FamilyMismatch(OrepiError):
    """Lemma or witness applied to the wrong algebra family."""


class NonConfluentPresentation(OrepiError):
    """Operation requires a confluent rule set."""


class HypothesisNotMet(OrepiError):
    """A proposition's hypothesis fails for the given parameters."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class RootsRequired(OrepiError):
    """Quadratic roots are not extractable in this field; pass them explicitly."""


class BetaZero(PreconditionViolation):
    """beta = 0 forbidden (generalized Weyl form needs it invertible)."""


class TrivialCenter(OrepiError):
    """The center is just the scalars; no generators to return."""


class QFactorialVanishes(OrepiError):
    """A Gaussian binomial denominator q-factorial is zero."""


class NotPrimitiveRoot(OrepiError):
    """Matrix model needs a primitive n-th root of unity."""


class SizeMismatch(OrepiError):
    """Matrices of different sizes (or contexts) mixed."""


class DegreeTooLarge(OrepiError):
    """Multilinear search degree exceeds the factorial-growth guard."""


class DegreeTooSmall(OrepiError):
    """Multilinear search degree below 1, or spanning degree below 0."""


class ParametersRequired(OrepiError):
    """A family parameter value is missing: the family's builder needs
    it and the spec (or --params) lacks it, or code that reads values
    got a presentation read from a file, which carries none."""
