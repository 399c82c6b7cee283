"""Exception types shared across the library."""


class Sp4Error(Exception):
    """Base class for all library errors."""


class FactorizationLimit(Sp4Error):
    """An integer with two prime factors above the trial-division bound."""


class ExpressionLimit(Sp4Error, ValueError):
    """An expression whose power would exceed the evaluator's size bound."""


class ProbeLimit(Sp4Error):
    """A random probe asked for more draws than the probe's bound."""


class CatalogFault(Sp4Error):
    """A catalog row whose own data does not evaluate or build (a pole,
    malformed text, a basis that is not a subalgebra)."""


class ZeroPolynomial(Sp4Error):
    """Root extraction was asked for the zero polynomial."""


class SingularMatrix(Sp4Error):
    """Inverse (or conjugation) of a singular matrix."""


class NotSemisimple(Sp4Error):
    """Cartan reduction applied to a non-semisimple element."""


class NotInBorel(Sp4Error):
    """Cartan reduction applied outside the fixed Borel subalgebra."""


class NotInSp4(Sp4Error):
    """Element classification applied outside sp(4)."""


class IrrationalSpectrum(Sp4Error):
    """Eigenvalue data is not rational; compare characteristic polynomials instead."""


class DependentInputs(Sp4Error):
    """Independent inputs were needed (a pencil, a coordinate solve)."""


class UnsupportedDimension(Sp4Error):
    """Structure-constant identification outside dimensions 1..4."""


class NotSolvable(Sp4Error):
    """A solvable-subalgebra invariant requested for a non-solvable subalgebra."""


class UnrecognizedFamily(Sp4Error):
    """Solvable structure outside the families occurring in the catalog."""


class OutOfCatalog(Sp4Error):
    """Class-label translation requested for a class the catalog does not carry."""


class ZeroParameter(Sp4Error):
    """A family parameter that must be nonzero was zero."""


class DimensionMismatch(Sp4Error):
    """Isomorphism verification with incompatible dimensions."""
