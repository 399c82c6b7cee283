"""Exception types shared across the library.

Each carries the command-line exit code it ends in (`exit_code`): 2 for a
bad input, the default; 3 for an input outside the library's domain or
past a size bound; 1 for a catalog row whose own data faults.
"""


class Sp4Error(Exception):
    """Base class for all library errors."""
    exit_code = 2


class FactorizationLimit(Sp4Error):
    """An integer with two prime factors above the trial-division bound."""
    exit_code = 3


class ExpressionLimit(Sp4Error, ValueError):
    """An expression whose power would exceed the evaluator's size bound."""
    exit_code = 3


class OutputLimit(Sp4Error):
    """A value longer than the interpreter prints (`sys.get_int_max_str_digits`)."""
    exit_code = 3


class ProbeLimit(Sp4Error):
    """A random probe asked for more draws than the probe's bound."""
    exit_code = 3


class CatalogFault(Sp4Error):
    """A catalog row whose own data does not evaluate or build (a pole,
    malformed text, a basis that is not a subalgebra)."""
    exit_code = 1


class ZeroPolynomial(Sp4Error):
    """Root extraction was asked for the zero polynomial."""


class SingularMatrix(Sp4Error):
    """Inverse (or conjugation) of a singular matrix."""


class NotSemisimple(Sp4Error):
    """Cartan reduction applied to a non-semisimple element."""


class NotInBorel(Sp4Error):
    """Cartan reduction applied outside the fixed Borel subalgebra."""


class NotInSp4(Sp4Error):
    """A matrix outside sp(4) given as an element of sp(4) or of a span of it."""


class IrrationalSpectrum(Sp4Error):
    """Eigenvalue data is not rational; compare characteristic polynomials instead."""
    exit_code = 3


class DependentInputs(Sp4Error):
    """Independent inputs were needed (a pencil, a coordinate solve)."""


class UnsupportedDimension(Sp4Error):
    """Structure-constant identification outside dimensions 1..4."""
    exit_code = 3


class NotSolvable(Sp4Error):
    """A solvable-subalgebra invariant requested for a non-solvable subalgebra."""
    exit_code = 3


class UnrecognizedFamily(Sp4Error):
    """Solvable structure outside the families occurring in the catalog."""
    exit_code = 3


class OutOfCatalog(Sp4Error):
    """Class-label translation requested for a class the catalog does not carry."""


class ZeroParameter(Sp4Error):
    """A family parameter that must be nonzero was zero."""


class DimensionMismatch(Sp4Error):
    """Isomorphism verification with incompatible dimensions."""
