"""Exception hierarchy shared by the whole package.

Two branches matter for callers:

* ``InputError`` covers everything the caller could have prevented:
  malformed files, dimension mismatches, non-symmetric input, singular
  matrices handed to ``inverse``, and so on. The command line maps these
  to exit code 1.
* ``NumericalError`` covers failures of the numerics themselves even
  though the input was structurally valid (an iteration that will not
  converge, an indefinite metric, a matrix still singular after
  regularization). The command line maps these to exit code 2.
"""


class GenSpectraError(Exception):
    """Base class for every error raised by this package."""


class InputError(GenSpectraError):
    """Caller-side problem: bad file, bad shape, bad matrix class."""


class NumericalError(GenSpectraError):
    """Solver-side failure on structurally valid input."""


# ---------------------------------------------------------------------------
# input-side errors


class DimensionMismatch(InputError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteEntry(InputError):
    """A matrix or vector entry is NaN or infinite."""


class NotSymmetric(InputError):
    """Matrix fails the symmetry check required by the operation."""


class SingularMatrix(InputError):
    """Determinant is within tolerance of zero; no inverse exists."""


class UnsupportedDimension(InputError):
    """Operation only defined for a limited range of dimensions."""


class ZeroVector(InputError):
    """A vector that must be nonzero is (numerically) zero."""


class DegenerateDenominator(InputError):
    """Quadratic-form denominator u'Bu is too close to zero."""


class NonOrthonormalBasis(InputError):
    """Columns handed in as a basis are not orthonormal."""


class NoNullSpace(InputError):
    """No null-space direction found: the shift is not an eigenvalue."""


class MissingLabels(InputError):
    """The operation needs class labels but none were provided."""


class SingleClass(InputError):
    """Labeled data contains fewer than two distinct classes."""


class EmptyFile(InputError):
    """CSV input contains no data rows."""


class RaggedRows(InputError):
    """CSV rows do not all have the same number of fields."""


class NonNumericCell(InputError):
    """A CSV data cell could not be parsed as a finite number."""


class UnreadableFile(InputError):
    """A CSV file is not UTF-8 text, or the csv reader rejects it."""


class MissingLabelColumn(InputError):
    """The requested label column does not exist in the CSV header."""


class DuplicateColumn(InputError):
    """A CSV header names the same column more than once."""


# ---------------------------------------------------------------------------
# numerical failures


class ConvergenceFailure(NumericalError):
    """Iteration budget exhausted before reaching tolerance."""


class IndefiniteB(NumericalError):
    """Metric matrix B has a significantly negative eigenvalue, and where
    the route accepts that, (A, B) is not a definite pair either."""


class SingularAfterRegularization(NumericalError):
    """B + eps*I is still numerically singular."""


class EigenvalueOverflow(NumericalError):
    """An eigenvalue lies above the float range once scaled back to the input's units."""
