"""Exception types shared across the package."""


class GinicovError(Exception):
    """Base class for data and computation errors raised by this package."""


class ParseError(GinicovError):
    """A feature cell could not be parsed as a finite real number.

    ``row`` and ``col`` have defaults because unpickling calls the class
    with the message alone and then restores them: a forked child's error
    reaches its parent pickled."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


class RaggedRowsError(GinicovError):
    """Rows of the input file have unequal widths."""


class EmptyDatasetError(GinicovError):
    """The input holds fewer data rows than a dataset needs."""


class TooFewClassesError(GinicovError):
    """Testing requires at least two classes."""


class TinyClassError(GinicovError):
    """A class has fewer than two observations, so its Gini mean difference
    is undefined."""

    def __init__(self, message: str, label=None):
        super().__init__(message)
        self.label = label


class TooSmallError(GinicovError):
    """The pooled sample is too small for the bias-corrected distance
    variance (needs n >= 4)."""


class TooLargeError(GinicovError):
    """The n x n distance matrix would exceed the memory budget."""


class DegenerateSampleError(GinicovError):
    """All sample values coincide; the requested quantity is undefined."""
