"""Seeded generator for the three simulation designs used in the studies.

Every design is an AR(1) filter, with correlation rho^|i-j| between
coordinates, over i.i.d. innovations: standard Gaussian in designs 1 and 2,
centered unit-exponential in design 3, so its marginals are skewed.
Design 1 leaves every class alike (a pure null for the normality study).
Designs 2 and 3 rescale the first ``round(beta * p)`` coordinates of classes
2 and 3; design 2 also shifts them.  ``scenario_dataset`` is the only code
path: it draws each class into its rows of one array, filters that array
once and then transforms the affected rows in place.  The filter works on
tiles of at most 1 MiB, each copied so that every coordinate of its rows is
one contiguous row, and gives the bits of the plain column-by-column
recursion (see ``_ar1_filter``).

All draws come from substreams keyed by ``(seed, replicate, class_index)``,
making each class of each replicate reproducible in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset
from .streams import substream

# scale of the first affected coordinates of classes 2 and 3, and the mean
# shift applied on top in design 2; class 1 is untouched
_CLASS_SCALE = {2: 1.1, 3: 1.2}
_CLASS_SHIFT = {2: 0.1, 3: 0.2}

# elements (1 MiB of float64) in one tile of the AR(1) filter: every design
# of the acceptance suite and the benchmark fits in one, and a tile this
# size stays in a core's cache while it is filtered
_TILE_ITEMS = 1 << 17


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one simulated K-sample design."""

    example: int
    p: int
    sizes: tuple
    beta: float = 0.0
    rho: float = 0.7
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if self.example not in (1, 2, 3):
            raise ValueError(f"example must be 1, 2 or 3, got {self.example}")
        if self.p < 1:
            raise ValueError(f"dimension must be >= 1, got {self.p}")
        if not self.sizes or any(s < 2 for s in self.sizes):
            raise ValueError(f"every class size must be >= 2, got {self.sizes}")
        if self.example in (2, 3) and len(self.sizes) != 3:
            raise ValueError(
                f"example {self.example} is a 3-class design, got "
                f"{len(self.sizes)} sizes"
            )
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not abs(self.rho) < 1.0:
            raise ValueError(f"|rho| must be < 1, got {self.rho}")

    @property
    def affected(self) -> int:
        """Number of leading coordinates that differ across classes."""
        return int(round(self.beta * self.p))


def _ar1_filter(x: np.ndarray, rho: float) -> np.ndarray:
    """Turn the rows of innovations ``x`` in place into
    x[0] = e[0], x[j] = rho*x[j-1] + sqrt(1-rho^2)*e[j], and return ``x``.

    This recursion is exactly the lower-triangular (Cholesky) factor of the
    AR(1) correlation matrix applied to the innovation vector, in O(n*p).

    ``x`` is filtered one tile at a time, through one reused buffer of at
    most ``_TILE_ITEMS`` elements: up to ``_TILE_ITEMS // 2`` rows (all of
    them in every study design) by as many coordinates as then fit.  The
    tile is copied in transposed, so coordinate j of its rows is one
    contiguous buffer row.  Its first coordinate is the last one of the
    tile before it (or the first of ``x``), already final; the others are
    scaled by c = sqrt(1-rho^2) once, and each is then finished by one
    multiply into a reused row and one in-place add.  Every value is still
    fl(fl(rho*x[j-1]) + fl(c*e[j])), only with the operands of ``*`` and
    ``+`` swapped, which IEEE arithmetic leaves exact, so the bits equal
    the column-by-column loop's.  Rows never mix, so neither the tiling
    nor filtering a stack of classes instead of each one changes them.
    """
    c = math.sqrt(1.0 - rho * rho)
    n, p = x.shape
    rows = max(1, min(n, _TILE_ITEMS // 2))
    cols = max(2, min(p, _TILE_ITEMS // rows))
    buf, tmp = np.empty((cols, rows)), np.empty(rows)
    for lo in range(0, n, rows):
        tile = x[lo:lo + rows]
        step = tmp[:len(tile)]
        for j in range(1, p, cols - 1):
            src = tile[:, j - 1:j - 1 + cols]
            xt = buf[:src.shape[1], :len(tile)]
            xt[...] = src.T
            xt[1:] *= c
            prev = xt[0]
            for row in xt[1:]:
                np.multiply(prev, rho, out=step)
                row += step
                prev = row
            src[:, 1:] = xt[1:].T
    return x


def scenario_dataset(spec: ScenarioSpec, replicate: int = 0) -> LabeledDataset:
    """Materialize one replicate of the design as a labeled dataset.

    Class ``c`` draws its innovations from the substream keyed by
    ``(spec.seed, replicate, c)``; labels are the integers 1..K.
    """
    ends = np.cumsum(spec.sizes)
    x = np.empty((ends[-1], spec.p))
    for c, (lo, hi) in enumerate(zip(ends - spec.sizes, ends), start=1):
        rng = substream(spec.seed, replicate, c)
        if spec.example == 3:
            rng.standard_exponential(out=x[lo:hi])
        else:
            rng.standard_normal(out=x[lo:hi])
    if spec.example == 3:
        x -= 1.0
    _ar1_filter(x, spec.rho)
    if spec.example != 1:
        for c in (2, 3):
            rows = x[ends[c - 2]:ends[c - 1], :spec.affected]
            rows *= _CLASS_SCALE[c]
            if spec.example == 2:
                rows += _CLASS_SHIFT[c]
    labels = [c for c, n_c in enumerate(spec.sizes, start=1) for _ in range(n_c)]
    return LabeledDataset(x, tuple(labels))
