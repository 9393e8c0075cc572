"""Per-pixel burn, soil and vegetation indices plus the char-fraction unmixing.

All formulas evaluate on unit reflectance in [0, 1]. Undefined values (zero
denominators, the BAI reference point) come back as NaN so that temporal
statistics can skip them; nothing is ever clamped to a finite stand-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .scene import SENSOR_BANDS

# The bands the char-fraction unmixing reads, in endmember component order.
SWIR_SET = SENSOR_BANDS["B"]


class IndexError_(ValueError):
    """Raised when an index cannot be evaluated as requested."""


class MissingBandError(IndexError_):
    pass


class IllConditionedError(IndexError_):
    pass


def _guard_div(num, den):
    den = np.asarray(den, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(num, dtype=float) / den
    return np.where(den == 0.0, np.nan, out)


def _sr(b):
    return _guard_div(b["NIR"], b["Red"])


def _ndvi(b):
    return _guard_div(b["NIR"] - b["Red"], b["NIR"] + b["Red"])


def _ci(b):
    blue, green, red = b["Blue"], b["Green"], b["Red"]
    maxdiff = np.maximum(np.abs(blue - green),
                         np.maximum(np.abs(blue - red), np.abs(red - green)))
    return (blue + green + red) + maxdiff * 15.0


def _bai(b):
    den = (0.06 - b["NIR"]) ** 2 + (0.1 - b["Red"]) ** 2
    return _guard_div(1.0, den)


def _bsoi(b):
    num = (b["NIR"] + b["Green"]) - (b["Red"] + b["Blue"])
    den = b["NIR"] + b["Green"] + b["Red"] + b["Blue"]
    return _guard_div(num, den) * 100.0 + 100.0


def _nbr(b):
    return _guard_div(b["NIR"] - b["SWIR2"], b["NIR"] + b["SWIR2"])


def _nbr2(b):
    return _guard_div(b["SWIR1"] - b["SWIR2"], b["SWIR1"] + b["SWIR2"])


def _mirbi(b):
    return 10.0 * np.asarray(b["SWIR2"], dtype=float) - 9.8 * b["SWIR1"] + 2.0


def _bsi(b):
    background = b["Green"] + b["Red"] + b["NIR"]
    return _guard_div(b["SWIR2"] - b["Red"], (b["SWIR2"] + b["Red"]) * background)


def _msavi(b):
    nir, red = np.asarray(b["NIR"], dtype=float), b["Red"]
    return (2.0 * nir + 1.0 - np.sqrt((2.0 * nir + 1.0) ** 2 - 8.0 * (nir - red))) / 2.0


@dataclass(frozen=True)
class IndexSpec:
    name: str
    requires: tuple[str, ...]
    fn: object


INDEX_REGISTRY: dict[str, IndexSpec] = {
    "SR": IndexSpec("SR", ("NIR", "Red"), _sr),
    "NDVI": IndexSpec("NDVI", ("NIR", "Red"), _ndvi),
    "CI": IndexSpec("CI", ("Blue", "Green", "Red"), _ci),
    "BAI": IndexSpec("BAI", ("NIR", "Red"), _bai),
    "BSoI": IndexSpec("BSoI", ("Blue", "Green", "Red", "NIR"), _bsoi),
    "MSAVI": IndexSpec("MSAVI", ("NIR", "Red"), _msavi),
    "NBR": IndexSpec("NBR", ("NIR", "SWIR2"), _nbr),
    "NBR2": IndexSpec("NBR2", ("SWIR1", "SWIR2"), _nbr2),
    "MIRBI": IndexSpec("MIRBI", ("SWIR1", "SWIR2"), _mirbi),
    "BSI": IndexSpec("BSI", ("Green", "Red", "NIR", "SWIR2"), _bsi),
    "BASMA": IndexSpec("BASMA", SWIR_SET, None),
}

ALL_INDICES = tuple(INDEX_REGISTRY)


def indices_for_bands(available: tuple[str, ...], requested=ALL_INDICES) -> list[str]:
    have = set(available)
    return [n for n in requested if set(INDEX_REGISTRY[n].requires) <= have]


def compute_index(name: str, bands: dict, *, endmembers: "EndmemberSet | None" = None):
    """Evaluate one index on named unit-reflectance bands (scalars or arrays)."""
    try:
        spec = INDEX_REGISTRY[name]
    except KeyError:
        raise IndexError_(f"unknown index {name!r}") from None
    missing = [b for b in spec.requires if b not in bands]
    if missing:
        raise MissingBandError(f"index {name} requires band(s) {missing}")
    if name == "BASMA":
        if endmembers is None:
            raise IndexError_("BASMA needs an EndmemberSet")
        # Filled band by band: np.stack of float copies would hold two copies.
        spectra = np.empty(np.shape(bands[SWIR_SET[0]]) + (len(SWIR_SET),))
        for j, band in enumerate(SWIR_SET):
            spectra[..., j] = bands[band]
        return unmix_char_fraction(spectra, endmembers)[..., 2]
    return spec.fn(bands)


@dataclass(frozen=True)
class EndmemberSet:
    """Reference spectra over the 9 SWIR-capable sensor bands: veg, soil, char."""

    veg: np.ndarray
    soil: np.ndarray
    char: np.ndarray

    def __post_init__(self):
        for name, spec in (("veg", self.veg), ("soil", self.soil), ("char", self.char)):
            arr = np.asarray(spec, dtype=float)
            if arr.shape != (len(SWIR_SET),):
                raise IndexError_(f"{name} endmember must have {len(SWIR_SET)} components")
            if not ((arr >= 0) & (arr <= 1)).all():
                raise IndexError_(f"{name} endmember outside [0, 1]")

    def matrix(self) -> np.ndarray:
        """(n_bands, 3) matrix, columns ordered veg, soil, char."""
        return np.stack([self.veg, self.soil, self.char], axis=1).astype(float)


def _subset_solvers(E: np.ndarray):
    """Affine maps y -> fractions for each endmember support subset.

    For support S the sum-to-one equality-constrained least squares has the
    KKT solution f_S = W_S @ y + c_S, so candidates for every pixel reduce to
    small matrix products.
    """
    m = E.shape[1]
    solvers = []
    for size in range(1, m + 1):
        for support in combinations(range(m), size):
            Es = E[:, support]
            k = len(support)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = 2.0 * Es.T @ Es
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            inv = np.linalg.inv(kkt)
            W = inv[:k, :k] @ (2.0 * Es.T)   # (k, n_bands)
            c = inv[:k, k]                   # constant from the sum constraint
            solvers.append((support, W, c, Es))
    return solvers


def unmix_char_fraction(spectrum: np.ndarray, endmembers: EndmemberSet) -> np.ndarray:
    """Fully constrained (sum-to-one, nonnegative) unmixing fractions.

    Accepts a single spectrum or an (..., n_bands) stack; returns fractions
    with shape (..., 3) ordered (veg, soil, char). Solved exactly by
    enumerating active sets, which is cheap for three endmembers.
    """
    E = endmembers.matrix()
    if np.linalg.cond(E) > 1e8:
        raise IllConditionedError("endmember spectra are nearly collinear")
    y = np.asarray(spectrum, dtype=float)
    flat = y.reshape(-1, E.shape[0])
    n = len(flat)
    # matmul rounds a one-row product differently: a lone spectrum is solved
    # beside a copy of itself, so no spectrum's fractions depend on the batch.
    flat = np.repeat(flat, 2, axis=0) if n == 1 else flat
    finite = np.isfinite(flat).all(axis=1)
    work = np.where(finite[:, None], flat, 0.0)

    best_res = np.full(flat.shape[0], np.inf)
    best_frac = np.zeros((flat.shape[0], E.shape[1]))
    for support, W, c, Es in _subset_solvers(E):
        cand = work @ W.T + c
        feasible = (cand >= -1e-10).all(axis=1)
        if not feasible.any():
            continue
        resid = cand @ Es.T
        np.subtract(work, resid, out=resid)
        res = np.einsum("ij,ij->i", resid, resid)
        better = feasible & (res < best_res - 1e-15)
        if better.any():
            best_res[better] = res[better]
            full = np.zeros((int(better.sum()), E.shape[1]))
            full[:, list(support)] = cand[better]
            best_frac[better] = full

    best_frac = np.clip(best_frac, 0.0, 1.0)
    best_frac /= best_frac.sum(axis=1, keepdims=True)
    best_frac[~finite] = np.nan     # masked or undefined spectra stay missing
    return best_frac[:n].reshape(y.shape[:-1] + (E.shape[1],))
