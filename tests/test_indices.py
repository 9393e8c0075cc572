import math

import numpy as np
import pytest

from plotburn.indices import (ALL_INDICES, EndmemberSet, IllConditionedError,
                              IndexError_, MissingBandError, SWIR_SET,
                              compute_index, indices_for_bands,
                              unmix_char_fraction)


def oracle_index(name, b, m=1.0):
    """Plain-python scalar evaluation, independent of the vectorized module."""
    if name == "SR":
        return b["NIR"] / b["Red"] if b["Red"] != 0 else math.nan
    if name == "NDVI":
        den = b["NIR"] + b["Red"]
        return (b["NIR"] - b["Red"]) / den if den != 0 else math.nan
    if name == "CI":
        diffs = [abs(b["Blue"] - b["Green"]), abs(b["Blue"] - b["Red"]),
                 abs(b["Red"] - b["Green"])]
        return (b["Blue"] + b["Green"] + b["Red"]) + max(diffs) * 15.0
    if name == "BAI":
        den = (0.06 - b["NIR"]) ** 2 + (0.1 - b["Red"]) ** 2
        return 1.0 / den if den != 0 else math.nan
    if name == "BSoI":
        den = b["NIR"] + b["Green"] + b["Red"] + b["Blue"]
        if den == 0:
            return math.nan
        return ((b["NIR"] + b["Green"]) - (b["Red"] + b["Blue"])) / den * 100.0 + 100.0
    if name == "MSAVI":
        return (2 * b["NIR"] + 1 - math.sqrt((2 * b["NIR"] + 1) ** 2
                                             - 8 * (b["NIR"] - b["Red"]))) / 2.0
    if name == "NBR":
        den = b["NIR"] + b["SWIR2"]
        return (b["NIR"] - b["SWIR2"]) / den if den != 0 else math.nan
    if name == "NBR2":
        den = b["SWIR1"] + b["SWIR2"]
        return (b["SWIR1"] - b["SWIR2"]) / den if den != 0 else math.nan
    if name == "MIRBI":
        return 10.0 * b["SWIR2"] - 9.8 * b["SWIR1"] + 2.0
    if name == "BSI":
        den = (b["SWIR2"] + b["Red"]) * (b["Green"] ** m + b["Red"] ** m + b["NIR"] ** m)
        return (b["SWIR2"] - b["Red"]) / den if den != 0 else math.nan
    raise KeyError(name)


def random_bands(rng):
    return {band: float(rng.uniform(0.0, 1.0)) for band in SWIR_SET}


class TestFormulas:
    def test_ndvi_symmetry_point(self):
        assert compute_index("NDVI", {"NIR": 0.3, "Red": 0.3}) == 0.0

    def test_mirbi_constant_term(self):
        assert compute_index("MIRBI", {"SWIR1": 0.0, "SWIR2": 0.0}) == 2.0

    def test_ci_hand_case(self):
        value = compute_index("CI", {"Blue": 0.10, "Green": 0.12, "Red": 0.14})
        assert abs(value - 0.96) < 1e-12

    def test_bai_singular_reference_point_flagged(self):
        assert np.isnan(compute_index("BAI", {"NIR": 0.06, "Red": 0.1}))

    def test_zero_denominators_flagged_not_clamped(self):
        assert np.isnan(compute_index("NDVI", {"NIR": 0.0, "Red": 0.0}))
        assert np.isnan(compute_index("SR", {"NIR": 0.5, "Red": 0.0}))
        assert np.isnan(compute_index("NBR", {"NIR": 0.0, "SWIR2": 0.0}))
        assert np.isnan(compute_index("NBR2", {"SWIR1": 0.0, "SWIR2": 0.0}))
        assert np.isnan(compute_index("BSoI", {"Blue": 0.0, "Green": 0.0,
                                               "Red": 0.0, "NIR": 0.0}))

    def test_missing_band_error_names_band(self):
        with pytest.raises(MissingBandError, match="SWIR2"):
            compute_index("NBR", {"NIR": 0.4})

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(11)
        names = [n for n in ALL_INDICES if n != "BASMA"]
        for _ in range(300):
            bands = random_bands(rng)
            for name in names:
                got = compute_index(name, bands)
                want = oracle_index(name, bands)
                if math.isnan(want):
                    assert np.isnan(got)
                else:
                    assert abs(got - want) < 1e-9, name

    def test_vectorized_agrees_with_scalar(self):
        rng = np.random.default_rng(5)
        arrays = {band: rng.uniform(0.01, 1.0, size=50) for band in SWIR_SET}
        for name in (n for n in ALL_INDICES if n != "BASMA"):
            vec = compute_index(name, arrays)
            for i in (0, 17, 49):
                scalar = compute_index(name, {b: arrays[b][i] for b in SWIR_SET})
                assert abs(vec[i] - scalar) < 1e-12


class TestIndexProperties:
    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = rng.uniform(0.01, 1.0, size=2)
            assert abs(compute_index("NDVI", {"NIR": a, "Red": b})
                       + compute_index("NDVI", {"NIR": b, "Red": a})) < 1e-12
            assert abs(compute_index("NBR", {"NIR": a, "SWIR2": b})
                       + compute_index("NBR", {"NIR": b, "SWIR2": a})) < 1e-12
            assert abs(compute_index("NBR2", {"SWIR1": a, "SWIR2": b})
                       + compute_index("NBR2", {"SWIR1": b, "SWIR2": a})) < 1e-12

    def test_ndvi_sr_comonotone(self):
        rng = np.random.default_rng(3)
        red = 0.2
        nir = np.sort(rng.uniform(0.01, 1.0, size=30))
        ndvi = [compute_index("NDVI", {"NIR": v, "Red": red}) for v in nir]
        sr = [compute_index("SR", {"NIR": v, "Red": red}) for v in nir]
        assert all(x < y for x, y in zip(ndvi, ndvi[1:]))
        assert all(x < y for x, y in zip(sr, sr[1:]))
        for _ in range(20):
            sample = {b: rng.uniform(0.05, 1.0, size=40) for b in ("NIR", "Red")}
            nd = compute_index("NDVI", sample)
            s = compute_index("SR", sample)
            assert np.argmax(nd) == np.argmax(s)

    def test_scale_exactness(self):
        rng = np.random.default_rng(4)
        ratio_form = ("SR", "NDVI", "NBR", "NBR2", "BSoI")
        non_ratio = ("CI", "MIRBI", "BAI", "BSI", "MSAVI")
        for _ in range(50):
            bands = random_bands(rng)
            factor = rng.uniform(0.2, 0.9)
            scaled = {k: v * factor for k, v in bands.items()}
            for name in ratio_form:
                assert abs(compute_index(name, bands)
                           - compute_index(name, scaled)) < 1e-12, name
            for name in non_ratio:
                a, b = compute_index(name, bands), compute_index(name, scaled)
                assert abs(a - b) > 1e-9, name

    def test_sensor_requirements(self):
        four_band = ("Blue", "Green", "Red", "NIR")
        assert set(indices_for_bands(four_band)) == {
            "SR", "NDVI", "CI", "BAI", "BSoI", "MSAVI"}
        assert set(indices_for_bands(SWIR_SET)) == set(ALL_INDICES)


def toy_endmembers():
    veg = np.array([0.04, 0.09, 0.05, 0.20, 0.35, 0.45, 0.50, 0.25, 0.12])
    soil = np.array([0.16, 0.22, 0.28, 0.31, 0.34, 0.36, 0.38, 0.48, 0.45])
    char = np.array([0.06, 0.06, 0.06, 0.06, 0.06, 0.06, 0.06, 0.07, 0.07])
    return EndmemberSet(veg, soil, char)


class TestUnmixing:
    def test_pure_char_pixel(self):
        em = toy_endmembers()
        frac = unmix_char_fraction(em.char, em)
        assert np.allclose(frac, [0.0, 0.0, 1.0], atol=1e-9)

    def test_exact_binary_mixture(self):
        em = toy_endmembers()
        spectrum = 0.5 * em.soil + 0.5 * em.veg
        frac = unmix_char_fraction(spectrum, em)
        assert np.allclose(frac, [0.5, 0.5, 0.0], atol=1e-9)

    def test_noisy_mixture_recovery(self):
        em = toy_endmembers()
        rng = np.random.default_rng(9)
        E = em.matrix()
        for _ in range(200):
            true = rng.dirichlet(np.ones(3))
            spectrum = E @ true + rng.normal(0, 0.005, size=E.shape[0])
            spectrum = np.clip(spectrum, 0, 1)
            frac = unmix_char_fraction(spectrum, em)
            assert np.max(np.abs(frac - true)) < 0.05

    def test_fraction_invariants(self):
        em = toy_endmembers()
        rng = np.random.default_rng(10)
        spectra = rng.uniform(0, 1, size=(500, 9))
        fracs = unmix_char_fraction(spectra, em)
        assert np.all(fracs >= 0.0)
        assert np.all(fracs <= 1.0)
        assert np.max(np.abs(fracs.sum(axis=1) - 1.0)) < 1e-9

    def test_fractions_do_not_depend_on_the_batch(self):
        # A spectrum solved alone, in a pair or among 40 gets the same bits.
        em = toy_endmembers()
        spectra = np.random.default_rng(11).uniform(0, 0.5, size=(40, 9))
        together = unmix_char_fraction(spectra, em)
        for i, spectrum in enumerate(spectra):
            assert unmix_char_fraction(spectrum, em).tobytes() == together[i].tobytes()
            assert unmix_char_fraction(spectra[i:i + 2], em).tobytes() == \
                together[i:i + 2].tobytes()

    def test_near_collinear_endmembers_rejected(self):
        base = np.linspace(0.1, 0.5, 9)
        em = EndmemberSet(base, base * (1 + 1e-12), np.linspace(0.5, 0.1, 9))
        with pytest.raises(IllConditionedError):
            unmix_char_fraction(base, em)

    def test_basma_char_fraction_via_compute_index(self):
        em = toy_endmembers()
        bands = {b: float(v) for b, v in zip(SWIR_SET, em.char)}
        assert abs(compute_index("BASMA", bands, endmembers=em) - 1.0) < 1e-9
        with pytest.raises(IndexError_):
            compute_index("BASMA", bands)
