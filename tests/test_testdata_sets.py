"""Tests for test sets, profiles, synthetic generation and literature data."""

import random

import numpy as np
import pytest

from repro.testdata import literature
from repro.testdata.cube import TestCube
from repro.testdata.profiles import (
    ISCAS89_PROFILES,
    custom_profile,
    get_profile,
    profile_names,
)
from repro.testdata.synthetic import SyntheticTestSetGenerator, generate_test_set
from repro.testdata.test_set import TestSet


def small_set():
    return TestSet(
        "demo",
        [
            TestCube.from_string("1X0X"),
            TestCube.from_string("XX01"),
            TestCube.from_string("0X1X"),
            TestCube.from_string("1XXX"),
        ],
    )


class TestPackedMatrices:
    def test_matches_per_cube_stacking(self):

        ts = small_set()
        cares, values = ts.packed_matrices()
        assert cares.shape == values.shape == (len(ts), 1)
        assert cares.dtype == values.dtype == np.uint64
        for i, cube in enumerate(ts):
            assert int(cares[i, 0]) == cube.care_mask
            assert int(values[i, 0]) == cube.care_value
        assert not cares.flags.writeable
        assert not values.flags.writeable

    def test_cached_per_instance_and_across_equal_sets(self):
        ts = small_set()
        first = ts.packed_matrices()
        assert ts.packed_matrices() is first  # packed once per instance
        # A re-parsed copy (same name, cells and cubes -> same
        # fingerprint) packs its own, equal pair.
        copy = TestSet.from_text(ts.to_text())
        assert copy.fingerprint() == ts.fingerprint()
        copied = copy.packed_matrices()
        assert copied is not first
        for mine, theirs in zip(first, copied):
            assert np.array_equal(mine, theirs)
        # A different set gets a different pair.
        other = TestSet("other", [TestCube.from_string("01XX")])
        assert not np.array_equal(other.packed_matrices()[0], first[0])

    def test_fingerprint_memoised(self):
        ts = small_set()
        assert ts.fingerprint() == ts.fingerprint()
        assert ts._fingerprint is not None


class TestTestSet:
    def test_basic_properties(self):
        ts = small_set()
        assert len(ts) == 4
        assert ts.num_cells == 4
        assert ts[0].to_string() == "1X0X"
        assert [c.to_string() for c in ts] == ["1X0X", "XX01", "0X1X", "1XXX"]

    def test_width_consistency_enforced(self):
        with pytest.raises(ValueError):
            TestSet("bad", [TestCube.from_string("1X"), TestCube.from_string("1XX")])

    def test_empty_cube_rejected(self):
        with pytest.raises(ValueError):
            TestSet("bad", [TestCube.from_string("XXX")])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            TestSet("bad", [])

    def test_stats(self):
        stats = small_set().stats()
        assert stats.num_cubes == 4
        assert stats.max_specified == 2
        assert stats.min_specified == 1
        assert stats.total_specified == 7
        assert stats.mean_specified == pytest.approx(7 / 4)

    def test_sorted_by_specified(self):
        ordered = small_set().sorted_by_specified()
        counts = [c.specified_count() for c in ordered]
        assert counts == sorted(counts, reverse=True)

    def test_coverage_checks(self):
        ts = small_set()
        # Vector 0b1001: bit0=1, bit1=0, bit2=0, bit3=1
        # covers "1X0X" and "XX01" and "1XXX" but not "0X1X".
        assert ts.uncovered_cubes([0b1001]) == [2]
        assert not ts.all_covered([0b1001])
        assert ts.all_covered([0b1001, 0b0100])

    @pytest.mark.parametrize("num_cells", [4, 64, 65, 130])
    @pytest.mark.parametrize("chunk_budget", [TestSet._COVER_CHUNK_BUDGET, 7])
    def test_coverage_matches_brute_force(self, num_cells, chunk_budget, monkeypatch):
        """The packed coverage check agrees with a per-cube, per-vector loop."""
        monkeypatch.setattr(TestSet, "_COVER_CHUNK_BUDGET", chunk_budget)
        rng = random.Random(num_cells)
        cubes = [
            TestCube.from_string("".join(rng.choice("01XX") for _ in range(num_cells)))
            for _ in range(30)
        ]
        ts = TestSet(f"cover{num_cells}", cubes)
        for count in (0, 1, 40):
            # Random vectors, plus fills of some cubes so that some are covered.
            vectors = [rng.getrandbits(num_cells) for _ in range(count)]
            for cube in rng.sample(cubes, min(count, 10)):
                vectors.append(
                    cube.care_value | (rng.getrandbits(num_cells) & ~cube.care_mask)
                )
            expected = [
                index
                for index, cube in enumerate(cubes)
                if not any(cube.matches_vector(vector) for vector in vectors)
            ]
            assert ts.uncovered_cubes(vectors) == expected
            assert ts.uncovered_cubes(iter(vectors)) == expected

    def test_text_roundtrip(self):
        ts = small_set()
        text = ts.to_text()
        parsed = TestSet.from_text(text)
        assert parsed.name == "demo"
        assert [c.to_string() for c in parsed] == [c.to_string() for c in ts]


class TestProfiles:
    def test_all_paper_circuits_present(self):
        assert profile_names() == ["s9234", "s13207", "s15850", "s38417", "s38584"]
        for name in profile_names():
            assert name in ISCAS89_PROFILES

    def test_profile_fields_consistent_with_table1(self):
        for name, profile in ISCAS89_PROFILES.items():
            assert profile.lfsr_size == literature.TABLE1[name]["lfsr"]
            assert profile.max_specified <= profile.lfsr_size
            assert profile.scan_chains == 32

    def test_get_profile_unknown(self):
        with pytest.raises(KeyError):
            get_profile("s27")

    def test_scaled_profile(self):
        profile = get_profile("s13207")
        scaled = profile.scaled(0.1)
        assert scaled.num_cubes == max(20, round(profile.num_cubes * 0.1))
        assert scaled.lfsr_size == profile.lfsr_size
        with pytest.raises(ValueError):
            profile.scaled(0.0)

    def test_custom_profile(self):
        profile = custom_profile(
            "mycore", scan_cells=200, num_cubes=50, max_specified=20,
            mean_specified=8.0,
        )
        assert profile.lfsr_size == 24
        with pytest.raises(ValueError):
            custom_profile("bad", 10, 5, max_specified=20, mean_specified=5)
        with pytest.raises(ValueError):
            custom_profile(
                "bad", 100, 5, max_specified=20, mean_specified=5, lfsr_size=10
            )


class TestSyntheticGeneration:
    def test_generated_set_matches_profile(self):
        profile = get_profile("s13207").scaled(0.1)
        ts = generate_test_set(profile, seed=3)
        assert len(ts) == profile.num_cubes
        assert ts.num_cells == profile.scan_cells
        assert ts.max_specified() == profile.max_specified

    def test_generation_is_reproducible(self):
        profile = get_profile("s9234").scaled(0.1)
        a = SyntheticTestSetGenerator(profile, seed=11).generate()
        b = SyntheticTestSetGenerator(profile, seed=11).generate()
        assert [c.to_string() for c in a] == [c.to_string() for c in b]

    def test_different_seeds_differ(self):
        profile = get_profile("s9234").scaled(0.1)
        a = SyntheticTestSetGenerator(profile, seed=1).generate()
        b = SyntheticTestSetGenerator(profile, seed=2).generate()
        assert [c.to_string() for c in a] != [c.to_string() for c in b]

    def test_specified_counts_within_bounds(self):
        profile = get_profile("s15850").scaled(0.2)
        ts = generate_test_set(profile, seed=5)
        for cube in ts:
            assert 2 <= cube.specified_count() <= profile.max_specified

    def test_mean_specified_close_to_target(self):
        profile = get_profile("s13207").scaled(0.5)
        ts = generate_test_set(profile, seed=9)
        mean = ts.stats().mean_specified
        assert 0.6 * profile.mean_specified <= mean <= 1.6 * profile.mean_specified

    def test_scale_argument(self):
        profile = get_profile("s38584")
        ts = generate_test_set(profile, seed=1, scale=0.05)
        assert len(ts) == max(20, round(profile.num_cubes * 0.05))


class TestLiterature:
    def test_table1_consistency(self):
        # TDV of classical reseeding is seeds x LFSR size, so it must be a
        # multiple of the LFSR size, and equal to TSL x LFSR size for L = 1.
        for name, data in literature.TABLE1.items():
            lfsr = data["lfsr"]
            assert data[1]["tdv"] == data[1]["tsl"] * lfsr
            for L in (50, 200, 500):
                assert data[L]["tdv"] % lfsr == 0
                # Window-based TSL is (number of seeds) x L.
                assert data[L]["tsl"] % L == 0
                assert data[L]["tsl"] == (data[L]["tdv"] // lfsr) * L

    def test_table2_improvements_match_formula(self):
        for circuit, by_l in literature.TABLE2.items():
            for L, row in by_l.items():
                computed = literature.tsl_improvement(row["prop"], row["orig"])
                assert abs(computed - row["impr"]) < 1.5  # paper rounds to 1%
                assert row["orig"] == literature.TABLE1[circuit][L]["tsl"]

    def test_table3_improvements_match_formula(self):
        for circuit, impr in literature.TABLE3_IMPROVEMENTS.items():
            prop_tsl = literature.TABLE3[circuit]["prop"]["tsl"]
            for method, value in impr.items():
                ref_tsl = literature.TABLE3[circuit][method]["tsl"]
                computed = literature.tsl_improvement(prop_tsl, ref_tsl)
                assert abs(computed - value) < 0.2

    def test_table4_prop_matches_tables_1_and_2(self):
        for circuit, methods in literature.TABLE4.items():
            assert methods["classical"] == (
                literature.TABLE1[circuit][1]["tsl"],
                literature.TABLE1[circuit][1]["tdv"],
            )
            assert methods["prop"] == (
                literature.TABLE2[circuit][200]["prop"],
                literature.TABLE1[circuit][200]["tdv"],
            )

    def test_tsl_improvement_validation(self):
        with pytest.raises(ValueError):
            literature.tsl_improvement(10, 0)
        assert literature.tsl_improvement(50, 100) == pytest.approx(50.0)
