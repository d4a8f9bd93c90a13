"""Tests for the window-based reseeding encoder, classical (L = 1) included."""


import dataclasses

import pytest

from repro import pipeline
from repro.config import CompressionConfig
from repro.context import CompressionContext
from repro.encoding.equations import EquationSystem
from repro.encoding.results import CubeEmbedding
from repro.encoding.substrate import EncoderSubstrate, SubstrateKey
from repro.encoding.window import EncodingError, WindowEncoder, verify_encoding
from repro.skip.selection import build_cover
from repro.testdata.cube import TestCube
from repro.testdata.profiles import custom_profile
from repro.testdata.synthetic import generate_test_set
from repro.testdata.test_set import TestSet


def small_test_set(num_cells=48, num_cubes=30, max_spec=10, seed=7):
    """A small synthetic test set for fast encoder tests."""
    profile = custom_profile(
        "unit",
        scan_cells=num_cells,
        num_cubes=num_cubes,
        max_specified=max_spec,
        mean_specified=max(3.0, max_spec / 3),
    )
    return generate_test_set(profile, seed=seed)


def encode(test_set, window_length, num_scan_chains, lfsr_size=None):
    """Encode through the pipeline's encode stage (phase-shifter retries on)."""
    config = CompressionConfig(
        window_length=window_length,
        segment_size=1,
        num_scan_chains=num_scan_chains,
        lfsr_size=lfsr_size,
    )
    return pipeline.encode(test_set, config, verify=False).encoding


def all_cubes_encoded(result):
    return len(result.cube_assignment()) == result.num_cubes


class TestWindowEncoder:
    def test_all_cubes_encoded_and_verified(self):
        ts = small_test_set()
        substrate = EncoderSubstrate(SubstrateKey(ts.num_cells, 8, 14, 12))
        result = WindowEncoder(substrate.equations).encode(ts)
        assert all_cubes_encoded(result)
        assert result.num_cubes == len(ts)
        seeds = [record.seed for record in result.seeds]
        cover = build_cover(substrate.equations.expand_seeds_packed(seeds), ts)
        assert verify_encoding(result, cover) == []

    def test_first_embedding_of_every_seed_is_position_zero(self):
        ts = small_test_set(seed=11)
        substrate = EncoderSubstrate(SubstrateKey(ts.num_cells, 8, 14, 10))
        result = WindowEncoder(substrate.equations).encode(ts)
        for record in result.seeds:
            assert record.embeddings, "every seed must encode at least one cube"
            assert record.embeddings[0].position == 0

    def test_tdv_and_tsl_accounting(self):
        ts = small_test_set(seed=3)
        result = encode(ts, window_length=8, num_scan_chains=8, lfsr_size=14)
        assert result.test_data_volume == result.num_seeds * 14
        assert result.test_sequence_length == result.num_seeds * 8
        summary = result.summary()
        assert summary["tdv_bits"] == result.test_data_volume
        assert summary["num_seeds"] == result.num_seeds

    def test_each_cube_encoded_exactly_once(self):
        ts = small_test_set(seed=5)
        result = encode(ts, window_length=8, num_scan_chains=8, lfsr_size=14)
        seen = []
        for record in result.seeds:
            seen.extend(e.cube_index for e in record.embeddings if e.deterministic)
        assert sorted(seen) == list(range(len(ts)))

    def test_larger_window_needs_no_more_seeds(self):
        """A larger window can only help the encoding (fewer or equal seeds)."""
        ts = small_test_set(num_cubes=40, seed=13)
        small = encode(ts, window_length=2, num_scan_chains=8, lfsr_size=14)
        large = encode(ts, window_length=16, num_scan_chains=8, lfsr_size=14)
        assert large.num_seeds <= small.num_seeds

    def test_lfsr_too_small_raises(self):
        ts = small_test_set(max_spec=12, seed=2)
        with pytest.raises(ValueError):
            encode(ts, window_length=4, num_scan_chains=8, lfsr_size=8)

    def test_width_mismatch_raises(self):
        ts = small_test_set()
        substrate = EncoderSubstrate(SubstrateKey(ts.num_cells + 4, 8, 14, 4))
        with pytest.raises(ValueError):
            WindowEncoder(substrate.equations).encode(ts)

    def test_deterministic_given_same_seeds(self):
        ts = small_test_set(seed=17)
        a = encode(ts, window_length=6, num_scan_chains=8, lfsr_size=14)
        b = encode(ts, window_length=6, num_scan_chains=8, lfsr_size=14)
        assert [r.seed for r in a.seeds] == [r.seed for r in b.seeds]
        assert a.cube_assignment() == b.cube_assignment()

    def test_seed_of_cube_lookup(self):
        ts = small_test_set(seed=19)
        result = encode(ts, window_length=6, num_scan_chains=8, lfsr_size=14)
        for cube_index in range(len(ts)):
            seed_index = result.seed_of_cube(cube_index)
            assert seed_index is not None
            record = result.seeds[seed_index]
            assert cube_index in [e.cube_index for e in record.embeddings]
        assert result.seed_of_cube(10_000) is None


class TestClassicalReseeding:
    def test_classical_is_single_vector_windows(self):
        ts = small_test_set(seed=23)
        result = encode(ts, window_length=1, num_scan_chains=8, lfsr_size=14)
        assert result.window_length == 1
        assert result.test_sequence_length == result.num_seeds
        assert all_cubes_encoded(result)

    def test_classical_uses_more_data_than_windowed(self):
        """The motivation experiment (Table 1): larger L improves TDV."""
        ts = small_test_set(num_cubes=50, seed=29)
        classical = encode(ts, window_length=1, num_scan_chains=8, lfsr_size=14)
        windowed = encode(
            ts, window_length=20, num_scan_chains=8, lfsr_size=14
        )
        assert windowed.test_data_volume <= classical.test_data_volume
        # ... at the price of much longer test sequences.
        assert windowed.test_sequence_length >= classical.test_sequence_length

    def test_classical_default_lfsr_size(self):
        ts = small_test_set(seed=31)
        result = encode(ts, window_length=1, num_scan_chains=8)
        assert result.lfsr_size == ts.max_specified() + 8


class TestEncodingEdgeCases:
    def test_single_cube_test_set(self):
        cube = TestCube.from_assignments(32, {0: 1, 5: 0, 17: 1})
        ts = TestSet("single", [cube])
        result = encode(ts, window_length=4, num_scan_chains=4, lfsr_size=8)
        assert result.num_seeds == 1
        assert result.seeds[0].embeddings[0].position == 0

    def test_identical_cubes_share_one_seed(self):
        cube = TestCube.from_assignments(32, {1: 1, 9: 0})
        ts = TestSet("dupes", [cube, cube, cube])
        result = encode(ts, window_length=4, num_scan_chains=4, lfsr_size=8)
        assert result.num_seeds == 1
        assert result.seeds[0].num_cubes == 3

    def test_conflicting_dense_cubes_need_multiple_seeds(self):
        # Two cubes that disagree on every cell of a single-vector window
        # cannot share a seed when the window has a single vector.
        a = TestCube.from_assignments(16, {i: 1 for i in range(8)})
        b = TestCube.from_assignments(16, {i: 0 for i in range(8)})
        ts = TestSet("conflict", [a, b])
        result = encode(ts, window_length=1, num_scan_chains=4, lfsr_size=12)
        assert result.num_seeds == 2

    def test_unencodable_cube_raises_encoding_error(self):
        # 24 specified bits cannot be solved with a 12-bit seed through an
        # 8-output phase shifter: the system is overdetermined at every
        # window position, so the encoder must report it.
        dense = TestCube.from_assignments(24, {i: (i * 7) % 2 for i in range(24)})
        filler = TestCube.from_assignments(24, {0: 1})
        ts = TestSet("too_dense", [dense, filler])
        substrate = EncoderSubstrate(SubstrateKey(24, 8, 12, 3))
        with pytest.raises((EncodingError, ValueError)):
            WindowEncoder(substrate.equations).encode(ts)

    def test_precheck_runs_before_the_precompute(self, monkeypatch):
        """A rejected attempt precomputes nothing; an accepted one is unchanged.

        Position 0's equations are the specified cells' own rows, so the
        precheck needs none of the window's equations: the dense cube is
        rejected before any cube is precomputed.  An encodable set is
        precomputed once and encodes exactly as the reference scan, whose
        position-0 equations come from the full per-cube expansion.
        """
        calls = []
        precompute = EquationSystem.precompute_cube_words

        def counted(self, cubes):
            calls.append(len(cubes))
            return precompute(self, cubes)

        monkeypatch.setattr(EquationSystem, "precompute_cube_words", counted)
        dense = TestCube.from_assignments(24, {i: (i * 7) % 2 for i in range(24)})
        filler = TestCube.from_assignments(24, {0: 1})
        substrate = EncoderSubstrate(SubstrateKey(24, 8, 12, 3))
        with pytest.raises(EncodingError, match="structurally conflicting"):
            WindowEncoder(substrate.equations).encode(
                TestSet("too_dense", [dense, filler])
            )
        assert calls == []

        ts = small_test_set(seed=37)
        key = SubstrateKey(ts.num_cells, 8, 14, 12)
        batched = WindowEncoder(EncoderSubstrate(key).equations).encode(ts)
        assert calls == [len(ts)]
        reference = WindowEncoder(
            EncoderSubstrate(key).equations, batch_trials=False
        ).encode(ts)
        assert batched.to_dict() == reference.to_dict()


# ----------------------------------------------------------------------
# Verification against the cover, and its failure path
# ----------------------------------------------------------------------
def _oracle_violations(result, test_set, equations):
    """Integer oracle: re-expand every seed, match each deterministic cube."""
    windows = equations.expand_seeds([record.seed for record in result.seeds])
    return [
        (record.index, embedding.cube_index, embedding.position)
        for record, window in zip(result.seeds, windows)
        for embedding in record.embeddings
        if embedding.deterministic
        and not test_set[embedding.cube_index].matches_vector(
            window[embedding.position]
        )
    ]


def _moved(result, seed_slot, embedding_slot, position, deterministic):
    """A copy of ``result`` with one embedding moved to ``position``."""
    seeds = list(result.seeds)
    record = seeds[seed_slot]
    embeddings = list(record.embeddings)
    embeddings[embedding_slot] = CubeEmbedding(
        embeddings[embedding_slot].cube_index, position, deterministic
    )
    seeds[seed_slot] = dataclasses.replace(record, embeddings=embeddings)
    return dataclasses.replace(result, seeds=seeds)


class TestVerification:
    WINDOW = 24

    @pytest.fixture(scope="class")
    def encoded(self):
        ts = small_test_set(num_cubes=40, seed=19)
        config = CompressionConfig(
            window_length=self.WINDOW,
            segment_size=4,
            num_scan_chains=8,
            lfsr_size=ts.max_specified() + 6,
        )
        return pipeline.encode(ts, config, context=CompressionContext(), verify=False)

    def _cover(self, encoded):
        seeds = [record.seed for record in encoded.encoding.seeds]
        return build_cover(
            encoded.substrate.equations.expand_seeds_packed(seeds), encoded.test_set
        )

    def _corrupted(self, encoded, position, deterministic=True):
        """The encoding with one cube moved to a ``position`` not covering it."""
        result, test_set = encoded.encoding, encoded.test_set
        windows = encoded.substrate.equations.expand_seeds(
            [record.seed for record in result.seeds]
        )
        for seed_slot, (record, window) in enumerate(zip(result.seeds, windows)):
            for embedding_slot, embedding in enumerate(record.embeddings):
                cube = test_set[embedding.cube_index]
                if embedding.position != position and not cube.matches_vector(
                    window[position]
                ):
                    return _moved(
                        result, seed_slot, embedding_slot, position, deterministic
                    )
        raise AssertionError(f"every cube is covered at position {position}")

    def test_true_encoding_matches_the_integer_oracle(self, encoded):
        result = encoded.encoding
        assert result.window_length >= 20
        assert any(
            embedding.position >= 8
            for record in result.seeds
            for embedding in record.embeddings
        )
        equations = encoded.substrate.equations
        assert _oracle_violations(result, encoded.test_set, equations) == []
        assert verify_encoding(result, self._cover(encoded)) == []

    @pytest.mark.parametrize("position", [7, 8, 15, 16, WINDOW - 1])
    def test_moved_embedding_is_a_violation(self, encoded, position):
        corrupted = self._corrupted(encoded, position)
        expected = _oracle_violations(
            corrupted, encoded.test_set, encoded.substrate.equations
        )
        assert len(expected) == 1 and expected[0][2] == position
        assert verify_encoding(corrupted, self._cover(encoded)) == expected

    def test_fortuitous_embeddings_are_not_checked(self, encoded):
        moved = self._corrupted(encoded, 7, deterministic=False)
        assert verify_encoding(moved, self._cover(encoded)) == []

    def test_pipeline_encode_raises_on_a_corrupted_cached_entry(self, encoded):
        config = encoded.config
        test_set = encoded.test_set
        context = CompressionContext()
        context.put_encoding(
            test_set.fingerprint(),
            config.encode_cache_key(),
            encoded.substrate,
            self._corrupted(encoded, self.WINDOW - 1),
            verified=False,
        )
        with pytest.raises(RuntimeError, match="encoding verification failed for 1 "):
            pipeline.encode(test_set, config, context=context, verify=True)
        # an unverified flow takes the cached entry as it is
        unchecked = pipeline.encode(test_set, config, context=context, verify=False)
        assert not unchecked.verified
