"""MRC parsing against hand-packed fixtures, patch geometry, holdout
arithmetic, oversampling, stitching, netpbm output, and fusion."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seget.data import (
    CLASS_ORDER,
    PALETTE,
    DatasetSplit,
    Patch,
    extract_patches,
    fuse_probabilities,
    holdout_indices,
    manifest_lines,
    normalize,
    oversample_positive,
    parse_mrc,
    read_pgm,
    read_ppm,
    split_train_val,
    stitch_probabilities,
    window_origins,
    write_fused_ppm,
    write_mask_pgm,
)
from seget.errors import DataFormatError
from oracles import normalize_reference, weight_matrix_reference


def mrc_fixture(nx, ny, nz, mode=0, payload=b"", ext=b""):
    """Hand-packed header: extents at offsets 0/4/8, mode at 12, extended
    header length at 92; this generator shares nothing with the parser."""
    header = bytearray(1024)
    struct.pack_into("<i", header, 0, nx)
    struct.pack_into("<i", header, 4, ny)
    struct.pack_into("<i", header, 8, nz)
    struct.pack_into("<i", header, 12, mode)
    struct.pack_into("<i", header, 92, len(ext))
    return bytes(header) + ext + payload


class TestParseMrc:
    def test_mode0_fixture_grid(self):
        raw = mrc_fixture(4, 3, 2, payload=bytes(range(24)))
        vol = parse_mrc(raw)
        assert (vol.nx, vol.ny, vol.nz, vol.mode) == (4, 3, 2, 0)
        np.testing.assert_array_equal(vol.data[0, 0], [0, 1, 2, 3])
        np.testing.assert_array_equal(vol.data[0, 2], [8, 9, 10, 11])
        # sample (s, r, c) would sit at index s*ny*nx + r*nx + c
        assert vol.data[1, 1, 2] == 1 * 12 + 1 * 4 + 2

    def test_extended_header_offsets_data(self):
        ext = b"\xee" * 128
        raw = mrc_fixture(2, 2, 1, payload=bytes([10, 20, 30, 40]), ext=ext)
        vol = parse_mrc(raw)
        # data must be read from byte 1024 + 128 = 1152
        np.testing.assert_array_equal(vol.data[0], [[10, 20], [30, 40]])

    def test_payload_shortfall_names_missing_bytes(self):
        raw = mrc_fixture(4, 3, 100, payload=bytes(range(120)))  # 10 slices only
        with pytest.raises(DataFormatError, match="short by 1080 bytes"):
            parse_mrc(raw)

    def test_short_file_rejected(self):
        with pytest.raises(DataFormatError, match="1024"):
            parse_mrc(b"\x00" * 100)

    def test_unsupported_mode_rejected(self):
        with pytest.raises(DataFormatError, match="mode 6"):
            parse_mrc(mrc_fixture(1, 1, 1, mode=6, payload=b"\x00\x00"))

    def test_mode0_is_signed(self):
        raw = mrc_fixture(2, 1, 1, payload=bytes([0xFF, 0x7F]))
        np.testing.assert_array_equal(parse_mrc(raw).data[0, 0], [-1, 127])

    def test_mode1_and_mode2(self):
        p16 = struct.pack("<4h", -300, 0, 5, 300)
        vol = parse_mrc(mrc_fixture(2, 2, 1, mode=1, payload=p16))
        np.testing.assert_array_equal(vol.data[0], [[-300, 0], [5, 300]])
        p32 = struct.pack("<4f", -1.5, 0.0, 0.25, 8.0)
        vol = parse_mrc(mrc_fixture(2, 2, 1, mode=2, payload=p32))
        np.testing.assert_array_equal(vol.data[0], [[-1.5, 0.0], [0.25, 8.0]])

    @settings(max_examples=300, deadline=None)
    @given(
        cut=st.integers(0, 1024 + 512),
        flips=st.lists(st.tuples(st.integers(0, 1023), st.integers(0, 7)), max_size=4),
        payload_flip=st.integers(0, 511),
    )
    def test_fuzzed_mrc_parses_or_is_data_error(self, cut, flips, payload_flip):
        """Truncations and header bit flips of a valid 16x16x2 volume either
        parse or raise DataFormatError; no other exception escapes."""
        raw = bytearray(mrc_fixture(16, 16, 2, payload=bytes(range(256)) * 2))
        for pos, bit in flips:
            raw[pos] ^= 1 << bit
        raw[1024 + payload_flip] ^= 0x80
        try:
            vol = parse_mrc(bytes(raw[:cut]))
        except DataFormatError:
            return
        assert vol.data.shape == (vol.nz, vol.ny, vol.nx)

    @settings(max_examples=200, deadline=None)
    @given(header=st.binary(min_size=0, max_size=1100), tail=st.binary(max_size=64))
    def test_random_bytes_parse_or_are_data_error(self, header, tail):
        try:
            parse_mrc(header + tail)
        except DataFormatError:
            pass

    def test_header_fields_lossless(self):
        raw = mrc_fixture(4, 3, 2, payload=bytes(24))
        vol = parse_mrc(raw)
        nx, ny, nz = struct.unpack_from("<3i", vol.header, 0)
        (mode,) = struct.unpack_from("<i", vol.header, 12)
        assert (nx, ny, nz, mode) == (vol.nx, vol.ny, vol.nz, vol.mode)


class TestNormalize:
    def test_full_int8_range_maps_linearly(self):
        payload = bytes([0x80, 0x00, 0x7F])  # -128, 0, 127
        vol = parse_mrc(mrc_fixture(3, 1, 1, payload=payload))
        out = normalize(vol)
        np.testing.assert_allclose(out[0, 0], [0.0, 128 / 255, 1.0])

    def test_constant_volume_maps_to_half(self):
        vol = parse_mrc(mrc_fixture(2, 2, 1, payload=bytes([7] * 4)))
        np.testing.assert_array_equal(normalize(vol), np.full((1, 2, 2), 0.5))

    def test_output_extremes_are_exact(self):
        rng = np.random.default_rng(0)
        payload = bytes(rng.integers(0, 256, 64, dtype=np.uint8).tolist())
        out = normalize(parse_mrc(mrc_fixture(8, 8, 1, payload=payload)))
        assert out.min() == 0.0 and out.max() == 1.0

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), mode=st.sampled_from([0, 1, 2]), per_slice=st.booleans())
    def test_bytes_equal_the_out_of_place_formula(self, data, mode, per_slice):
        """int8, int16 and float32 volumes, some slices constant: the
        in-place scaling writes the bytes of (a - lo) / (hi - lo)."""
        dtype = {0: "<i1", 1: "<i2", 2: "<f4"}[mode]
        shape = data.draw(hnp.array_shapes(min_dims=3, max_dims=3, max_side=5))
        elements = (st.floats(width=32, allow_nan=False, allow_infinity=False)
                    if mode == 2 else None)
        a = data.draw(hnp.arrays(dtype, shape, elements=elements))
        for s in data.draw(st.lists(st.integers(0, shape[0] - 1), max_size=shape[0])):
            a[s] = a[s].flat[0]
        vol = parse_mrc(mrc_fixture(shape[2], shape[1], shape[0], mode=mode,
                                    payload=a.tobytes()))
        out = normalize(vol, per_slice=per_slice)
        assert out.dtype == np.float64
        assert out.tobytes() == normalize_reference(a, per_slice).tobytes()

    @pytest.mark.parametrize("per_slice", [False, True])
    def test_holds_only_its_output(self, per_slice):
        """The float64 copy is scaled in place: the peak is the output
        (4 MiB here) plus under 1 MiB, not two or three copies."""
        rng = np.random.default_rng(0)
        payload = rng.integers(-128, 128, 8 * 256 * 256, dtype=np.int8).tobytes()
        vol = parse_mrc(mrc_fixture(256, 256, 8, payload=payload))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = normalize(vol, per_slice=per_slice)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.nbytes == 4 * 2**20
        assert peak < out.nbytes + 2**20

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxels_are_data_errors(self, bad):
        """One NaN or infinity would make the whole min/max map NaN; the
        error names the count and the first voxel as (slice, y, x)."""
        data = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
        data[1, 2, 1] = bad
        data[1, 2, 3] = bad
        vol = parse_mrc(mrc_fixture(4, 3, 2, mode=2, payload=data.tobytes()))
        for per_slice in (False, True):
            with pytest.raises(DataFormatError, match=r"2 non-finite voxels.*slice 1, y 2, x 1"):
                normalize(vol, per_slice=per_slice)


class TestPatching:
    def test_2048_window512_stride256_gives_49(self):
        image = np.zeros((2048, 2048), dtype=np.float32)
        mask = np.zeros((2048, 2048), dtype=np.int8)
        patches = extract_patches(image, mask, window=512, stride=256)
        assert len(patches) == 49

    def test_1024_gives_9(self):
        assert len(window_origins(1024, 1024, 512, 256)) == 9

    def test_window_equal_to_slice_gives_one_patch(self):
        rng = np.random.default_rng(1)
        image = rng.random((64, 64))
        mask = (rng.random((64, 64)) > 0.9).astype(np.int8)
        patches = extract_patches(image, mask, window=64, stride=64)
        assert len(patches) == 1
        np.testing.assert_array_equal(patches[0].image, image)
        np.testing.assert_array_equal(patches[0].mask, mask)

    def test_window_larger_than_slice_rejected(self):
        with pytest.raises(DataFormatError, match="exceeds"):
            extract_patches(np.zeros((32, 32)), np.zeros((32, 32)), 64, 32)

    def test_provenance_is_injective(self):
        image = np.zeros((96, 96))
        mask = np.zeros((96, 96), dtype=np.int8)
        patches = extract_patches(image, mask, 32, 16, slice_index=3)
        keys = [(p.slice_index, p.y, p.x) for p in patches]
        assert len(keys) == len(set(keys))

    def test_weights_respect_loss_invariants(self):
        rng = np.random.default_rng(2)
        image = rng.random((64, 64))
        mask = (rng.random((64, 64)) > 0.97).astype(np.int8)
        for p in extract_patches(image, mask, 32, 32, weight_cap=50.0):
            assert np.all(p.weights[p.mask == 0] == 1.0)
            assert np.all(p.weights[p.mask == 1] >= 1.0)
            assert np.all(p.weights <= 50.0)

    @given(st.integers(32, 100), st.integers(8, 32), st.integers(4, 16))
    @settings(max_examples=40, deadline=None)
    def test_count_formula(self, extent, window, stride):
        if window > extent:
            return
        expected = ((extent - window) // stride + 1) ** 2
        assert len(window_origins(extent, extent, window, stride)) == expected


    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_edge_aligned_windows_cover_every_pixel(self, data):
        """For every window <= h, w and stride <= window (predict rejects a
        larger stride, which leaves gaps between windows)."""
        h, w = data.draw(st.integers(1, 80)), data.draw(st.integers(1, 80))
        window = data.draw(st.integers(1, min(h, w)))
        stride = data.draw(st.integers(1, window))
        origins = window_origins(h, w, window, stride, edge_aligned=True)
        cover = np.zeros((h, w), dtype=bool)
        for y, x in origins:
            assert 0 <= y <= h - window and 0 <= x <= w - window
            cover[y : y + window, x : x + window] = True
        assert cover.all()
        assert len(set(origins)) == len(origins)
        # the plain grid plus at most one edge window per axis
        grid = window_origins(h, w, window, stride)
        assert set(grid) <= set(origins)
        per_axis = [(e - window) // stride + 1 + ((e - window) % stride != 0) for e in (h, w)]
        assert len(origins) == per_axis[0] * per_axis[1]

    def test_edge_window_ends_at_far_edge(self):
        """100 px, window 64, stride 32: 0 and 32 leave 4 px, so 36 joins."""
        origins = window_origins(100, 100, 64, 32, edge_aligned=True)
        assert sorted({y for y, _ in origins}) == [0, 32, 36]
        assert len(window_origins(100, 100, 64, 32)) == 4


class TestPatchWindows:
    """Patches are read-only windows of the volume and the mask, and their
    weight matrix is built on demand from one foreground weight."""

    def _stack(self, seed=5, shape=(6, 32, 32)):
        rng = np.random.default_rng(seed)
        return rng.random(shape), (rng.random(shape) > 0.9).astype(np.int8)

    def test_patches_are_read_only_views_of_the_volume(self):
        images, masks = self._stack()
        split = split_train_val(images, masks, window=16, stride=8, period=5)
        direct = extract_patches(images[2], masks[2], 16, 8, slice_index=2)
        for p in split.train + split.val + direct:
            assert np.shares_memory(p.image, images) and np.shares_memory(p.mask, masks)
            window = (p.slice_index, slice(p.y, p.y + 16), slice(p.x, p.x + 16))
            np.testing.assert_array_equal(p.image, images[window])
            np.testing.assert_array_equal(p.mask, masks[window])
            with pytest.raises(ValueError, match="read-only"):
                p.image[0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                p.mask[0, 0] = 1
        assert images.flags.writeable and masks.flags.writeable

    def test_split_holds_no_copy_of_the_volume(self):
        """294 overlapping 64^2 windows over 3.5 MB of volume and mask: as
        copies with weight matrices they would hold 20 MB."""
        images, masks = self._stack(shape=(6, 256, 256))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            split = split_train_val(images, masks, window=64, stride=32)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(split.train) + len(split.val) == 294
        assert held < 1_000_000

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(1.0, 5000.0))
    @settings(max_examples=60, deadline=None)
    def test_weights_follow_the_per_pixel_rule(self, seed, density, cap):
        rng = np.random.default_rng(seed)
        mask = (rng.random((24, 24)) < density).astype(np.int8)
        for p in extract_patches(rng.random((24, 24)), mask, 8, 4, weight_cap=cap):
            assert p.weights.dtype == np.float64
            np.testing.assert_array_equal(p.weights, weight_matrix_reference(p.mask, cap))


class TestHoldout:
    def test_76_slices_period_5(self):
        train, val = holdout_indices(76, period=5)
        assert val == list(range(4, 76, 5))
        assert len(val) == 15 and len(train) == 61

    def test_5_slices(self):
        train, val = holdout_indices(5)
        assert val == [4] and len(train) == 4

    def test_4_slices_empty_val_warns(self, caplog):
        with caplog.at_level("WARNING"):
            train, val = holdout_indices(4)
        assert val == [] and len(train) == 4
        assert any("empty validation" in r.message for r in caplog.records)

    def test_phase_parameter(self):
        _, val = holdout_indices(10, period=5, phase=0)
        assert val == [0, 5]

    def test_partition_disjoint_and_covering(self):
        train, val = holdout_indices(29, period=4, phase=1)
        assert sorted(train + val) == list(range(29))

    def test_split_builds_patchsets(self):
        rng = np.random.default_rng(3)
        images = rng.random((6, 32, 32))
        masks = (rng.random((6, 32, 32)) > 0.9).astype(np.int8)
        split = split_train_val(images, masks, window=16, stride=16, period=5)
        assert isinstance(split, DatasetSplit)
        assert len(split.val) == 4       # 2x2 windows on one slice
        assert len(split.train) == 20
        assert {p.slice_index for p in split.val} == {4}


class TestOversample:
    def _patches(self, n, positives):
        out = []
        for i in range(n):
            mask = np.zeros((4, 4), dtype=np.int8)
            if i in positives:
                mask[0, 0] = 1
            out.append(Patch(np.full((4, 4), float(i)), mask,
                             1.0, slice_index=0, y=0, x=i))
        return out

    def test_copy_arithmetic(self):
        patches = self._patches(10, {0, 1})
        out = oversample_positive(patches, copies=4)
        assert len(out) == 18
        assert sum(p.positive for p in out) == 10

    def test_zero_copies_is_identity(self):
        patches = self._patches(5, {2})
        assert oversample_positive(patches, 0) == patches

    def test_all_negative_unchanged(self):
        patches = self._patches(6, set())
        assert len(oversample_positive(patches, 4)) == 6

    def test_pixel_values_never_altered(self):
        patches = self._patches(8, {1, 3})
        out = oversample_positive(patches, 2)
        originals = {p.image[0, 0] for p in patches}
        assert {p.image[0, 0] for p in out} == originals


class TestStitching:
    def test_restitching_overlapping_patches_reconstructs_slice(self):
        rng = np.random.default_rng(4)
        full = rng.random((32, 32))
        entries = [
            (full[y : y + 16, x : x + 16], y, x)
            for y, x in window_origins(32, 32, 16, 8)
        ]
        np.testing.assert_allclose(stitch_probabilities(entries, (32, 32)), full)

    def test_non_overlap_regions_equal_single_patch_values(self):
        a = np.full((4, 4), 0.2)
        b = np.full((4, 4), 0.8)
        out = stitch_probabilities([(a, 0, 0), (b, 0, 2)], (4, 6))
        np.testing.assert_allclose(out[:, :2], 0.2)
        np.testing.assert_allclose(out[:, 4:], 0.8)
        np.testing.assert_allclose(out[:, 2:4], 0.5)  # overlap averages

    def test_uncovered_pixels_default_zero_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            out = stitch_probabilities([(np.ones((2, 2)), 0, 0)], (4, 4))
        assert out[3, 3] == 0.0
        assert any("uncovered" in r.message for r in caplog.records)


class TestNetpbm:
    def test_pgm_layout_exact_bytes(self):
        mask = np.array([[1, 0], [0, 1]])
        raw = write_mask_pgm(mask)
        assert raw == b"P5\n2 2\n255\n" + bytes([0xFF, 0x00, 0x00, 0xFF])

    def test_pgm_rejects_non_binary(self):
        with pytest.raises(ValueError, match="binary"):
            write_mask_pgm(np.array([[2, 0]]))

    def test_pgm_round_trip(self):
        mask = (np.random.default_rng(5).random((7, 9)) > 0.5).astype(np.int64)
        back = read_pgm(write_mask_pgm(mask))
        np.testing.assert_array_equal(back, mask * 255)

    def test_ppm_all_background_is_black(self):
        raw = write_fused_ppm(np.zeros((3, 3), dtype=np.int64))
        assert raw == b"P6\n3 3\n255\n" + bytes(27)

    def test_palette_mts_is_red(self):
        idx = CLASS_ORDER.index("mts") + 1
        assert PALETTE[idx] == (255, 0, 0)
        raw = write_fused_ppm(np.full((1, 1), idx, dtype=np.int64))
        assert raw.endswith(bytes([255, 0, 0]))

    def test_ppm_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="palette"):
            write_fused_ppm(np.array([[9]]))

    def test_ppm_round_trip(self):
        classes = np.array([[0, 1, 2], [3, 4, 5]])
        rgb = read_ppm(write_fused_ppm(classes))
        for idx, color in PALETTE.items():
            pos = np.argwhere(classes == idx)
            if pos.size:
                np.testing.assert_array_equal(rgb[pos[0][0], pos[0][1]], color)


    @pytest.mark.parametrize("raw", [
        b"P5\n12",                  # truncated: height and maxval missing
        b"P5\n",                    # truncated: no fields at all
        b"P5\n4 4\n# comment",      # truncated inside a comment
        b"P5\nab 4 255\n",          # non-integer width
        b"P5\n4 4.0 255\n",         # non-integer height
        b"P5\n-4 4 255\n",          # negative width
        b"P5\n4 -1 255\n",          # negative height
        b"P5\n0 4 255\n",           # zero width
        b"P5\n4 0 255\n",           # zero height
        b"P5\n+2 1 255\n\0\0",      # sign is not part of the format
    ])
    def test_malformed_pgm_header_is_data_error(self, raw):
        with pytest.raises(DataFormatError):
            read_pgm(raw)

    def test_malformed_ppm_header_is_data_error(self):
        with pytest.raises(DataFormatError, match="not a decimal integer"):
            read_ppm(b"P6\n2 x 255\n")

    @settings(max_examples=300, deadline=None)
    @given(
        color=st.booleans(),
        h=st.integers(1, 5),
        w=st.integers(1, 5),
        cut=st.integers(0, 200),
        flips=st.lists(st.tuples(st.integers(0, 200), st.integers(0, 7)), max_size=4),
    )
    def test_fuzzed_netpbm_parses_or_is_data_error(self, color, h, w, cut, flips):
        """Truncations and bit flips of a valid file either parse or raise
        DataFormatError; no other exception escapes the reader."""
        if color:
            raw = bytearray(write_fused_ppm(np.zeros((h, w), dtype=np.int64)))
            reader = read_ppm
        else:
            raw = bytearray(write_mask_pgm(np.ones((h, w), dtype=np.int64)))
            reader = read_pgm
        for pos, bit in flips:
            raw[pos % len(raw)] ^= 1 << bit
        raw = bytes(raw[: min(cut, len(raw))])
        try:
            reader(raw)
        except DataFormatError:
            pass


class TestFuse:
    def test_argmax_among_candidates(self):
        probs = [np.full((1, 1, 1), v) for v in (0.9, 0.2, 0.1, 0.6, 0.3)]
        assert fuse_probabilities(probs).item() == 1  # synapse wins

    def test_no_candidate_is_background(self):
        probs = [np.full((1, 1, 1), v) for v in (0.5, 0.2, 0.1, 0.4, 0.3)]
        assert fuse_probabilities(probs).item() == 0

    def test_exact_tie_breaks_by_class_order(self):
        probs = [np.full((1, 1, 1), v) for v in (0.1, 0.8, 0.1, 0.1, 0.8)]
        assert fuse_probabilities(probs).item() == 2  # mts beats golgi

    def test_misaligned_stacks_rejected(self):
        with pytest.raises(DataFormatError, match="shape"):
            fuse_probabilities([np.zeros((2, 4, 4)), np.zeros((2, 4, 5))])


class TestManifest:
    def test_line_format(self):
        patches = [
            Patch(np.zeros((2, 2)), np.array([[1, 0], [0, 0]]),
                  3.0, slice_index=7, y=4, x=8)
        ]
        text = manifest_lines(patches)
        header, line = text.strip().splitlines()
        assert header.startswith("#")
        assert line == "7\t4\t8\t1\t3"
