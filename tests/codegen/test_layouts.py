"""Layout packing, address arithmetic and tile views."""

import numpy as np
import pytest

from repro.codegen.layouts import (
    Layout,
    element_offsets,
    pack_matrix,
    tile_view,
    unpack_matrix,
)

ALL_LAYOUTS = list(Layout)


def _matrix(K, M):
    return np.arange(K * M, dtype=np.float64).reshape(K, M)


class TestPackUnpack:
    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    def test_round_trip(self, layout):
        mat = _matrix(12, 8)
        flat = pack_matrix(mat, layout, bk=4, bm=4)
        assert flat.shape == (96,)
        back = unpack_matrix(flat, layout, 12, 8, 4, 4)
        np.testing.assert_array_equal(back, mat)

    def test_row_is_plain_row_major(self):
        mat = _matrix(3, 4)
        np.testing.assert_array_equal(pack_matrix(mat, Layout.ROW, 1, 1), mat.reshape(-1))

    def test_cbl_column_blocks_are_contiguous(self):
        # CBL: the whole first K x bm column block precedes the second.
        mat = _matrix(4, 6)
        flat = pack_matrix(mat, Layout.CBL, bk=2, bm=3)
        first_block = mat[:, :3].reshape(-1)
        np.testing.assert_array_equal(flat[:12], first_block)

    def test_rbl_subblocks_are_contiguous(self):
        # RBL: the first bk x bm sub-block is the first span.
        mat = _matrix(4, 6)
        flat = pack_matrix(mat, Layout.RBL, bk=2, bm=3)
        np.testing.assert_array_equal(flat[:6], mat[:2, :3].reshape(-1))

    def test_pack_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            pack_matrix(np.zeros(8), Layout.ROW, 1, 1)

    def test_pack_rejects_unaligned_width(self):
        with pytest.raises(ValueError, match="multiple"):
            pack_matrix(_matrix(4, 6), Layout.CBL, bk=2, bm=4)

    def test_rbl_rejects_unaligned_height(self):
        with pytest.raises(ValueError, match="multiple"):
            pack_matrix(_matrix(5, 6), Layout.RBL, bk=2, bm=3)

    def test_row_layout_ignores_blocking(self):
        mat = _matrix(5, 7)  # neither dimension block-aligned
        flat = pack_matrix(mat, Layout.ROW, bk=4, bm=4)
        assert flat.size == 35

    def test_unpack_rejects_wrong_size(self):
        with pytest.raises(ValueError, match="elements"):
            unpack_matrix(np.zeros(10), Layout.ROW, 3, 4, 1, 1)


class TestElementOffsets:
    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    def test_offsets_agree_with_pack(self, layout):
        """element_offsets is the address function of pack_matrix."""
        K, M, bk, bm = 8, 12, 4, 4
        mat = _matrix(K, M)
        flat = pack_matrix(mat, layout, bk, bm)
        kk, mm = np.meshgrid(np.arange(K), np.arange(M), indexing="ij")
        offs = element_offsets(layout, kk.reshape(-1), mm.reshape(-1), K, M, bk, bm)
        np.testing.assert_array_equal(flat[offs], mat.reshape(-1))

    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    def test_offsets_are_a_bijection(self, layout):
        K, M, bk, bm = 8, 12, 4, 4
        kk, mm = np.meshgrid(np.arange(K), np.arange(M), indexing="ij")
        offs = element_offsets(layout, kk.reshape(-1), mm.reshape(-1), K, M, bk, bm)
        assert sorted(offs) == list(range(K * M))


class TestTileView:
    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    def test_tile_contents(self, layout):
        K, M, bk, bm = 8, 12, 4, 4
        mat = _matrix(K, M)
        flat = pack_matrix(mat, layout, bk, bm)
        for kb in range(K // bk):
            for mb in range(M // bm):
                tile = tile_view(flat, layout, kb, mb, K, M, bk, bm)
                expected = mat[kb * bk:(kb + 1) * bk, mb * bm:(mb + 1) * bm]
                np.testing.assert_array_equal(tile, expected)

    @pytest.mark.parametrize("layout", ALL_LAYOUTS)
    def test_stacked_tiles_are_the_row_blocks_tiles(self, layout):
        K, M, bk, bm = 8, 12, 4, 4
        flat = pack_matrix(_matrix(K, M), layout, bk, bm)
        for kb in range(K // bk):
            stacked = tile_view(flat, layout, kb, None, K, M, bk, bm)
            assert stacked.shape == (M // bm, bk, bm)
            assert np.shares_memory(stacked, flat)
            for mb in range(M // bm):
                np.testing.assert_array_equal(
                    stacked[mb], tile_view(flat, layout, kb, mb, K, M, bk, bm)
                )

    @pytest.mark.parametrize("layout", [Layout.CBL, Layout.RBL])
    def test_block_major_tiles_are_views(self, layout):
        """The block-major layouts exist so tiles need no copy."""
        flat = pack_matrix(_matrix(8, 8), layout, 4, 4)
        tile = tile_view(flat, layout, 1, 1, 8, 8, 4, 4)
        assert tile.base is not None  # a view into flat, not a copy

    def test_out_of_range_tile(self):
        flat = pack_matrix(_matrix(8, 8), Layout.ROW, 4, 4)
        with pytest.raises(IndexError):
            tile_view(flat, Layout.ROW, 2, 0, 8, 8, 4, 4)


class TestLayoutEnum:
    def test_block_major_flag(self):
        assert not Layout.ROW.is_block_major
        assert Layout.CBL.is_block_major
        assert Layout.RBL.is_block_major

    def test_descriptions_exist(self):
        for layout in Layout:
            assert layout.contiguous_tile_elements
