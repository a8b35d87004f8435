import numpy as np
import pytest

from taxonet import (
    CountTable,
    FilterError,
    LoadError,
    TransformError,
    clr_transform,
    filter_taxa,
    load_count_table,
    mclr_transform,
    write_count_table,
)
from taxonet.data import degenerate_taxa, drop_taxa, log_transform

from conftest import make_table


class TestLoad:
    def test_comma_table(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("sample,OTU1,OTU2,OTU3\ns1,1,2,3\ns2,4,5,6\n")
        t = load_count_table(path)
        assert t.taxa == ["OTU1", "OTU2", "OTU3"]
        assert t.samples == ["s1", "s2"]
        np.testing.assert_array_equal(t.values, [[1, 2, 3], [4, 5, 6]])

    def test_tab_wins_over_comma(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("sample\ta,x\tb\ns1\t1\t2\ns2\t3\t4\n")
        t = load_count_table(path)
        assert t.taxa == ["a,x", "b"]

    def test_all_zero_table_loads(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("s,a,b,c\nr1,0,0,0\nr2,0,0,0\nr3,0,0,0\n")
        t = load_count_table(path)
        assert t.n_samples == 3 and t.n_taxa == 3
        assert not t.values.any()

    def test_negative_cell_names_coordinates(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("s,OTU6,OTU7\nr1,1,2\nr2,3,-4\n")
        with pytest.raises(LoadError, match=r"sample 'r2', taxon 'OTU7'"):
            load_count_table(path)

    def test_negative_cell_in_taxa_in_rows_names_its_sample_and_taxon(self, tmp_path):
        path = tmp_path / "neg_t.csv"
        path.write_text("taxon,r1,r2\nOTU6,1,2\nOTU7,3,-4\n")
        with pytest.raises(LoadError, match=r"neg_t\.csv: negative value at sample 'r2', "
                                            r"taxon 'OTU7'"):
            load_count_table(path, orientation="taxa_in_rows")

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "txt.csv"
        path.write_text("s,a,b\nr1,1,x\n")
        with pytest.raises(LoadError, match=r"non-numeric.*'x'"):
            load_count_table(path)

    def test_missing_cell(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("s,a,b\nr1,1,\n")
        with pytest.raises(LoadError, match="missing"):
            load_count_table(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e309"])
    def test_non_finite_cell_names_coordinates(self, tmp_path, cell):
        path = tmp_path / "inf.csv"
        path.write_text(f"s,a,b\nr1,1,2\nr2,3,{cell}\n")
        with pytest.raises(LoadError, match=r"infinite value at sample 'r2', taxon 'b'"):
            load_count_table(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "rag.csv"
        path.write_text("s,a,b\nr1,1,2\nr2,3\n")
        with pytest.raises(LoadError, match="ragged"):
            load_count_table(path)

    def test_duplicate_header_label(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("s,a,a\nr1,1,2\n")
        with pytest.raises(LoadError, match="duplicate"):
            load_count_table(path)

    def test_orientation_transpose_round_trip(self, tmp_path, rng):
        # 55 taxa x 100 samples stored taxa-in-rows
        values = np.floor(rng.lognormal(1.5, 1.0, size=(100, 55)))
        t = make_table(values)
        path = tmp_path / "wide.tsv"
        with open(path, "w") as fh:
            fh.write("taxon\t" + "\t".join(t.samples) + "\n")
            for j, taxon in enumerate(t.taxa):
                fh.write(taxon + "\t" + "\t".join(str(v) for v in t.values[:, j]) + "\n")
        loaded = load_count_table(path, orientation="taxa_in_rows")
        assert loaded.n_samples == 100 and loaded.n_taxa == 55
        assert loaded.taxa == t.taxa and loaded.samples == t.samples
        np.testing.assert_array_equal(loaded.values, t.values)

    def test_write_load_round_trip(self, tmp_path, rng):
        t = make_table(rng.lognormal(0.0, 2.0, size=(7, 5)))
        path = tmp_path / "rt.tsv"
        write_count_table(t, path)
        back = load_count_table(path)
        np.testing.assert_array_equal(back.values, t.values)
        assert back.taxa == t.taxa and back.samples == t.samples

    def test_unknown_orientation(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("s,a,b\nr1,1,2\n")
        with pytest.raises(LoadError, match="orientation"):
            load_count_table(path, orientation="columns")


class TestCountTable:
    def test_duplicate_taxa_rejected(self):
        with pytest.raises(LoadError, match="duplicate taxon"):
            CountTable(values=np.ones((2, 2)), taxa=["a", "a"], samples=["r", "q"])

    def test_nan_rejected(self):
        with pytest.raises(LoadError, match="missing"):
            CountTable(
                values=np.array([[1.0, np.nan]]), taxa=["a", "b"], samples=["r"]
            )

    def test_infinite_rejected_with_coordinates(self):
        with pytest.raises(LoadError, match=r"infinite value at sample 'q', taxon 'a'"):
            CountTable(
                values=np.array([[1.0, 2.0], [np.inf, 1.0]]),
                taxa=["a", "b"],
                samples=["r", "q"],
            )

    def test_negative_rejected_with_coordinates(self):
        with pytest.raises(LoadError, match=r"sample 'q', taxon 'b'"):
            CountTable(
                values=np.array([[1.0, 2.0], [3.0, -1.0]]),
                taxa=["a", "b"],
                samples=["r", "q"],
            )


class TestFilter:
    def test_identity_when_thresholds_zero(self, small_table):
        out = filter_taxa(small_table, 0.0, 0.0)
        np.testing.assert_array_equal(out.values, small_table.values)
        assert out.taxa == small_table.taxa

    def test_prevalence_drops_rare_taxon(self):
        v = np.ones((10, 2))
        v[1:, 1] = 0.0   # present in 1 of 10 samples
        t = make_table(v)
        out = filter_taxa(t, min_prevalence=0.2)
        assert out.taxa == ["T00"]

    def test_matches_brute_force_scan(self, rng):
        v = np.floor(rng.lognormal(0, 1.5, size=(30, 20)))
        t = make_table(v)
        out = filter_taxa(t, min_prevalence=0.5, min_total=10.0)
        expected = [
            t.taxa[j]
            for j in range(20)
            if (v[:, j] > 0).sum() >= 0.5 * 30 and v[:, j].sum() >= 10.0
        ]
        assert out.taxa == expected

    def test_idempotent(self, small_table):
        once = filter_taxa(small_table, 0.3, 5.0)
        twice = filter_taxa(once, 0.3, 5.0)
        assert once.taxa == twice.taxa
        np.testing.assert_array_equal(once.values, twice.values)

    def test_all_dropped_raises(self):
        t = make_table(np.zeros((5, 3)))
        with pytest.raises(FilterError):
            filter_taxa(t, min_prevalence=0.1)


def reference_clr(v, pseudo):
    """Reference clr, one step at a time: close the rows to proportions,
    then take logs and subtract the row mean."""
    shifted = v + pseudo
    comp = shifted / shifted.sum(axis=1, keepdims=True)
    logs = np.log(comp)
    return logs - logs.mean(axis=1, keepdims=True)


def reference_mclr(v):
    nonzero = v > 0
    out = np.zeros_like(v, dtype=float)
    with np.errstate(divide="ignore"):
        logs = np.where(nonzero, np.log(np.where(nonzero, v, 1.0)), 0.0)
    row_means = logs.sum(axis=1) / nonzero.sum(axis=1)
    out[nonzero] = (logs - row_means[:, None])[nonzero]
    out[nonzero] += 1.0 - out[nonzero].min()
    return out


class TestComposition:
    """The row closure inside clr_transform: exp of a CLR row, closed
    again, gives back the proportions the row was closed to."""

    def test_uniform_row_no_pseudo(self):
        t = make_table(np.ones((1, 4)))
        out = np.exp(clr_transform(t, pseudo=0.0))
        comp = out / out.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(comp, 0.25)


class TestClr:
    def test_uniform_row_maps_to_zero(self):
        t = make_table(np.full((2, 5), 3.0))
        out = clr_transform(t, pseudo=0.0)
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_zero_row_forced_by_pseudo(self):
        t = make_table(np.zeros((1, 2)))
        np.testing.assert_array_equal(clr_transform(t, pseudo=0.5), [[0.0, 0.0]])

    def test_row_sums_zero(self, small_table):
        out = clr_transform(small_table, pseudo=0.5)
        np.testing.assert_allclose(out.sum(axis=1), 0.0, atol=1e-8)

    def test_hand_arithmetic(self):
        t = make_table(np.array([[2.0, 1.0, 1.0]]))
        out = clr_transform(t, pseudo=0.0)
        m = (np.log(0.5) + 2 * np.log(0.25)) / 3
        expected = [np.log(0.5) - m, np.log(0.25) - m, np.log(0.25) - m]
        np.testing.assert_allclose(out[0], expected)

    def test_hand_arithmetic_with_pseudo(self):
        t = make_table(np.array([[3.0, 1.0, 0.0]]))
        out = clr_transform(t, pseudo=0.5)
        logs = np.log([3.5 / 5.5, 1.5 / 5.5, 0.5 / 5.5])
        np.testing.assert_allclose(out[0], logs - logs.mean())

    def test_pseudo_zero_with_zeros_raises(self):
        t = make_table(np.array([[1.0, 0.0]]))
        with pytest.raises(TransformError, match="without zeros"):
            clr_transform(t, pseudo=0.0)

    def test_negative_pseudo_raises(self, small_table):
        with pytest.raises(TransformError, match="pseudo-count"):
            clr_transform(small_table, pseudo=-0.5)

    def test_overflowing_row_sum_raises(self):
        t = make_table(np.array([[1e308, 1e308, 1.0], [1.0, 2.0, 3.0]]))
        with pytest.raises(TransformError, match="strictly positive"):
            clr_transform(t)


class TestTransformBits:
    """clr and mclr give the bits of the reference arithmetic above."""

    @pytest.mark.parametrize("seed", range(6))
    def test_clr_and_mclr_match_reference_bits(self, seed):
        rng = np.random.default_rng(seed)
        n, p = rng.integers(3, 40), rng.integers(3, 30)
        dense = rng.lognormal(2.0, 1.5, size=(n, p))
        sparse = np.floor(rng.lognormal(1.0, 1.5, size=(n, p)))
        sparse[:, 0] += 1.0
        assert (sparse == 0).any()
        clr_dense = clr_transform(make_table(dense), pseudo=0.0)
        assert clr_dense.tobytes() == reference_clr(dense, 0.0).tobytes()
        for v in (dense, sparse):
            t = make_table(v)
            assert clr_transform(t, pseudo=0.5).tobytes() == reference_clr(v, 0.5).tobytes()
            assert mclr_transform(t).tobytes() == reference_mclr(v).tobytes()


class TestMclr:
    def test_zero_pattern_preserved(self, rng):
        v = np.floor(rng.lognormal(1.0, 1.2, size=(8, 6)))
        v[v < 1] = 0.0
        v[:, 0] += 1.0   # ensure no all-zero row
        t = make_table(v)
        out = mclr_transform(t)
        np.testing.assert_array_equal(out == 0.0, v == 0.0)

    def test_min_nonzero_is_one_under_auto(self, rng):
        v = np.floor(rng.lognormal(1.0, 1.5, size=(5, 4)))
        v[:, 0] += 1.0
        t = make_table(v)
        out = mclr_transform(t)
        nz = out[v > 0]
        assert abs(nz.min() - 1.0) < 1e-10

    def test_reduces_to_shifted_clr_without_zeros(self, rng):
        v = rng.lognormal(1.0, 0.8, size=(6, 5))
        t = make_table(v)
        out = mclr_transform(t)
        clr = clr_transform(t, pseudo=0.0)
        diff = out - clr
        assert np.ptp(diff) < 1e-9   # constant offset everywhere

    def test_all_zero_row_names_sample(self):
        v = np.ones((3, 3))
        v[1] = 0.0
        t = make_table(v)
        with pytest.raises(TransformError, match="s001"):
            mclr_transform(t)


class TestDegenerate:
    def test_constant_taxon_detected(self):
        v = np.column_stack([np.arange(1.0, 7.0), np.full(6, 2.0), np.arange(2.0, 8.0)])
        t = make_table(v)
        out = clr_transform(t, pseudo=0.5)
        # proportional columns stay non-degenerate after clr; force one
        frozen = out.copy()
        frozen[:, 1] = 0.7
        assert degenerate_taxa(frozen, t.taxa) == ["T01"]

    def test_drop_taxa(self, small_table):
        out = drop_taxa(small_table, [small_table.taxa[2]])
        assert small_table.taxa[2] not in out.taxa
        assert out.n_taxa == small_table.n_taxa - 1

    def test_drop_nothing_is_identity(self, small_table):
        assert drop_taxa(small_table, []) is small_table


class TestLog:
    def test_log_transform_values(self):
        t = make_table(np.array([[1.0, 3.0, 0.0]]))
        out = log_transform(t, pseudo=0.5)
        np.testing.assert_allclose(out, np.log([[1.5, 3.5, 0.5]]))

    def test_log_zero_pseudo_with_zeros(self):
        t = make_table(np.array([[1.0, 0.0]]))
        with pytest.raises(TransformError):
            log_transform(t, pseudo=0.0)
