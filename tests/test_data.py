import numpy as np
import pytest

from ftgamma.cli import main
from ftgamma.data import DataError, Sample, load_external_fraud, read_dataset


class TestSample:
    def test_validation(self):
        with pytest.raises(DataError):
            Sample(np.array([]))
        with pytest.raises(DataError):
            Sample(np.array([1.0, -2.0]))
        with pytest.raises(DataError):
            Sample(np.array([1.0, np.nan]))

    def test_values_are_frozen(self):
        s = Sample(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_standardized(self):
        s = Sample(np.array([2.0, 4.0]))
        y, m = s.standardized()
        assert m == 3.0
        assert np.allclose(y.values, [2 / 3, 4 / 3])
        assert y.provenance == "standardized"

    def test_resample_reproducible(self):
        s = Sample(np.arange(1.0, 21.0))
        a = s.resample(np.random.default_rng(5))
        b = s.resample(np.random.default_rng(5))
        assert np.array_equal(a.values, b.values)
        assert a.provenance == "bootstrap"
        assert set(a.values) <= set(s.values)

    def test_coerce_passthrough(self):
        s = Sample(np.array([1.0]))
        assert Sample.coerce(s) is s
        assert np.array_equal(Sample.coerce([1.0, 2.0]).values, [1.0, 2.0])


class TestReadDataset:
    def test_plain_file(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("1.5\n\n2.5\n3e2\n")
        ds = read_dataset(str(p))
        assert ds.format == "plain"
        assert np.allclose(ds.values, [1.5, 2.5, 300.0])

    def test_csv_with_header_by_name(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("loss,year\n1.5,2001\n2.5,2002\n")
        ds = read_dataset(str(p), column="loss")
        assert ds.format == "csv" and ds.column == "loss"
        assert np.allclose(ds.values, [1.5, 2.5])

    def test_csv_by_index(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1.0,9.0\n2.0,8.0\n")
        ds = read_dataset(str(p), column=1)
        assert np.allclose(ds.values, [9.0, 8.0])

    def test_csv_headerless_first_column(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("1.0,9.0\n2.0,8.0\n")
        assert np.allclose(read_dataset(str(p)).values, [1.0, 2.0])

    def test_bad_entries_listed(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("1.0\nnan\n-2.0\noops\n\ninf\n")
        with pytest.raises(DataError, match=r"4 .* \(lines 2, 3, 4, 6\)"):
            read_dataset(str(p))

    def test_short_csv_rows_listed(self, tmp_path, capsys):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n3\n4,5\n6\n")
        with pytest.raises(DataError, match=r"\(lines 3, 5\)"):
            read_dataset(str(p), column=1)
        assert main(["fit", "--data", str(p), "--column", "1"]) == 2
        assert "lines 3, 5" in capsys.readouterr().err

    def test_parsing_matches_float_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.pareto(0.7, 2000), rng.random(1000) * 1e300,
                            rng.random(1000) * 1e-300, [0.0, 0.1, 1e308]])
        tokens = list(map(repr, x.tolist()))
        want = np.array([float(t) for t in tokens])
        pad = ["", " ", "\t", "  "]
        plain = tmp_path / "x.txt"
        plain.write_text("".join(
            f"{pad[i % 4]}{t}{pad[(i + 1) % 4]}\n" + ("\n" if i % 97 == 0 else "")
            for i, t in enumerate(tokens)))
        csv = tmp_path / "x.csv"
        csv.write_text("year, loss\n" + "".join(
            f"{i}, {t} \n" + ("\n" if i % 89 == 0 else "")
            for i, t in enumerate(tokens)))
        for ds in (read_dataset(str(plain)), read_dataset(str(csv), column=1),
                   read_dataset(str(csv), column="loss")):
            assert ds.values.dtype == np.float64
            assert np.array_equal(ds.values, want)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="not found"):
            read_dataset(str(p), column="loss")


class TestBundledData:
    def test_shape_and_scaling(self):
        smp = load_external_fraud()
        assert len(smp) == 40
        assert smp.values.min() == 0.07
        assert smp.values.max() == 891.62
        # scaled to mean 100, up to two-decimal rounding of each entry
        assert abs(smp.mean - 100.0) < 0.01
