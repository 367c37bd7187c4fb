import os
import threading
import tracemalloc
import warnings

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

    def test_callers_array_is_copied(self):
        x = np.array([1.0, 2.0])
        s = Sample(x)
        x[0] = 5.0
        assert s.values.tolist() == [1.0, 2.0]
        assert x.flags.writeable

    def test_library_made_values_are_frozen(self, tmp_path):
        # read, rescanned, resampled: each adopts the array made for it
        p = tmp_path / "x.txt"
        p.write_text("1_000\n2.5\n")
        made = [read_dataset(str(p)), load_external_fraud()]
        made.append(made[1].resample(np.random.default_rng(5)))
        for s in made:
            with pytest.raises(ValueError):
                s.values[0] = 5.0

    def test_resample_reproducible(self):
        s = Sample(np.arange(1.0, 21.0))
        a = s.resample(np.random.default_rng(5))
        b = s.resample(np.random.default_rng(5))
        assert np.array_equal(a.values, b.values)
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
        assert np.allclose(ds.values, [1.5, 2.5, 300.0])

    def test_csv_with_header_by_name(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("loss,year\n1.5,2001\n2.5,2002\n")
        ds = read_dataset(str(p), column="loss")
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

    @staticmethod
    def _multi_block_lines():
        # about 250 KiB of numbers with every fault past the first 9,000
        # lines, so the reader cannot stop at the file's head
        rng = np.random.default_rng(5)
        lines = list(map(repr, rng.pareto(1.0, 14_000).tolist()))
        faults = {9_000: "", 9_001: "oops", 9_500: "-2.5", 10_000: "nan", 12_000: "",
                  12_001: "1e400", 12_002: "x", 13_000: "-1", 13_001: "inf",
                  13_002: "?", 13_500: "-0.5", 13_998: "bad", 11_000: "-3",
                  13_999: "-7"}
        for i, t in faults.items():
            lines[i] = t
        # 1-based numbers of the non-blank faults
        bad = [i + 1 for i, t in sorted(faults.items()) if t]
        return lines, bad

    def test_faults_in_later_blocks_listed_by_line(self, tmp_path):
        lines, bad = self._multi_block_lines()
        plain = tmp_path / "x.txt"
        plain.write_text("\n".join(lines) + "\n")
        assert plain.stat().st_size > 3 * 65536
        head = ", ".join(map(str, bad[:10]))
        with pytest.raises(DataError, match=rf"{len(bad)} .* \(lines {head}, \.\.\.\)"):
            read_dataset(str(plain))
        # a header and a year column shift every line number by one
        csv = tmp_path / "x.csv"
        csv.write_text("year,loss\n" + "".join(
            f"{i},{t}\n" if t else "\n" for i, t in enumerate(lines)))
        head = ", ".join(str(i + 1) for i in bad[:10])
        for column in (1, "loss"):
            with pytest.raises(DataError, match=rf"\(lines {head}, \.\.\.\)"):
                read_dataset(str(csv), column=column)

    def test_crlf_files_parse(self, tmp_path):
        plain = tmp_path / "x.txt"
        plain.write_bytes(b"1.5\r\n\r\n2.5\r\n3e2\r\n")
        assert np.array_equal(read_dataset(str(plain)).values, [1.5, 2.5, 300.0])
        csv = tmp_path / "x.csv"
        csv.write_bytes(b"loss,year\r\n1.5,2001\r\n2.5,2002\r\n")
        ds = read_dataset(str(csv), column="loss")
        assert np.array_equal(ds.values, [1.5, 2.5])
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1.0\r\nfoo\r\n\r\n-3.0\r\n")
        with pytest.raises(DataError, match=r"\(lines 2, 4\)"):
            read_dataset(str(bad))

    @pytest.mark.parametrize("column", [None, "loss"])
    def test_header_only_csv(self, tmp_path, column):
        p = tmp_path / "x.csv"
        p.write_text("loss,year\n")
        with pytest.raises(DataError, match="no parseable values"):
            read_dataset(str(p), column=column)

    def test_parse_holds_no_list_of_lines(self, tmp_path):
        # NumPy's reader takes the lines one at a time and the Sample adopts
        # its result: the peak measured 1.38 times the values (the reader's
        # growing array, then Sample's checks), where a second copy made it
        # 2.13 times and a list of every line as Python strings would cost
        # about 12 times
        x = np.random.default_rng(3).pareto(1.0, 200_000)
        p = tmp_path / "x.txt"
        p.write_text("\n".join(map(repr, x.tolist())) + "\n")
        tracemalloc.start()
        try:
            ds = read_dataset(str(p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(ds.values, x)
        assert peak < 1.6 * ds.values.nbytes

    def test_tokens_only_float_reads(self, tmp_path):
        # digit-group underscores and non-ASCII digits: NumPy's reader
        # refuses them, float() reads them
        p = tmp_path / "x.txt"
        p.write_text("1_000\n\uff11\uff12\n3.5\n", encoding="utf-8")
        ds = read_dataset(str(p))
        assert ds.values.tolist() == [1000.0, 12.0, 3.5]

    def test_faults_numpy_reads_listed_by_line(self, tmp_path):
        # every fault is a number NumPy reads, so Sample refuses the values
        # and the line scan names the lines
        p = tmp_path / "x.txt"
        p.write_text("1.0\nnan\n2.0\n-2.5\n\n1e400\ninf\n3.0\n")
        assert np.loadtxt(str(p)).size == 7
        with pytest.raises(DataError, match=r": 4 .* \(lines 2, 4, 6, 7\)$"):
            read_dataset(str(p))

    def test_header_only_file_warns_nothing(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("loss,year\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no parseable values"):
                read_dataset(str(p))

    def test_compressed_suffix_is_read_as_text(self, tmp_path):
        # the reader opens the file itself: a .gz name is not decompressed
        p = tmp_path / "x.gz"
        p.write_text("1.5\n2.5\n")
        assert read_dataset(str(p)).values.tolist() == [1.5, 2.5]

    def test_plain_row_of_several_fields_listed(self, tmp_path):
        # a lone row "1 2" is one bad line, not the two numbers 1 and 2
        p = tmp_path / "x.txt"
        p.write_text("1 2\n")
        with pytest.raises(DataError, match=r"\(lines 1\)"):
            read_dataset(str(p))

    def test_column_past_every_row_listed(self, tmp_path, capsys):
        # an index too large for NumPy's reader still names every row
        p = tmp_path / "x.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        with pytest.raises(DataError, match=r": 2 .* \(lines 2, 3\)$"):
            read_dataset(str(p), column=10**30)
        assert main(["fit", "--data", str(p), "--column", str(10**30)]) == 2
        assert "lines 2, 3" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("text, want", [("1.5\n2.5\n", [1.5, 2.5]),
                                            ("1.0\nfoo\n", r"\(lines 2\)")])
    def test_named_pipe(self, tmp_path, text, want):
        # a pipe is read once, though the sniff and the line scan rewind
        fifo = tmp_path / "x.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            if isinstance(want, str):
                with pytest.raises(DataError, match=want):
                    read_dataset(str(fifo))
            else:
                assert read_dataset(str(fifo)).values.tolist() == want
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

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
