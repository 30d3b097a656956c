import logging
import os
import subprocess
import sys
from datetime import datetime

import numpy as np
import pytest

from vrpcast import acf, data_ingest, generate_synthetic, load_csv, radiance_to_vrp
from vrpcast.data_ingest import TimeSeries, save_csv, write_csv
from vrpcast.errors import DataFormatError, DegenerateDataError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRadianceToVrp:
    def test_unit_excess(self):
        assert radiance_to_vrp(3.0, 2.0) == pytest.approx(1.89e7)

    def test_zero_excess(self):
        assert radiance_to_vrp(5.5, 5.5) == 0.0

    def test_linear_scaling(self):
        assert radiance_to_vrp(4.5, 2.0) == pytest.approx(4.725e7)

    def test_shift_invariance(self, rng):
        for _ in range(50):
            a, b, c = rng.normal(size=3)
            assert radiance_to_vrp(a + c, b + c) == pytest.approx(
                radiance_to_vrp(a, b), rel=1e-9, abs=1e-3
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            radiance_to_vrp(float("nan"), 1.0)


class TestLoadCsv:
    def test_clean_rows_identity(self, tmp_path):
        path = write(tmp_path, "timestamp,vrp_watts\n"
                               "2020-01-01,1e8\n2020-01-02,2e8\n2020-01-03,3e8\n")
        series = load_csv(path)
        assert len(series) == 3
        np.testing.assert_array_equal(series.values, [1e8, 2e8, 3e8])

    def test_missing_rows_dropped(self, tmp_path):
        # 4,720 rows of which 7 have a blank value field
        rows = ["timestamp,vrp_watts"] + [
            f"2000-01-01T00:00:00.{i:06d},{'' if i % 700 == 3 else 1e8 + i}"
            for i in range(4720)
        ]
        series = load_csv(write(tmp_path, "\n".join(rows) + "\n"))
        assert len(series) == 4713

    def test_nan_value_dropped(self, tmp_path):
        path = write(tmp_path, "timestamp,vrp_watts\n2020-01-01,nan\n2020-01-02,5.0\n")
        series = load_csv(path)
        assert len(series) == 1
        assert np.all(np.isfinite(series.values))

    def test_malformed_value_reports_row(self, tmp_path):
        path = write(tmp_path, "timestamp,vrp_watts\n2020-01-01,1.0\n2020-01-02,oops\n")
        with pytest.raises(DataFormatError, match="row 3"):
            load_csv(path)

    def test_bad_timestamp_reports_row(self, tmp_path):
        path = write(tmp_path, "timestamp,vrp_watts\nnot-a-date,1.0\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_csv(path)

    def test_zero_usable_rows(self, tmp_path):
        path = write(tmp_path, "timestamp,vrp_watts\n2020-01-01,\n")
        with pytest.raises(DataFormatError, match="no usable rows"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_csv(tmp_path / "nope.csv")

    def test_radiance_mode(self, tmp_path):
        path = write(tmp_path, "timestamp,l_mir,l_mir_bk\n2020-01-01,3.0,2.0\n")
        series = load_csv(path, mode="radiance")
        assert series.values[0] == pytest.approx(1.89e7)

    def test_duplicate_timestamp_keeps_last(self, tmp_path):
        path = write(tmp_path, "timestamp,vrp_watts\n"
                               "2020-01-01,1.0\n2020-01-01,2.0\n2020-01-02,3.0\n")
        series = load_csv(path)
        assert len(series) == 2
        assert series.values[0] == 2.0

    def test_timestamps_strictly_increasing_after_sort(self, tmp_path):
        path = write(tmp_path, "timestamp,vrp_watts\n"
                               "2020-01-02,2.0\n2020-01-01,1.0\n")
        series = load_csv(path)
        assert series.timestamps[0] < series.timestamps[1]
        assert series.values[0] == 1.0

    def test_save_load_round_trip(self, tmp_path):
        series = generate_synthetic({"kind": "persistence_bursts", "n": 50}, 3)
        path = tmp_path / "rt.csv"
        save_csv(series, path)
        again = load_csv(path)
        np.testing.assert_array_equal(series.values, again.values)
        assert series.timestamps == again.timestamps


def loaded_line(caplog):
    """The loader's INFO summary line."""
    [line] = [r.getMessage() for r in caplog.records
              if r.levelno == logging.INFO and r.getMessage().startswith("loaded ")]
    return line


class TestLoadCsvContract:
    """What the loader accepts, drops and rejects, field by field."""

    def test_blank_and_whitespace_rows_dropped_and_counted(self, tmp_path, caplog):
        path = write(tmp_path, "timestamp,vrp_watts\n2020-01-01,1.0\n\n   \n,,\n , \n"
                               "\t,\n2020-01-02,2.0\n")
        with caplog.at_level(logging.INFO, logger="vrpcast.data_ingest"):
            series = load_csv(path)
        np.testing.assert_array_equal(series.values, [1.0, 2.0])
        assert "(5 dropped as missing/non-finite, 0 duplicates)" in loaded_line(caplog)

    @pytest.mark.parametrize("mode,row,message", [
        ("power", "2020-01-02,1.0,2.0", "row 3: expected 2 fields, got 3"),
        ("power", "2020-01-02", "row 3: expected 2 fields, got 1"),
        ("radiance", "2020-01-02,1.0", "row 3: expected 3 fields, got 2"),
    ])
    def test_wrong_field_count(self, tmp_path, mode, row, message):
        header = "timestamp,vrp_watts" if mode == "power" else "timestamp,l_mir,l_mir_bk"
        first = "2020-01-01,1.0" if mode == "power" else "2020-01-01,3.0,2.0"
        path = write(tmp_path, f"{header}\n{first}\n{row}\n2020-01-03,x\n")
        with pytest.raises(DataFormatError) as info:
            load_csv(path, mode=mode)
        assert str(info.value) == message

    @pytest.mark.parametrize("rows,message", [
        (["2020-01-01,1.0", " oops ", "2020-01-03,1.0", "bad,1.0"],
         "row 3: bad value ' oops '"),
        (["2020-01-01,1.0", "bad,1.0", "2020-01-03,1.0", "2020-01-04,oops"],
         "row 3: bad timestamp 'bad'"),
        (["2020-01-01,1.0", "2020-01-02,oops", "2020-01-03,1.0,2.0"],
         "row 3: bad value 'oops'"),
        (["2020-01-01,1.0", "2020-01-02,1.0,2.0", "2020-01-03,oops"],
         "row 3: expected 2 fields, got 3"),
        (["bad,oops"], "row 2: bad timestamp 'bad'"),
    ], ids=["value-then-timestamp", "timestamp-then-value", "value-then-count",
            "count-then-value", "both-in-one-row"])
    def test_first_bad_row_in_file_order_is_reported(self, tmp_path, rows, message):
        rows = [r if "," in r else f"2020-01-02,{r}" for r in rows]
        path = write(tmp_path, "timestamp,vrp_watts\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError) as info:
            load_csv(path)
        assert str(info.value) == message

    def test_missing_markers_and_infinities_dropped(self, tmp_path, caplog):
        markers = ["NA", "na", "Na", "null", "NULL", "None", "NONE", "n/a", "N/A", "",
                   "  ", "nan", "NaN", "inf", "-inf", "+Infinity"]
        rows = [f"2020-01-{i + 1:02d},{m}" for i, m in enumerate(markers)]
        rows.append("2020-02-01,7.5")
        path = write(tmp_path, "timestamp,vrp_watts\n" + "\n".join(rows) + "\n")
        with caplog.at_level(logging.INFO, logger="vrpcast.data_ingest"):
            series = load_csv(path)
        np.testing.assert_array_equal(series.values, [7.5])
        assert f"({len(markers)} dropped as missing/non-finite" in loaded_line(caplog)

    def test_timezone_aware_stamp_becomes_naive_utc(self, tmp_path):
        path = write(tmp_path, "timestamp,vrp_watts\n2020-01-01T05:00:00+05:00,1.0\n"
                               "2020-01-01T00:30:00Z,2.0\n")
        series = load_csv(path)
        assert series.timestamps == (datetime(2020, 1, 1, 0, 0), datetime(2020, 1, 1, 0, 30))
        assert all(ts.tzinfo is None for ts in series.timestamps)

    def test_padded_and_quoted_fields(self, tmp_path):
        path = write(tmp_path, 'timestamp,vrp_watts\n  2020-01-01 , 1.5 \n'
                               '"2020-01-02","2.5"\n"2020-01-03T00:00:00","3e2"\n')
        series = load_csv(path)
        assert series.timestamps == tuple(datetime(2020, 1, d) for d in (1, 2, 3))
        np.testing.assert_array_equal(series.values, [1.5, 2.5, 300.0])

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"timestamp,vrp_watts\r\n2020-01-01,1.0\r\n\r\n2020-01-02,2.0\r\n")
        series = load_csv(path)
        assert series.timestamps == (datetime(2020, 1, 1), datetime(2020, 1, 2))
        np.testing.assert_array_equal(series.values, [1.0, 2.0])

    def test_radiance_row_with_blank_radiance_dropped(self, tmp_path, caplog):
        path = write(tmp_path, "timestamp,l_mir,l_mir_bk\n2020-01-01,3.0,\n"
                               "2020-01-02,,2.0\n2020-01-03,4.5,2.0\n")
        with caplog.at_level(logging.INFO, logger="vrpcast.data_ingest"):
            series = load_csv(path, mode="radiance")
        assert series.timestamps == (datetime(2020, 1, 3),)
        assert series.values[0] == 1.89e7 * (4.5 - 2.0)
        assert "(2 dropped as missing/non-finite, 0 duplicates)" in loaded_line(caplog)

    def test_radiance_values_are_the_scalar_conversion(self, tmp_path, rng):
        pairs = rng.normal(5.0, 2.0, (200, 2))
        rows = [f"2020-01-01T00:{i // 60:02d}:{i % 60:02d},{a!r},{b!r}"
                for i, (a, b) in enumerate(pairs.tolist())]
        path = write(tmp_path, "timestamp,l_mir,l_mir_bk\n" + "\n".join(rows) + "\n")
        series = load_csv(path, mode="radiance")
        assert series.values.tolist() == [radiance_to_vrp(a, b) for a, b in pairs.tolist()]

    def test_unsorted_duplicates_keep_last_and_are_counted(self, tmp_path, caplog):
        path = write(tmp_path, "timestamp,vrp_watts\n2020-01-03,3\n2020-01-01,1\n"
                               "2020-01-02,2\n2020-01-01,10\n,\n2020-01-03,30\n"
                               "2020-01-01,100\n2020-01-04,nan\n")
        with caplog.at_level(logging.INFO, logger="vrpcast.data_ingest"):
            series = load_csv(path)
        assert series.timestamps == tuple(datetime(2020, 1, d) for d in (1, 2, 3))
        np.testing.assert_array_equal(series.values, [100.0, 2.0, 30.0])
        assert loaded_line(caplog) == (
            f"loaded 3 rows from {path} (2 dropped as missing/non-finite, 3 duplicates)")
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["duplicate timestamp 2020-01-01 00:00:00: keeping last occurrence"] * 2 \
            + ["duplicate timestamp 2020-01-03 00:00:00: keeping last occurrence"]

    def test_reading_in_chunks_changes_nothing(self, tmp_path, monkeypatch, caplog):
        rows = ["2020-01-05,5", "", "2020-01-01T05:00:00+05:00,1", "2020-01-02,NA",
                " , ", "2020-01-03,3", "2020-01-01,10", "2020-01-04,inf", "2020-01-06,6"]
        good = write(tmp_path, "timestamp,vrp_watts\n" + "\n".join(rows) + "\n", "good.csv")
        bad = write(tmp_path, "timestamp,vrp_watts\n" + "\n".join(rows + ["x,1", "2020-02-01,y"])
                    + "\n", "bad.csv")
        miscounted = write(tmp_path, "timestamp,vrp_watts\n" + "\n".join(rows + [",,", "1,2,3"])
                           + "\n", "miscounted.csv")
        results = []
        for chunk_rows in (data_ingest._CHUNK_ROWS, 1, 2, 4):
            monkeypatch.setattr(data_ingest, "_CHUNK_ROWS", chunk_rows)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="vrpcast.data_ingest"):
                series = load_csv(good)
            errors = []
            for path in (bad, miscounted):
                with pytest.raises(DataFormatError) as info:
                    load_csv(path)
                errors.append(str(info.value))
            results.append((series.timestamps, series.values.tolist(), loaded_line(caplog), errors))
        assert results[0][3] == ["row 11: bad timestamp 'x'", "row 12: expected 2 fields, got 3"]
        assert results[0][1] == [10.0, 3.0, 5.0, 6.0]
        assert all(result == results[0] for result in results[1:])


# Floats at the edges of repr's shortest round trip: signed zero, the
# smallest subnormal, the first power of ten repr writes with an exponent,
# the largest double, and a value with no exact binary form.
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1.7976931348623157e308, 0.1]


class TestWriters:
    def test_save_csv_bytes(self, tmp_path):
        stamps = (datetime(2020, 1, 1), datetime(2020, 1, 1, 0, 0, 0, 5),
                  datetime(2020, 1, 2, 3, 4, 5), datetime(2020, 1, 2, 3, 4, 5, 120000),
                  datetime(2021, 6, 30, 23, 59, 59, 999999))
        path = tmp_path / "series.csv"
        save_csv(TimeSeries(stamps, np.array(EDGE_FLOATS)), path)
        assert path.read_bytes() == (
            b"timestamp,vrp_watts\n"
            b"2020-01-01T00:00:00,-0.0\n"
            b"2020-01-01T00:00:00.000005,5e-324\n"
            b"2020-01-02T03:04:05,1e+16\n"
            b"2020-01-02T03:04:05.120000,1.7976931348623157e+308\n"
            b"2021-06-30T23:59:59.999999,0.1\n"
        )

    def test_write_csv_bytes(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["index", "count", "value", "label"],
                  [range(5), [0, -3, 10**20, 7, 2**63], np.array(EDGE_FLOATS),
                   ["a", "b c", "d", "e", "f"]])
        assert path.read_bytes() == (
            b"index,count,value,label\n"
            b"0,0,-0.0,a\n"
            b"1,-3,5e-324,b c\n"
            b"2,100000000000000000000,1e+16,d\n"
            b"3,7,1.7976931348623157e+308,e\n"
            b"4,9223372036854775808,0.1,f\n"
        )

    def test_write_csv_int_array_and_float_tuple(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["lag", "delta"], [np.arange(1, 4), (0.5, 1 / 3, 1e-7)])
        assert path.read_bytes() == b"lag,delta\n1,0.5\n2,0.3333333333333333\n3,1e-07\n"

    def test_write_csv_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["step", "forecast_watts"], [range(0), np.array([])])
        assert path.read_bytes() == b"step,forecast_watts\n"


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic({"kind": "white_noise", "n": 500}, 1)
        b = generate_synthetic({"kind": "white_noise", "n": 500}, 1)
        np.testing.assert_array_equal(a.values, b.values)

    def test_random_walk_is_cumsum_of_white_noise(self):
        noise = generate_synthetic({"kind": "white_noise", "n": 500}, 7)
        walk = generate_synthetic({"kind": "random_walk", "n": 500}, 7)
        np.testing.assert_allclose(walk.values, np.cumsum(noise.values), rtol=0, atol=0)

    def test_ar1_sample_autocorrelation(self):
        series = generate_synthetic({"kind": "ar", "n": 2000, "phi": [0.9]}, 3)
        sample_acf = acf(series.values, 1)
        assert sample_acf[1] == pytest.approx(0.9, abs=0.05)

    def test_unstable_ar_rejected(self):
        with pytest.raises(DegenerateDataError):
            generate_synthetic({"kind": "ar", "n": 100, "phi": [1.01]}, 0)
        with pytest.raises(DegenerateDataError):
            generate_synthetic({"kind": "ar", "n": 100, "phi": [0.6, 0.6]}, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_synthetic({"kind": "fractal", "n": 10}, 0)

    def test_requested_length(self):
        for kind in ("white_noise", "random_walk", "persistence_bursts"):
            assert len(generate_synthetic({"kind": kind, "n": 37}, 0)) == 37


def test_bench_io_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "bench_io.py"),
         "--repeats", "1", "--sizes", "50", "200"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.strip().splitlines()) == 2
