"""Unit tests for CSV persistence."""

import csv

import numpy as np
import pytest

from repro.datasets import Dataset, load_csv, save_csv, synthetic_bluenile
from repro.exceptions import DatasetError


class TestRoundTrip:
    def test_values_survive(self, tmp_path):
        original = Dataset(
            [[1.25, -3.5], [0.0, 99.0]], attributes=("x", "y"),
            higher_is_better=(True, False),
        )
        path = tmp_path / "data.csv"
        save_csv(original, path)
        loaded = load_csv(path)
        assert loaded == original

    def test_directions_survive(self, tmp_path):
        ds = synthetic_bluenile(n=20, normalize=False)
        path = tmp_path / "bn.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert loaded.higher_is_better == ds.higher_is_better
        assert loaded.attributes == ds.attributes

    def test_exact_float_round_trip(self, tmp_path):
        values = np.random.default_rng(0).random((10, 3))
        ds = Dataset(values)
        path = tmp_path / "floats.csv"
        save_csv(ds, path)
        assert np.array_equal(load_csv(path).values, values)

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "flights.csv"
        save_csv(Dataset([[1.0]]), path)
        assert load_csv(path).name == "flights"


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_csv(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetError):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("x,y\n")
        with pytest.raises(DatasetError):
            load_csv(path)

    def test_non_numeric_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,hello\n")
        with pytest.raises(DatasetError):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x,y\n1.0\n")
        with pytest.raises(DatasetError):
            load_csv(path)

    def test_comment_lines_ignored(self, tmp_path):
        path = tmp_path / "comments.csv"
        path.write_text("x,y\n# a note\n1.0,2.0\n")
        ds = load_csv(path)
        assert ds.n == 1
        assert all(ds.higher_is_better)

    def test_direction_row_length_mismatch(self, tmp_path):
        path = tmp_path / "dir.csv"
        path.write_text("x,y\n#direction:high\n1.0,2.0\n")
        with pytest.raises(DatasetError):
            load_csv(path)


class TestBulkParse:
    """The body goes through one np.loadtxt call; it must agree bit for bit
    with csv.reader plus float() per field, the parse it replaced."""

    FIELDS = [
        "5e-324", "4.9406564584124654e-324", "2.2250738585072011e-308",
        "2.2250738585072014e-308", "1.7976931348623157e+308", "0.30000000000000004",
        "9007199254740993", "-0.0", "+7", ".5", "5.", "1e5", "1E-5", "  3.25",
        "-1.5  ", '"1.25"', '"-0.0"',
    ]

    def test_matches_per_field_float(self, tmp_path):
        rng = np.random.default_rng(11)
        fields = list(self.FIELDS)
        fields += ["%.17g" % v for v in rng.random(60) * 10.0 ** rng.integers(-300, 300, 60)]
        fields += [repr(float(v)) for v in rng.random(20) * 1e-310]  # subnormals
        fields += ["1.0"] * (-len(fields) % 3)
        lines = [",".join(fields[i:i + 3]) for i in range(0, len(fields), 3)]
        path = tmp_path / "adversarial.csv"
        with path.open("w", newline="") as handle:
            handle.write("a,b,c\r\n")
            for i, line in enumerate(lines):
                handle.write(line + ("\r\n" if i % 2 else "\n"))
                if i == 3:
                    handle.write("#direction:high,low,high\r\n")
                if i % 5 == 0:
                    handle.write("# a note\n\n")
        expected = np.array(
            [[float(f) for f in next(csv.reader([line]))] for line in lines],
            dtype=np.float64,
        )
        loaded = load_csv(path)
        assert loaded.values.tobytes() == expected.tobytes()
        assert loaded.higher_is_better == (True, False, True)

    def test_digit_group_underscores_rejected(self, tmp_path):
        # float("1_000") is 1000.0, but save_csv never writes it and the
        # bulk parser does not accept it.
        path = tmp_path / "underscore.csv"
        path.write_text("x,y\n1_000,2.0\n")
        with pytest.raises(DatasetError):
            load_csv(path)
