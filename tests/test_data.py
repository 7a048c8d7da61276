import contextlib
import csv
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from neurofuzzy import data, synthetic
from neurofuzzy.data import (CLASS_LABELS, Dataset, binarize,
                             class_distribution, kfold, load_dataset,
                             normalize_label, passthrough, predefined_split,
                             split_from_json, split_stratified, split_to_json,
                             to_arrays)
from neurofuzzy.errors import DataLoadError, SplitError

HEADER = "STG,SCG,STR,LPR,PEG,UNS\n"


def write_csv(tmp_path, rows, header=HEADER, name="d.csv"):
    path = tmp_path / name
    path.write_text(header + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def make_samples(counts, seed=0):
    """An encoded Dataset with the requested per-class counts."""
    rng = np.random.default_rng(seed)
    X = np.where(rng.uniform(size=(sum(counts), 5)) < 0.5, -1.0, 1.0)
    return Dataset(X, np.repeat(np.arange(len(counts)), counts))


class TestNormalizeLabel:
    @pytest.mark.parametrize("text,expect", [
        ("very_low", 0), ("Very Low", 0), ("VERY-LOW", 0), ("VeryLow", 0),
        ("low", 1), ("Middle", 2), ("HIGH", 3),
    ])
    def test_accepted_spellings(self, text, expect):
        assert normalize_label(text) == expect

    def test_unknown_is_none(self):
        assert normalize_label("medium") is None


class TestLoadDataset:
    def test_all_zero_row(self, tmp_path):
        path = write_csv(tmp_path, ["0.0,0.0,0.0,0.0,0.0,very_low"])
        samples = load_dataset(path)
        assert len(samples) == 1
        assert samples.X.tolist() == [[0.0, 0.0, 0.0, 0.0, 0.0]]
        assert samples.labels.tolist() == [CLASS_LABELS.index("VeryLow")]

    def test_header_order_is_respected(self, tmp_path):
        path = write_csv(tmp_path, ["High,0.9,0.1,0.2,0.3,0.4"],
                         header="UNS,PEG,STG,SCG,STR,LPR\n")
        s = load_dataset(path)
        # columns in ATTRIBUTES order: STG, SCG, STR, LPR, PEG
        assert s.X.tolist() == [[0.1, 0.2, 0.3, 0.4, 0.9]]
        assert s.labels.tolist() == [3]

    def test_non_numeric_cites_row_and_column(self, tmp_path):
        path = write_csv(tmp_path, ["0.1,0.2,0.3,0.4,0.5,low",
                                    "0.3,0.2,abc,0.1,0.5,low"])
        with pytest.raises(DataLoadError, match=r"row 2.*STR"):
            load_dataset(path)

    def test_out_of_range_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["0.1,1.2,0.3,0.4,0.5,low"])
        with pytest.raises(DataLoadError, match=r"SCG.*outside"):
            load_dataset(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["0.1,0.2,0.3,0.4,0.5,extreme"])
        with pytest.raises(DataLoadError, match="unknown label"):
            load_dataset(path)

    def test_each_label_text_normalized_once(self, tmp_path, monkeypatch):
        texts = []
        monkeypatch.setattr(data, "normalize_label",
                            lambda text: texts.append(text) or normalize_label(text))
        path = write_csv(tmp_path, [f"0.1,0.2,0.3,0.4,0.5,{label}" for label in (
            "low", "High", "low", " low ", "High", "very_low")])
        assert load_dataset(path).labels.tolist() == [1, 3, 1, 1, 3, 0]
        assert texts == ["low", "High", "very_low"]

    def test_missing_column_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["0.1,0.2,0.3,0.4,low"],
                         header="STG,SCG,STR,LPR,UNS\n")
        with pytest.raises(DataLoadError, match="missing column PEG"):
            load_dataset(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataLoadError, match="not found"):
            load_dataset(tmp_path / "absent.csv")

    def test_bundled_fixture_has_403_samples(self):
        samples = load_dataset("data/ukm_synthetic.csv")
        assert len(samples) == 403


GOOD = "0.1,0.2,0.3,0.4,0.5,low"


class TestLoadMessages:
    """The exact load errors; a file with several faults names the first in
    row-then-column order, attributes in ATTRIBUTES order before the label."""

    @pytest.mark.parametrize("rows, message", [
        (["0.1,0.2,0.3,0.4"], "data row 1, column PEG: missing value"),
        (["0.1,0.2,abc,0.4,0.5,low"],
         "data row 1, column STR: non-numeric value 'abc'"),
        (["0.1,1.2,0.3,0.4,0.5,low"],
         "data row 1, column SCG: value 1.2 outside [0, 1]"),
        (["0.1,0.2,0.3,0.4,0.5,extreme"],
         "data row 1, column UNS: unknown label 'extreme'"),
        (["0.1,0.2,0.3,0.4,0.5"], "data row 1, column UNS: unknown label ''"),
        (["0.1,0.2,0.3,0.4,nan,low"],
         "data row 1, column PEG: value nan outside [0, 1]"),
        ([GOOD, GOOD, "0.1,0.2,0.3,1.5,0.5,low", GOOD,
          "0.1,0.2,0.3,0.4,0.5,expert"],
         "data row 3, column LPR: value 1.5 outside [0, 1]"),
        ([GOOD, GOOD, "0.1,0.2,0.3,0.4,0.5,expert", GOOD,
          "0.1,0.2,0.3,1.5,0.5,low"],
         "data row 3, column UNS: unknown label 'expert'"),
        (["0.1,-0.2,0.3,0.4,x,expert"],
         "data row 1, column SCG: value -0.2 outside [0, 1]"),
        (["0.1,0.2,0.3,0.4,x,expert"],
         "data row 1, column PEG: non-numeric value 'x'"),
    ], ids=["short-row", "non-numeric", "out-of-range", "unknown-label",
            "no-label", "nan", "range-then-label", "label-then-range",
            "two-in-one-row", "attribute-before-label"])
    def test_message(self, tmp_path, rows, message):
        path = write_csv(tmp_path, rows)
        with pytest.raises(DataLoadError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: {message}"

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path, [], header="")
        with pytest.raises(DataLoadError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: file is empty"

    def test_duplicated_column(self, tmp_path):
        path = write_csv(tmp_path, ["0.1,0.2,0.3,0.4,0.5,0.5,low"],
                         header="STG,SCG,STR,LPR,PEG,stg,UNS\n")
        with pytest.raises(DataLoadError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: duplicated column STG"


def loaded(path, per_cell=False):
    """What ``load_dataset`` gives: (X bytes, X shape, labels), or the
    raised error's type and message.  ``per_cell`` runs the per-cell
    loop alone, with the numpy pass declining every file."""
    decline = mock.patch.object(data, "_read_columns", return_value=None)
    with decline if per_cell else contextlib.nullcontext():
        try:
            ds = load_dataset(path)
        except Exception as exc:                # compared as type and message
            return type(exc).__name__, str(exc)
    return ds.X.tobytes(), ds.X.shape, ds.labels.tolist()


def write_raw(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


ROW = "0.1,0.2,0.3,0.4,0.5,low"
LONG = "x" * (csv.field_size_limit() + 1)       # one over the csv module's limit

# name: file text; each loads to the same Dataset or error either way
EDGE_FILES = {
    "quoted-cells": HEADER + '"0.1","0.2",0.3,0.4,0.5,"low"\n',
    "space-quoted": HEADER + '0.1, "0.2",0.3,0.4,0.5,low\n',
    "space-quoted-label": HEADER + '0.1,0.2,0.3,0.4,0.5, "low"\n',
    "doubled-quote": HEADER + '0.1,0.2,0.3,0.4,0.5,"lo""w"\n',
    "comma-in-quoted-label": HEADER + '0.1,0.2,0.3,0.4,0.5,"very,low"\n',
    "quoted-newline-label": HEADER + '0.1,0.2,0.3,0.4,0.5,"very\nlow"\n' + ROW + "\n",
    "quoted-newline-header": '"STG\n",SCG,STR,LPR,PEG,UNS\n' + ROW + "\n",
    "crlf": (HEADER + ROW + "\n" + ROW + "\n").replace("\n", "\r\n"),
    "bare-cr": (HEADER + ROW + "\n" + ROW + "\n").replace("\n", "\r"),
    "whitespace-only-line": HEADER + ROW + "\n   \n" + ROW + "\n",
    "blank-cells-row": HEADER + ROW + "\n , ,,,,\n" + ROW + "\n",
    "trailing-comma": HEADER + ROW + ",\n",
    "extra-column": "STG,SCG,STR,LPR,PEG,UNS,NOTE\n" + ROW + ",x\n" + ROW + "\n",
    "reordered-header": "UNS,PEG,LPR,STR,SCG,STG\nhigh,0.5,0.4,0.3,0.2,0.1\n",
    "hash": HEADER + ROW + "\n#0.1,0.2,0.3,0.4,0.5,low\n",
    "nan": HEADER + "0.1,0.2,nan,0.4,0.5,low\n",
    "infinity": HEADER + "0.1,0.2,0.3,Infinity,0.5,low\n",
    "negative-zero": HEADER + "-0,0.2,0.3,0.4,-0.0,low\n",
    "underscore-digits": HEADER + "0.1,0_4,0.3,0.4,0.5,low\n",
    "arabic-digit": HEADER + "0.1,\u0661,0.3,0.4,0.5,low\n",
    "no-break-space": HEADER + "0.1,\u00a00.2\u00a0,0.3,0.4,0.5,\u00a0low\n",
    "number-forms": HEADER + "+.5,5E-1, 0.30000000000000004 ,1.,0.1e1,High\n",
    "padded-label": HEADER + ROW.replace("low", "  Very-Low\t") + "\n",
    "short-row": HEADER + ROW + "\n0.1,0.2,0.3\n",
    "empty-label": HEADER + "0.1,0.2,0.3,0.4,0.5,\n",
    "header-only": HEADER,
    "no-trailing-newline": HEADER + ROW + "\n" + ROW,
    "field-over-csv-limit": HEADER.replace("UNS", "UNS,NOTE") + ROW + ","
                            + "x" * (csv.field_size_limit() + 1) + "\n",
    "quoted-field-over-csv-limit": HEADER.replace("UNS", "UNS,NOTE") + ROW + ',"'
                                   + "x\n" * (csv.field_size_limit() // 2 + 1) + '"\n',
}


NUMBER = st.one_of(
    st.floats(0, 1).map(repr), st.floats(0, 1).map("{:.2f}".format),
    st.floats(0, 1).map("{:.17g}".format),
    st.sampled_from(["+.5", "5E-1", " 0.5 ", '"0.5"', "-0", "1", "0", "\u00a00.5"]))
WELL_FORMED_ROW = st.builds(
    lambda cells, label, extra: ",".join(cells + [label] + extra),
    st.lists(NUMBER, min_size=5, max_size=5),
    st.sampled_from(["low", "High", " middle ", "very_low", '"Very Low"',
                     '"lo\nw"', "VERY-LOW", '"hi""gh"']),
    st.lists(st.sampled_from(["", "x", '"a,b"']), max_size=1))
CELL = st.one_of(
    NUMBER, st.floats(-1, 2).map("{:.17g}".format),
    st.sampled_from(["1_0", "nan", "inf", "", " ", "abc", "\u0661", '0.5"',
                     "1e999", "#", ' "low"', "low,", "expert"]),
    st.text(alphabet='01.5e-+ ,"\r\n\t_lowhigLW\u00a0', max_size=6))
ANY_ROW = st.lists(CELL, max_size=7).map(",".join)


class TestLoadPaths:
    """The numpy pass against the per-cell loop it falls back to."""

    @pytest.mark.parametrize("text", EDGE_FILES.values(), ids=EDGE_FILES.keys())
    def test_edge_file_loads_as_the_loop_does(self, tmp_path, text):
        path = write_raw(tmp_path, text)
        assert loaded(path) == loaded(path, per_cell=True)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(WELL_FORMED_ROW, WELL_FORMED_ROW, ANY_ROW), max_size=6),
           st.sampled_from(["\n", "\r\n", "\r"]))
    def test_any_file_loads_as_the_loop_does(self, tmp_path, rows, newline):
        text = newline.join([HEADER.strip()] + rows) + newline
        path = write_raw(tmp_path, text)
        assert loaded(path) == loaded(path, per_cell=True)

    @pytest.mark.parametrize("name", [
        "bundled", "cohort", "quoted-cells", "crlf", "extra-column",
        "reordered-header", "padded-label", "number-forms", "no-break-space",
        "no-trailing-newline"])
    def test_well_formed_file_never_reaches_the_loop(self, tmp_path, name):
        if name == "bundled":
            path = "data/ukm_synthetic.csv"
        elif name == "cohort":
            path = tmp_path / "cohort.csv"
            synthetic.write_csv(synthetic.generate((500, 500, 500, 500)), path)
        else:
            path = write_raw(tmp_path, EDGE_FILES[name])
        returned, read_columns = [], data._read_columns
        with mock.patch.object(data, "_read_columns",
                               lambda *args: returned.append(read_columns(*args))
                               or returned[0]):
            ds = load_dataset(path)
        assert returned == [ds]           # the numpy pass's Dataset, not the loop's

    def test_header_only_file_leaks_no_warning(self, tmp_path, recwarn):
        assert len(load_dataset(write_raw(tmp_path, HEADER))) == 0
        assert not recwarn.list

    @pytest.mark.parametrize("raw, byte, reason", [
        (HEADER.encode() + b"0.1,0.2,0.3,0.4,0.5,l\xffow\n", 0xff, "invalid start byte"),
        (b"STG,SCG,STR,LPR,PEG,UNS\xe9\n" + ROW.encode() + b"\n", 0xe9,
         "invalid continuation byte"),
        # past the text reader's first chunk, a sequence cut off at the end
        (HEADER.encode() + (ROW + "\r").encode() * 2000 + b"0.1,0.2,0.3,0.4,0.5,\xc3",
         0xc3, "unexpected end of data"),
    ], ids=["label", "header", "far-into-file"])
    def test_bytes_not_utf8_are_a_load_error(self, tmp_path, raw, byte, reason):
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        message = f"{path}: not UTF-8 text ({reason}, byte 0x{byte:02x})"
        assert loaded(path) == loaded(path, per_cell=True) == ("DataLoadError", message)

    @pytest.mark.parametrize("text, where", [
        (f"{ROW},x\n{ROW},{LONG}\n", "data row 2"),
        (f'{ROW},x\n\n{ROW},"{LONG[::2]}\n{LONG[::2]}"\n', "data row 3"),
        (f"{ROW},{LONG}", "data row 1"),
        (f"{ROW},x\n", "header"),
    ], ids=["unquoted", "quoted-over-lines", "no-trailing-newline", "header"])
    def test_field_over_csv_limit_names_its_row(self, tmp_path, text, where):
        header = "STG,SCG,STR,LPR,PEG,UNS," + (LONG if where == "header" else "NOTE")
        path = write_raw(tmp_path, header + "\n" + text)
        message = (f"{path}: {where}: field larger than field limit "
                   f"({csv.field_size_limit()})")
        assert loaded(path) == loaded(path, per_cell=True) == ("DataLoadError", message)


class TestBinarize:
    def test_threshold_rules(self, tmp_path):
        path = write_csv(tmp_path, ["0.3,0.8,0.5,0.0,1.0,middle"])
        encoded = binarize(load_dataset(path))
        # below -> -1, above -> +1, exactly 0.5 -> +1
        np.testing.assert_array_equal(encoded.X, [[-1.0, 1.0, 1.0, -1.0, 1.0]])

    def test_label_expansion(self, tmp_path):
        path = write_csv(tmp_path, ["0.3,0.8,0.5,0.0,1.0,middle"])
        _, values, onehot, labels = to_arrays(binarize(load_dataset(path)))
        assert labels.tolist() == [2]
        assert values.tolist() == [3.0]
        np.testing.assert_array_equal(onehot, [[0, 0, 1, 0]])

    def test_invalid_threshold_rejected(self, tmp_path):
        path = write_csv(tmp_path, ["0.3,0.8,0.5,0.0,1.0,middle"])
        with pytest.raises(ValueError):
            binarize(load_dataset(path), threshold=1.0)

    def test_resigning_encoded_features_is_stable(self):
        # thresholding the encoded features at 0 reproduces them
        samples = make_samples([3, 3, 3, 3])
        feats = samples.X
        np.testing.assert_array_equal(np.where(feats >= 0, 1.0, -1.0), feats)

    def test_passthrough_keeps_decimals(self, tmp_path):
        path = write_csv(tmp_path, ["0.3,0.8,0.5,0.0,1.0,middle"])
        s = passthrough(load_dataset(path))
        np.testing.assert_allclose(s.X, [[0.3, 0.8, 0.5, 0.0, 1.0]])


class TestSplitStratified:
    def test_403_sample_shape(self):
        samples = make_samples([50, 129, 122, 102])
        split = split_stratified(samples, 0.8, seed=1)
        assert len(split.train) + len(split.test) == 403
        assert len(split.test) in (80, 81)

    def test_exact_proportion_single_class(self):
        samples = make_samples([10, 0, 0, 0])
        split = split_stratified(samples, 0.8, seed=0)
        assert len(split.train) == 8 and len(split.test) == 2

    def test_per_class_counts_near_ratio(self):
        samples = make_samples([50, 129, 122, 102])
        split = split_stratified(samples, 0.8, seed=5)
        for c, n in enumerate([50, 129, 122, 102]):
            got = class_distribution(split.train)[c]
            assert abs(got - 0.8 * n) <= 1.0

    def test_disjoint_and_complete(self):
        samples = make_samples([20, 20, 20, 20])
        split = split_stratified(samples, 0.7, seed=2)
        train, test = set(split.train_indices), set(split.test_indices)
        assert not train & test
        assert train | test == set(range(80))

    def test_deterministic_per_seed(self):
        samples = make_samples([20, 20, 20, 20])
        a = split_stratified(samples, 0.8, seed=9)
        b = split_stratified(samples, 0.8, seed=9)
        assert a.train_indices == b.train_indices
        assert a.test_indices == b.test_indices
        assert split_to_json(a) == split_to_json(b)

    def test_bad_inputs_rejected(self):
        with pytest.raises(SplitError):
            split_stratified([], 0.8, seed=0)
        with pytest.raises(SplitError):
            split_stratified(make_samples([4, 4, 4, 4]), 1.5, seed=0)


class TestPredefinedSplit:
    def test_block_split(self):
        samples = make_samples([100, 100, 100, 103])
        split = predefined_split(samples, train_count=258)
        assert len(split.train) == 258 and len(split.test) == 145
        assert split.train_indices == list(range(258))

    def test_invalid_count_rejected(self):
        with pytest.raises(SplitError):
            predefined_split(make_samples([2, 2, 2, 2]), train_count=8)


class TestKfold:
    def test_equal_partition(self):
        samples = make_samples([25, 25, 25, 25])
        folds = kfold(samples, 5, seed=0)
        assert len(folds) == 5
        assert all(len(f.test) == 20 for f in folds)

    def test_folds_cover_everything(self):
        samples = make_samples([11, 13, 17, 19])
        folds = kfold(samples, 4, seed=3)
        union = set()
        for f in folds:
            assert not union & set(f.test_indices)
            union |= set(f.test_indices)
        assert union == set(range(60))

    def test_train_is_complement(self):
        samples = make_samples([10, 10, 10, 10])
        for f in kfold(samples, 5, seed=1):
            assert sorted(f.train_indices + f.test_indices) == list(range(40))

    def test_deterministic_per_seed(self):
        samples = make_samples([12, 12, 12, 12])
        a = kfold(samples, 3, seed=4)
        b = kfold(samples, 3, seed=4)
        assert [f.test_indices for f in a] == [f.test_indices for f in b]

    def test_small_class_rejected(self):
        samples = make_samples([2, 10, 10, 10])
        with pytest.raises(SplitError, match="VeryLow"):
            kfold(samples, 5, seed=0)

    def test_absent_class_is_skipped(self):
        folds = kfold(make_samples([10, 0, 10, 10]), 5, seed=0)
        assert sorted(i for f in folds for i in f.test_indices) == list(range(30))

    @pytest.mark.parametrize("counts, k, message", [
        ([10, 10, 10, 10], 1, "k must be >= 2, got 1"),
        ([10, 10, 10, 10], 0, "k must be >= 2, got 0"),
        ([0, 0, 0, 0], 5, "cannot split an empty sample list"),
    ], ids=["one-fold", "no-folds", "no-rows"])
    def test_bad_inputs_rejected(self, counts, k, message):
        with pytest.raises(SplitError, match=message):
            kfold(make_samples(counts), k, seed=0)


class TestClassDistribution:
    def test_counts_and_sum(self):
        samples = make_samples([3, 1, 0, 2])
        counts = class_distribution(samples)
        assert counts == (3, 1, 0, 2)
        assert sum(counts) == len(samples)

    def test_empty(self):
        assert class_distribution(Dataset(np.empty((0, 5)), [])) == (0, 0, 0, 0)


class TestDataset:
    def test_one_hot_matches_index(self):
        _, values, onehot, _ = to_arrays(Dataset(np.ones((1, 5)), [3]))
        assert values.tolist() == [4.0]
        assert onehot.sum() == 1.0
        assert onehot[0, 3] == 1.0

    @pytest.mark.parametrize("label", [4, -1])
    def test_bad_index_rejected(self, label):
        with pytest.raises(ValueError, match="out of range"):
            Dataset(np.ones((2, 5)), [0, label])

    @pytest.mark.parametrize("X, labels", [
        (np.ones((3, 5)), [0, 1]), (np.ones(5), [0] * 5),
        (np.ones((2, 5)), [[0], [1]])])
    def test_shape_mismatch_rejected(self, X, labels):
        with pytest.raises(ValueError, match="do not match"):
            Dataset(X, labels)

    def test_take_keeps_rows_with_their_labels(self):
        samples = make_samples([2, 2, 2, 2], seed=3)
        part = samples.take([6, 1, 6])
        np.testing.assert_array_equal(part.X, samples.X[[6, 1, 6]])
        assert part.labels.tolist() == [3, 0, 3]
        assert len(part) == 3 and len(samples.take([])) == 0

    def test_to_arrays_shapes(self):
        X, values, onehot, labels = to_arrays(make_samples([2, 2, 2, 2]))
        assert X.shape == (8, 5)
        assert values.tolist() == [1, 1, 2, 2, 3, 3, 4, 4]
        assert onehot.shape == (8, 4)
        assert labels.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]


class TestSplitSerialization:
    def test_round_trip(self):
        samples = make_samples([6, 6, 6, 6])
        split = split_stratified(samples, 0.75, seed=8)
        text = split_to_json(split)
        back = split_from_json(text, samples)
        assert back.train_indices == split.train_indices
        assert back.test_indices == split.test_indices
        assert split_to_json(back) == text

    def test_json_fields(self):
        split = split_stratified(make_samples([4, 4, 4, 4]), 0.5, seed=2)
        payload = json.loads(split_to_json(split))
        assert set(payload) == {"seed", "ratio", "train_indices", "test_indices"}

    def test_out_of_range_index_rejected(self):
        samples = make_samples([2, 2, 2, 2])
        bad = json.dumps({"seed": 0, "ratio": 0.5,
                          "train_indices": [0, 99], "test_indices": [1]})
        with pytest.raises(SplitError):
            split_from_json(bad, samples)

    @pytest.mark.parametrize("train,test", [
        ([0, 1, 2, 2], [3]),        # repeated within one side
        ([0, 1, 2], [2, 3]),        # on both sides
        ([True, 2], [3]),           # a bool is not a row index
        ([0, 1.7], [3]),
        ([0, 1.0], [3]),
        (["1"], [3]),
    ])
    def test_index_not_a_distinct_row_rejected(self, train, test):
        bad = json.dumps({"seed": 0, "ratio": 0.5,
                          "train_indices": train, "test_indices": test})
        with pytest.raises(SplitError):
            split_from_json(bad, make_samples([2, 2, 2, 2]))


def test_class_labels_order():
    assert tuple(CLASS_LABELS) == ("VeryLow", "Low", "Middle", "High")
