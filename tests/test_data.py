import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenizer_oracle import map_category

from tokentab.data import (
    ParseError,
    RawDataset,
    encode,
    fit_schema,
    load_csv,
    split_train_test,
)
from tokentab.tokenizer import SchemaError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_two_row_typed_dataset(self, tmp_path):
        path = write(tmp_path, "t.csv", "num,cat,label\n1.5,a,yes\n2.5,b,no\n")
        ds = load_csv(path, target="label", categorical=["cat"])
        assert ds.feature_names == ("num", "cat")
        assert ds.kinds == ("numerical", "categorical")
        assert ds.cells == [[1.5, "a"], [2.5, "b"]]
        assert ds.label_names == ("no", "yes")
        assert ds.labels.tolist() == [1, 0]

    def test_question_mark_in_numeric_column_becomes_missing(self, tmp_path):
        path = write(tmp_path, "t.csv",
                     "num,label\n?,yes\nnan,no\nNaN,yes\n,no\nbad,yes\n3,no\n")
        ds = load_csv(path, target="label", categorical=[])
        assert [c[0] for c in ds.cells] == [None, None, None, None, None, 3.0]

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e999", "NAN", "Infinity"])
    def test_non_finite_numeric_cell_is_like_a_blank_one(self, tmp_path, cell):
        rows = "x,c,label\n{},a,y\n1.5,b,n\n-2,a,y\n4,,n\n"
        odd = load_csv(write(tmp_path, "odd.csv", rows.format(cell)),
                       target="label", categorical=["c"])
        blank = load_csv(write(tmp_path, "blank.csv", rows.format("")),
                         target="label", categorical=["c"])
        assert odd.cells == blank.cells and odd.cells[0][0] is None

    def test_sentinels_in_categorical_column(self, tmp_path):
        path = write(tmp_path, "t.csv", "c,label\n?,y\nred,n\n,y\n")
        ds = load_csv(path, target="label", categorical=["c"])
        assert [c[0] for c in ds.cells] == [None, "red", None]

    def test_empty_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "e.csv", ""), target="y", categorical=[])

    def test_non_utf8_bytes_are_parse_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("c,label\ncaf\u00e9,y\nx,n\n".encode("latin-1"))
        with pytest.raises(ParseError, match="byte 11 is not UTF-8"):
            load_csv(path, target="label", categorical=["c"])

    def test_header_only_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "h.csv", "a,label\n"), target="label",
                     categorical=[])

    def test_missing_target_column_is_schema_error(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,b\n1,2\n")
        with pytest.raises(SchemaError):
            load_csv(path, target="label", categorical=[])

    @pytest.mark.parametrize("header", ["label,x,label,y", "x,label,y,x",
                                        "x, label ,label"])
    def test_repeated_column_name_is_schema_error_naming_file(self, tmp_path,
                                                             header):
        """A repeated target would hand its second column's values to the
        next feature; a repeated feature would make two columns one name."""
        row = ",".join(["1"] * (header.count(",") + 1))
        path = write(tmp_path, "dup.csv", f"{header}\n{row}\n{row}\n")
        with pytest.raises(SchemaError, match="dup.csv: column .* appears more "
                                              "than once"):
            load_csv(path, target="label", categorical=[])

    def test_target_only_is_schema_error_naming_file(self, tmp_path):
        path = write(tmp_path, "only.csv", "label\ny\nn\n")
        with pytest.raises(SchemaError, match="only.csv: no feature column"):
            load_csv(path, target="label", categorical=[])

    def test_categorical_target_is_schema_error_naming_file(self, tmp_path):
        path = write(tmp_path, "cat.csv", "x,label\n1,y\n2,n\n")
        with pytest.raises(SchemaError, match="cat.csv: categorical column "
                                              "'label' is the target column"):
            load_csv(path, target="label", categorical=["label"])

    def test_ragged_row_reports_line_number(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,label\n1,yes\n2\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path, target="label", categorical=[])

    def test_missing_target_value_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,label\n1,?\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path, target="label", categorical=[])

    def test_single_class_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", "a,label\n1,y\n2,y\n")
        with pytest.raises(SchemaError):
            load_csv(path, target="label", categorical=[])

    def test_quoted_fields(self, tmp_path):
        path = write(tmp_path, "t.csv", 'c,label\n"a,b",y\nplain,n\n')
        ds = load_csv(path, target="label", categorical=["c"])
        assert ds.cells[0][0] == "a,b"


class TestFitSchema:
    def test_vocabulary_in_first_occurrence_order(self):
        ds = RawDataset(("c",), ("categorical",),
                        [["a"], ["b"], ["a"]], np.array([0, 1, 0]), ("n", "y"))
        schema, _ = fit_schema(ds)
        assert schema.categorical_columns[0].vocabulary == ("a", "b")
        assert schema.total_categories == 2

    def test_all_categorical_shape(self):
        # ten categorical columns and no numerical ones
        cols = tuple(f"c{i}" for i in range(10))
        rows = [[f"v{i % 2}" for i in range(10)], [f"v{(i + 1) % 2}" for i in range(10)]]
        ds = RawDataset(cols, ("categorical",) * 10, rows,
                        np.array([0, 1]), ("n", "y"))
        schema, stats = fit_schema(ds)
        assert schema.n == 0 and schema.m == 10
        assert stats.means == () and stats.stds == ()

    def test_offsets_and_table_size(self):
        ds = RawDataset(("a", "b"), ("categorical", "categorical"),
                        [["x", "p"], ["y", "q"], ["z", "p"]],
                        np.array([0, 1, 0]), ("n", "y"))
        schema, _ = fit_schema(ds)
        assert schema.vocab_sizes == (3, 2)
        assert schema.offsets == (1, 4)
        assert schema.table_rows == 6

    def test_constant_column_std_clamped(self):
        ds = RawDataset(("x",), ("numerical",), [[2.0], [2.0]],
                        np.array([0, 1]), ("n", "y"))
        _, stats = fit_schema(ds)
        assert stats.means == (2.0,) and stats.stds == (1.0,)

    def test_all_missing_column(self):
        ds = RawDataset(("x",), ("numerical",), [[None], [None]],
                        np.array([0, 1]), ("n", "y"))
        _, stats = fit_schema(ds)
        assert stats.means == (0.0,) and stats.stds == (1.0,)

    def test_missing_values_excluded_from_stats_and_vocab(self):
        ds = RawDataset(("x", "c"), ("numerical", "categorical"),
                        [[1.0, "a"], [None, None], [3.0, "b"]],
                        np.array([0, 1, 0]), ("n", "y"))
        schema, stats = fit_schema(ds)
        assert stats.means == (2.0,)
        assert schema.categorical_columns[0].vocabulary == ("a", "b")


class TestEncode:
    def make(self):
        ds = RawDataset(("x", "c"), ("numerical", "categorical"),
                        [[1.0, "a"], [3.0, "b"], [None, None]],
                        np.array([0, 1, 0]), ("n", "y"))
        schema, stats = fit_schema(ds)
        return ds, schema, stats

    def test_training_rows_reencode_consistently(self):
        ds, schema, stats = self.make()
        enc = encode(ds, schema, stats)
        assert enc.cat[:, 0].tolist() == [1, 2, 0]

    def test_unseen_category_maps_to_reserved_row(self):
        ds, schema, stats = self.make()
        test = RawDataset(ds.feature_names, ds.kinds, [[2.0, "zzz"]],
                          np.array([0]), ds.label_names)
        enc = encode(test, schema, stats)
        assert enc.cat[0, 0] == 0

    def test_training_mean_encodes_to_zero(self):
        ds, schema, stats = self.make()
        test = RawDataset(ds.feature_names, ds.kinds, [[2.0, "a"]],
                          np.array([0]), ds.label_names)
        enc = encode(test, schema, stats)
        assert enc.num[0, 0] == 0.0  # 2.0 is the training mean

    def test_missing_numeric_imputes_to_mean(self):
        ds, schema, stats = self.make()
        enc = encode(ds, schema, stats)
        assert enc.num[2, 0] == 0.0

    def test_idempotent_given_fixed_schema(self):
        ds, schema, stats = self.make()
        a = encode(ds, schema, stats)
        b = encode(ds, schema, stats)
        assert a.num.tobytes() == b.num.tobytes()
        assert a.cat.tobytes() == b.cat.tobytes()

    def test_column_mismatch_rejected(self):
        ds, schema, stats = self.make()
        other = RawDataset(("y", "c"), ds.kinds, [[1.0, "a"]],
                           np.array([0]), ds.label_names)
        with pytest.raises(SchemaError):
            encode(other, schema, stats)


class TestSplit:
    def rows(self, k):
        return RawDataset(("x",), ("numerical",), [[float(i)] for i in range(k)],
                          np.arange(k) % 2, ("a", "b"))

    def test_even_split(self):
        train, test = split_train_test(self.rows(10), seed=0)
        assert len(train) == 5 and len(test) == 5

    def test_odd_count_gives_train_the_extra_row(self):
        train, test = split_train_test(self.rows(11), seed=0)
        assert len(train) == 6 and len(test) == 5

    def test_same_seed_identical_splits(self):
        a_train, a_test = split_train_test(self.rows(20), seed=3)
        b_train, b_test = split_train_test(self.rows(20), seed=3)
        assert a_train.cells == b_train.cells and a_test.cells == b_test.cells

    def test_different_seeds_differ(self):
        a_train, _ = split_train_test(self.rows(20), seed=3)
        b_train, _ = split_train_test(self.rows(20), seed=4)
        assert a_train.cells != b_train.cells

    def test_split_partitions_all_rows(self):
        train, test = split_train_test(self.rows(13), seed=5)
        seen = sorted(c[0] for c in train.cells + test.cells)
        assert seen == [float(i) for i in range(13)]

    def test_too_few_rows(self):
        with pytest.raises(SchemaError):
            split_train_test(self.rows(1), seed=0)


class TestNoLeakage:
    def test_mutating_test_rows_never_changes_encoded_training_rows(self):
        rng = np.random.default_rng(0)
        rows = [[float(rng.normal()), rng.choice(["a", "b", "c"])]
                for _ in range(30)]
        ds = RawDataset(("x", "c"), ("numerical", "categorical"), rows,
                        rng.integers(0, 2, size=30), ("n", "y"))
        train, test = split_train_test(ds, seed=1)
        schema, stats = fit_schema(train)
        baseline = encode(train, schema, stats)

        mutated_test = RawDataset(test.feature_names, test.kinds,
                                  [[999.0, "ZZZ"] for _ in range(len(test))],
                                  test.labels, test.label_names)
        schema2, stats2 = fit_schema(train)  # fit sees training rows only
        assert schema2 == schema and stats2 == stats
        after = encode(train, schema2, stats2)
        assert baseline.num.tobytes() == after.num.tobytes()
        assert baseline.cat.tobytes() == after.cat.tobytes()
        # and the mutated test rows still encode without error (total map)
        enc = encode(mutated_test, schema2, stats2)
        assert (enc.cat == 0).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_schema_depends_only_on_training_half(self, seed):
        rng = np.random.default_rng(seed)
        rows = [[float(rng.normal()), str(rng.integers(0, 4))] for _ in range(20)]
        ds = RawDataset(("x", "c"), ("numerical", "categorical"), rows,
                        rng.integers(0, 2, size=20), ("n", "y"))
        train, _ = split_train_test(ds, seed=0)
        schema_a, stats_a = fit_schema(train)
        schema_b, stats_b = fit_schema(train.subset(range(len(train))))
        assert schema_a == schema_b and stats_a == stats_b


class TestEncodeLookup:
    def test_matches_map_category_cell_by_cell(self):
        nan = float("nan")
        kinds = ("categorical", "numerical", "categorical", "categorical")
        train = RawDataset(
            ("c0", "x", "c1", "c2"), kinds,
            [["a", 1.0, "b", nan], ["b", 2.0, "a", "a"], [None, None, "c", "b"],
             ["a", 0.5, None, "a"]],
            np.array([0, 1, 0, 1]), ("n", "y"))
        schema, stats = fit_schema(train)   # c2's vocabulary holds this nan
        cells = train.cells + [
            ["zzz", 1.0, "a", None], [nan, 3.0, "zzz", nan],
            ["c", None, "b", float("nan")], [None, 1.0, None, "zzz"],
        ]
        test = RawDataset(train.feature_names, kinds, cells,
                          np.zeros(len(cells), dtype=np.intp), ("n", "y"))
        enc = encode(test, schema, stats)
        positions = [k for k, kind in enumerate(kinds) if kind == "categorical"]
        expected = [[map_category(row[k], j, schema)
                     for j, k in enumerate(positions)] for row in cells]
        assert enc.cat.tolist() == expected
        # one raw value maps to a different row in each column; a NaN cell
        # is missing even where the vocabulary holds that very NaN object
        assert enc.cat[:2].tolist() == [[1, 3, 0], [2, 4, 7]]
        assert (enc.cat[[2, 5, 6, 7], :] == 0).any(axis=1).all()
