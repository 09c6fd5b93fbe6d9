import hashlib
import itertools
import json
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffevo import (
    FunctionBenchmark,
    ParameterSpec,
    SearchSpace,
    load_tabular,
    make_synthetic,
    read_traces,
    write_tabular,
    write_traces,
)
import diffevo.benchmarks as benchmarks
from diffevo.benchmarks import BLOCK_LINES
from diffevo.baselines import run_random_search
from diffevo.harness import aggregate, write_curve_csv
from diffevo.trace import Budget

from conftest import reference_load_tabular, row_columns, tabular, watch_line_reads


def tiny_space():
    return SearchSpace(params=(
        ParameterSpec(name="op", kind="categorical", choices=("a", "b")),
        ParameterSpec(name="depth", kind="integer", lo=1, hi=3),
    ))


def tiny_table():
    return {
        ("a", 1): (0.30, 0.35, 2.0),
        ("a", 2): (0.05, 0.06, 3.0),
        ("b", 3): (0.50, None, 1.0),
    }


class TestTabularBenchmark:
    def test_best_values_recomputed_from_table(self):
        bench = tabular(tiny_space(), tiny_table(), "t")
        assert bench.best_validation_error == 0.05
        assert bench.best_test_error == 0.06

    def test_lookup_and_missing_key(self):
        bench = tabular(tiny_space(), tiny_table(), "t")
        assert bench.evaluate(("a", 2)) == (0.05, 0.06, 3.0)
        assert bench.evaluate(("b", 1)) is None

    def test_repeated_lookup_is_pure(self):
        bench = tabular(tiny_space(), tiny_table(), "t")
        first = bench.evaluate(("a", 1))
        assert all(bench.evaluate(("a", 1)) == first for _ in range(100_000))

    def test_rejects_float_parameters(self):
        space = SearchSpace(params=(
            ParameterSpec(name="x", kind="float", lo=0.0, hi=1.0),
        ))
        with pytest.raises(ValueError, match="float"):
            tabular(space, {(0.5,): (0.1, None, 1.0)}, "t")

    def test_rejects_out_of_range_error(self):
        table = {("a", 1): (1.5, None, 1.0)}
        with pytest.raises(ValueError, match=r":2: validation error 1.5 outside \[0, 1\]$"):
            tabular(tiny_space(), table, "t")


def mixed_table(seed):
    """A table over integer, ordinal and categorical parameters (a negative
    integer ``lo``, a single-token parameter) listing a seeded 60% of keys."""
    space = SearchSpace(params=(
        ParameterSpec(name="k", kind="integer", lo=-3, hi=2),
        ParameterSpec(name="a", kind="categorical", choices=("x", "y", "z")),
        ParameterSpec(name="b", kind="ordinal", values=("only",)),
        ParameterSpec(name="c", kind="categorical", choices=("p", "q", "r", "s")),
        ParameterSpec(name="m", kind="integer", lo=0, hi=2),
    ))
    rng = np.random.default_rng(seed)
    domains = [range(-3, 3), *(p.tokens for p in space.params[1:-1]), range(3)]
    table = {key: (float(rng.random()), None, float(rng.random()))
             for key in itertools.product(*domains) if rng.random() < 0.6}
    return tabular(space, table, "mixed")


def genotype_block(dimension, rows, seed):
    """Uniform rows plus rows of 0.0, -0.0, 1.0 and .5 ties of the integers."""
    special = np.array([[0.0] * dimension, [-0.0] * dimension, [1.0] * dimension,
                        [0.5 / 5] * dimension, [2.5 / 5] * dimension, [0.25] * dimension])
    return np.concatenate([special, np.random.default_rng(seed).random((rows, dimension))])


def assert_rows(columns, rows):
    """``evaluate_batch`` columns hold exactly the ``evaluate`` rows, with
    their dtypes: an invalid row holds 1.0, NaN and 0.0 and is not valid."""
    for got, want, dtype in zip(columns, row_columns(rows), (float, float, float, bool)):
        assert got.dtype == dtype and got.shape == (len(rows),)
        assert np.array_equal(got, want, equal_nan=True)


class TestEvaluateBatch:
    """``evaluate_batch`` gives the rows ``evaluate`` gives for the block's configurations."""

    @pytest.mark.parametrize("seed", range(4))
    def test_tabular_with_invalid_keys(self, seed):
        bench = mixed_table(seed)
        block = genotype_block(bench.space.dimension, 300, seed)
        want = [bench.evaluate(bench.space.discretize(row)) for row in block]
        assert_rows(bench.evaluate_batch(block), want)
        assert None in want and any(row is not None for row in want)

    def test_sparse_space_above_a_billion_configurations(self):
        space = SearchSpace(params=(
            *(ParameterSpec(name=f"k{i}", kind="integer", lo=-1000, hi=1000) for i in range(3)),
            ParameterSpec(name="c", kind="categorical", choices=("a", "b", "c")),
        ))
        table = {(-1000, 0, 1000, "a"): (0.1, None, 1.0), (999, -999, 0, "c"): (0.2, 0.3, 2.0),
                 (1000, 1000, 1000, "b"): (0.3, None, 3.0)}
        bench = tabular(space, table, "sparse")
        hits = np.array([[0.0, 0.5, 1.0, 0.0], [1999 / 2000, 1 / 2000, 0.5, 1.0],
                         [1.0, 1.0, 1.0, 0.5]])
        block = np.concatenate([hits, genotype_block(4, 20, 0)])
        want = [bench.evaluate(space.discretize(row)) for row in block]
        assert_rows(bench.evaluate_batch(block), want)
        assert want[:3] == list(table.values())

    def test_empty_block(self):
        assert_rows(mixed_table(0).evaluate_batch(np.empty((0, 5))), [])

    def test_rejects_more_configurations_than_64_bit_codes(self):
        space = SearchSpace(params=tuple(
            ParameterSpec(name=f"k{i}", kind="integer", lo=0, hi=2**16) for i in range(4)))
        with pytest.raises(ValueError, match="too many for 64-bit configuration codes"):
            tabular(space, {(0, 0, 0, 0): (0.1, None, 1.0)}, "t")

    def test_rejects_integer_bounds_beyond_exact_decoding(self):
        space = SearchSpace(params=(
            ParameterSpec(name="k", kind="integer", lo=2**53, hi=2**53 + 3),))
        with pytest.raises(ValueError, match="beyond"):
            tabular(space, {(2**53,): (0.1, None, 1.0)}, "t")

    @pytest.mark.parametrize("name", ["sphere", "rastrigin"])
    @pytest.mark.parametrize("dimension", [1, 3, 12])
    def test_functions(self, name, dimension):
        bench = FunctionBenchmark(name, dimension)
        block = genotype_block(dimension, 200, dimension)
        configs = [bench.space.discretize(row) for row in block]
        rows = [bench.evaluate(config) for config in configs]
        assert_rows(bench.evaluate_batch(block), rows)
        assert_rows(bench.evaluate_batch(np.asfortranarray(block)), rows)
        # the one-point formula, one row at a time
        for row, config in zip(rows, configs):
            x = np.array(config)
            f = float(np.sum(x * x) if name == "sphere"
                      else 10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))
            assert row == (f / (1.0 + f), None, 1.0)


class TestTabularFile:
    def test_round_trip_identical_behavior(self, tmp_path):
        bench = make_synthetic(3, 3, invalid_fraction=0.2, seed=5)
        path = tmp_path / "bench.jsonl"
        write_tabular(bench, path)
        loaded = load_tabular(path)
        assert loaded.benchmark_id == bench.benchmark_id
        assert loaded.space == bench.space
        assert loaded.best_validation_error == bench.best_validation_error
        assert loaded.best_test_error == bench.best_test_error
        tokens = bench.space.params[0].choices
        for key in itertools.product(tokens, repeat=3):
            assert loaded.evaluate(key) == bench.evaluate(key)

    def test_write_is_deterministic(self, tmp_path):
        bench = make_synthetic(3, 3, seed=5)
        write_tabular(bench, tmp_path / "a.jsonl")
        write_tabular(bench, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def write_file(self, tmp_path, rows):
        header = json.dumps(tiny_space().to_json_dict())
        path = tmp_path / "bench.jsonl"
        path.write_text("\n".join([header] + rows) + "\n")
        return path

    def test_empty_file_fails(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        path.write_text("")
        with pytest.raises(ValueError) as err:
            load_tabular(path)
        assert str(err.value) == f"{path}: empty benchmark file"

    @pytest.mark.parametrize("blank", [[], ["", "  "]], ids=["header_only", "blank_lines"])
    def test_a_header_without_records_fails(self, tmp_path, blank):
        path = self.write_file(tmp_path, blank)
        with pytest.raises(ValueError) as err:
            load_tabular(path)
        assert str(err.value) == f"{path}: no configuration records"

    def test_a_key_of_the_wrong_length_fails_naming_the_line(self, tmp_path):
        path = self.write_file(tmp_path, ['{"key":["x"],"val_err":0.2,"cost":1.0}'])
        with pytest.raises(ValueError) as err:
            load_tabular(path)
        assert str(err.value) == f"{path}:2: key ['x'] is not a 2-element list"

    def test_minimum_is_recomputed_not_trusted(self, tmp_path):
        path = self.write_file(tmp_path, [
            json.dumps({"key": ["a", 1], "val_err": 0.3, "test_err": None, "cost": 1.0}),
            json.dumps({"key": ["a", 2], "val_err": 0.05, "test_err": None, "cost": 1.0}),
            json.dumps({"key": ["b", 1], "val_err": 0.4, "test_err": None, "cost": 1.0}),
        ])
        assert load_tabular(path).best_validation_error == 0.05

    def test_duplicate_key_fails_naming_the_line(self, tmp_path):
        path = self.write_file(tmp_path, [
            json.dumps({"key": ["a", 1], "val_err": 0.3, "cost": 1.0}),
            json.dumps({"key": ["a", 1], "val_err": 0.2, "cost": 1.0}),
        ])
        with pytest.raises(ValueError, match=":3"):
            load_tabular(path)

    def test_error_out_of_range_fails(self, tmp_path):
        path = self.write_file(tmp_path, [
            json.dumps({"key": ["a", 1], "val_err": 1.2, "cost": 1.0}),
        ])
        with pytest.raises(ValueError, match=":2"):
            load_tabular(path)

    def test_negative_cost_fails(self, tmp_path):
        path = self.write_file(tmp_path, [
            json.dumps({"key": ["a", 1], "val_err": 0.2, "cost": -1.0}),
        ])
        with pytest.raises(ValueError, match="cost"):
            load_tabular(path)

    @pytest.mark.parametrize("cost", ["Infinity", "NaN"])
    def test_non_finite_cost_fails_naming_the_line(self, tmp_path, cost):
        path = self.write_file(tmp_path, [
            json.dumps({"key": ["a", 1], "val_err": 0.2, "cost": 1.0}),
            f'{{"key":["b",1],"val_err":0.3,"cost":{cost}}}',
        ])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: .*not finite"):
            load_tabular(path)

    @pytest.mark.parametrize("field", ["val_err", "test_err", "cost"])
    def test_integer_too_large_for_a_float_fails_naming_the_line(self, tmp_path, field):
        # 1 followed by 400 zeros is a JSON number, but no float holds it
        record = {"key": ["b", 1], "val_err": 0.3, "test_err": 0.4, "cost": 1.0, field: 10**400}
        path = self.write_file(tmp_path, [
            json.dumps({"key": ["a", 1], "val_err": 0.2, "cost": 1.0}),
            json.dumps(record),
        ])
        with pytest.raises(ValueError) as err:
            load_tabular(path)
        assert str(err.value) == f"{path}:3: record field {field!r} is too large for a float"

    @pytest.mark.parametrize("walked", [False, True], ids=["canonical", "walked"])
    @pytest.mark.parametrize("cost", [2**1024 - 2**971, 2**1024 - 2**970 - 1],
                             ids=["float_max", "above"])
    def test_integer_cost_at_the_largest_float(self, tmp_path, monkeypatch, cost, walked):
        # 2**1024 - 2**971 is the largest float; a float conversion rounds an
        # integer up to 2**970 above it down to it, yet that integer is refused
        records = [json.dumps({"key": ["a", 1], "val_err": 0.2, "cost": 1.0}),
                   json.dumps({"key": ["b", 1], "val_err": 0.3, "cost": cost})]
        path = self.write_file(tmp_path, records + [""] * walked)  # a blank line walks the block
        lines, _ = watch_line_reads(monkeypatch, benchmarks)
        if cost > sys.float_info.max:
            for load in (load_tabular, reference_load_tabular):
                with pytest.raises(ValueError) as err:
                    load(path)
                assert str(err.value) == f"{path}:3: record field 'cost' is too large for a float"
            return
        assert load_tabular(path).table[("b", 1)] == (0.3, None, sys.float_info.max)
        assert lines == ([2, 3, 4] if walked else [])
        assert reference_load_tabular(path)[0][("b", 1)] == (0.3, None, cost)

    @pytest.mark.parametrize("later", [
        "{not json",
        json.dumps({"key": ["b", 2], "cost": 1.0}),
        json.dumps({"key": ["b"], "val_err": 0.2, "cost": 1.0}),
        json.dumps({"key": ["a", 1], "val_err": 0.2, "cost": 1.0}),
        json.dumps({"key": ["z", 2], "val_err": 0.2, "cost": 1.0}),
        json.dumps({"key": ["b", 2], "val_err": 0.2, "cost": 1.0}),
    ])
    def test_first_bad_line_is_named(self, tmp_path, later):
        # rows are range-checked after the whole file is read, yet the error
        # is the one a line-by-line check meets first
        path = self.write_file(tmp_path, [
            json.dumps({"key": ["a", 2], "val_err": 0.3, "cost": 1.0}),
            json.dumps({"key": ["a", 1], "val_err": 1.2, "cost": 1.0}),
            later,
        ])
        with pytest.raises(ValueError) as err:
            load_tabular(path)
        assert str(err.value) == f"{path}:3: validation error 1.2 outside [0, 1]"

    @pytest.mark.parametrize("values, problem", [
        ({"val_err": "0.3", "cost": 1.0}, "record field 'val_err' is not a number: '0.3'"),
        ({"val_err": True, "cost": 1.0}, "record field 'val_err' is not a number: True"),
        ({"val_err": None, "cost": 1.0}, "record field 'val_err' is not a number: None"),
        ({"val_err": 0.3, "test_err": "0.2", "cost": 1.0},
         "record field 'test_err' is not a number or null: '0.2'"),
        ({"val_err": 0.3, "test_err": False, "cost": 1.0},
         "record field 'test_err' is not a number or null: False"),
        ({"val_err": 0.3, "cost": "1"}, "record field 'cost' is not a number: '1'"),
        ({"val_err": 0.3, "cost": None}, "record field 'cost' is not a number: None"),
        ({"val_err": 0.3, "cost": [1.0]}, "record field 'cost' is not a number: [1.0]"),
        # field types are checked before the key's length and domain
        ({"key": "abc", "val_err": 0.3, "cost": 1.0}, "record field 'key' is not a list: 'abc'"),
        ({"key": ["a"], "val_err": "0.3", "cost": 1.0},
         "record field 'val_err' is not a number: '0.3'"),
        ({"key": ["z", 1], "val_err": 0.3, "cost": True},
         "record field 'cost' is not a number: True"),
    ])
    def test_value_that_is_not_a_number_fails_naming_the_line(self, tmp_path, values, problem):
        path = self.write_file(tmp_path, [
            json.dumps({"key": ["a", 2], "val_err": 0.3, "cost": 1.0}),
            json.dumps({"key": ["a", 1], **values}),
            json.dumps({"key": ["b", 2], "val_err": 0.3, "cost": 1.0}),
        ])
        with pytest.raises(ValueError) as err:
            load_tabular(path)
        assert str(err.value) == f"{path}:3: {problem}"

    @pytest.mark.parametrize("record", ["3", "[1]", '"key"', "null"])
    def test_record_that_is_not_an_object_fails_naming_the_line(self, tmp_path, record):
        path = self.write_file(tmp_path, [
            json.dumps({"key": ["a", 2], "val_err": 0.3, "cost": 1.0}), record])
        with pytest.raises(ValueError) as err:
            load_tabular(path)
        assert str(err.value) == f"{path}:3: record is not a JSON object"

    @pytest.mark.parametrize("header", ["3", "[]", '{"params": [3]}', '{"params": 3}',
                                        '{"params": [{"name": "a", "kind": "ordinal", '
                                        '"values": 5}]}',
                                        '{"params": [{"name": "a", "kind": "ordinal", '
                                        '"values": ["x"]}], "benchmark_id": 4}',
                                        '{"params": {"a": 1}}',
                                        *('{"params": [{"name": "op", "kind": "categorical", '
                                          f'"choices": {choices}}}]}}'
                                          for choices in ("[1, 2]", "[true, false]",
                                                          "[[1], [2]]")),
                                        # a document of the wrong shape: its message is
                                        # tested in test_space.py
                                        pytest.param('"xparamsx"', id="str_doc"),
                                        pytest.param('{"params": [["name"]]}', id="list_param"),
                                        pytest.param('{"params": ["name"]}', id="str_param"),
                                        pytest.param('{"params": [{"name": "a", "kind": '
                                                     '"ordinal", "values": "ab"}]}',
                                                     id="str_values"),
                                        pytest.param('{"params": [{"name": "a", "kind": '
                                                     '"categorical", "choices": "ab"}]}',
                                                     id="str_choices")])
    def test_malformed_header_fails_naming_the_line(self, tmp_path, header):
        path = tmp_path / "bench.jsonl"
        path.write_text(header + "\n" + json.dumps({"key": ["x"], "val_err": 0.3, "cost": 1.0}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: bad header: "):
            load_tabular(path)

    @pytest.mark.parametrize("benchmark_id", [4, None, ["b"]])
    def test_benchmark_id_that_is_not_a_string_fails_as_a_field(self, tmp_path, benchmark_id):
        path = tmp_path / "bench.jsonl"
        path.write_text(json.dumps({"params": [{"name": "a", "kind": "ordinal", "values": ["x"]}],
                                    "benchmark_id": benchmark_id}) + "\n"
                        + json.dumps({"key": ["x"], "val_err": 0.3, "cost": 1.0}))
        message = f"{path}:1: bad header: field 'benchmark_id' is not a string: {benchmark_id!r}"
        for load in (load_tabular, reference_load_tabular):
            with pytest.raises(ValueError) as err:
                load(path)
            assert str(err.value) == message

    @pytest.mark.parametrize("params, records, problem", [
        ([{"name": "x", "kind": "float", "lo": 0.0, "hi": 1.0}], [{"key": [0.5]}],
         "tabular benchmarks require discrete parameters; 'x' is float"),
        ([{"name": "x", "kind": "integer", "lo": 0, "hi": 2**60}], [{"key": [1]}],
         "integer parameter 'x' has bounds [0, 1152921504606846976] beyond +-2**52, which "
         "genotypes cannot decode exactly"),
        ([{"name": f"k{i}", "kind": "integer", "lo": 0, "hi": 2**16} for i in range(4)],
         [{"key": [1, 2, 3, 4]}], "the space's 18447869999386460161 configurations are too "
         "many for 64-bit configuration codes"),
        ([{"name": f"k{i}", "kind": "integer", "lo": 0, "hi": 2**16} for i in range(4)], [],
         "the space's 18447869999386460161 configurations are too many for 64-bit "
         "configuration codes"),
    ], ids=["float", "bounds", "codes", "no_recs"])
    def test_space_a_table_cannot_hold_fails_at_the_header(self, tmp_path, params, records,
                                                           problem):
        path = tmp_path / "bench.jsonl"
        path.write_text("\n".join(json.dumps(doc) for doc in [
            {"params": params}, *({**r, "val_err": 0.2, "cost": 1.0} for r in records)]) + "\n")
        with pytest.raises(ValueError) as err:
            load_tabular(path)
        assert str(err.value) == f"{path}:1: bad header: {problem}"

    def test_repeated_key_with_bad_values_names_the_values(self, tmp_path):
        path = self.write_file(tmp_path, [
            json.dumps({"key": ["a", 1], "val_err": 0.3, "cost": 1.0}),
            json.dumps({"key": ["a", 1], "val_err": 0.2, "cost": -1.0}),
        ])
        with pytest.raises(ValueError) as err:
            load_tabular(path)
        assert str(err.value) == f"{path}:3: cost -1.0 is negative or not finite"

    def test_key_outside_space_fails(self, tmp_path):
        path = self.write_file(tmp_path, [
            json.dumps({"key": ["z", 1], "val_err": 0.2, "cost": 1.0}),
        ])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: key "
                                             r"\('z', 1\) outside the declared space$"):
            load_tabular(path)

    def test_lines_end_only_at_newlines(self, tmp_path):
        # U+2028 is a line break to str.splitlines() but may stand raw in JSON
        space = SearchSpace(params=(
            ParameterSpec(name="op", kind="categorical", choices=("a\u2028b", "c")),))
        path = tmp_path / "bench.jsonl"
        path.write_text("\r\n".join([
            json.dumps(space.to_json_dict(), ensure_ascii=False),
            json.dumps({"key": ["a\u2028b"], "val_err": 0.25, "cost": 1.0}, ensure_ascii=False),
            json.dumps({"key": ["c"], "val_err": 0.5, "cost": 2.0}),
        ]) + "\r\n", encoding="utf-8")
        bench = load_tabular(path)
        assert bench.table == {("a\u2028b",): (0.25, None, 1.0), ("c",): (0.5, None, 2.0)}

    def test_lone_carriage_return_is_not_a_line_end(self, tmp_path):
        # JSON allows "\r" between tokens, and a line ends only at "\n", so a
        # later bad line's number counts "\n" alone
        record = '{"key":["a",1],\r"val_err":0.3,"cost":1}'
        path = self.write_file(tmp_path, [record])
        assert load_tabular(path).table == {("a", 1): (0.3, None, 1.0)}
        path = self.write_file(tmp_path, [record, "{not json"])
        for load in (load_tabular, reference_load_tabular):
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: bad JSON"):
                load(path)

    def test_crlf_file_loads_as_its_lf_twin(self, tmp_path):
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        write_tabular(make_synthetic(3, 3, invalid_fraction=0.2, seed=5), lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        want, got = load_tabular(lf), load_tabular(crlf)
        assert (got.benchmark_id, got.space, got.table) == (want.benchmark_id, want.space, want.table)

    def test_bad_json_fails(self, tmp_path):
        path = self.write_file(tmp_path, ["{not json"])
        with pytest.raises(ValueError, match="JSON"):
            load_tabular(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_tabular(tmp_path / "nope.jsonl")


# a record's fields and what each mutation puts into one of them
MUTATIONS = {
    "none": None, "null test": ("test_err", None),
    "NaN val": ("val_err", math.nan), "NaN test": ("test_err", math.nan),
    "NaN cost": ("cost", math.nan), "null val": ("val_err", None), "null cost": ("cost", None),
    "bool val": ("val_err", True), "bool test": ("test_err", False), "bool cost": ("cost", True),
    "str val": ("val_err", "0.3"), "str test": ("test_err", "0"), "str cost": ("cost", "1"),
    "huge val": ("val_err", 10**400), "huge test": ("test_err", 10**400),
    "huge cost": ("cost", 10**400), "cost at float max": ("cost", 2**1024 - 2**971),
    "cost above float max": ("cost", 2**1024 - 2**970 - 1), "int val": ("val_err", 1),
    "val above 1": ("val_err", 1.5), "negative cost": ("cost", -1.0),
    "infinite cost": ("cost", math.inf), "list cost": ("cost", [1.0]),
    "nested field": ("extra", {"x": {"y": [1]}}), "brace field": ("extra", "}{"),
    "short key": "short key", "key outside": "key outside", "key type": "key type",
    "key not a list": ("key", "abc"), "duplicate": "duplicate", "missing field": "missing field",
    "bad JSON": "bad JSON", "not an object": "not an object", "split record": "split record",
    "two records": "two records", "blank": "blank",
}


def mixed_file(tmp_path, seed, n, mutation, position, tabs, crlf, odd_tokens):
    """A tabular file over a seeded mixed integer/ordinal/categorical space
    listing ``n`` (or every) keys in a seeded order, with one ``mutation`` of
    the record at ``position`` (an index, or "last" in the file)."""
    rng = np.random.default_rng(seed)
    odd = ["a{b", "c}", "{}", "d\u2028e", 'q"', "\t"] if odd_tokens else []
    params = []
    for i in range(int(rng.integers(2, 5))):
        kind = ("integer", "ordinal", "categorical")[int(rng.integers(3))]
        size = int(rng.integers(1 if kind != "integer" else 2, 13))
        if kind == "integer":
            lo = int(rng.integers(-5, 6))
            params.append(ParameterSpec(name=f"p{i}", kind=kind, lo=lo, hi=lo + size - 1))
        else:
            tokens = tuple(dict.fromkeys([*odd[:int(rng.integers(len(odd) + 1))],
                                          *(f"t{j}" for j in range(size))]))
            field_name = "values" if kind == "ordinal" else "choices"
            params.append(ParameterSpec(name=f"p{i}", kind=kind, **{field_name: tokens}))
    space = SearchSpace(params=tuple(params))
    domains = [list(range(p.lo, p.hi + 1)) if p.kind == "integer" else list(p.tokens)
               for p in space.params]
    keys = list(itertools.product(*domains))
    chosen = rng.choice(len(keys), size=min(n, len(keys)), replace=False)
    records = []
    for k in chosen.tolist():
        test = None if rng.random() < 0.2 else float(rng.random())
        cost = int(rng.integers(0, 5)) if rng.random() < 0.2 else float(rng.lognormal())
        records.append({"key": list(keys[k]), "val_err": float(rng.random()), "test_err": test,
                        "cost": cost})
    lines = [json.dumps(r, ensure_ascii=False) for r in records]
    i = len(records) - 1 if position == "last" else min(position, len(records) - 1)
    change = MUTATIONS[mutation]
    record = dict(records[i])
    if isinstance(change, tuple):
        record[change[0]] = change[1]
    elif change == "short key":
        record["key"] = record["key"][:-1]
    elif change == "key outside":
        p = space.params[-1]
        record["key"] = [*record["key"][:-1], p.hi + 1 if p.kind == "integer" else "zz"]
    elif change == "key type":
        p = space.params[0]
        record["key"] = [str(record["key"][0]) if p.kind == "integer" else 1,
                         *record["key"][1:]]
    elif change == "duplicate":  # the twin is as far back as the file allows
        record = dict(records[max(0, i - BLOCK_LINES - 1)], val_err=0.5)
    elif change == "missing field":
        del record["cost"]
    if change not in (None, "bad JSON", "not an object", "split record", "two records",
                      "blank"):
        lines[i] = json.dumps(record, ensure_ascii=False)
    elif change == "bad JSON":
        lines[i] = "{not json"
    elif change == "not an object":
        lines[i] = "[1]"
    elif change == "split record":  # two lines that decode to one object when joined
        lines[i:i + 1] = ['{"x":[1', "2]}"]
    elif change == "two records":  # one line that decodes to two objects when joined
        lines[i] = "{},{}"
    elif change == "blank":
        lines[i:i] = ["", " \t "]
    if tabs:
        lines = ["\t" + line for line in lines]
    header = json.dumps({**space.to_json_dict(), "benchmark_id": "mixed"}, ensure_ascii=False)
    path = tmp_path / f"mixed-{seed}.jsonl"
    with open(path, "w", encoding="utf-8", newline="\r\n" if crlf else "\n") as fh:
        fh.write("\n".join([header, *lines]) + "\n")
    return path


class TestBlockLoader:
    """``load_tabular`` reads, decodes and checks blocks of lines as columns;
    it must load what the line-by-line reference loads, or fail with its
    message."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([1, 7, BLOCK_LINES - 1, BLOCK_LINES, BLOCK_LINES + 1, 2500]),
           st.sampled_from(sorted(MUTATIONS)),
           st.sampled_from([0, 1, BLOCK_LINES - 1, BLOCK_LINES, 2 * BLOCK_LINES - 1, "last"]),
           st.booleans(), st.booleans(), st.booleans())
    def test_same_table_or_same_error_as_the_reference(self, tmp_path_factory, seed, n,
                                                       mutation, position, tabs, crlf, odd):
        path = mixed_file(tmp_path_factory.mktemp("block"), seed, n, mutation, position,
                          tabs, crlf, odd)
        try:
            table, best_val, best_test = reference_load_tabular(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                load_tabular(path)
            assert str(err.value) == str(exc)
            return
        bench = load_tabular(path)
        assert bench.table == table
        assert (bench.best_validation_error, bench.best_test_error) == (best_val, best_test)
        assert all(type(x) is float for row in bench.table.values() for x in row if x is not None)

    @pytest.mark.parametrize("token, blank", [("a{b", ""), ("a", "\n"), ("a", " \t\n")])
    def test_block_the_one_call_decode_misses_loads_a_line_at_a_time(self, tmp_path,
                                                                      monkeypatch, token, blank):
        # a brace inside a token, or a blank line, sends its block, and only
        # its block, through the per-line decoder; line 1 is the header
        space = SearchSpace(params=(
            ParameterSpec(name="op", kind="categorical", choices=(token, "b")),
            ParameterSpec(name="depth", kind="integer", lo=1, hi=3 * BLOCK_LINES)))
        records = [json.dumps({"key": ["b", d], "val_err": 0.3, "test_err": None, "cost": 1})
                   for d in range(1, 2 * BLOCK_LINES + 100)]
        records[BLOCK_LINES + 10] = blank + json.dumps({"key": [token, 1], "val_err": 0.2,
                                                        "cost": 2.0})
        path = tmp_path / "bench.jsonl"
        path.write_text("\n".join([json.dumps(space.to_json_dict()), *records]) + "\n")
        walked, opened = watch_line_reads(monkeypatch, benchmarks)
        bench = load_tabular(path)
        assert walked == list(range(BLOCK_LINES + 1, 2 * BLOCK_LINES + 1)) and len(opened) == 1
        table, best_val, best_test = reference_load_tabular(path)
        assert bench.table == table
        assert (bench.best_validation_error, bench.best_test_error) == (best_val, best_test)

    def test_a_trailing_blank_line_reads_only_the_last_block_a_line_at_a_time(self, tmp_path,
                                                                             monkeypatch):
        path = tmp_path / "t.jsonl"
        write_tabular(make_synthetic(4, 8, invalid_fraction=0.2, seed=3), path)
        walked, opened = watch_line_reads(monkeypatch, benchmarks)
        load_tabular(path)
        assert walked == [] and len(opened) == 1  # a written file is read as columns alone
        path.write_text(path.read_text() + "\n")
        lines = path.read_text().count("\n")
        opened.clear()
        bench = load_tabular(path)
        assert lines > 3 * BLOCK_LINES and len(opened) == 1
        assert walked == list(range(lines - (lines - 1) % BLOCK_LINES, lines + 1))  # the last block
        table, best_val, best_test = reference_load_tabular(path)
        assert bench.table == table
        assert (bench.best_validation_error, bench.best_test_error) == (best_val, best_test)

    def test_a_repeat_in_a_canonical_block_wins_over_a_later_odd_block(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_tabular(make_synthetic(4, 8, seed=3), path)
        lines = path.read_text().split("\n")
        lines[10] = lines[5]  # line 11 repeats line 6's key, in the first block
        lines[3 * BLOCK_LINES] = "{not json"  # an odd block further on
        path.write_text("\n".join(lines))
        key = json.loads(lines[5])["key"]
        with pytest.raises(ValueError) as err:
            load_tabular(path)
        assert str(err.value) == f"{path}:11: duplicate configuration key {key!r}"
        with pytest.raises(ValueError, match=re.escape(str(err.value))):
            reference_load_tabular(path)

    def test_a_repeat_across_two_canonical_blocks_names_the_second(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_tabular(make_synthetic(4, 8, seed=3), path)
        lines = path.read_text().split("\n")
        lines[BLOCK_LINES + 20] = lines[BLOCK_LINES - 20]  # from block 1 into block 2
        path.write_text("\n".join(lines))
        key = json.loads(lines[BLOCK_LINES - 20])["key"]
        with pytest.raises(ValueError) as err:
            load_tabular(path)
        assert str(err.value) == f"{path}:{BLOCK_LINES + 21}: duplicate configuration key {key!r}"
        with pytest.raises(ValueError, match=re.escape(str(err.value))):
            reference_load_tabular(path)

    def test_keeps_under_64_bytes_a_row(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_tabular(make_synthetic(6, 5, invalid_fraction=0.5, seed=1), path)
        for _ in range(2):  # the second load sees only the table's own memory
            tracemalloc.start()
            try:
                bench = load_tabular(path)
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        rows = len(bench.table)
        assert rows >= 5000 and kept / rows < 64

    def test_arrays_are_read_only(self):
        bench = mixed_table(0)
        for array in (bench._codes, bench._rows, bench.space._weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_evaluate_outside_the_space_or_of_the_wrong_length(self):
        bench = mixed_table(0)
        assert bench.evaluate((-4, "x", "only", "p", 0)) is None  # below the integer range
        assert bench.evaluate((0, "w", "only", "p", 0)) is None  # an unknown token
        assert bench.evaluate((0, "x", "only", "p")) is None
        assert bench.evaluate((0, "x", "only", "p", 0, 0)) is None
        assert bench.evaluate((True, "x", "only", "p", 0)) is None
        assert bench.evaluate((0, ["x"], "only", "p", 0)) is None  # unhashable components
        assert bench.evaluate((0, "x", "only", {"p": 1}, 0)) is None
        # a key prefix whose code is listed
        space = SearchSpace(params=(ParameterSpec(name="a", kind="integer", lo=0, hi=3),
                                    ParameterSpec(name="b", kind="integer", lo=0, hi=3)))
        bench = tabular(space, {(0, 0): (0.1, None, 1.0)}, "t")
        assert bench.evaluate((0,)) is None and bench.evaluate((0, 0)) == (0.1, None, 1.0)

    def test_table_is_a_copy(self):
        bench = mixed_table(1)
        table = bench.table
        key = next(iter(table))
        table[key] = (0.0, None, 0.0)
        assert bench.table[key] != (0.0, None, 0.0)
        assert all(bench.evaluate(key) == row for key, row in bench.table.items())


class TestUndecodableBytes:
    """A byte that is not UTF-8 fails the load naming ``path:line``."""

    def write(self, tmp_path, lines, bad_line):
        header = json.dumps(tiny_space().to_json_dict()).encode()
        data = [header, *(line.encode() for line in lines)]
        data[bad_line - 1] = data[bad_line - 1].replace(b'"a"', b'"a\xff"')
        path = tmp_path / "bench.jsonl"
        path.write_bytes(b"\n".join(data) + b"\n")
        return path

    @pytest.mark.parametrize("bad_line", [1, 3])
    def test_names_the_line(self, tmp_path, bad_line):
        path = self.write(tmp_path, [json.dumps({"key": ["b", 1], "val_err": 0.2, "cost": 1.0}),
                                     json.dumps({"key": ["a", 1], "val_err": 0.3, "cost": 1.0}),
                                     json.dumps({"key": ["b", 2], "val_err": 0.3, "cost": 1.0})],
                          bad_line)
        with pytest.raises(ValueError) as err:
            load_tabular(path)
        assert re.fullmatch(f"{re.escape(str(path))}:{bad_line}: 'utf-8' codec can't decode "
                            r"byte 0xff in position \d+: invalid start byte", str(err.value))

    def test_a_truncated_sequence_reads_alike_on_the_header_and_a_record(self, tmp_path):
        # the header is decoded without its "\n", as every record line is
        for bad_line in (1, 2):
            data = [json.dumps(tiny_space().to_json_dict()).encode(),
                    json.dumps({"key": ["b", 1], "val_err": 0.2, "cost": 1.0}).encode()]
            data[bad_line - 1] += b"\xc3"  # the first byte of a two-byte sequence
            path = tmp_path / f"bench-{bad_line}.jsonl"
            path.write_bytes(b"\n".join(data) + b"\n")
            with pytest.raises(ValueError) as err:
                load_tabular(path)
            position = len(data[bad_line - 1]) - 1
            assert str(err.value) == (f"{path}:{bad_line}: 'utf-8' codec can't decode byte 0xc3 "
                                      f"in position {position}: unexpected end of data")

    def test_an_earlier_bad_line_wins(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"key": ["b", 1], "val_err": 2.0, "cost": 1.0}),
                                     json.dumps({"key": ["a", 1], "val_err": 0.3, "cost": 1.0})],
                          3)
        with pytest.raises(ValueError) as err:
            load_tabular(path)
        assert str(err.value) == f"{path}:2: validation error 2.0 outside [0, 1]"


@pytest.mark.parametrize("fault, problem", [
    ("bad JSON", "bad JSON: "),
    ("undecodable byte", "'utf-8' codec can't decode byte 0xff in position "),
    ("missing field", "{what} lacks fields ['{field}']"),
])
@pytest.mark.parametrize("reader", ["load_tabular", "read_traces"])
def test_both_readers_raise_a_plain_value_error_naming_path_and_line(tmp_path, reader, fault,
                                                                     problem):
    # line 3 is a table's second record or a trace's second event
    path, bench = tmp_path / "in.jsonl", make_synthetic(2, 2, seed=0)
    what, field = ("record", "val_err") if reader == "load_tabular" else ("event", "objective")
    if reader == "load_tabular":
        write_tabular(bench, path)
    else:
        write_traces(run_random_search(bench, Budget(max_evaluations=4), [0]), path)
    lines = path.read_bytes().split(b"\n")
    doc = json.loads(lines[2])
    if fault == "bad JSON":
        lines[2] = lines[2][:-1]
    elif fault == "undecodable byte":
        lines[2] = lines[2][:-1] + b',"note":"\xff"}'
    else:
        del doc[field]
        lines[2] = json.dumps(doc).encode()
    path.write_bytes(b"\n".join(lines))
    problem = problem.format(what=what, field=field)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {problem}')}") as err:
        {"load_tabular": load_tabular, "read_traces": read_traces}[reader](path)
    assert type(err.value) is ValueError


class TestWrittenBytes:
    """``write_tabular`` bytes, pinned by sha256: records sorted by key."""

    @pytest.mark.parametrize("make, digest", [
        (lambda: make_synthetic(3, 3, invalid_fraction=0.2, seed=4),
         "bc522cb63fadf8d66e09d3132fdf722602e3aa242892dac181439d5bdbf4d585"),
        (lambda: mixed_table(0), "6373c9087e06657a05126f12b624741e50994a22b50275886c0e421f49710c38"),
    ])
    def test_digest(self, tmp_path, make, digest):
        write_tabular(make(), tmp_path / "t.jsonl")
        assert hashlib.sha256((tmp_path / "t.jsonl").read_bytes()).hexdigest() == digest

    def test_best_errors_are_floats_in_trace_headers(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        path.write_text("\n".join(map(json.dumps, [
            tiny_space().to_json_dict(), {"key": ["a", 1], "val_err": 0, "test_err": 0, "cost": 1},
            {"key": ["b", 2], "val_err": 1, "test_err": 1, "cost": 2}])) + "\n")
        bench = load_tabular(path)
        assert type(bench.best_validation_error) is type(bench.best_test_error) is float
        assert bench.table == {("a", 1): (0.0, 0.0, 1.0), ("b", 2): (1.0, 1.0, 2.0)}
        write_traces(run_random_search(bench, Budget(max_evaluations=3), [0]),
                     tmp_path / "t.jsonl")
        header = (tmp_path / "t.jsonl").read_text().split("\n")[0]
        assert '"best_test_error":0.0,"best_validation_error":0.0' in header
        assert read_traces(tmp_path / "t.jsonl")[0].best_validation_error == 0.0


@pytest.mark.parametrize("write", [
    lambda bench, path: write_tabular(bench, path),
    lambda bench, path: write_traces(run_random_search(bench, Budget(max_evaluations=5), [0]),
                                     path),
    lambda bench, path: write_curve_csv(
        aggregate(run_random_search(bench, Budget(max_evaluations=5), [0])), path),
], ids=["tabular", "traces", "curve"])
def test_a_failed_write_leaves_no_temp_file(tmp_path, write):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(OSError):
        write(make_synthetic(2, 2), target)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
    assert list(target.iterdir()) == []


class TestSynthetic:
    def test_enumerates_full_space(self):
        bench = make_synthetic(5, 4, invalid_fraction=0.0, seed=0)
        assert len(bench.table) == 4**5 == 1024

    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5])
    def test_exact_invalid_count(self, fraction):
        bench = make_synthetic(5, 4, invalid_fraction=fraction, seed=0)
        assert len(bench.table) == 1024 - math.floor(1024 * fraction)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_needs_a_parameter_and_a_choice(self, shape):
        with pytest.raises(ValueError, match="^need at least one parameter and one choice$"):
            make_synthetic(*shape)

    def test_one_configuration_scores_the_middle_error(self):
        # with a single configuration the errors have no span to rescale
        assert make_synthetic(1, 1).best_validation_error == 0.5

    def test_best_matches_exhaustive_scan(self):
        # oracle: query every configuration through the public interface
        bench = make_synthetic(4, 3, invalid_fraction=0.0, seed=3)
        tokens = bench.space.params[0].choices
        rows = [bench.evaluate(key) for key in itertools.product(tokens, repeat=4)]
        assert None not in rows
        assert bench.best_validation_error == min(val for val, _, _ in rows)
        assert bench.best_test_error == min(test for _, test, _ in rows)

    def test_same_spec_and_seed_identical(self):
        a = make_synthetic(4, 3, invalid_fraction=0.3, seed=11)
        b = make_synthetic(4, 3, invalid_fraction=0.3, seed=11)
        assert a.table == b.table

    def test_different_seed_differs(self):
        a = make_synthetic(4, 3, seed=1)
        b = make_synthetic(4, 3, seed=2)
        assert a.table != b.table

    def test_errors_and_costs_in_contract_ranges(self):
        bench = make_synthetic(4, 4, invalid_fraction=0.2, seed=9)
        for val, test, cost in bench.table.values():
            assert 0.0 <= val <= 1.0
            assert 0.0 <= test <= 1.0
            assert cost > 0.0

    def test_unit_cost_model(self):
        bench = make_synthetic(3, 3, cost_model="unit", seed=0)
        assert all(cost == 1.0 for _, _, cost in bench.table.values())

    def test_unknown_cost_model(self):
        with pytest.raises(ValueError, match="cost model"):
            make_synthetic(3, 3, cost_model="quadratic")

    def test_refuses_oversized_spaces(self):
        with pytest.raises(ValueError, match="1048576"):
            make_synthetic(10, 4)

    def test_rejects_full_invalid_fraction(self):
        with pytest.raises(ValueError):
            make_synthetic(3, 3, invalid_fraction=1.0)


class TestContinuous:
    def test_needs_a_dimension(self):
        with pytest.raises(ValueError, match=r"^dimension must be >= 1, got 0$"):
            FunctionBenchmark("sphere", 0)

    def test_needs_lo_below_hi(self):
        with pytest.raises(ValueError, match=r"^requires lo < hi, got \[0\.0, 0\.0\]$"):
            FunctionBenchmark("sphere", 2, lo=0.0, hi=0.0)

    def test_sphere_optimum_hits_best(self):
        bench = FunctionBenchmark("sphere", 3)
        val, test, cost = bench.evaluate((0.0, 0.0, 0.0))
        assert val == bench.best_validation_error == 0.0
        assert cost == 1.0
        assert test is None and bench.best_test_error is None

    def test_sphere_increases_with_axis_distance(self):
        bench = FunctionBenchmark("sphere", 3)
        errs = [bench.evaluate((x, 0.0, 0.0))[0] for x in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert errs == sorted(errs)
        assert len(set(errs)) == len(errs)

    def test_rastrigin_closed_form(self):
        bench = FunctionBenchmark("rastrigin", 2)
        assert bench.evaluate((0.0, 0.0))[0] == 0.0
        x = (0.5, 0.0)
        raw = 10 * 2 + sum(v * v - 10 * math.cos(2 * math.pi * v) for v in x)
        assert raw == pytest.approx(20.25)
        got = bench.evaluate(x)[0]
        assert got == pytest.approx(raw / (1 + raw))

    def test_squash_stays_below_one(self):
        bench = FunctionBenchmark("sphere", 2)
        assert bench.evaluate((5.0, 5.0))[0] < 1.0

    def test_space_matches_bounds(self):
        bench = FunctionBenchmark("sphere", 2, lo=-1.0, hi=2.0)
        assert all(p.kind == "float" and p.lo == -1.0 and p.hi == 2.0
                   for p in bench.space.params)

    def test_unknown_function(self):
        with pytest.raises(ValueError, match="unknown function"):
            FunctionBenchmark("ackley", 2)

    def test_bounds_whose_values_overflow_a_float_are_rejected(self):
        # f peaks at D * m**2 (sphere) or D * (m**2 + 20) (rastrigin), m = max(|lo|, |hi|)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in ("sphere", "rastrigin"):
                edge = FunctionBenchmark(name, 1, lo=-1e154, hi=1e154)
                assert edge.evaluate_batch(np.array([[0.0], [1.0]]))[0].tolist() == [1.0, 1.0]
        for name, dimension, m in [("sphere", 2, 1e154), ("rastrigin", 2, 1e300)]:
            with pytest.raises(ValueError, match=re.escape(f"bounds [{-m}, {m}] are too wide")):
                FunctionBenchmark(name, dimension, lo=-m, hi=m)

    def test_bounds_must_contain_origin(self):
        with pytest.raises(ValueError, match="contain 0"):
            FunctionBenchmark("sphere", 2, lo=1.0, hi=2.0)

    def test_dimension_mismatch(self):
        bench = FunctionBenchmark("sphere", 3)
        with pytest.raises(ValueError):
            bench.evaluate((0.0, 0.0))
