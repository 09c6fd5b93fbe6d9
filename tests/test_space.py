import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diffevo import ParameterSpec, SearchSpace
from diffevo.space import KINDS

from conftest import bin_index, decoded_bin, reference_discretize, token_space


def value_at(p, u):
    """The native value of one coordinate, through a one-parameter space."""
    return SearchSpace(params=(p,)).discretize([u])[0]


def scan_bin(u, n):
    """Independent oracle: linear scan of the bins [k/n, (k+1)/n).

    The final bin is closed at 1. Uses the same float boundaries the bin
    rule is specified against.
    """
    for k in range(n):
        if k / n <= u < (k + 1) / n:
            return k
    assert u == 1.0 or n - 1 <= u * n
    return n - 1


class TestBinIndex:
    """The token decoder of a one-parameter categorical space against the scan."""

    def test_interior_boundary_is_left_closed(self):
        # 1/3 belongs to the second of three bins, not the first
        assert decoded_bin(1 / 3, 3) == 1
        assert decoded_bin(2 / 3, 3) == 2

    def test_zero_maps_to_first_bin(self):
        assert decoded_bin(0.0, 7) == 0

    @pytest.mark.parametrize("n", range(1, 11))
    def test_one_maps_to_last_bin(self, n):
        assert decoded_bin(1.0, n) == n - 1

    def test_matches_scan_on_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            u = float(rng.random())
            n = int(rng.integers(1, 11))
            assert decoded_bin(u, n) == scan_bin(u, n) == bin_index(u, n)

    @given(u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           n=st.integers(min_value=1, max_value=10))
    def test_matches_scan_away_from_boundaries(self, u, n):
        # within an ulp of a boundary the two float procedures may round
        # differently; everywhere else they must agree exactly
        assume(abs(u * n - round(u * n)) > 1e-9)
        assert decoded_bin(u, n) == scan_bin(u, n)

    @pytest.mark.parametrize("u, n", [(-0.001, 3), (1.001, 3)])
    def test_rejects_out_of_range(self, u, n):
        with pytest.raises(ValueError, match="outside"):
            token_space(n).discretize([u])

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError, match="at least one token"):
            ParameterSpec(name="c", kind="categorical", choices=())


class TestParameterSpec:
    def test_float_requires_lo_below_hi(self):
        with pytest.raises(ValueError):
            ParameterSpec(name="x", kind="float", lo=1.0, hi=1.0)

    def test_integer_rejects_single_value_range(self):
        with pytest.raises(ValueError):
            ParameterSpec(name="x", kind="integer", lo=3, hi=3)

    def test_integer_rejects_float_bounds(self):
        with pytest.raises(ValueError):
            ParameterSpec(name="x", kind="integer", lo=0.5, hi=2)

    def test_float_rejects_non_numeric_bounds(self):
        inf, nan = math.inf, math.nan
        for lo, hi in [("0", 1.0), (-inf, inf), (0.0, inf), (-inf, 0.0), (nan, 1.0), (0.0, nan)]:
            with pytest.raises(ValueError):
                ParameterSpec(name="x", kind="float", lo=lo, hi=hi)

    def test_tokens_must_be_unique(self):
        with pytest.raises(ValueError):
            ParameterSpec(name="x", kind="categorical", choices=("a", "a"))

    @pytest.mark.parametrize("tokens", [(1, 2), (True, False), ([1], [2]), ("a", None)])
    def test_tokens_must_be_strings(self, tokens):
        with pytest.raises(ValueError, match="^parameter 'x': tokens must be strings$"):
            ParameterSpec(name="x", kind="categorical", choices=tokens)

    @pytest.mark.parametrize("name", ["", 5, None, ["x"]])
    def test_name_must_be_a_nonempty_string(self, name):
        with pytest.raises(ValueError, match="non-empty string"):
            ParameterSpec(name=name, kind="ordinal", values=("a",))

    def test_tokens_must_be_nonempty(self):
        with pytest.raises(ValueError):
            ParameterSpec(name="x", kind="ordinal", values=())

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ParameterSpec(name="x", kind="boolean")

    def test_kind_fields_are_exclusive(self):
        with pytest.raises(ValueError):
            ParameterSpec(name="x", kind="float", lo=0.0, hi=1.0, choices=("a",))
        with pytest.raises(ValueError):
            ParameterSpec(name="x", kind="categorical", choices=("a",), lo=0.0)

    def test_single_token_is_allowed(self):
        p = ParameterSpec(name="x", kind="categorical", choices=("only",))
        assert value_at(p, 0.0) == "only"
        assert value_at(p, 1.0) == "only"


class TestSearchSpace:
    def test_rejects_duplicate_names(self):
        p = ParameterSpec(name="x", kind="integer", lo=0, hi=1)
        with pytest.raises(ValueError):
            SearchSpace(params=(p, p))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SearchSpace(params=())

    def test_dimension(self, mixed_space):
        assert mixed_space.dimension == 4


class TestDiscretize:
    def test_categorical_bins(self):
        space = SearchSpace(params=(
            ParameterSpec(name="op", kind="categorical",
                          choices=("1x1 conv", "skip", "3x3 conv")),
        ))
        assert space.discretize(np.array([0.20])) == ("1x1 conv",)
        assert space.discretize(np.array([0.50])) == ("skip",)
        assert space.discretize(np.array([1.00])) == ("3x3 conv",)

    def test_float_midpoint_and_endpoints(self):
        space = SearchSpace(params=(
            ParameterSpec(name="x", kind="float", lo=-5.0, hi=5.0),
        ))
        assert space.discretize(np.array([0.5])) == (0.0,)
        assert space.discretize(np.array([0.0])) == (-5.0,)
        assert space.discretize(np.array([1.0])) == (5.0,)

    def test_integer_boundaries(self):
        space = SearchSpace(params=(
            ParameterSpec(name="k", kind="integer", lo=0, hi=10),
        ))
        assert space.discretize(np.array([0.0])) == (0,)
        assert space.discretize(np.array([1.0])) == (10,)

    def test_integer_rounds_half_away_from_zero(self):
        space = SearchSpace(params=(
            ParameterSpec(name="k", kind="integer", lo=-1, hi=1),
        ))
        # u=0.25 -> -0.5 -> -1, u=0.75 -> 0.5 -> 1
        assert space.discretize(np.array([0.25])) == (-1,)
        assert space.discretize(np.array([0.75])) == (1,)

    def test_integer_image_covers_whole_range(self):
        space = SearchSpace(params=(
            ParameterSpec(name="k", kind="integer", lo=-3, hi=7),
        ))
        seen = {space.discretize(np.array([u]))[0] for u in np.linspace(0, 1, 2001)}
        assert seen == set(range(-3, 8))

    def test_mixed_space(self, mixed_space):
        config = mixed_space.discretize(np.array([0.5, 0.0, 0.999, 1 / 3]))
        assert config == (0.0, 0, "wide", "skip")

    def test_deterministic(self, mixed_space, rng):
        g = rng.random(mixed_space.dimension)
        assert mixed_space.discretize(g) == mixed_space.discretize(g)

    def test_dimension_mismatch(self, mixed_space):
        with pytest.raises(ValueError):
            mixed_space.discretize(np.array([0.5, 0.5]))

    def test_out_of_range_coordinate(self, mixed_space):
        with pytest.raises(ValueError):
            mixed_space.discretize(np.array([0.5, 0.5, 0.5, 1.5]))

    @given(u1=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           u2=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_float_mapping_is_monotone(self, u1, u2):
        p = ParameterSpec(name="x", kind="float", lo=-2.0, hi=3.0)
        if u1 > u2:
            u1, u2 = u2, u1
        assert value_at(p, u1) <= value_at(p, u2)

    @given(u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_values_stay_in_native_domains(self, u):
        p_float = ParameterSpec(name="x", kind="float", lo=-2.0, hi=3.0)
        p_int = ParameterSpec(name="k", kind="integer", lo=-4, hi=9)
        assert -2.0 <= value_at(p_float, u) <= 3.0
        assert value_at(p_int, u) in range(-4, 10)


# bins of 3, 4 and 6 tokens, integers whose .5 ties are exact ([-4, 4] at
# u = (m + 4.5) / 8) and a float; special coordinates 0, 1 and k/n
BLOCK_SPACE = SearchSpace(params=(
    ParameterSpec(name="a", kind="categorical", choices=("x", "y", "z")),
    ParameterSpec(name="b", kind="ordinal", values=("1", "2", "3", "4")),
    ParameterSpec(name="c", kind="categorical", choices=tuple("abcdef")),
    ParameterSpec(name="k", kind="integer", lo=-4, hi=4),
    ParameterSpec(name="m", kind="integer", lo=0, hi=10),
    ParameterSpec(name="x", kind="float", lo=-2.5, hi=7.0),
))
SPECIAL = sorted({k / n for n in (3, 4, 6, 8, 10, 16, 20) for k in range(n + 1)})
coordinates = st.one_of(st.sampled_from(SPECIAL),
                        st.floats(min_value=0.0, max_value=1.0, allow_nan=False))


class TestDiscretizeRows:
    """``discretize`` over the rows of blocks of special coordinates, and
    ``decode`` on whole blocks."""

    @given(st.lists(st.lists(coordinates, min_size=6, max_size=6), max_size=12))
    def test_equals_scalar_reference_row_by_row(self, rows):
        block = np.array(rows, dtype=float).reshape(-1, 6)
        got = [BLOCK_SPACE.discretize(row) for row in block]
        assert got == [reference_discretize(BLOCK_SPACE, row) for row in block]
        for config, row in zip(got, block.tolist()):
            for p, value, u in zip(BLOCK_SPACE.params[:3], config, row):
                assert value == p.tokens[bin_index(u, len(p.tokens))]

    def test_integer_ties_round_away_from_zero(self):
        # k = -4 + 8u hits m + 0.5 exactly; m = 10u lands near j + 0.5
        block = np.array([[0.0, 0.0, 0.0, (m + 4.5) / 8, 0.05 * (2 * j + 1), 0.0]
                          for j, m in enumerate(range(-4, 4))])
        got = [BLOCK_SPACE.discretize(row) for row in block]
        assert [config[3] for config in got] == [-4, -3, -2, -1, 1, 2, 3, 4]
        assert got == [reference_discretize(BLOCK_SPACE, row) for row in block]

    def test_bin_edges_are_left_closed(self):
        block = np.array([[k / 6] * 6 for k in range(7)])
        got = [BLOCK_SPACE.discretize(row)[2] for row in block]
        assert got == ["a", "b", "c", "d", "e", "f", "f"]

    def test_whole_block_checked_before_decoding(self):
        block = np.full((4, 6), 0.5)
        block[3, 4] = 1.0 + 1e-12
        with pytest.raises(ValueError, match="'m'.*outside"):
            BLOCK_SPACE.decode(block)
        block[3, 4] = np.nan
        with pytest.raises(ValueError, match="outside"):
            BLOCK_SPACE.decode(block)
        with pytest.raises(ValueError):
            BLOCK_SPACE.decode(np.full((2, 5), 0.5))

    def test_space_pickles_with_its_decoders(self):
        block = np.array([SPECIAL[:6], SPECIAL[-6:]])
        copy = pickle.loads(pickle.dumps(BLOCK_SPACE))
        assert copy == BLOCK_SPACE
        assert np.array_equal(copy.decode(block), BLOCK_SPACE.decode(block))
        assert list(map(copy.discretize, block)) == list(map(BLOCK_SPACE.discretize, block))

    def test_empty_block(self):
        assert BLOCK_SPACE.decode(np.empty((0, 6))).shape == (0, 6)


@st.composite
def mixed_blocks(draw, kinds=KINDS):
    """A mixed space of parameters of ``kinds`` and a block of genotypes for it.

    Floats have lo 0 in some draws, integers have negative lo and a span of
    a power of two, so ``(j + 0.5) / span`` is an exact .5 tie, and token
    parameters have 1 to 6 tokens. Coordinates include 0.0, -0.0 and 1.0.
    """
    params = []
    specials = {0.0, -0.0, 1.0}
    for i, kind in enumerate(draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6))):
        name = f"p{i}"
        if kind == "float":
            lo = draw(st.sampled_from([0.0, -5.0, -2.5, 1.0]))
            params.append(ParameterSpec(name=name, kind=kind, lo=lo,
                                        hi=lo + draw(st.sampled_from([0.5, 3.0, 10.0]))))
        elif kind == "integer":
            lo, span = draw(st.integers(min_value=-8, max_value=2)), 2 ** draw(st.integers(0, 4))
            params.append(ParameterSpec(name=name, kind=kind, lo=lo, hi=lo + span))
            specials.update((j + 0.5) / span for j in range(span))
        else:
            tokens = tuple(f"t{k}" for k in range(draw(st.integers(min_value=1, max_value=6))))
            params.append(ParameterSpec(name=name, kind=kind,
                                        **{"values" if kind == "ordinal" else "choices": tokens}))
            specials.update(k / len(tokens) for k in range(len(tokens) + 1))
    coordinate = st.one_of(st.sampled_from(sorted(specials)),
                           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    rows = draw(st.lists(st.lists(coordinate, min_size=len(params), max_size=len(params)),
                         max_size=8))
    return SearchSpace(params=tuple(params)), np.array(rows, dtype=float).reshape(-1, len(params))


def assert_decodes_like_reference(space, block):
    want = [reference_discretize(space, row) for row in block]
    got = [space.discretize(row) for row in block]
    assert got == want
    for config, reference in zip(got, want):
        # same types, and floats with the same sign of zero
        assert list(map(type, config)) == list(map(type, reference))
        assert repr(config) == repr(reference)
    values = space.decode(block)
    assert values.shape == block.shape and values.dtype == float
    for row, reference in zip(values.tolist(), want):
        assert row == [p.tokens.index(v) if p.tokens else v
                       for p, v in zip(space.params, reference)]


class TestDecode:
    @settings(max_examples=200)
    @given(mixed_blocks())
    def test_equals_scalar_reference(self, space_and_block):
        assert_decodes_like_reference(*space_and_block)

    @pytest.mark.parametrize("lo", [0, -3])
    def test_ends_and_signed_zero(self, lo):
        # with lo = 0 everywhere, a + (b - a) * u still turns u = -0.0 into 0.0
        space = SearchSpace(params=(
            ParameterSpec(name="x", kind="float", lo=0.0, hi=2.0),
            ParameterSpec(name="k", kind="integer", lo=lo, hi=lo + 4),
            ParameterSpec(name="one", kind="categorical", choices=("only",)),
            ParameterSpec(name="o", kind="ordinal", values=("s", "m", "l")),
        ))
        block = np.array([[0.0] * 4, [-0.0] * 4, [1.0] * 4, [0.5, 0.125, 0.5, 1 / 3]])
        assert_decodes_like_reference(space, block)

    def test_checks_like_discretize_rows(self):
        block = np.full((3, 6), 0.5)
        block[2, 3] = -1e-300
        with pytest.raises(ValueError, match=r"^parameter 'k': genotype value -1e-300 outside"):
            BLOCK_SPACE.decode(block)
        with pytest.raises(ValueError, match="do not have 6 values a row"):
            BLOCK_SPACE.decode(np.full(6, 0.5))
        assert BLOCK_SPACE.decode(np.empty((0, 6))).shape == (0, 6)


def reference_code(space, config):
    """The code of ``config`` in plain Python ints: each value's position in
    its domain, in mixed radix with the last parameter varying fastest."""
    code = 0
    for p, v in zip(space.params, config):
        if p.kind == "integer":
            code = code * (p.hi - p.lo + 1) + (v - p.lo)
        else:
            code = code * len(p.tokens) + p.tokens.index(v)
    return code


class TestCodes:
    """The configuration codes of a space without float parameters against
    the scalar reference."""

    @settings(max_examples=200)
    @given(mixed_blocks(kinds=("integer", "ordinal", "categorical")))
    def test_equal_scalar_reference(self, space_and_block):
        space, block = space_and_block
        space.check_codes()
        configs = [reference_discretize(space, row) for row in block]
        want = [reference_code(space, config) for config in configs]
        codes = space.codes(space.decode(block))
        assert codes.dtype == np.int64 and codes.tolist() == want
        total = math.prod(p.hi - p.lo + 1 if p.kind == "integer" else len(p.tokens)
                          for p in space.params)
        assert all(0 <= code < total for code in want)
        assert space.key_codes(configs).tolist() == want
        assert space.configurations(codes) == configs

    @given(mixed_blocks(kinds=("integer", "ordinal", "categorical")))
    def test_keys_outside_the_space_have_code_minus_one(self, space_and_block):
        space, block = space_and_block
        assume(len(block))
        config = reference_discretize(space, block[0])
        for j, p in enumerate(space.params):
            if p.kind == "integer":
                outside = [p.lo - 1, p.hi + 1, True, float(p.lo), str(p.lo)]
            else:
                outside = ["", p.tokens[0].upper(), 0, None, [p.tokens[0]], {p.tokens[0]: 1}]
            keys = [config[:j] + (value,) + config[j + 1:] for value in outside]
            assert space.key_codes(keys).tolist() == [-1] * len(keys)
            assert [p.positions([value]) for value in outside] == [[-1]] * len(outside)


class TestJsonRoundTrip:
    def test_round_trip_preserves_space(self, mixed_space):
        doc = json.loads(json.dumps(mixed_space.to_json_dict()))
        assert SearchSpace.from_json_dict(doc) == mixed_space

    def test_field_names_are_normative(self, mixed_space):
        doc = mixed_space.to_json_dict()
        by_kind = {p["kind"]: p for p in doc["params"]}
        assert set(by_kind["float"]) == {"name", "kind", "lo", "hi"}
        assert set(by_kind["integer"]) == {"name", "kind", "lo", "hi"}
        assert set(by_kind["ordinal"]) == {"name", "kind", "values"}
        assert set(by_kind["categorical"]) == {"name", "kind", "choices"}

    def test_load_from_document(self):
        space = SearchSpace.from_json_dict(json.loads(json.dumps({"params": [
            {"name": "op", "kind": "categorical", "choices": ["a", "b"]},
            {"name": "depth", "kind": "integer", "lo": 1, "hi": 4},
        ]})))
        assert space.dimension == 2
        assert space.params[0].choices == ("a", "b")
        assert hash(space) == hash(SearchSpace.from_json_dict(space.to_json_dict()))

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            SearchSpace.from_json_dict({"params": [
                {"name": "x", "kind": "float", "lo": 0, "hi": 1, "step": 0.1},
            ]})

    def test_rejects_missing_params(self):
        with pytest.raises(ValueError):
            SearchSpace.from_json_dict({"parameters": []})

    def test_load_from_file(self, mixed_space, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(mixed_space.to_json_dict()))
        assert SearchSpace.from_json_dict(json.loads(path.read_text())) == mixed_space
