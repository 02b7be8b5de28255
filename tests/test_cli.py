"""Front-end behavior: schema, report formats, round-trips, exit codes."""

import argparse
import contextlib
import io
import json
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from edtorus import cli, monogrp
from edtorus.cli import EXIT_BUDGET, EXIT_INCONCLUSIVE, EXIT_INVALID, EXIT_OK, build_parser, main
from edtorus.monogrp import DEFAULT_MAX_STEPS, MAX_STEPS, EdtorusError, limit_steps

from conftest import build_parser_reference, coefficients_reference, fraction_json_reference
from test_golden import GOLDEN, _argv, _golden

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"
SO_2 = str(GOLDEN_INPUTS / "so_2.json")

SL2_NORMALIZER = {
    "p": 2,
    "torus_rank": 1,
    "root_of_unity_exponent": 2,
    "weights": [[1], [-1]],
    "generators": [{"perm": [2, 1], "coeff_num": [0, 1], "coeff_den": [1, 2]}],
}

PLUS_MINUS_PLANE = {
    "p": 2,
    "torus_rank": 2,
    "root_of_unity_exponent": 1,
    "weights": [[1, 0], [0, 1], [-1, 0], [0, -1]],
    "generators": [
        {"perm": [3, 4, 1, 2], "coeff_num": [0, 0, 0, 0], "coeff_den": [1, 1, 1, 1]}
    ],
}

# A rank-0 torus: one line of weight (), fixed by one generator.
RANK_ZERO = {
    "p": 2,
    "torus_rank": 0,
    "root_of_unity_exponent": 1,
    "weights": [[]],
    "generators": [{"perm": [1], "coeff_num": [0], "coeff_den": [1]}],
}

MERSENNE_61 = str(2**61 - 1)  # a prime too large for trial division

# The generator squares to the torus point -1, which acts trivially on a
# weight-zero line; the extra block makes it act there by i, squaring to -1.
NOT_A_REPRESENTATION = {
    "p": 2,
    "torus_rank": 1,
    "root_of_unity_exponent": 4,
    "weights": [[1], [-1]],
    "generators": [{"perm": [2, 1], "coeff_num": [0, 1], "coeff_den": [1, 2]}],
    "extra_blocks": [{"weights": [[0]], "generators": [{"perm": [1], "coeff_num": [1], "coeff_den": [4]}]}],
}


def with_field(path, value):
    """SL2_NORMALIZER with the entry at `path` (keys and indices) set to value."""
    doc = json.loads(json.dumps(SL2_NORMALIZER))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


# Inputs that must be rejected, not coerced or answered with a traceback.
MALFORMED = {
    "coeff_den_zero": (("generators", 0, "coeff_den", 1), 0),
    "coeff_num_str": (("generators", 0, "coeff_num", 1), "x"),
    "coeff_den_float": (("generators", 0, "coeff_den", 1), 2.5),
    "coeff_num_bool": (("generators", 0, "coeff_num", 1), True),
    "perm_bool": (("generators", 0, "perm", 1), True),
    "split_str": (("split",), "yes"),
    "generators_object": (("generators",), {}),
    "generator_int": (("generators", 0), 5),
    "torus_rank_negative": (("torus_rank",), -1),
    # the float and str forms would read as the valid value if they were coerced
    **{
        f"{name}_{type(bad).__name__}": (path, bad)
        for name, path, good in (
            ("p", ("p",), 2),
            ("torus_rank", ("torus_rank",), 1),
            ("root_of_unity_exponent", ("root_of_unity_exponent",), 2),
            ("weight_entry", ("weights", 0, 0), 1),
        )
        for bad in (True, float(good), str(good))
    },
}


def write_json(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchema:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = dict(SL2_NORMALIZER)
        doc["surprise"] = 1
        code, _, err = run(["validate", write_json(tmp_path, doc)], capsys)
        assert code == EXIT_INVALID
        assert "BAD_INPUT" in err

    def test_bad_perm_rejected(self, tmp_path, capsys):
        doc = dict(SL2_NORMALIZER)
        doc["generators"] = [{"perm": [1, 1], "coeff_num": [0, 0], "coeff_den": [1, 1]}]
        code, _, err = run(["validate", write_json(tmp_path, doc)], capsys)
        assert code == EXIT_INVALID

    def test_validate_ok(self, tmp_path, capsys):
        code, out, _ = run(
            ["validate", write_json(tmp_path, SL2_NORMALIZER), "--format", "json"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["component_order"] == 2
        assert doc["induced_matrices"] == [[[-1]]]

    def test_validate_rank_zero(self, tmp_path, capsys):
        code, out, _ = run(["validate", write_json(tmp_path, RANK_ZERO), "--format", "json"], capsys)
        assert code == EXIT_OK
        assert '"induced_matrices":[[]]' in out

    @pytest.mark.parametrize("path,value", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_malformed_field_rejected(self, tmp_path, capsys, path, value):
        code, out, err = run(["validate", write_json(tmp_path, with_field(path, value))], capsys)
        assert code == EXIT_INVALID
        assert out == ""
        assert json.loads(err)["error"] == "BAD_INPUT"

    @pytest.mark.parametrize(
        "content",
        [b'{"p": 2, "x": "\xff"}', b'{"p": ' + b"1" * 5000 + b"}", b"[" * 100_000],
        ids=["not_utf8", "integer_over_4300_digits", "nested_100000_deep"],
    )
    def test_unreadable_json_rejected(self, tmp_path, capsys, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        code, out, err = run(["validate", str(path)], capsys)
        assert (code, out) == (EXIT_INVALID, "")
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "BAD_INPUT"
        assert diagnostic["detail"].startswith(f"invalid JSON in {path}: ")

    def test_negative_torus_rank_named(self, tmp_path, capsys):
        code, _, err = run(["validate", write_json(tmp_path, with_field(*MALFORMED["torus_rank_negative"]))], capsys)
        assert code == EXIT_INVALID
        assert "torus_rank" in json.loads(err)["detail"]

    def test_invalid_presentation_exit_1(self, tmp_path, capsys):
        doc = dict(SL2_NORMALIZER)
        doc["weights"] = [[1], [2]]
        doc["generators"] = [{"perm": [2, 1], "coeff_num": [0, 0], "coeff_den": [1, 1]}]
        code, out, _ = run(["validate", write_json(tmp_path, doc), "--format", "json"], capsys)
        assert code == EXIT_INVALID
        assert json.loads(out)["error"] == "NO_INDUCED_ACTION"


class TestRepresentationCheck:
    @pytest.mark.parametrize("command", ["stabilizer", "eta", "ed", "oracle stab"])
    def test_block_that_is_not_a_representation_rejected(self, tmp_path, capsys, command):
        path = write_json(tmp_path, NOT_A_REPRESENTATION)
        code, out, err = run([*command.split(), path, "--format", "json"], capsys)
        assert code == EXIT_INVALID
        assert out == ""
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "BAD_INPUT"
        assert "do not define a representation" in diagnostic["detail"]
        # without the block the presentation itself is fine
        assert run(["stabilizer", path, "--rep", "natural"], capsys)[0] == EXIT_OK

    @staticmethod
    def so_2_with_tail(lines, perm, num, den):
        """so_2.json plus a weight-zero block of `lines` lines, on which generator 0
        acts by (perm, num/den) and the other generators trivially."""
        doc = json.loads(Path(SO_2).read_text(encoding="utf-8"))
        trivial = {"perm": list(range(1, lines + 1)), "coeff_num": [0] * lines, "coeff_den": [1] * lines}
        gens = [{"perm": perm, "coeff_num": num, "coeff_den": den}] + [trivial] * (len(doc["generators"]) - 1)
        doc["extra_blocks"] = [{"weights": [[0] * doc["torus_rank"]] * lines, "generators": gens}]
        return doc

    @pytest.mark.parametrize("natural_first", [True, False], ids=["natural_recorded", "nothing_recorded"])
    @pytest.mark.parametrize(
        "tail",
        [(1, [1], [1], [3]), (3, [2, 3, 1], [0, 0, 0], [1, 1, 1])],
        ids=["coefficient_third", "three_cycle"],
    )
    def test_zero_weight_tail_that_is_not_a_cocycle_rejected(
        self, tmp_path, capsys, fresh_caches, natural_first, tail
    ):
        # generator 0 is an involution of F; on the tail it acts by 1/3, or by a
        # 3-cycle, so its square is not the identity there.  Only the tail lines
        # are checked when the natural block comes first, with or without its
        # record, and the first failing edge is the one a walk over all lines names
        path = write_json(tmp_path, self.so_2_with_tail(*tail))
        if natural_first:
            assert run(["stabilizer", path, "--rep", "natural"], capsys)[0] == EXIT_OK
        code, out, err = run(["stabilizer", path, "--format", "json"], capsys)
        assert (code, out) == (EXIT_INVALID, "")
        assert json.loads(err) == {
            "error": "BAD_INPUT",
            "detail": "blocks do not define a representation: class 4 times generator 0 does not act as class 0",
        }


BAD_ARGVS = [
    ["symrank", SO_2, "-B", "0"],
    ["symrank", SO_2, "-B", "-1"],
    ["eta", SO_2, "--rep", "none", "-B", "0"],
    ["oracle", "stab", SO_2, "--trials", "0"],
    ["oracle", "stab", SO_2, "--trials", "-2"],
    ["ed", "case", "sl", "x", "2"],
    ["ed", "case", "so", "1x"],
    ["oracle", "symrank", SO_2, "-B", "0"],
    ["symrank", SO_2, "--max-steps", "-1"],
    ["ed", SO_2, "--max-steps", "-1"],
    # malformed for argparse itself, whose own exit status 2 reads as INCONCLUSIVE
    ["symrank", SO_2, "--max-steps", "abc"],
    ["table", "sl", "x", "2"],
    ["oracle", "stab", SO_2, "--trials", "x"],
    ["oracle", "symrank", SO_2, "--no-such-flag"],
    ["frobnicate"],
    # the pinch answers without a search, but an explicit bound is still checked
    ["eta", SO_2, "-B", "0"],
]

OUT_OF_RANGE = [
    (["table", "sl", "1", "4"], "need n >= 2"),
    (["table", "sl", "-5", "9"], "need n >= 2"),
    (["table", "sl", "3", "4"], "p = 4 is not prime"),
    (["table", "so", "0"], "need n >= 1"),
    (["table", "so", "-2"], "need n >= 1"),
]


class TestCommandLineNumbers:
    @pytest.mark.parametrize("argv", BAD_ARGVS)
    def test_rejected_with_a_diagnostic(self, argv, capsys):
        code, out, err = run(argv + ["--format", "json"], capsys)
        assert code == EXIT_INVALID
        assert out == ""
        assert json.loads(err)["error"] == "BAD_INPUT"

    @pytest.mark.parametrize("argv,detail", OUT_OF_RANGE)
    def test_table_out_of_range_is_unsupported(self, argv, detail, capsys):
        # no row would be built, so these were once answered with an empty table
        code, out, err = run(argv + ["--format", "json"], capsys)
        assert (code, out) == (EXIT_INVALID, "")
        assert json.loads(err) == {"error": "UNSUPPORTED", "detail": detail}

    @pytest.mark.parametrize("argv", [["--help"], ["oracle", "symrank", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ed", "case", "sl", "3", "3"],
            ["ed", "case", "so", "1"],
            ["case", "sl", "4", "2"],
            ["table", "sl", "5", "3"],
            ["oracle", "sylow", "4", "2"],
        ],
    )
    def test_json_emission_is_canonical(self, argv, capsys):
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == EXIT_OK
        parsed = json.loads(out)
        again = json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"
        assert again == out


class TestCommands:
    def test_symrank_fixture(self, tmp_path, capsys):
        code, out, _ = run(
            ["symrank", write_json(tmp_path, SL2_NORMALIZER), "--format", "json"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["value"] == 2 and doc["status"] == "EXACT"

    def test_symrank_upper_only_exit_2(self, tmp_path, capsys):
        code, out, _ = run(
            ["symrank", write_json(tmp_path, PLUS_MINUS_PLANE), "--format", "json"], capsys
        )
        assert code == EXIT_INCONCLUSIVE
        doc = json.loads(out)
        assert doc["status"] == "UPPER_ONLY"
        assert doc["value"] == 4

    def test_ed_case_sl(self, capsys):
        code, out, _ = run(["ed", "case", "sl", "3", "3", "--format", "json"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["exact"] == 2

    def test_ed_case_so(self, capsys):
        code, out, _ = run(["ed", "case", "so", "1", "--format", "json"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["exact"] == 3
        assert any("full torus normalizer of SO_4" in note for note in doc["notes"])

    def test_ed_without_upper_exit_2(self, tmp_path, capsys):
        code, out, _ = run(
            ["ed", write_json(tmp_path, PLUS_MINUS_PLANE), "--rep", "natural", "--format", "json"],
            capsys,
        )
        # natural representation of the plus/minus plane is generically free?
        doc = json.loads(out)
        assert (doc["exact"] is None) == (code == EXIT_INCONCLUSIVE)

    def test_stabilizer_command(self, tmp_path, capsys):
        code, out, _ = run(
            ["stabilizer", write_json(tmp_path, SL2_NORMALIZER), "--format", "json"], capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["p_generically_free"] is True
        assert doc["stabilizer_order"] == 1

    def test_eta_command(self, tmp_path, capsys):
        code, out, _ = run(
            ["eta", write_json(tmp_path, SL2_NORMALIZER), "--format", "json"], capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["exact"] == 2

    def test_case_emits_loadable_presentation(self, tmp_path, capsys):
        code, out, _ = run(["case", "sl", "3", "3", "--format", "json"], capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        path = write_json(tmp_path, doc["presentation"], "case.json")
        code2, out2, _ = run(["validate", path, "--format", "json"], capsys)
        assert code2 == EXIT_OK
        assert json.loads(out2)["component_order"] == 3

    def test_table_sl(self, capsys):
        code, out, _ = run(["table", "sl", "6", "3", "--format", "json"], capsys)
        assert code == EXIT_OK
        rows = json.loads(out)
        assert [row["n"] for row in rows] == [2, 3, 4, 5, 6]
        for row in rows:
            if row["ed_exact"] is not None:
                assert row["matches_closed_form"]

    def test_table_sl_large_prime(self, capsys):
        code, out, _ = run(["table", "sl", "3", MERSENNE_61, "--max-steps", "1000", "--format", "json"], capsys)
        assert code == EXIT_OK
        assert [(row["n"], row["ed_exact"]) for row in json.loads(out)] == [(2, 0), (3, 0)]

    @pytest.mark.parametrize(
        "p,error",
        [("318665857834031151167461", "UNSUPPORTED"), ("3317044064679887385961981", "BAD_INPUT")],
        ids=["psi_12_composite", "psi_13_refused"],
    )
    def test_table_sl_prime_test_limits(self, p, error, capsys):
        code, out, err = run(["table", "sl", "3", p], capsys)
        assert (code, out, json.loads(err)["error"]) == (EXIT_INVALID, "", error)

    def test_oracle_stab(self, tmp_path, capsys):
        code, out, _ = run(
            [
                "oracle",
                "stab",
                write_json(tmp_path, SL2_NORMALIZER),
                "-q",
                "5",
                "--trials",
                "10",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["min_order"] == 1

    def test_oracle_stab_q_2(self, capsys):
        # so_2 needs torsion 1, so q = 2 is allowed; 1 generates F_2^*
        code, out, _ = run(["oracle", "stab", SO_2, "-q", "2", "--format", "json"], capsys)
        assert code == EXIT_OK
        assert '"q":2' in out
        assert json.loads(out)["min_order"] == 16  # an upper bound of the generic order 4

    def test_oracle_symrank(self, tmp_path, capsys):
        code, out, _ = run(
            ["oracle", "symrank", write_json(tmp_path, SL2_NORMALIZER), "--format", "json"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 2


class TestBudgets:
    def test_ff_budget_exit_3(self, tmp_path, capsys):
        code, _, err = run(
            [
                "oracle",
                "stab",
                write_json(tmp_path, SL2_NORMALIZER),
                "--max-steps",
                "1",
            ],
            capsys,
        )
        assert code == EXIT_BUDGET
        assert "BUDGET_EXCEEDED" in err

    def test_ff_trials_counted(self, capsys):
        # q^d * |F| = 10000 is within the limit, but every trial looks up each of the 16 classes
        start = time.perf_counter()
        code, out, err = run(["oracle", "stab", SO_2, "--trials", "100000000", "--max-steps", "1000000"], capsys)
        assert (code, out) == (EXIT_BUDGET, "")
        assert json.loads(err) == {
            "error": "BUDGET_EXCEEDED",
            "detail": "trials * |component group| = 1600000000 exceeds 1000000",
        }
        assert time.perf_counter() - start < 2

    def test_ff_tables_of_length_q_counted(self, tmp_path, capsys):
        # rank 0: q^d * |F| and the value table are both 1, but powg and inverse have q entries
        code, out, err = run(["oracle", "stab", write_json(tmp_path, RANK_ZERO), "-q", MERSENNE_61], capsys)
        assert (code, out) == (EXIT_BUDGET, "")
        assert json.loads(err)["error"] == "BUDGET_EXCEEDED"

    @pytest.mark.parametrize(
        "command,owner,search",
        [(["symrank"], cli, "symrank_search"), (["oracle", "stab"], cli.oracle, "ff_stabilizer")],
        ids=["symrank", "oracle_stab"],
    )
    def test_memory_error_exit_3(self, command, owner, search, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(owner, search, out_of_memory)
        code, out, err = run([*command, write_json(tmp_path, SL2_NORMALIZER), "--format", "json"], capsys)
        assert (code, out) == (EXIT_BUDGET, "")
        assert json.loads(err) == {"error": "BUDGET_EXCEEDED", "detail": f"{' '.join(command)}: out of memory"}

    def test_element_cap_exit_3(self, fresh_caches, capsys, monkeypatch):
        # validate's failed report and ed's diagnostic carry the same code and exit status
        monkeypatch.setattr(monogrp, "ELEMENT_CAP", 10)
        expected = {"error": "LIMIT_EXCEEDED", "detail": "component group exceeds the cap of 10 elements"}
        code, out, _ = run(["validate", SO_2, "--format", "json"], capsys)
        doc = json.loads(out)
        assert (code, {k: doc[k] for k in expected}) == (EXIT_BUDGET, expected)
        code, out, err = run(["ed", SO_2, "--format", "json"], capsys)
        assert (code, out, json.loads(err)) == (EXIT_BUDGET, "", expected)

    def test_eta_search_obeys_max_steps(self, capsys):
        path = str(GOLDEN_INPUTS / "sl_7_2.json")
        code, out, _ = run(["eta", path, "-B", "1", "--format", "json"], capsys)
        sr = json.loads(out)["symrank"]
        assert (sr["value"], sr["status"]) == (6, "EXACT")
        # a search the budget stops reports no symrank, as before
        code, out, _ = run(["eta", path, "-B", "1", "--max-steps", "1", "--format", "json"], capsys)
        assert json.loads(out)["symrank"] is None

    def test_ed_file_search_obeys_max_steps(self, capsys):
        # unbounded, the search certifies eta = 6 on this split presentation
        path = str(GOLDEN_INPUTS / "sl_7_3.json")
        code, out, _ = run(["ed", path, "--max-steps", "1", "--format", "json"], capsys)
        doc = json.loads(out)
        assert code == EXIT_INCONCLUSIVE
        assert (doc["eta_lower"], doc["eta_upper"]) == (6, 7)
        assert doc["hypotheses"]["eta_certificate"] is None

    def test_oracle_symrank_obeys_max_steps(self, capsys):
        # the walk visits 1,956 unions of at most four orbits at B = 2
        code, out, err = run(["oracle", "symrank", SO_2, "-B", "2", "--max-steps", "1000"], capsys)
        assert code == EXIT_BUDGET
        assert out == ""
        assert json.loads(err)["error"] == "BUDGET_EXCEEDED"

    def test_oracle_symrank_sl_7_2_within_few_steps(self, capsys):
        # 5^6 box vectors at B = 2; the cuts find 6 within 100 unions, where the
        # walk without them would visit some 99.6 million
        path = str(GOLDEN_INPUTS / "sl_7_2.json")
        argv = ["oracle", "symrank", path, "-B", "2", "--max-steps", "100", "--format", "json"]
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["value"] == 6

    def test_oracle_symrank_box_cap_is_named(self, capsys):
        # 7^6 box vectors at the default B = 3: over the fixed cap, which the
        # step limit does not lift
        path = str(GOLDEN_INPUTS / "sl_7_2.json")
        code, out, err = run(["oracle", "symrank", path, "--max-steps", str(10**9)], capsys)
        assert (code, out) == (EXIT_BUDGET, "")
        doc = json.loads(err)
        assert doc["error"] == "BUDGET_EXCEEDED"
        assert "117649" in doc["detail"] and "100,000" in doc["detail"]

    def test_env_var_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EDTORUS_MAX_STEPS", "1")
        code, _, err = run(
            ["oracle", "stab", write_json(tmp_path, SL2_NORMALIZER)], capsys
        )
        assert code == EXIT_BUDGET

    def test_elementary_rank_search_obeys_max_steps(self, capsys):
        # the stabilizer image of order 8 is not abelian, so its rank is searched
        path = str(GOLDEN_INPUTS / "sl_7_2.json")
        code, out, err = run(["stabilizer", path, "--max-steps", "1"], capsys)
        assert (code, out) == (EXIT_BUDGET, "")
        assert json.loads(err) == {
            "error": "BUDGET_EXCEEDED",
            "detail": "elementary-rank search exceeds 1 subgroups",
        }
        code, out, _ = run(["stabilizer", path, "--format", "json"], capsys)
        doc = json.loads(out)
        assert (code, doc["p_rank"], doc["component_image_size"]) == (EXIT_OK, 2, 8)

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_env_var_budget_rejected(self, value, capsys, monkeypatch):
        # a malformed default is refused even when --max-steps overrides it
        monkeypatch.setenv("EDTORUS_MAX_STEPS", value)
        extra = ["--max-steps", "5"] if value == "abc" else []
        code, out, err = run(["validate", SO_2] + extra, capsys)
        assert code == EXIT_INVALID
        assert out == ""
        assert json.loads(err)["error"] == "BAD_INPUT"


class TestParserReuse:
    """One parser serves every `main` call of a process; no option of one
    request, nor the budget of the environment it ran in, reaches the next."""

    def test_parser_built_once(self, monkeypatch):
        # one top-level parser a process, and each parser on a path a request
        # took built once: none for the commands and kinds no request named
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs["prog"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser.cache_clear()
        for _ in range(5):
            assert main(["validate", SO_2, "--format", "json"]) == EXIT_OK
            assert main(["case", "so", "1", "--format", "json"]) == EXIT_OK
        assert (build_parser.cache_info().misses, build_parser.cache_info().hits) == (1, 9)
        assert built == ["edtorus", "edtorus validate", "edtorus case", "edtorus case so"]

    def test_options_do_not_carry_over(self, capsys):
        golden = GOLDEN_INPUTS.parent
        for argv, name in [
            (["eta", SO_2, "-B", "2"], "eta_so_2"),
            (["eta", SO_2], "eta_so_2"),
            (["eta", SO_2, "--rep", "none", "-B", "2"], "eta_so_2_norep"),
            (["symrank", SO_2, "-B", "2"], "symrank_so_2"),
        ]:
            code, out, _ = run(argv + ["--format", "json"], capsys)
            assert (code, out) == (EXIT_OK, (golden / f"{name}.json").read_text(encoding="utf-8"))
        # without -B symrank takes its default box again, not the last call's
        code, out, _ = run(["symrank", SO_2, "--format", "json"], capsys)
        assert json.loads(out)["search_bound"] == 3

    def test_max_steps_does_not_carry_over(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("EDTORUS_MAX_STEPS", raising=False)
        argv = ["oracle", "stab", write_json(tmp_path, SL2_NORMALIZER)]
        assert run(argv + ["--max-steps", "1"], capsys)[0] == EXIT_BUDGET
        assert run(argv, capsys)[0] == EXIT_OK

    def test_env_var_read_at_every_call(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("EDTORUS_MAX_STEPS", raising=False)
        argv = ["oracle", "stab", write_json(tmp_path, SL2_NORMALIZER)]
        assert run(argv, capsys)[0] == EXIT_OK
        monkeypatch.setenv("EDTORUS_MAX_STEPS", "1")
        assert run(argv, capsys)[0] == EXIT_BUDGET
        monkeypatch.setenv("EDTORUS_MAX_STEPS", "abc")
        code, _, err = run(argv, capsys)
        assert (code, json.loads(err)["error"]) == (EXIT_INVALID, "BAD_INPUT")
        monkeypatch.delenv("EDTORUS_MAX_STEPS")
        assert run(argv, capsys)[0] == EXIT_OK


def _parsed(parser, argv):
    """What parsing argv gives: its namespace, its diagnostic, or its exit with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except EdtorusError as exc:
        return exc.code, exc.detail
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


FAMILIES = {"case": ["sl", "so"], "table": ["sl", "so"], "oracle": ["stab", "symrank", "sylow"]}
COMMANDS = ["validate", "stabilizer", "symrank", "eta", "ed", *FAMILIES]
PARSER_ARGVS = [
    *(_argv(_golden(name).argv) + ["--format", _golden(name).fmt] for name in sorted(GOLDEN)),
    *BAD_ARGVS,
    *(argv for argv, _ in OUT_OF_RANGE),
    ["validate", SO_2],
    # help at every level, and paths that stop before a command is named
    ["-h"],
    ["--help"],
    *([command, "-h"] for command in COMMANDS),
    *([family, kind, "--help"] for family, kinds in FAMILIES.items() for kind in kinds),
    [],
    ["--format", "json", "validate", SO_2],
    ["case"],
    ["oracle"],
    ["case", "xx", "1"],
    ["table", "sl"],
    ["oracle", "nope", SO_2],
    ["ed", "case", "sl", "3"],
    ["frobnicate", "-h"],
]


class TestParserTree:
    """The parsers built as requests name them parse, refuse and print help
    as the whole tree built at once does, whatever the process ran before."""

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
    def test_fresh_tree_matches_whole_tree(self, argv):
        build_parser.cache_clear()
        assert _parsed(build_parser(), argv) == _parsed(build_parser_reference(), argv)

    def test_grown_tree_matches_whole_tree(self):
        # the second pass meets the parsers the first one grew, in another order
        build_parser.cache_clear()
        whole = build_parser_reference()
        for argv in PARSER_ARGVS[::-1] + PARSER_ARGVS:
            assert _parsed(build_parser(), argv) == _parsed(whole, argv), argv


class TestCoefficients:
    """Coefficients num/den read and written as reduced integer pairs, as `Fraction` read them."""

    fractions = st.tuples(st.integers(-30, 30), st.integers(-12, 12).filter(bool))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(e=st.integers(1, 12), coeffs=st.lists(fractions, min_size=2, max_size=2), block=st.lists(fractions, min_size=1, max_size=3))
    # negative, unreduced, zero, at least 1, and a denominator that does not divide e
    @example(e=6, coeffs=[(-1, 3), (4, -6)], block=[(0, 5), (7, 2), (-9, -12)])
    @example(e=4, coeffs=[(0, -7), (12, 4)], block=[(3, 3)])
    @example(e=4, coeffs=[(1, 2), (1, 3)], block=[(1, 2)])
    @example(e=12, coeffs=[(-25, 10), (6, 8)], block=[(-1, -1)])
    def test_matches_fraction_reference(self, e, coeffs, block):
        gen = {"perm": [2, 1], "coeff_num": [a for a, _ in coeffs], "coeff_den": [b for _, b in coeffs]}
        lines = {"weights": [[0]] * len(block), "generators": [{
            "perm": list(range(1, len(block) + 1)), "coeff_num": [a for a, _ in block], "coeff_den": [b for _, b in block],
        }]}
        doc = {**SL2_NORMALIZER, "root_of_unity_exponent": e, "generators": [gen], "extra_blocks": [lines]}
        try:
            expected = coefficients_reference(*zip(*coeffs), e)[0], coefficients_reference(*zip(*block))
        except EdtorusError as exc:
            with pytest.raises(EdtorusError) as got:
                cli.presentation_from_json(doc)
            assert (got.value.code, got.value.detail) == (exc.code, exc.detail)
            return
        P, (tail,) = cli.presentation_from_json(doc)
        assert (P.generators[0][1], (tail.gen_coeffs[0], tail.modulus)) == expected
        written = cli.presentation_to_json(P)["generators"][0]
        assert list(zip(written["coeff_num"], written["coeff_den"])) == [fraction_json_reference(c, e) for c in expected[0]]


class TestStepLimit:
    """The step limit of one request neither outlives it nor poisons a cache."""

    def test_main_restores_the_default(self, capsys):
        assert run(["oracle", "symrank", SO_2, "-B", "2", "--max-steps", "1"], capsys)[0] == EXIT_BUDGET
        assert MAX_STEPS.get() == DEFAULT_MAX_STEPS

    def test_block_restores_the_outer_limit(self):
        with limit_steps(50):
            with pytest.raises(EdtorusError):
                with limit_steps(1):
                    assert MAX_STEPS.get() == 1
                    raise EdtorusError("BUDGET_EXCEEDED")
            assert MAX_STEPS.get() == 50
            with limit_steps(2):
                assert MAX_STEPS.get() == 2
            assert MAX_STEPS.get() == 50
        assert MAX_STEPS.get() == DEFAULT_MAX_STEPS

    def test_stopped_search_is_not_cached(self, capsys):
        # the reverse order of TestBudgets.test_eta_search_obeys_max_steps
        path = str(GOLDEN_INPUTS / "sl_7_2.json")
        code, out, _ = run(["eta", path, "-B", "1", "--max-steps", "1", "--format", "json"], capsys)
        assert json.loads(out)["symrank"] is None
        code, out, _ = run(["eta", path, "-B", "1", "--format", "json"], capsys)
        sr = json.loads(out)["symrank"]
        assert (sr["value"], sr["status"]) == (6, "EXACT")


# -- random documents never end in a traceback ------------------------------------

GOLDEN_DOCS = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(GOLDEN_INPUTS.glob("*.json"))]

# Small integers and short arrays: no valid document can grow a big group.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-3, 12) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """The key path to every value nested inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_golden(draw):
    """A golden input with one key or element dropped, or one value replaced."""
    doc = json.loads(json.dumps(draw(st.sampled_from(GOLDEN_DOCS))))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.integers(-3, 12) | json_values)
    return doc


DOC_COMMANDS = ["validate", "stabilizer", "eta", "ed", "symrank", "oracle stab", "oracle symrank"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=json_values | mutated_golden(), command=st.sampled_from(DOC_COMMANDS))
def test_random_documents_exit_with_a_code(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("doc") / "input.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command.split(), str(path), "--format", "json", "--max-steps", "10000"])
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_INCONCLUSIVE, EXIT_BUDGET)
    if code != EXIT_OK:
        # a diagnostic on stderr, or validate's failed report on stdout
        lines = (out.getvalue() + err.getvalue()).splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0])["error"], str)
