import json
import shlex
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from cocheck import builtin, delta, load_spec
from cocheck.cli import main


@pytest.fixture(scope="module")
def schema():
    text = resources.files("cocheck").joinpath("report.schema.json").read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json", "--deterministic")
    return code, json.loads(out)


def nested_commutator(depth):
    """[[[x1,x2],x3],...] with `depth` brackets: 2^depth monomials."""
    expr = "x1"
    for k in range(depth):
        expr = f"[{expr},x{k % 8 + 2}]"
    return expr


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, _ = run(
            capsys, "check", "--example", "example1",
            "--checks", "coassoc,cocomm,coderivation", "--max-index", "20",
        )
        assert code == 0

    def test_fail_is_one(self, capsys):
        code, out = run(
            capsys, "check", "--example", "example2", "--checks", "cocomm",
            "--max-index", "10",
        )
        assert code == 1
        assert "FAIL" in out and "witness" in out

    def test_usage_error_is_two(self, capsys):
        assert main(["check", "--example", "example1"]) == 2
        assert main(["check", "--example", "nosuch", "--checks", "cocomm"]) == 2
        assert main(["bogus-command"]) == 2

    def test_unknown_check_suggests(self, capsys):
        code = main(
            ["check", "--example", "example1", "--checks", "cocom"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "cocomm" in err

    def test_budget_exceeded_is_three(self, capsys):
        code, _ = run(
            capsys, "closure", "--example", "example2", "--generators", "f:1",
            "--max-steps", "10",
        )
        assert code == 3

    def test_parse_error_in_identity(self, capsys):
        code = main(
            ["check", "--example", "example1", "--identity", "((x1 x2"]
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["check", "--example", "example1"],
        ["dual", "identity", "--example", "example4", "--bound", "3"],
    ], ids=["check", "dual-identity"])
    @pytest.mark.parametrize("identity, message", [
        # A skipped slot: linearizing cannot help, so it is not suggested.
        ("x1 x3", "identity is not multilinear: x2 does not occur in (x1 x3)\n"),
        ("x1 x2 + x1 x1",
         "identity is not multilinear: x1 occurs 2 times in (x1 x1); linearize it first\n"),
    ], ids=["skipped-slot", "repeated-slot"])
    def test_identity_that_is_not_multilinear(self, capsys, argv, identity, message):
        assert main(argv + ["--identity", identity]) == 2
        assert capsys.readouterr().err.endswith(message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--example", "example1", "--checks", "coassoc",
             "--max-index", "-5"],
            ["dual", "identity", "--example", "example4", "--identity", "(x1 x2)",
             "--bound", "-2"],
        ],
    )
    def test_empty_window_is_usage_error(self, capsys, argv):
        assert main(argv) == 2
        assert "nothing was checked" in capsys.readouterr().err

    def test_readme_commands(self, capsys, monkeypatch, tmp_path):
        # Every documented command still runs: each passes, except the
        # two closure runs from --generators, which diverge (exit 3).
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
        lines = [line for line in block.split("```", 1)[0].splitlines() if line]
        monkeypatch.chdir(tmp_path)
        codes, expected = [], []
        for line in lines:
            argv = shlex.split(line)
            assert argv[0] == "cocheck", line
            codes.append((line, main(argv[1:])))
            diverges = argv[1] == "closure" and "--generators" in argv
            expected.append((line, 3 if diverges else 0))
        capsys.readouterr()
        assert codes == expected
        assert sum(code == 3 for _, code in codes) == 2


class TestHostileInput:
    def test_deeply_nested_identity(self, capsys):
        deep = "(" * 3000 + "x1 x2" + ")" * 3000
        code = main(["check", "--example", "example1", "--identity", deep])
        assert code == 2
        assert "nested deeper" in capsys.readouterr().err

    def test_deeply_nested_rule_expression(self, capsys, tmp_path):
        from cocheck import dumps_spec

        data = json.loads(dumps_spec(builtin("example1")))
        data["delta"][1]["terms"][0]["coeff"] = "(" * 3000 + "1" + ")" * 3000
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(data))
        code = main(["check", "--spec", str(path), "--checks", "coassoc"])
        assert code == 2
        assert "nested deeper" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "identity",
        [" ".join(["x1"] * 1500), nested_commutator(25)],
        ids=["1500-factors", "depth-25-commutator"],
    )
    def test_oversized_identity(self, capsys, identity):
        started = time.monotonic()
        code = main(["check", "--example", "example1", "--identity", identity])
        assert time.monotonic() - started < 10
        assert code == 2
        assert "more than 12 variables" in capsys.readouterr().err

    def test_huge_exponent_in_rule_expression(self, capsys, tmp_path):
        from cocheck import dumps_spec

        data = json.loads(dumps_spec(builtin("example1")))
        data["delta"][1]["terms"][0]["coeff"] = "n^99999999"
        path = tmp_path / "power.json"
        path.write_text(json.dumps(data))
        started = time.monotonic()
        code = main(["check", "--spec", str(path), "--checks", "coassoc"])
        assert time.monotonic() - started < 10
        assert code == 2
        assert "degree above 32" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "where, literal, message",
        [
            ("identity", "9" * 5000 + " x1 x2", "integer literal longer than 4300 digits"),
            ("identity", "1/" + "9" * 5000 + " x1 x2", "integer literal longer than 4300 digits"),
            ("coeff", "9" * 5000, "integer literal longer than 4300 digits"),
            ("coeff", "n^" + "9" * 5000, "integer literal longer than 4300 digits"),
            ("shift_bound", "9" * 5000, "integer literal too long"),
        ],
        ids=["identity-coefficient", "identity-denominator", "rule-coefficient",
             "rule-exponent", "json-integer"],
    )
    def test_overlong_integer_literal(self, capsys, tmp_path, where, literal, message):
        from cocheck import dumps_spec

        if where == "identity":
            argv = ["--example", "example1", "--identity", literal]
        else:
            data = json.loads(dumps_spec(builtin("example1")))
            if where == "coeff":
                data["delta"][1]["terms"][0]["coeff"] = literal
                text = json.dumps(data)
            else:
                # json.dumps cannot write such an int, so splice it in.
                data[where] = "@"
                text = json.dumps(data).replace('"@"', literal)
            path = tmp_path / "long.json"
            path.write_text(text)
            argv = ["--spec", str(path), "--checks", "coassoc"]
        assert main(["check", *argv]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "coeff",
        ["n^" + "9" * 5000, "(" * 3000 + "1" + ")" * 3000],
        ids=["long-exponent", "deep-parentheses"],
    )
    def test_rule_expression_error_quotes_an_excerpt(self, capsys, tmp_path, coeff):
        from cocheck import dumps_spec

        data = json.loads(dumps_spec(builtin("example1")))
        data["delta"][1]["terms"][0]["coeff"] = coeff
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(data))
        assert main(["check", "--spec", str(path), "--checks", "coassoc"]) == 2
        err = capsys.readouterr().err
        assert len(err) < 200
        assert f"({len(coeff)} characters)" in err

    def test_unexpected_token_error_quotes_an_excerpt(self, capsys):
        identity = "x1 x2 " + "9" * 4000
        assert main(["check", "--example", "example1", "--identity", identity]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err) < 200
        assert "(4000 characters)" in err
        assert err.endswith(f"at position {len(identity)}")

    @pytest.mark.parametrize(
        "where, text, message",
        [
            ("identity", "x1 @ x2", "unexpected character '@' at position 2"),
            ("coeff", "n $ 1", "unexpected character '$' in expression 'n $ 1'"),
            ("coeff", "n/(n - n)", "division by zero"),
            ("coeff", "", "unexpected end of input in expression ''"),
            ("coeff", "n+", "unexpected end of input in expression 'n+'"),
        ],
        ids=["identity-character", "rule-character", "rule-division-by-zero",
             "rule-empty", "rule-truncated"],
    )
    def test_malformed_expression(self, capsys, tmp_path, where, text, message):
        from cocheck import dumps_spec

        if where == "identity":
            argv = ["--example", "example1", "--identity", text]
        else:
            data = json.loads(dumps_spec(builtin("example1")))
            data["delta"][1]["terms"][0]["coeff"] = text
            path = tmp_path / "malformed.json"
            path.write_text(json.dumps(data))
            argv = ["--spec", str(path), "--checks", "coassoc"]
        assert main(["check", *argv]) == 2
        assert message in capsys.readouterr().err

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        code = main(["check", "--spec", str(path), "--checks", "coassoc"])
        assert code == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "example, check",
        [("example8", "jordan-linearized"), ("example1", "coassoc")],
    )
    def test_signature_without_identity(self, capsys, example, check):
        # Catalog checks run ungraded, so a signature there would be
        # silently ignored: a wrong FAIL on example8, a PASS on example1.
        code = main(["check", "--example", example, "--checks", check,
                     "--signature", "eeee"])
        assert code == 2
        assert "--identity" in capsys.readouterr().err

    def test_empty_signature_is_not_ignored(self, capsys):
        code = main(["check", "--example", "example7",
                     "--identity", "(x1 x2)", "--signature", ""])
        assert code == 2
        assert "signature length 0" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_grassmann_without_samples_is_not_a_pass(self, capsys, samples):
        # No sample checks nothing, so it must not report pass.
        code = main(["dual", "grassmann", "--example", "example7",
                     "--samples", samples])
        assert code == 2
        assert "at least 1 sample" in capsys.readouterr().err

    @pytest.mark.parametrize("generators", ["17", "40"])
    def test_grassmann_generators_are_bounded(self, capsys, generators):
        # All 2^G exterior monomials are listed before any sample, so a
        # large G must be refused before the listing, not exhaust memory.
        started = time.monotonic()
        code = main(["dual", "grassmann", "--example", "example7",
                     "--generators", generators, "--samples", "1"])
        assert time.monotonic() - started < 1
        assert code == 2
        assert "at most 16 generators" in capsys.readouterr().err

    def test_negative_trials_are_not_ignored(self, capsys):
        # A negative trial count runs no random trial, so it must not be
        # reported as a pass of that many trials.
        code = main(["closure", "simplicity", "--example", "example5",
                     "--horizon", "4", "--trials", "-3"])
        assert code == 2
        assert "trials >= 0" in capsys.readouterr().err

    def test_trials_are_bounded(self, capsys):
        # Every random start is built before the first run, so a huge
        # trial count must be refused up front, not exhaust memory.
        started = time.monotonic()
        code = main(["closure", "simplicity", "--example", "example8",
                     "--horizon", "3", "--trials", "1001"])
        assert time.monotonic() - started < 1
        assert code == 2
        assert "at most 1000 trials" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["simplicity", "--example", "example5", "--horizon", "4",
          "--generators", "f:1"], "--generators"),
        (["simplicity", "--example", "example5", "--horizon", "4",
          "--max-steps", "1"], "--max-steps"),
        (["simplicity", "--example", "example5", "--max-dim", "9"], "--max-dim"),
        (["--example", "example1", "--generators", "e:0", "--horizon", "4",
          "--trials", "9", "--seed", "3"], "--horizon"),
        (["--example", "example1", "--generators", "e:0", "--trials", "9"],
         "--trials"),
        (["--example", "example1", "--generators", "e:0", "--seed", "0"],
         "--seed"),
    ])
    def test_closure_refuses_the_other_modes_flags(self, capsys, argv, flag):
        # A flag of the other closure mode would be silently ignored.
        code = main(["closure", *argv])
        assert code == 2
        assert f"{flag} is a closure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["grassmann", "--example", "example7", "--identity", "(x1x2)"], "--identity"),
        (["grassmann", "--example", "example7", "--bound", "3"], "--bound"),
        (["product", "--example", "example1", "--left", "f:1", "--right", "e:0",
          "--bound", "99"], "--bound"),
        (["product", "--example", "example1", "--left", "f:1", "--right", "e:0",
          "--seed", "0"], "--seed"),
        (["identity", "--example", "example1", "--identity", "x1 x2",
          "--left", "f:1"], "--left"),
        (["identity", "--example", "example1", "--identity", "x1 x2",
          "--samples", "0"], "--samples"),
        (["identity", "--example", "example1", "--identity", "x1 x2",
          "--generators", "40"], "--generators"),
    ])
    def test_dual_refuses_the_other_modes_flags(self, capsys, argv, flag):
        # A flag of another dual mode would be silently ignored.
        code = main(["dual", *argv])
        assert code == 2
        assert f"{flag} is a dual" in capsys.readouterr().err

    @pytest.mark.parametrize("construction", ["gelfand-dorfman", "antisymmetrize",
                                              "kantor"])
    def test_construct_refuses_horizon_outside_graded_dual(
        self, capsys, tmp_path, construction
    ):
        out = tmp_path / "out.json"
        code = main(["construct", construction, "--example", "example1",
                     "-o", str(out), "--horizon", "3"])
        assert code == 2
        assert "--horizon is a construct graded-dual flag" in capsys.readouterr().err
        assert not out.exists()


class TestCheckCommand:
    def test_bracketed_catalog_name_in_checks(self, capsys):
        code, report = run_json(
            capsys, "check", "--example", "example4",
            "--checks", "cocomm,[[x,y],[z,t]]", "--max-index", "4",
        )
        assert code in (0, 1)
        assert [r["check"] for r in report["results"]] == [
            "cocommutativity", "[[x,y],[z,t]]"
        ]

    def test_right_alternative_bundle(self, capsys):
        code, out = run(
            capsys, "check", "--example", "example9",
            "--checks", "right-alternative", "--max-index", "20",
        )
        assert code == 0
        assert "right-alternativity-linearized" in out
        assert "moufang-linearized" in out

    def test_explicit_identity(self, capsys):
        code, out = run(
            capsys, "check", "--example", "example2",
            "--identity", "((x1 x2) x3)", "--max-index", "20",
        )
        assert code == 0

    def test_signature_flag(self, capsys):
        code, _ = run(
            capsys, "check", "--example", "example7",
            "--identity", "(x1 x2) - (x2 x1)", "--signature", "oo",
            "--max-index", "15",
        )
        assert code == 0

    def test_spec_file_input(self, capsys, tmp_path):
        from cocheck import save_spec

        path = tmp_path / "ex5.json"
        save_spec(builtin("example5"), path)
        code, report = run_json(
            capsys, "check", "--spec", str(path),
            "--checks", "novikov", "--max-index", "20",
        )
        assert code == 0
        assert report["spec"]["source"] == f"file:{path}"
        assert "sha256" in report["spec"]

    def test_handwritten_spec_with_summation_and_guard(self, capsys, tmp_path):
        # A user-authored file: binomial-style rule on even indices only.
        path = tmp_path / "custom.json"
        path.write_text(
            json.dumps(
                {
                    "field": "Q",
                    "families": [{"name": "y", "parity": 0, "range": [0, None]}],
                    "shift_bound": 0,
                    "delta": [
                        {
                            "family": "y",
                            "terms": [
                                {
                                    "coeff": "1",
                                    "left": ["y", "i"],
                                    "right": ["y", "n - i"],
                                    "sum_to": "n + 0",
                                    "when": {"mod": 2, "rem": 0},
                                }
                            ],
                        }
                    ],
                }
            )
        )
        code, out = run(
            capsys, "check", "--spec", str(path), "--checks", "cocomm",
            "--max-index", "12",
        )
        assert code == 0
        code, _ = run(
            capsys, "check", "--spec", str(path), "--checks", "coassoc",
            "--max-index", "12",
        )
        assert code == 1  # guarded rule breaks coassociativity


    @pytest.mark.parametrize("argv", [
        ("check", "--checks", "cocomm", "--max-index", "5"),
        ("check", "--checks", "shift-bound", "--max-index", "5"),
        ("check", "--identity", "(x1 x2) - (x2 x1)", "--max-index", "5"),
        ("dual", "identity", "--identity", "(x1 x2) - (x2 x1)", "--bound", "5"),
    ], ids=["cocomm", "shift-bound", "identity", "dual-identity"])
    def test_rule_that_leaves_a_finite_family(self, capsys, tmp_path, argv):
        # delta(x_n) = y_n (x) y_n with y = [0, 2]: x_3 names y_3.
        path = tmp_path / "leave.json"
        path.write_text(json.dumps({
            "field": "Q",
            "families": [{"name": "x", "range": [0, None]}, {"name": "y", "range": [0, 2]}],
            "delta": [{"family": "x", "terms": [
                {"coeff": "1", "left": ["y", "n"], "right": ["y", "n"]}]}],
        }))
        split = 2 if argv[0] == "dual" else 1
        code = main([*argv[:split], "--spec", str(path), *argv[split:]])
        err = capsys.readouterr().err
        assert code == 2
        assert "index 3 outside range [0, 2] of family 'y'" in err


class TestClosureCommand:
    def test_finite_closure(self, capsys):
        code, report = run_json(
            capsys, "closure", "--example", "example1", "--generators", "e:0"
        )
        assert code == 0
        assert report["closure"]["verdict"] == "finite-dimensional"
        assert report["closure"]["final_dim"] == 1

    def test_divergence_trace(self, capsys):
        code, report = run_json(
            capsys, "closure", "--example", "example2", "--generators", "f:1",
            "--max-steps", "12",
        )
        assert code == 3
        assert report["closure"]["dims"][0] == 3

    def test_simplicity(self, capsys):
        code, report = run_json(
            capsys, "closure", "simplicity", "--example", "example5",
            "--horizon", "12", "--seed", "9",
        )
        assert code == 0
        assert report["simplicity"]["passed"] is True
        assert report["simplicity"]["seed"] == 9

    def test_bar_generator_labels(self, capsys):
        code, report = run_json(
            capsys, "closure", "--example", "example7", "--generators", "~f:1",
            "--max-steps", "10",
        )
        assert code == 3


class TestConstructCommand:
    def test_gelfand_dorfman_round_trip(self, capsys, tmp_path):
        out = tmp_path / "ex2.json"
        code, _ = run(
            capsys, "construct", "gelfand-dorfman", "--example", "example1",
            "-o", str(out),
        )
        assert code == 0
        spec = load_spec(out)
        assert spec.same_rules(builtin("example2"))

    def test_kantor_writes_example7(self, capsys, tmp_path):
        out = tmp_path / "ex7.json"
        code, _ = run(
            capsys, "construct", "kantor", "--example", "example1", "-o", str(out)
        )
        assert code == 0
        assert load_spec(out).same_rules(builtin("example7"))

    def test_antisymmetrize_matches_example6(self, capsys, tmp_path):
        out = tmp_path / "ex6.json"
        code, _ = run(
            capsys, "construct", "antisymmetrize", "--example", "example5",
            "-o", str(out),
        )
        assert code == 0
        spec = load_spec(out)
        ex6 = builtin("example6")
        for n in range(31):
            assert delta(spec, spec.label("x", n)) == delta(ex6, ex6.label("x", n))

    def test_graded_dual_of_builtin_algebra(self, capsys, tmp_path):
        out = tmp_path / "ex4.json"
        code, _ = run(
            capsys, "construct", "graded-dual", "--example", "fx-diff-algebra",
            "-o", str(out), "--horizon", "20",
        )
        assert code == 0
        spec = load_spec(out)
        ex4 = builtin("example4")
        for n in range(16):
            assert delta(spec, spec.label("x", n)) == delta(ex4, ex4.label("x", n))


    def test_graded_dual_coderivation_stops_at_its_window(self, capsys, tmp_path):
        # A graded dual built at horizon 12 defines its coderivation up to
        # index 11 only; checking index 12 is a usage error, not a pass.
        out = tmp_path / "gd12.json"
        code, _ = run(
            capsys, "construct", "graded-dual", "--example", "fx-diff-algebra",
            "-o", str(out), "--horizon", "12",
        )
        assert code == 0
        argv = ["check", "--spec", str(out), "--checks", "coderivation"]
        assert main([*argv, "--max-index", "12"]) == 2
        assert "only defined up to index 11" in capsys.readouterr().err
        assert main([*argv, "--max-index", "11"]) == 0


class TestDualCommand:
    def test_product(self, capsys):
        code, report = run_json(
            capsys, "dual", "product", "--example", "example1",
            "--left", "f:1", "--right", "e:0",
        )
        assert code == 0
        assert report["product"].endswith("1*xi_f:1")

    def test_identity_oracle(self, capsys):
        code, _ = run(
            capsys, "dual", "identity", "--example", "example3",
            "--identity", "[[x1,x2],[x3,x4]]", "--bound", "6",
        )
        assert code == 0

    def test_grassmann(self, capsys):
        code, report = run_json(
            capsys, "dual", "grassmann", "--example", "example7",
            "--generators", "3", "--samples", "20", "--seed", "7",
        )
        assert code == 0
        assert report["seed"] == 7


class TestListExamples:
    def test_text(self, capsys):
        code, out = run(capsys, "list-examples")
        assert code == 0
        for name in [f"example{k}" for k in range(1, 10)] + ["fx-diff-algebra"]:
            assert name in out
        assert "antisymmetrize(example2)" in out

    def test_json(self, capsys):
        code, report = run_json(capsys, "list-examples")
        assert code == 0
        assert len(report["examples"]) == 10


class TestReports:
    def test_json_reports_validate_against_schema(self, capsys, schema):
        cases = [
            ["check", "--example", "example1", "--checks", "coassoc",
             "--max-index", "10"],
            ["check", "--example", "example2", "--checks", "cocomm",
             "--max-index", "10"],
            ["closure", "--example", "example1", "--generators", "e:0"],
            ["closure", "simplicity", "--example", "example4", "--horizon", "8"],
            ["dual", "product", "--example", "example1", "--left", "e:0",
             "--right", "e:0"],
            ["list-examples"],
        ]
        for argv in cases:
            _, report = run_json(capsys, *argv)
            jsonschema.validate(report, schema)

    def test_construct_report_validates(self, capsys, schema, tmp_path):
        out = tmp_path / "c.json"
        _, report = run_json(
            capsys, "construct", "gelfand-dorfman", "--example", "example1",
            "-o", str(out),
        )
        jsonschema.validate(report, schema)

    def test_deterministic_reports_are_byte_identical(self, capsys):
        argv = [
            "closure", "simplicity", "--example", "example5", "--horizon", "10",
            "--seed", "3", "--json", "--deterministic",
        ]
        first = main(list(argv))
        out1 = capsys.readouterr().out
        second = main(list(argv))
        out2 = capsys.readouterr().out
        assert first == second == 0
        assert out1 == out2

    def test_seed_echoed(self, capsys):
        _, report = run_json(
            capsys, "dual", "grassmann", "--example", "example7",
            "--samples", "5", "--seed", "21",
        )
        assert report["seed"] == 21
