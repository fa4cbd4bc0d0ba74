"""Command-line behavior: spec examples, exit codes, determinism."""

import json
from fractions import Fraction as F

import pytest

from comodular import Interval, SetFunction
from comodular.cli import main
from comodular.setfunc import dump_set_function, from_payload, validate

V = SetFunction(2, (F(0), F(3, 10), F(1, 2), F(1)))
MU = SetFunction(2, (F(0), F(3, 10), F(3, 5), F(1)))


@pytest.fixture
def v_file(tmp_path):
    path = tmp_path / "v.json"
    dump_set_function(V, str(path), role="signed")
    return str(path)


@pytest.fixture
def mu_file(tmp_path):
    path = tmp_path / "mu.json"
    dump_set_function(MU, str(path), role="ivalued", interval=Interval(0, 1))
    return str(path)


@pytest.fixture
def phi_file(tmp_path):
    path = tmp_path / "phi.json"
    path.write_text(
        json.dumps(
            {
                "breakpoints": [["0", "0"], ["1/2", "1"], ["1", "1"]],
                "properties": ["nondecreasing", "vanishes-at-0"],
            }
        )
    )
    return str(path)


class TestEval:
    def test_choquet_value(self, v_file, capsys):
        code = main(["eval", "--integral", "choquet", "--capacity", v_file, "--x", "[1/5,7/10]"])
        assert code == 0
        assert capsys.readouterr().out == "9/20\n"

    def test_sugeno_at_the_bottom(self, mu_file, capsys):
        code = main(["eval", "--integral", "sugeno", "--capacity", mu_file, "--x", "[0,0]"])
        assert code == 0
        assert capsys.readouterr().out == "0\n"

    def test_quasi_choquet_with_transform(self, v_file, phi_file, capsys):
        code = main(
            [
                "eval",
                "--integral",
                "quasi-choquet",
                "--capacity",
                v_file,
                "--phi",
                phi_file,
                "--x",
                "[1/5,7/10]",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "7/10\n"

    def test_json_document(self, v_file, capsys):
        code = main(
            [
                "eval",
                "--integral",
                "choquet",
                "--capacity",
                v_file,
                "--x",
                "[1/5,7/10]",
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "verb": "eval",
            "integral": "choquet",
            "mode": "rational",
            "x": ["1/5", "7/10"],
            "value": "9/20",
        }

    def test_float_mode_labels_the_header(self, v_file, capsys):
        code = main(
            [
                "eval",
                "--integral",
                "choquet",
                "--capacity",
                v_file,
                "--x",
                "[1/5,7/10]",
                "--mode",
                "float",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# mode: float")
        assert out.endswith("0.45\n")

    def test_mean_needs_no_capacity(self, capsys):
        code = main(["eval", "--integral", "mean", "--x", "[0,1,1/2]"])
        assert code == 0
        assert capsys.readouterr().out == "1/2\n"


class TestAudit:
    def test_signed_family_passes(self, v_file, capsys):
        code = main(
            [
                "audit",
                "--fn",
                "choquet",
                "--capacity",
                v_file,
                "--box",
                "[-1,1]",
                "--k",
                "5",
                "--axioms",
                "comono_modular,sign_homog_rays,dual_shift",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "comono_modular: pass" in out
        assert "consistent with a signed Choquet integral on this grid" in out

    def test_failures_exit_one_with_witness(self, mu_file, capsys):
        code = main(
            [
                "audit",
                "--fn",
                "shilkret",
                "--capacity",
                mu_file,
                "--box",
                "[0,1]",
                "--axioms",
                "comono_maxitive,comono_minitive",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "comono_maxitive: pass" in out
        assert "comono_minitive: fail" in out
        assert "witness" in out

    def test_json_report_shape(self, v_file, capsys):
        code = main(
            [
                "audit",
                "--fn",
                "choquet",
                "--capacity",
                v_file,
                "--box",
                "[-1,1]",
                "--axioms",
                "comono_modular",
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verb"] == "audit"
        assert doc["reports"][0]["axiom"] == "comono_modular"
        assert doc["reports"][0]["verdict"] == "pass"
        assert doc["summary"]["vanishes_at_origin"] is True

    def test_unknown_axiom_is_a_usage_error(self, v_file, capsys):
        code = main(
            [
                "audit",
                "--fn",
                "choquet",
                "--capacity",
                v_file,
                "--box",
                "[-1,1]",
                "--axioms",
                "comonotone_additive",
            ]
        )
        assert code == 2

    def test_identical_invocations_are_byte_identical(self, mu_file, capsys):
        argv = [
            "audit",
            "--fn",
            "sugeno",
            "--capacity",
            mu_file,
            "--box",
            "[0,1]",
            "--axioms",
            "comono_maxitive,comono_minitive,idempotent",
            "--format",
            "json",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


class TestFit:
    def test_signed_fit_prints_the_table(self, v_file, capsys):
        code = main(
            [
                "fit",
                "--fit",
                "signed-choquet",
                "--fn",
                "choquet",
                "--capacity",
                v_file,
                "--box",
                "[-1,1]",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("fitted\n")
        assert "{1}: 3/10" in out

    def test_refusals_exit_one(self, v_file, capsys):
        code = main(
            [
                "fit",
                "--fit",
                "quasi-sugeno",
                "--fn",
                "choquet",
                "--capacity",
                v_file,
                "--box",
                "[0,1]",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "refused: weak_max_homog" in out

    def test_quasi_fit_json_carries_capacity_and_transform(self, v_file, phi_file, capsys):
        code = main(
            [
                "fit",
                "--fit",
                "quasi-choquet",
                "--fn",
                "quasi-choquet",
                "--capacity",
                v_file,
                "--phi",
                phi_file,
                "--box",
                "[0,1]",
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fitted"] is True
        assert {"set": [1], "value": "3/10"} in doc["capacity"]
        assert ["1/4", "1/2"] in doc["transform"]["breakpoints"]

    @pytest.mark.parametrize("fit", ["signed-choquet", "symmetric"])
    def test_float_mode_renders_capacity_values_as_floats(self, fit, v_file, capsys):
        argv = ["fit", "--fit", fit, "--fn", fit.replace("signed-", ""), "--capacity", v_file]
        argv += ["--box", "[-1,1]", "--format", "json", "--mode", "float"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"set": [1], "value": "0.3"} in doc["capacity"]

    def test_symmetric_fit_refuses_one_sided_boxes(self, v_file, capsys):
        code = main(
            [
                "fit",
                "--fit",
                "symmetric",
                "--fn",
                "symmetric",
                "--capacity",
                v_file,
                "--box",
                "[0,1]",
            ]
        )
        assert code == 1
        assert "refused: domain" in capsys.readouterr().out


class TestGen:
    def test_gen_is_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gen", "--role", "signed", "--seed", "1", "--n", "2", "--out", str(a)]) == 0
        assert main(["gen", "--role", "signed", "--seed", "1", "--n", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generated_capacity_validates(self, capsys):
        assert main(["gen", "--role", "capacity", "--seed", "9", "--n", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        sf, role, _ = from_payload(payload)
        assert role == "capacity"
        assert validate(sf, "capacity").ok

    def test_generated_interval_capacity_hits_endpoints(self, capsys):
        assert (
            main(["gen", "--role", "ivalued", "--seed", "4", "--n", "2", "--interval", "[0,1]"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"][0]["value"] == "0"
        assert payload["values"][-1]["value"] == "1"
        assert payload["interval"] == ["0", "1"]

    def test_gen_output_is_loadable_by_eval(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        main(["gen", "--role", "signed", "--seed", "2", "--n", "2", "--out", str(path)])
        code = main(["eval", "--integral", "choquet", "--capacity", str(path), "--x", "[1,1]"])
        assert code == 0
        payload = json.loads(path.read_text())
        assert capsys.readouterr().out.strip() == payload["values"][-1]["value"]


class TestUsage:
    def test_eps_requires_float_mode(self, v_file):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "eval",
                    "--integral",
                    "choquet",
                    "--capacity",
                    v_file,
                    "--x",
                    "[0,0]",
                    "--eps",
                    "1/100",
                ]
            )
        assert exc.value.code == 2

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(
            [
                "eval",
                "--integral",
                "choquet",
                "--capacity",
                str(tmp_path / "nope.json"),
                "--x",
                "[0,0]",
            ]
        )
        assert code == 2

    def test_unknown_verb_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["explain"])
        assert exc.value.code == 2

    def test_bad_point_syntax_exits_two(self, v_file):
        code = main(["eval", "--integral", "choquet", "--capacity", v_file, "--x", "[]"])
        assert code == 2

    def test_wrong_role_file_exits_two(self, tmp_path):
        path = tmp_path / "drop.json"
        dump_set_function(
            SetFunction(2, (F(0), F(1, 2), F(1, 2), F(1, 4))), str(path), role="signed"
        )
        code = main(["eval", "--integral", "shilkret", "--capacity", str(path), "--x", "[1,1]"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["audit", "--fn", "mean", "--n", "0", "--box", "[0,1]", "--axioms", "modular"],
             "n must be at least 1"),
            (["audit", "--fn", "mean", "--n", "1", "--box", "[0,1]", "--axioms", "modular",
              "--mode", "float", "--eps", "-1"], "--eps must be >= 0"),
            (["eval", "--integral", "choquet", "--capacity", "{no_set}", "--x", "[0]"],
             "malformed capacity payload"),
            (["eval", "--integral", "sugeno", "--capacity", "{interval_short}", "--x", "[1]"],
             "malformed capacity payload"),
            (["eval", "--integral", "sugeno", "--capacity", "{interval_scalar}", "--x", "[1]"],
             "malformed capacity payload"),
            (["eval", "--integral", "sugeno", "--capacity", "{interval_long}", "--x", "[1]"],
             "malformed capacity payload"),
            (["eval", "--integral", "choquet", "--capacity", "{role_list}", "--x", "[1]"],
             "malformed capacity payload"),
            (["eval", "--integral", "quasi-choquet", "--capacity", "{signed}",
              "--phi", "{phi_list}", "--x", "[1]"], "malformed transform payload"),
            (["eval", "--integral", "quasi-choquet", "--capacity", "{signed}",
              "--phi", "{phi_short_breakpoint}", "--x", "[1]"], "malformed transform payload"),
            (["eval", "--integral", "quasi-choquet", "--capacity", "{signed}",
              "--phi", "{phi_scalar_breakpoints}", "--x", "[1]"], "malformed transform payload"),
            (["eval", "--integral", "quasi-choquet", "--capacity", "{signed}",
              "--phi", "{phi_list_properties}", "--x", "[1]"], "malformed transform payload"),
            (["eval", "--integral", "quasi-choquet", "--capacity", "{signed}",
              "--phi", "{phi_mixed_properties}", "--x", "[1]"], "unknown transform properties"),
            (["eval", "--integral", "quasi-choquet", "--capacity", "{signed}",
              "--phi", "{phi_list_name}", "--x", "[1]"], "malformed transform payload"),
            (["audit", "--fn", "choquet", "--capacity", "{signed}", "--n", "3",
              "--box", "[0,1]", "--axioms", "modular"], "capacity has n=1, but n=3 was given"),
            (["fit", "--fit", "signed-choquet", "--fn", "choquet", "--capacity", "{signed}",
              "--n", "2", "--box", "[0,1]"], "capacity has n=1, but n=2 was given"),
            (["audit", "--fn", "mean", "--n", "1", "--box", "[0,1]", "--axioms", ""],
             "no axioms given"),
            (["audit", "--fn", "mean", "--n", "1", "--box", "[0,1]", "--axioms", " , "],
             "no axioms given"),
        ],
        ids=[
            "zero-arity",
            "negative-eps",
            "entry-without-set",
            "interval-one-entry",
            "interval-not-a-list",
            "interval-three-entries",
            "role-not-a-string",
            "transform-not-an-object",
            "breakpoint-not-a-pair",
            "breakpoints-not-a-list",
            "properties-not-strings",
            "properties-of-mixed-types",
            "transform-name-not-a-string",
            "audit-n-contradicts-capacity",
            "fit-n-contradicts-capacity",
            "audit-empty-axioms",
            "audit-blank-axioms",
        ],
    )
    def test_bad_input_is_a_one_line_error(self, argv, message, tmp_path, capsys):
        signed = {"n": 1, "values": [{"set": [], "value": "0"}, {"set": [1], "value": "1"}]}
        files = {
            "no_set": {"n": 1, "values": [{"value": "0"}], "role": "signed"},
            "signed": signed,
            "role_list": dict(signed, role=["x"]),
            "phi_list": [["0", "0"], ["1", "1"]],
            "phi_short_breakpoint": {"breakpoints": [[0]]},
            "phi_scalar_breakpoints": {"breakpoints": 5},
            "phi_list_properties": {"breakpoints": [[0, 0], [1, 1]], "properties": [["odd"]]},
            "phi_mixed_properties": {"breakpoints": [[0, 0], [1, 1]], "properties": [1, "x"]},
            "phi_list_name": {"name": ["cube"]},
        }
        for name, interval in (("short", ["0"]), ("scalar", 5), ("long", ["0", "1", "2"])):
            files["interval_" + name] = dict(signed, role="ivalued", interval=interval)
        paths = {}
        for name, payload in files.items():
            paths[name] = tmp_path / (name + ".json")
            paths[name].write_text(json.dumps(payload))
        code = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_eval_keeps_the_point_length_message(self, v_file, capsys):
        code = main(["eval", "--integral", "choquet", "--capacity", v_file, "--x", "[1]"])
        assert code == 2
        assert capsys.readouterr().err == "error: set function has n=2, point has n=1\n"
