import argparse
import collections
import hashlib
import json
import math
from fractions import Fraction as F

import pytest

from cachecast import caching, cli, combinatorics, finite_snr, polytope, regions, tradeoff
from cachecast.cli import main
from cachecast.polytope import Polytope


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(args, capsys):
    """argparse's own refusal of the argv: SystemExit with its usage error."""
    with pytest.raises(SystemExit) as exc:
        main(args)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


FIG3 = ["--K", "4", "--N", "4", "--alpha", "0.45,0.65,0.85,1"]
K12_ALPHA = "1/12,1/6,1/4,1/3,5/12,1/2,7/12,2/3,3/4,5/6,11/12,1"


class TestGndt:
    def test_integer_budget_values(self, capsys):
        code, out, _ = run(
            ["gndt", *FIG3, "--mu-grid", "0:1:0.25", "--exact"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mu,tau_ub,tau_ms,tau_lb,tau_ub_exact,tau_ms_exact,tau_lb_exact"
        cells = [line.split(",") for line in lines[1:]]
        assert [c[4] for c in cells] == ["4/1", "25/13", "10/9", "5/9", "0/1"]
        # lower bound carries the converse factor exactly
        assert cells[1][6] == str(F(25, 13) / F(201, 100))

    def test_infinite_delivery_time_rendered(self, capsys):
        code, out, _ = run(
            ["gndt", "--K", "2", "--N", "2", "--alpha", "0.5,1", "--mu", "0.25",
             "--r", "0.5,0"],
            capsys,
        )
        assert code == 0
        assert "inf" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            ["gndt", *FIG3, "--mu", "0.25", "--format", "json"], capsys
        )
        assert code == 0
        records = json.loads(out)
        assert records[0]["tau_ub"] == "1.92307692308"

    def test_bad_alpha_order_is_usage_error(self, capsys):
        code, _, err = run(
            ["gndt", "--K", "2", "--N", "2", "--alpha", "1,0.5", "--mu", "0"], capsys
        )
        assert code == 2
        assert "nondecreasing" in err

    def test_missing_alpha_is_usage_error(self, capsys):
        code, _, err = run(["gndt", "--K", "2", "--N", "2", "--mu", "0"], capsys)
        assert code == 2
        assert "alpha" in err

    def test_determinism(self, tmp_path, capsys):
        args = ["gndt", *FIG3, "--mu-grid", "0:1:0.05", "--exact"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"K": 4, "N": 4, "alpha": "0.45,0.65,0.85,1", "mu": "0"})
        )
        code, out, _ = run(
            ["gndt", "--config", str(config), "--mu", "0.25"], capsys
        )
        assert code == 0
        assert out.splitlines()[1].startswith("0.25,")

    @pytest.mark.parametrize(
        "stored,flags,mus",
        [
            ({"mu-grid": "0:1:1/2"}, ["--mu", "1/3"], ["0.333333333333"]),
            ({"mu": "1/3"}, ["--mu-grid", "0:1:1/2"], ["0", "0.5", "1"]),
            ({"mu-grid": "0:1:1/2"}, [], ["0", "0.5", "1"]),
        ],
        ids=["flag-mu-over-config-grid", "flag-grid-over-config-mu", "config-grid"],
    )
    def test_mu_and_grid_flags_override_either_config_value(
        self, stored, flags, mus, tmp_path, capsys
    ):
        """--mu and --mu-grid are alternatives: a flag for one wins over a
        config value for either."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps(stored))
        code, out, err = run(["gndt", *FIG3, "--config", str(config), *flags], capsys)
        assert (code, err) == (0, "")
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == mus


class TestUsageErrors:
    TWO = ["--K", "2", "--N", "2", "--alpha", "1/2,1"]

    @pytest.mark.parametrize("command", ["gndt", "sweep-memory", "holes"])
    @pytest.mark.parametrize("power", ["nan", "inf", "1", "0.5"])
    def test_power_it_cannot_honour(self, command, power, capsys):
        """GDoF is the P -> infinity limit: these commands take no --P at all."""
        code, out, err = refused([command, *self.TWO, "--mu", "1/2", "--P", power], capsys)
        assert code == 2
        assert f"unrecognized arguments: --P {power}" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv,token",
        [
            (["gndt", *TWO, "--mu", "1/0"], "1/0"),
            (["gndt", "--K", "2", "--N", "2", "--alpha", "1/0,1", "--mu", "1/2"], "1/0"),
            (["gndt", *TWO, "--mu", "1/2", "--r", "1/0,0"], "1/0"),
            (["gndt", *TWO, "--mu-grid", "0:1:0/0"], "0/0"),
            (["sweep-memory", *TWO, "--mu-grid", "0:1/0:1/4"], "1/0"),
            (["holes", *TWO, "--mu", "1/0"], "1/0"),
            (["holes", "--K", "2", "--N", "2", "--alpha", "1/0,1", "--mu", "1/2"], "1/0"),
            (["verify", "--K", "2", "--N", "2", "--mu", "1/0"], "1/0"),
            (["region", "--K", "2", "--sigma", "2", "--alpha", "1/0,1"], "1/0"),
            (["finite-snr", "--K", "2", "--sigma", "2", "--alpha", "1/0,1"], "1/0"),
        ],
        ids=["gndt-mu", "gndt-alpha", "gndt-r", "gndt-grid-step", "sweep-grid-end", "holes-mu",
             "holes-alpha", "verify-mu", "region-alpha", "finite-snr-alpha"],
    )
    def test_zero_denominator(self, argv, token, capsys):
        """A number with a zero denominator is a usage error naming the token,
        not a crash reported as a failed verification."""
        code, out, err = run(argv, capsys)
        assert code == 2
        assert f"'{token}' has a zero denominator" in err
        assert "Traceback" not in err
        assert out == ""


    @pytest.mark.parametrize("flag,message", [
        ("--K", "--K takes an int, got '--'"),
        ("--alpha", "--alpha: '--' is not a number"),
    ])
    def test_double_dash_value_is_named_as_typed(self, flag, message, capsys):
        """`--` after a value flag is its value, checked as any other text is."""
        argv = {"--K": "2", "--N": "2", "--alpha": "1/2,1", "--mu": "1/2", flag: "--"}
        code, out, err = run(["gndt", *(t for pair in argv.items() for t in pair)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_double_dash_out_is_a_file_name(self, tmp_path, capsys, monkeypatch):
        """--out -- writes the file named --, as --out -x writes -x."""
        monkeypatch.chdir(tmp_path)
        argv = ["gndt", "--K", "2", "--N", "2", "--alpha", "1/2,1", "--mu", "1/2"]
        assert run([*argv, "--out", "--"], capsys) == (0, "", "")
        assert (tmp_path / "--").read_text() == run(argv, capsys)[1] != ""

    def test_mu_and_grid_in_one_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"mu": "1/3", "mu-grid": "0:1:1/2"}))
        code, out, err = run(["gndt", *self.TWO, "--config", str(config)], capsys)
        assert code == 2
        assert "--mu and --mu-grid are alternatives" in err and out == ""


class TestFlagsPerCommand:
    """Each command takes exactly the flags its handler reads; any other is
    exit 2.  Required flags may come from --config, and every list flag
    reads comma text or a JSON list, naming itself and the token it refuses."""

    TAKEN = {
        "gndt": "--K --N --alpha --config --exact --format --mu --mu-grid --out --r",
        "sweep-memory": "--K --N --alpha --config --format --mu --mu-grid --out --r",
        "holes": "--K --N --alpha --config --mu --out",
        "region": "--K --alpha --config --gamma --kind --leaders --out --s --sigma",
        "verify": "--B --K --N --config --d --inject-fault --max-K --max-N --mu --out "
                  "--region-trials --seed",
        "finite-snr": "--K --P --alpha --certificates --config --out --seed --sigma",
    }
    VALID = {
        "gndt": [*FIG3, "--mu", "1/4"],
        "sweep-memory": [*FIG3, "--mu", "1/4"],
        "holes": [*FIG3, "--mu", "1/4"],
        "region": ["--K", "3", "--sigma", "2", "--alpha", "0.4,0.9,1"],
        "verify": ["--K", "3", "--N", "2", "--mu", "1/3", "--region-trials", "1"],
        "finite-snr": ["--K", "2", "--sigma", "2", "--alpha", "1/2,1", "--certificates", "1"],
    }

    def test_each_command_takes_these_flags(self):
        sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        taken = {
            name: " ".join(sorted(s for a in p._actions for s in a.option_strings if a.dest != "help"))
            for name, p in sub.choices.items()
        }
        assert taken == self.TAKEN
        assert sum(len(flags.split()) for flags in taken.values()) == 54

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("gndt", "--P", "3"), ("gndt", "--seed", "4"),
            ("sweep-memory", "--P", "3"), ("sweep-memory", "--seed", "4"),
            ("holes", "--P", "7"), ("holes", "--seed", "9"), ("holes", "--format", "csv"),
            ("region", "--P", "7"), ("region", "--seed", "9"), ("region", "--format", "json"),
            ("verify", "--alpha", "1/3,1"), ("verify", "--P", "9"), ("verify", "--format", "json"),
            ("finite-snr", "--format", "csv"),
            # a prefix is not its flag: --region-trials, --seed, --mu-grid
            ("verify", "--r", "1"), ("verify", "--s", "5"), ("gndt", "--mu-g", "0:1:1/2"),
            # a negative value is named as typed, not joined to a flag the command lacks
            ("holes", "--P", "-1"), ("verify", "--r", "-1"),
        ],
    )
    def test_flag_the_command_does_not_take_is_usage_error(
        self, command, flag, value, tmp_path, capsys
    ):
        out_file = tmp_path / "out"
        argv = [command, *self.VALID[command], flag, value, "--out", str(out_file)]
        code, out, err = refused(argv, capsys)
        assert code == 2 and f"unrecognized arguments: {flag} {value}" in err
        assert err.startswith(f"usage: cachecast {command} ")  # the command's usage, not the top's
        assert out == "" and not out_file.exists()

    def test_flag_the_command_does_not_take_prints_its_usage(self, capsys):
        code, out, err = refused(["verify", "--K", "2", "--N", "2", "--mu", "1/2", "--r", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: cachecast verify ")
        assert "--region-trials" in err.split("error:")[0]
        assert err.endswith("error: unrecognized arguments: --r 1\n")

    @pytest.mark.parametrize("argv,flag,value", [
        (["gndt", *FIG3, "--mu", "1/4", "--exact=yes"], "--exact", "yes"),
        (["verify", "--K", "2", "--N", "2", "--mu", "1/2", "--inject-fault="], "--inject-fault", ""),
    ], ids=["exact", "inject-fault-empty"])
    def test_switch_given_a_value_is_usage_error(self, argv, flag, value, capsys):
        code, out, err = refused(argv, capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: ignored explicit argument {value!r}\n")

    @pytest.mark.parametrize("argv,flag", [
        (["gndt", *FIG3, "--mu", "--exact"], "--mu"),
        (["verify", "--K", "2", "--N", "2", "--mu", "1/2", "--seed", "--inject-fault"], "--seed"),
    ], ids=["gndt", "verify"])
    def test_flag_after_a_value_flag_is_not_its_value(self, argv, flag, capsys):
        """A switch after a value flag is a switch, and the value flag has no value."""
        code, out, err = refused(argv, capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: expected one argument\n")

    def test_repeated_flag_keeps_its_last_value(self, capsys):
        argv = ["gndt", *FIG3, "--mu", "1/4", "--format", "json", "--mu=1/2", "--format", "csv"]
        code, out, err = run(argv, capsys)
        assert (code, err) == (0, "")
        assert out == run(["gndt", *FIG3, "--mu", "1/2"], capsys)[1] and out.startswith("mu,")

    @pytest.mark.parametrize(
        "argv,code,digest",
        [
            (["--help"], 0, "34d99a242c8a806e"),
            ([], 2, "701a9cf98406302f"),
            (["nope"], 2, "fa7ab56430e3b715"),
            (["gndt", "--help"], 0, "7290ae61f29775d4"),
            (["gndt", "--P", "3"], 2, "75eabc7859d440a1"),
            (["gndt", "--mu", "--K", "3"], 2, "05846eb432f14e7b"),
            (["sweep-memory", "--help"], 0, "e30fff47df99bf3b"),
            (["sweep-memory", "--seed", "4"], 2, "efab6a5227c3bb64"),
            (["sweep-memory", "--mu", "--K", "3"], 2, "2933a4a40764e41d"),
            (["holes", "--help"], 0, "f14c99990f3f7c52"),
            (["holes", "--format", "csv"], 2, "59424540ddf1b23a"),
            (["holes", "--mu", "--K", "3"], 2, "b8d78300d98b876b"),
            (["region", "--help"], 0, "6ac430361d95356e"),
            (["region", "--P", "7"], 2, "b7795ec2ecda7dd8"),
            (["region", "--mu", "--K", "3"], 2, "4078c430c0324257"),
            (["verify", "--help"], 0, "901c1b2372442f05"),
            (["verify", "--alpha", "1/3,1"], 2, "e52730a126a28ce0"),
            (["verify", "--mu", "--K", "3"], 2, "c7c7e2c9893e02ad"),
            (["finite-snr", "--help"], 0, "ca91cd9cd6c5b759"),
            (["finite-snr", "--format", "csv"], 2, "f4b331bc067b223d"),
            (["finite-snr", "--mu", "--K", "3"], 2, "844d7906b66debc5"),
        ],
    )
    def test_help_and_refusals_are_pinned(self, argv, code, digest, capsys, monkeypatch):
        """Help, a missing or unknown command, a flag the command lacks and a
        value flag without its value: exit code, stdout and stderr are pinned
        (sha256 of `out NUL err`, 16 hex digits, on an 80-column terminal), so
        parsing argv with the command's own parser prints what the top parser did."""
        monkeypatch.setenv("COLUMNS", "80")
        got, out, err = refused(argv, capsys)
        assert (got, hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()[:16]) == (code, digest)

    @pytest.mark.parametrize("command", ["region", "finite-snr"])
    def test_sigma_from_config(self, command, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"sigma": 2}))
        argv = [command, "--K", "3", "--alpha", "2/5,9/10,1"]
        argv += ["--certificates", "3"] if command == "finite-snr" else []
        flagged = run([*argv, "--sigma", "2"], capsys)
        assert flagged[0] == 0 and flagged[1]
        assert run([*argv, "--config", str(config)], capsys) == flagged
        code, out, err = run(argv, capsys)
        assert code == 2 and "error: --sigma is required (flag or config file)" in err and out == ""

    @pytest.mark.parametrize(
        "argv,key,text,values",
        [
            (["gndt", "--K", "4", "--N", "4", "--mu-grid", "0:1:1/8", "--exact"], "alpha",
             "0.45,0.65,0.85,1", [0.45, 0.65, 0.85, 1]),
            (["sweep-memory", *FIG3, "--mu-grid", "0:1:1/8"], "r",
             "0,1/20,0,1/10", [0, "1/20", 0, "1/10"]),
            (["region", "--K", "4", "--sigma", "2", "--alpha", "0.45,0.65,0.85,1", "--kind", "missing"],
             "leaders", "1,3", [1, 3]),
            (["verify", "--K", "3", "--N", "3", "--mu", "1/3", "--region-trials", "1"], "d",
             "3,1,2", [3, 1, 2]),
        ],
        ids=["alpha", "r", "leaders", "d"],
    )
    def test_json_list_in_config_reads_as_comma_text(
        self, argv, key, text, values, tmp_path, capsys
    ):
        as_list, as_text = tmp_path / "list.json", tmp_path / "text.json"
        as_list.write_text(json.dumps({key: values}))
        as_text.write_text(json.dumps({key: text}))
        flagged = run([*argv, f"--{key}", text], capsys)
        assert flagged[0] == 0 and flagged[1]
        assert run([*argv, "--config", str(as_list)], capsys) == flagged
        assert run([*argv, "--config", str(as_text)], capsys) == flagged

    MISSING = ["region", "--K", "3", "--sigma", "2", "--alpha", "1/2,3/4,1", "--kind", "missing"]
    ONE_TUPLE = ["verify", "--K", "3", "--N", "3", "--mu", "1/3"]

    @pytest.mark.parametrize(
        "argv,stored,message",
        [
            ([*MISSING, "--leaders", "1,x"], None, "--leaders: 'x' is not a number"),
            (MISSING, {"leaders": [1, "x"]}, "--leaders: 'x' is not a number"),
            (MISSING, {"leaders": [1, 2.5]}, "--leaders: 2.5 is not a whole number"),
            ([*ONE_TUPLE, "--d", "1,2.5"], None, "--d: '2.5' is not a whole number"),
            # a whole number is int text or a JSON int, as --K reads it
            ([*ONE_TUPLE, "--d", "1.0,2,3"], None, "--d: '1.0' is not a whole number"),
            ([*ONE_TUPLE, "--d", "2/2,2,3"], None, "--d: '2/2' is not a whole number"),
            ([*ONE_TUPLE, "--d", "1e0,2,3"], None, "--d: '1e0' is not a whole number"),
            (ONE_TUPLE, {"d": [1, 2.0, 3]}, "--d: 2.0 is not a whole number"),
            (ONE_TUPLE, {"d": [1, "2/2", 3]}, "--d: '2/2' is not a whole number"),
            ([*MISSING, "--leaders", "1,2.0"], None, "--leaders: '2.0' is not a whole number"),
            ([*ONE_TUPLE, "--d", "1,2,1/0"], None, "--d: '1/0' has a zero denominator"),
            (ONE_TUPLE, {"d": [1, 2, True]}, "--d: True is not a number"),
            (["gndt", *TestUsageErrors.TWO, "--mu", "1/2", "--r", "0,x"], None, "--r: 'x' is not a number"),
            (["gndt", "--K", "2", "--N", "2", "--mu", "1/2"], {"alpha": ["1/2", [1]]},
             "--alpha: [1] is not a number"),
            (["holes", *TestUsageErrors.TWO, "--mu", "x"], None, "--mu: 'x' is not a number"),
            (["gndt", *TestUsageErrors.TWO, "--mu-grid", "0:x:1/4"], None, "--mu-grid: 'x' is not a number"),
            (["finite-snr", "--K", "2", "--sigma", "2", "--alpha", "1/2,1", "--P", "x"], None,
             "--P must be a finite power above 1, got x"),
            (["finite-snr", "--K", "2", "--sigma", "2", "--alpha", "1/2,1"], {"P": [2]},
             "--P must be a finite power above 1, got [2]"),
            (["verify", "--K", "2", "--N", "2", "--mu", "1/2", "--d", "1,2,"], None,
             "--d: '1,2,' has an empty entry"),
            (["gndt", "--K", "2", "--N", "2", "--alpha", "1/2,,1", "--mu", "1/2"], None,
             "--alpha: '1/2,,1' has an empty entry"),
            (MISSING, {"leaders": "1,,3"}, "--leaders: '1,,3' has an empty entry"),
            (["gndt", *TestUsageErrors.TWO, "--mu", "1/2", "--r", ",0"], None, "--r: ',0' has an empty entry"),
            # a config value that is neither text, a number nor a list is named as JSON gave it
            (["gndt", *TestUsageErrors.TWO, "--mu", "1/2"], {"r": None},
             "--r takes comma text or a JSON list, got None"),
            (MISSING, {"leaders": True}, "--leaders takes comma text or a JSON list, got True"),
            (["gndt", "--K", "2", "--N", "2", "--mu", "1/2"], {"alpha": {"a": 1}},
             "--alpha takes comma text or a JSON list, got {'a': 1}"),
        ],
        ids=["leaders-text", "leaders-json", "leaders-json-fraction", "d-fraction", "d-float-text",
             "d-fraction-text", "d-exponent-text", "d-json-float", "d-json-fraction-text", "leaders-float-text",
             "d-zero-denominator",
             "d-json-bool", "r-text", "alpha-json-nested", "mu-text", "grid-text", "P-text", "P-json-list",
             "d-trailing-comma", "alpha-double-comma", "leaders-config-text", "r-leading-comma",
             "r-json-null", "leaders-json-true", "alpha-json-object"],
    )
    def test_bad_token_names_its_flag(self, argv, stored, message, tmp_path, capsys):
        if stored is not None:  # a value from the file is named after the file
            config = tmp_path / "run.json"
            config.write_text(json.dumps(stored))
            argv, message = [*argv, "--config", str(config)], f"--config {config}: {message}"
        out_file = tmp_path / "out"
        code, out, err = run([*argv, "--out", str(out_file)], capsys)
        assert code == 2
        assert f"error: {message}" in err and "Traceback" not in err
        assert out == "" and not out_file.exists()


class TestConfigKeys:
    """A config file holds flags by name: a key no command has, or a value
    the flag would refuse on the command line, is exit 2 naming it, before
    any output; a key of another command is left alone."""

    @pytest.mark.parametrize(
        "command,stored,message",
        [
            ("gndt", {"mu-gird": "0:1:1/2", "K": 4}, "'mu-gird' is not a flag of gndt or of any other command"),
            ("holes", {"Kk": 4}, "'Kk' is not a flag of holes or of any other command"),
            ("gndt", {"K": "x"}, "--K takes an int, got 'x'"),
            ("gndt", {"K": 4.5}, "--K takes an int, got 4.5"),
            ("gndt", {"K": True}, "--K takes an int, got True"),
            ("verify", {"max-K": [2]}, "--max-K takes an int, got [2]"),
            ("gndt", {"format": "xml"}, "--format must be one of csv, json, got 'xml'"),
            ("gndt", {"exact": "yes"}, "--exact takes true or false, got 'yes'"),
            ("region", {"kind": "half"}, "--kind must be one of full, symmetric, missing, two-multicast"),
            ("gndt", {"out": 0.5}, "--out takes a path, got 0.5"),
            ("gndt", {"out": ""}, "--out takes a path, got ''"),
            ("gndt", {"config": 1e5}, "--config takes a path, got 100000.0"),
            ("gndt", {"exact": 1.0}, "--exact takes true or false, got 1.0"),
            ("gndt", {"format": 0.30000000000000001}, "--format must be one of csv, json, got 0.3"),
        ],
        ids=["misspelt", "unknown-holes", "int-text", "int-float", "int-bool", "int-list",
             "choice", "switch", "kind", "out-number", "out-empty", "config-number", "switch-number", "choice-number"],
    )
    def test_bad_key_or_value_is_usage_error(self, command, stored, message, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(stored))
        flags = {"gndt": [*FIG3, "--mu", "1/3"], "holes": [*FIG3, "--mu", "1/4"],
                 "verify": ["--region-trials", "1"], "region": ["--K", "2", "--sigma", "2", "--alpha", "1/2,1"]}
        out_file = tmp_path / "out"
        code, out, err = run([command, *flags[command], "--config", str(config), "--out", str(out_file)], capsys)
        assert code == 2
        assert f"error: --config {config}: {message}" in err and "Traceback" not in err
        assert out == "" and not out_file.exists()

    @pytest.mark.parametrize(
        "text,argv",
        [('{"mu": 0.30000000000000001}', ["--alpha", "1/2,1", "--mu", "0.30000000000000001"]),
         ('{"alpha": [1e-400, 1]}', ["--mu", "1/2", "--alpha", "1e-400,1"]),
         ('{"alpha": [0.30000000000000001, 1.0]}', ["--mu", "1/2", "--alpha", "0.30000000000000001,1.0"])],
        ids=["mu", "alpha-below-the-float-range", "alpha"],
    )
    def test_a_json_number_is_read_as_its_text(self, text, argv, tmp_path, capsys):
        """A number in the file is parsed from its text, as the same text on
        the command line is, not through the float it rounds to: the same
        stdout, stderr and exit code either way."""
        config = tmp_path / "run.json"
        config.write_text(text)
        gndt = ["gndt", "--K", "2", "--N", "2", "--exact"]
        from_file = run([*gndt, *argv[:2], "--config", str(config)], capsys)
        assert from_file == run([*gndt, *argv], capsys)

    @pytest.mark.parametrize("command", ["gndt", "sweep-memory"])
    @pytest.mark.parametrize("with_out", [False, True], ids=["stdout", "out-file"])
    def test_empty_r_list_is_refused_by_its_length(self, command, with_out, tmp_path, capsys):
        """{"r": []} gives no unicast GDoF for K = 3 users, which is not the
        same as giving no --r: it is refused as a short list would be."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"r": []}))
        out_file = tmp_path / "out"
        argv = [command, "--K", "3", "--N", "3", "--mu", "1/2", "--alpha", "1/5,1/2,1", "--config", str(config)]
        code, out, err = run([*argv, "--out", str(out_file)] if with_out else argv, capsys)
        assert code == 2
        assert "error: one unicast GDoF per user is required: K = 3, got 0" in err and "Traceback" not in err
        assert out == "" and not out_file.exists()

    def test_switches_and_kind_come_from_the_file(self, tmp_path, capsys):
        """--exact, --inject-fault and --kind have defaults, but a config
        value for them is still applied, and an explicit flag still wins."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"exact": True, "kind": "symmetric", "s": 2, "inject-fault": True}))
        code, out, _ = run(["gndt", *FIG3, "--mu", "1/4", "--config", str(config)], capsys)
        assert code == 0 and out.splitlines()[0].endswith("tau_lb_exact")
        region = ["region", "--K", "3", "--sigma", "2", "--alpha", "0.4,0.9,1"]
        symmetric = run([*region, "--kind", "symmetric", "--s", "2"], capsys)[1]
        assert run([*region, "--config", str(config)], capsys)[1] == symmetric
        code, _, err = run([*region, "--config", str(config), "--kind", "full"], capsys)
        assert code == 2 and "--s applies only to --kind symmetric or two-multicast, not full" in err
        code, out, _ = run(["verify", "--K", "3", "--N", "2", "--mu", "1/3", "--region-trials", "1",
                            "--config", str(config)], capsys)
        assert code == 1 and '"fault": true' in out


class TestShapeAndCountErrors:
    """Inputs the command cannot honour are exit 2 before --out is opened:
    strengths that do not match K, coverage and leaders outside [1, K], and
    counts of 0 or below, which are never read as "unset"."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["region", "--K", "3", "--sigma", "2", "--alpha", "1/2,1"], "K = 3, got 2 strengths"),
            (["finite-snr", "--K", "3", "--sigma", "2", "--alpha", "1/2,1"], "K = 3, got 2 strengths"),
            (["region", "--K", "2", "--sigma", "2", "--alpha", "1/4,1/2,1"], "K = 2, got 3 strengths"),
            (["region", "--K", "3", "--sigma", "2", "--alpha", "1/2,3/4,1", "--kind", "two-multicast",
              "--gamma", "3", "--s", "9"], "s must lie in [1, 3], got 9"),
            (["region", "--K", "3", "--sigma", "2", "--alpha", "1/2,3/4,1", "--kind", "missing",
              "--leaders", "1,7"], "leaders must be users in [1, 3]"),
            (["region", "--K", "3", "--sigma", "2", "--alpha", "1/2,3/4,1", "--kind", "missing",
              "--leaders", "0,1"], "leaders must be users in [1, 3], got [0, 1]"),
            (["region", "--K", "3", "--sigma", "2", "--alpha", "1/2,3/4,1", "--kind", "symmetric",
              "--s", "0"], "--s must be a whole number of at least 1, got 0"),
            (["finite-snr", "--K", "2", "--sigma", "2", "--alpha", "1/2,1", "--certificates", "0"],
             "--certificates must be a whole number of at least 1, got 0"),
            (["finite-snr", "--K", "2", "--sigma", "2", "--alpha", "1/2,1", "--certificates", "-2"],
             "--certificates must be a whole number of at least 1, got -2"),
            (["verify", "--max-K", "0"], "--max-K must be a whole number of at least 1, got 0"),
            (["verify", "--max-K", "-1"], "--max-K must be a whole number of at least 1, got -1"),
            (["verify", "--max-N", "0"], "--max-N must be a whole number of at least 1, got 0"),
            (["verify", "--K", "3", "--N", "0"], "--N must be a whole number of at least 1, got 0"),
            (["verify", "--K", "3", "--N", "2", "--mu", "1/3", "--B", "0"],
             "--B must be a whole number of at least 1, got 0"),
            (["verify", "--K", "3"], "verify takes --K and --N together"),
            (["verify", "--K", "3", "--N", "2", "--mu", "2"], "error: --mu must lie in [0, 1], got 2\n"),
            (["verify", "--max-K", "2", "--mu", "1/2"], "verify takes --mu and --d only with --K"),
            (["verify", "--d", "1,2", "--region-trials", "1"],
             "verify takes --mu and --d only with --K"),
            (["verify", "--K", "2", "--N", "2", "--max-K", "5", "--region-trials", "1"],
             "verify takes --max-K and --max-N only without --K and --N"),
            (["verify", "--max-N", "5", "--K", "2", "--N", "2", "--region-trials", "1"],
             "verify takes --max-K and --max-N only without --K and --N"),
            (["verify", "--K", "3", "--N", "2", "--B", "5"],
             "file size 5 bits is not divisible into 3 equal subfiles"),
            (["verify", "--K", "3", "--N", "3", "--d", "1,2"],
             "demand tuple (1, 2) is not in [1..3]^3"),
            (["verify", "--K", "3", "--N", "3", "--d", "1,2,9"],
             "demand tuple (1, 2, 9) is not in [1..3]^3"),
            (["region", "--K", "3", "--sigma", "5", "--alpha", "1/2,3/4,1", "--kind", "symmetric"],
             "multicast group size must lie in [1, 3], got 5"),
            (["region", "--K", "3", "--sigma", "0", "--alpha", "1/2,3/4,1", "--kind", "missing",
              "--leaders", "1,2"], "multicast group size must lie in [1, 3], got 0"),
            (["region", "--K", "3", "--sigma", "2", "--alpha", "1/2,3/4,1", "--kind", "full",
              "--s", "9"], "--s applies only to --kind symmetric or two-multicast, not full"),
            (["region", "--K", "3", "--sigma", "2", "--alpha", "1/2,3/4,1", "--kind", "full",
              "--gamma", "7"], "--gamma applies only to --kind two-multicast, not full"),
            (["region", "--K", "3", "--sigma", "2", "--alpha", "1/2,3/4,1", "--kind", "symmetric",
              "--s", "2", "--leaders", "5,6"], "--leaders applies only to --kind missing, not symmetric"),
            (["region", "--K", "3", "--sigma", "2", "--alpha", "1/2,3/4,1", "--kind", "missing",
              "--leaders", "1", "--s", "2"], "--s applies only to --kind symmetric or two-multicast"),
            (["gndt", *TestUsageErrors.TWO, "--mu-grid", "0:1"],
             "--mu-grid must have the form start:end:step, got '0:1'"),
            (["sweep-memory", *TestUsageErrors.TWO, "--mu-grid", "0:1:1/4:1"],
             "--mu-grid must have the form start:end:step, got '0:1:1/4:1'"),
            (["gndt", *TestUsageErrors.TWO, "--mu-grid", "1:0:1/4"],
             "--mu-grid start:end:step needs step > 0 and end >= start, got '1:0:1/4'"),
            (["sweep-memory", *TestUsageErrors.TWO, "--mu-grid", "0:1:0"],
             "--mu-grid start:end:step needs step > 0 and end >= start, got '0:1:0'"),
            (["gndt", *TestUsageErrors.TWO, "--mu", "1/3", "--mu-grid", "0:1:1/2"],
             "--mu and --mu-grid are alternatives"),
            (["sweep-memory", *TestUsageErrors.TWO, "--mu-grid", "0:1:1/2", "--mu", "1/3"],
             "--mu and --mu-grid are alternatives"),
            (["verify", "--K", "2", "--N", "2", "--mu", "1/2", "--seed", "-1"],
             "--seed must be a whole number of at least 0, got -1"),
            (["finite-snr", "--K", "2", "--sigma", "2", "--alpha", "1/2,1", "--seed", "-3"],
             "--seed must be a whole number of at least 0, got -3"),
            (["gndt", *TestUsageErrors.TWO, "--mu", "2"], "error: --mu must lie in [0, 1], got 2\n"),
            (["sweep-memory", *TestUsageErrors.TWO, "--mu", "2"], "error: --mu must lie in [0, 1], got 2\n"),
            (["holes", *TestUsageErrors.TWO, "--mu", "2"], "error: --mu must lie in [0, 1], got 2\n"),
            (["gndt", *TestUsageErrors.TWO, "--mu-grid", "0:2:1/2"],
             "error: --mu-grid values must lie in [0, 1], got 2\n"),
            (["gndt", "--K", "0", "--N", "2", "--alpha", "1", "--mu", "0"],
             "error: --K must be a whole number of at least 1, got 0\n"),
            (["gndt", "--K", "2", "--N", "0", "--alpha", "1/2,1", "--mu", "0"],
             "error: --N must be a whole number of at least 1, got 0\n"),
            (["holes", "--K", "0", "--N", "2", "--alpha", "1", "--mu", "0"],
             "error: --K must be a whole number of at least 1, got 0\n"),
            (["holes", "--K", "2", "--N", "0", "--alpha", "1/2,1", "--mu", "0"],
             "error: --N must be a whole number of at least 1, got 0\n"),
            (["region", "--K", "0", "--sigma", "2", "--alpha", "1"],
             "error: --K must be a whole number of at least 1, got 0\n"),
            (["finite-snr", "--K", "0", "--sigma", "2", "--alpha", "1"],
             "error: --K must be a whole number of at least 1, got 0\n"),
            # a negative value is the value of the flag before it, not a flag
            (["gndt", *TestUsageErrors.TWO, "--mu", "-1/3"], "error: --mu must lie in [0, 1], got -1/3\n"),
            # the refused value is shown as its exact fraction
            (["gndt", *TestUsageErrors.TWO, "--mu", "1.5"], "error: --mu must lie in [0, 1], got 3/2\n"),
            (["gndt", *TestUsageErrors.TWO, "--mu", "4/2"], "error: --mu must lie in [0, 1], got 2\n"),
            (["gndt", *TestUsageErrors.TWO, "--mu-grid", "-1/4:1:1/4"],
             "error: --mu-grid values must lie in [0, 1], got -1/4\n"),
            (["gndt", "--K", "3", "--N", "3", "--alpha", "2/5,9/10,1", "--mu", "0", "--r", "-1/10,0,0"],
             "error: --r: r_1 must be at least 0, got -1/10\n"),
            (["gndt", "--K", "2", "--N", "2", "--alpha", "-1/2,1", "--mu", "0"],
             "error: --alpha: strengths must be positive, got alpha_1 = -1/2\n"),
            (["gndt", "--K", "3", "--N", "3", "--alpha", "1/2,1/3,1", "--mu", "0"],
             "error: --alpha: strengths must be nondecreasing: alpha_2 = 1/3 is below alpha_1 = 1/2\n"),
        ],
        ids=["region-short-alpha", "finite-snr-short-alpha", "region-long-alpha", "two-multicast-s",
             "missing-leader", "missing-leader-0", "symmetric-s-0", "certificates-0", "certificates-neg", "max-K-0",
             "max-K-neg", "max-N-0", "N-0", "B-0", "K-without-N", "verify-mu-2", "mu-without-K", "d-without-K",
             "max-K-with-K", "max-N-with-K",
             "B-indivisible-at-a-later-split", "d-short", "d-out-of-range", "symmetric-sigma-5",
             "missing-sigma-0", "full-with-s", "full-with-gamma", "symmetric-with-leaders",
             "missing-with-s", "grid-two-parts", "grid-four-parts", "grid-end-before-start",
             "grid-zero-step", "mu-and-grid", "grid-and-mu", "verify-seed-neg", "finite-snr-seed-neg",
             "gndt-mu-2", "sweep-mu-2", "holes-mu-2", "grid-past-1", "gndt-K-0", "gndt-N-0", "holes-K-0",
             "holes-N-0", "region-K-0", "finite-snr-K-0", "mu-negative", "mu-decimal", "mu-unreduced",
             "grid-negative", "r-negative",
             "alpha-negative", "alpha-out-of-order"],
    )
    def test_usage_error_before_output(self, argv, message, tmp_path, capsys):
        out_file = tmp_path / "out"
        code, out, err = run([*argv, "--out", str(out_file)], capsys)
        assert code == 2
        assert message in err and "Traceback" not in err
        assert out == "" and not out_file.exists()

    @pytest.mark.parametrize("argv", [["verify", "--K", "2", "--N", "2", "--mu", "1/2"],
                                      ["finite-snr", "--K", "2", "--sigma", "2", "--alpha", "1/2,1"]])
    def test_negative_seed_from_config_is_usage_error(self, argv, tmp_path, capsys):
        config, out_file = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps({"seed": -1}))
        code, out, err = run([*argv, "--config", str(config), "--out", str(out_file)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --config {config}: --seed must be a whole number of at least 0, got -1\n"
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "argv,stored,message",
        [(["finite-snr", "--K", "2", "--sigma", "2", "--alpha", "1/2,1"], {"certificates": 0},
          "--certificates must be a whole number of at least 1, got 0"),
         (["verify", "--region-trials", "1"], {"max-K": -2},
          "--max-K must be a whole number of at least 1, got -2"),
         (["verify", "--K", "2", "--N", "2", "--mu", "1/2"], {"B": 0},
          "--B must be a whole number of at least 1, got 0"),
         (["verify", "--K", "3", "--N", "2"], {"mu": 2}, "--mu must lie in [0, 1], got 2"),
         (["gndt", *TestUsageErrors.TWO], {"mu": 2}, "--mu must lie in [0, 1], got 2"),
         (["sweep-memory", *TestUsageErrors.TWO], {"mu": 2}, "--mu must lie in [0, 1], got 2"),
         (["holes", *TestUsageErrors.TWO], {"mu": 2}, "--mu must lie in [0, 1], got 2"),
         (["gndt", "--K", "3", "--N", "3", "--alpha", "2/5,9/10,1", "--mu", "0"], {"r": ["-1/10", 0, 0]},
          "--r: r_1 must be at least 0, got -1/10"),
         (["gndt", "--K", "3", "--N", "3", "--mu", "0"], {"alpha": ["1/2", "1/3", 1]},
          "--alpha: strengths must be nondecreasing: alpha_2 = 1/3 is below alpha_1 = 1/2")],
        ids=["certificates-0", "max-K-neg", "B-0", "verify-mu-2", "gndt-mu-2", "sweep-mu-2", "holes-mu-2",
             "r-negative", "alpha-out-of-order"],
    )
    def test_bad_count_from_config_names_the_file(self, argv, stored, message, tmp_path, capsys):
        config, out_file = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps(stored))
        code, out, err = run([*argv, "--config", str(config), "--out", str(out_file)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --config {config}: {message}\n"
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "argv,stored,message",
        [(["verify", "--max-K", "2"], {"mu": "1/2"}, "verify takes --mu and --d only with --K and --N"),
         (["verify", "--K", "2", "--N", "2"], {"max-K": 5},
          "verify takes --max-K and --max-N only without --K and --N"),
         (["verify", "--max-N", "5"], {"K": 2, "N": 2},
          "verify takes --max-K and --max-N only without --K and --N")],
        ids=["mu-without-K", "max-K-with-K", "K-with-max-N"],
    )
    def test_verify_pairing_from_config_is_usage_error(self, argv, stored, message, tmp_path, capsys):
        """verify's flag pairings hold wherever the values come from."""
        config, out_file = tmp_path / "config.json", tmp_path / "out"
        config.write_text(json.dumps(stored))
        code, out, err = run([*argv, "--config", str(config), "--out", str(out_file)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_file.exists()

    def test_flag_after_a_value_flag_is_a_missing_value(self, capsys):
        code, out, err = refused(["gndt", *TestUsageErrors.TWO, "--mu", "--K", "3"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: cachecast gndt ") and "argument --mu: expected one argument" in err

    def test_flag_over_config_is_named_as_a_flag(self, tmp_path, capsys):
        # the bad value came from the command line, so the message names no file
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3}))
        argv = ["verify", "--K", "2", "--N", "2", "--mu", "1/2", "--seed", "-1", "--config", str(config)]
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", "error: --seed must be a whole number of at least 0, got -1\n")

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        code, out, err = run(["gndt", *FIG3, "--mu", "1/4", "--config", str(missing)], capsys)
        assert code == 2
        assert f"cannot read --config {missing}" in err and out == ""

    @pytest.mark.parametrize("flag", ["--out", "--config"])
    def test_empty_path_is_usage_error(self, flag, capsys):
        """An empty path names no file: it is refused, not read as no path given."""
        argv = ["gndt", "--K", "2", "--N", "2", "--alpha", "1/2,1", "--mu", "1/2", flag, ""]
        assert run(argv, capsys) == (2, "", f"error: {flag} takes a path, got ''\n")

    def test_config_file_that_is_not_an_object_is_usage_error(self, tmp_path, capsys):
        config, out_file = tmp_path / "config.json", tmp_path / "out"
        config.write_text("[1]")
        argv = ["gndt", *FIG3, "--mu", "1/4", "--config", str(config), "--out", str(out_file)]
        message = f"error: --config {config} must hold a JSON object of flag values\n"
        assert run(argv, capsys) == (2, "", message)
        assert not out_file.exists()

    @pytest.mark.parametrize("kind,message", [("missing", "--leaders is required for --kind missing"),
                                              ("two-multicast", "--gamma is required for --kind two-multicast")],
                             ids=["missing", "two-multicast"])
    def test_region_kind_without_its_flag_is_usage_error(self, kind, message, tmp_path, capsys):
        out_file = tmp_path / "out"
        argv = ["region", "--K", "3", "--sigma", "2", "--alpha", "1/2,3/4,1", "--kind", kind, "--out", str(out_file)]
        assert run(argv, capsys) == (2, "", f"error: {message}\n")
        assert not out_file.exists()

    def test_missing_file_count_is_usage_error(self, capsys):
        code, out, err = run(["holes", "--K", "2", "--alpha", "1/2,1", "--mu", "1/2"], capsys)
        assert code == 2
        assert "--N is required" in err and out == ""

    def test_holes_without_cache_size_is_usage_error(self, tmp_path, capsys):
        # no silent mu = 0: holes reads one cache size, from --mu or the config file
        out_file = tmp_path / "out"
        argv = ["holes", "--K", "3", "--N", "3", "--alpha", "0.4,0.9,1", "--out", str(out_file)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "error: --mu is required (flag or config file)\n"
        assert not out_file.exists()


class TestSweepMemory:
    def test_config_exact_adds_no_columns(self, tmp_path, capsys):
        # --exact belongs to gndt; a config file value must not reach sweep-memory
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"exact": True}))
        code, out, _ = run(
            ["sweep-memory", *FIG3, "--mu", "0.25", "--config", str(config)], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "mu,tau_ub,tau_joint,tau_ms,tau_lb"

    def test_joint_column_present(self, capsys):
        code, out, _ = run(
            ["sweep-memory", *FIG3, "--mu-grid", "0:0.5:0.125"], capsys
        )
        assert code == 0
        header, *rows = [line.split(",") for line in out.strip().splitlines()]
        assert header == ["mu", "tau_ub", "tau_joint", "tau_ms", "tau_lb"]
        by_mu = {row[0]: row for row in rows}
        assert by_mu["0.125"][1] == by_mu["0.125"][2]  # joint == ub
        assert float(by_mu["0.125"][2]) < float(by_mu["0.125"][3])  # < ms


class TestFormulaCalls:
    """gndt and sweep-memory call each formula through the `tradeoff` module,
    once per mu, so a wrong formula put there shows in the output."""

    GRID = [F(j, 8) for j in range(9)]

    @pytest.mark.parametrize(
        "command,name",
        [
            ("gndt", "gndt_ub"),
            ("gndt", "gndt_memory_sharing"),
            ("gndt", "gndt_lower_bound"),
            ("sweep-memory", "gndt_ub"),
            ("sweep-memory", "gndt_memory_sharing"),
            ("sweep-memory", "gndt_lower_bound"),
            ("sweep-memory", "gndt_joint_two_set"),
        ],
    )
    def test_planted_formula_changes_output(self, command, name, capsys, monkeypatch):
        argv = [command, *FIG3, "--mu-grid", "0:1:1/8"] + (["--exact"] if command == "gndt" else [])
        _, honest, _ = run(argv, capsys)
        original, calls = getattr(tradeoff, name), []

        def planted(config, r=None):
            calls.append(config.mu)
            return original(config, r) + 1

        monkeypatch.setattr(tradeoff, name, planted)
        code, out, _ = run(argv, capsys)
        assert code == 0 and out != honest
        # the joint column calls its formula only where K*mu is fractional
        fractional = name == "gndt_joint_two_set"
        assert calls == [mu for mu in self.GRID if not fractional or (4 * mu).denominator > 1]


class TestCurveCost:
    """A curve builds its coded-load counts once, not once per mu: counted
    calls, no timing."""

    def test_count_table_built_once_per_curve(self, capsys, monkeypatch):
        """Two curves of one (K, min(K, N)) build one table, which --N K and
        --N K + 3 share, in a cache of bounded size."""
        K = 12
        tradeoff._count_table.cache_clear()
        original, calls = tradeoff.cumulative_group_count, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(tradeoff, "cumulative_group_count", counted)
        built = []
        for N in (K, K, K + 3):
            argv = ["gndt", "--K", str(K), "--N", str(N), "--alpha", K12_ALPHA,
                    "--mu-grid", "0:1/2:1/100", "--exact"]
            code, out, _ = run(argv, capsys)
            assert code == 0 and len(out.splitlines()) == 1 + 51
            built.append(len(calls))
        assert 0 < built[0] <= (K + 1) * K
        assert built == [built[0]] * 3  # the second curve and the --N K + 3 one build nothing
        info = tradeoff._count_table.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert isinstance(info.maxsize, int) and info.maxsize > 0

    def test_kept_caches_serve_the_whole_curve(self, capsys, monkeypatch):
        """One sweep-memory curve checks its strengths, builds its scaled gaps,
        its integer-budget times and their lower hull once each, and takes one
        maximum per mu for tau_ub and tau_lb together.  The alpha and r are new
        to the process, so no entry an earlier test left is hit."""
        K, calls = 6, collections.Counter()

        def count(module, name, kind):
            original = getattr(module, name)

            def counted(*args):
                calls[kind(*args)] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)

        # regions scales the K strengths, or the K strengths and the K rates of r
        count(regions, "_integer_row", lambda values: "strengths" if len(values) == K else "gaps")
        count(combinatorics, "_integer_row", lambda values: "hull")
        count(tradeoff, "_max_terms", lambda *args: "times")
        argv = ["sweep-memory", "--K", str(K), "--N", "5", "--alpha", "1/9,2/9,1/3,4/9,7/9,1",
                "--r", "1/97,0,0,0,0,1/89", "--mu-grid", "0:1/2:1/100"]
        code, out, _ = run(argv, capsys)
        assert code == 0 and len(out.splitlines()) == 1 + 51
        assert (calls["strengths"], calls["gaps"], calls["hull"]) == (1, 1, 1)
        # per mu one for tau_ub and tau_lb and one for tau_joint, plus the K + 1 integer-budget times once
        assert 0 < calls["times"] <= 2 * 51 + K + 1


    @pytest.mark.parametrize("argv", [
        ["gndt", "--N", "3", "--mu-grid", "0:1:1/8", "--exact"],
        ["sweep-memory", "--N", "5", "--r", "1/20,0,0,0", "--mu-grid", "0:1/2:1/16"],
        ["holes", "--N", "4", "--mu", "1/2"],
        ["region", "--sigma", "2"],
        ["region", "--sigma", "2", "--kind", "two-multicast", "--gamma", "3"],
        ["finite-snr", "--sigma", "2", "--certificates", "3"],
    ], ids=["gndt", "sweep-memory", "holes", "region", "region-two-multicast", "finite-snr"])
    def test_each_command_checks_its_strengths_once(self, argv, capsys, monkeypatch):
        """--alpha is checked once and handed down as it is: every config of a
        curve, every hole vertex and every region builder reads that one value.
        `regions._integer_row` scales the K strengths once per check, and the K
        strengths with the K rates of r, 2K values, once per set of gaps."""
        K, lengths = 4, []
        original = regions._integer_row

        def counted(values):
            lengths.append(len(values))
            return original(values)

        monkeypatch.setattr(regions, "_integer_row", counted)
        code, out, _ = run([*argv[:1], "--K", str(K), "--alpha", "1/5,1/2,3/4,1", *argv[1:]], capsys)
        assert code == 0 and out
        assert lengths.count(K) == 1 and set(lengths) <= {K, 2 * K}


class TestParseCost:
    """main reads a well-formed argv against the command's flags and builds no
    argparse parser; one is built only to print help or a refusal."""

    WELL_FORMED = [
        ["gndt", *FIG3, "--mu", "1/4", "--exact", "--config", "{config}"],
        ["sweep-memory", *FIG3, "--mu-grid=0:1/2:1/4", "--out", "{out}"],
        ["holes", *FIG3, "--mu", "1/4"],
        ["region", "--K", "3", "--sigma", "2", "--alpha", "0.4,0.9,1", "--kind", "symmetric", "--s", "2"],
        ["verify", "--K", "3", "--N", "2", "--mu", "1/3", "--region-trials", "1", "--inject-fault"],
        ["finite-snr", "--K", "2", "--sigma", "2", "--alpha", "1/2,1", "--certificates", "1"],
    ]

    @pytest.fixture
    def built(self, monkeypatch):
        calls, original = [], cli.build_parser

        def counted():
            calls.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        return calls

    def test_well_formed_argv_builds_no_parser(self, built, tmp_path, capsys):
        config, path = tmp_path / "run.json", tmp_path / "table.csv"
        config.write_text(json.dumps({"format": "json"}))
        codes = []
        for argv in self.WELL_FORMED:
            argv = [a.replace("{config}", str(config)).replace("{out}", str(path)) for a in argv]
            codes.append(run(argv, capsys)[0])
        assert codes == [0, 0, 0, 0, 1, 0] and path.read_text().startswith("mu,")
        assert built == []

    @pytest.mark.parametrize("argv", [["gndt", "--help"], ["gndt", *FIG3, "--mu", "1/4", "--P", "3"]],
                             ids=["help", "unknown-flag"])
    def test_help_and_unknown_flag_build_the_parser(self, argv, built, capsys):
        code, _, _ = refused(argv, capsys)
        assert code in (0, 2) and built == [1]


class TestFormatting:
    def test_inf(self):
        assert cli._fmt(math.inf) == "inf"
        assert cli._fmt_exact(math.inf) == "inf"

    def test_exact_is_in_lowest_terms(self):
        assert cli._fmt_exact(F(3, 6)) == "1/2"
        assert cli._fmt_exact(F(0)) == "0/1"

    def test_decimal(self):
        assert cli._fmt(F(1, 3)) == "0.333333333333"

    @pytest.mark.parametrize("value", [F(10**400, 3), F(-(10**309))], ids=["huge", "huge-negative"])
    def test_beyond_float_range_is_refused_by_value(self, value):
        with pytest.raises(ValueError) as exc:
            cli._fmt(value)
        assert str(exc.value) == f"{value} is outside the range of the 12-digit decimal column"

    @pytest.mark.parametrize("command", ["gndt", "sweep-memory", "holes"])
    def test_value_beyond_float_range_is_usage_error_before_output(self, command, capsys):
        """A strength of 1e-400 gives a finite delivery time near 1e400: each
        command exits 2 naming it, and prints nothing, since its rows or its
        holes document are built before any output."""
        code, out, err = run([command, "--K", "2", "--N", "2", "--alpha", "1e-400,1", "--mu", "0"], capsys)
        tau = tradeoff.gndt_ub(tradeoff.SystemConfig(2, 2, F(0), (F("1e-400"), F(1))))
        assert (code, out) == (2, "")
        assert err == f"error: {tau} is outside the range of the 12-digit decimal column\n"


class TestHoles:
    def test_worked_example(self, capsys):
        code, out, _ = run(
            ["holes", "--K", "3", "--N", "3", "--alpha", "0.4,0.9,1",
             "--mu", str(F(1, 3))],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bottleneck_user"] == 1
        assert doc["all_invariant"] is True
        rows = doc["region"]["rows"]
        assert rows[1]["rhs"] == [3, 10]
        assert rows[2]["rhs"] == [3, 10]

    def test_region_is_embedded_without_a_json_round_trip(self, monkeypatch, capsys):
        """holes puts the region's payload into its document as it is; the
        region is never dumped to JSON text and parsed back."""
        def no_dump(self):
            raise AssertionError("holes dumped the region to JSON text")

        monkeypatch.setattr(Polytope, "to_json", no_dump)
        argv = ["holes", "--K", "3", "--N", "3", "--alpha", "0.4,0.9,1", "--mu", "1/3"]
        code, out, _ = run(argv, capsys)
        monkeypatch.undo()
        config = tradeoff.SystemConfig(3, 3, F(1, 3), (F(2, 5), F(9, 10), F(1)))
        assert code == 0
        assert json.loads(out)["region"] == json.loads(tradeoff.topological_hole_region(config).to_json())

    def test_too_few_files_is_usage_error(self, capsys):
        code, _, err = run(
            ["holes", "--K", "3", "--N", "2", "--alpha", "0.4,0.9,1",
             "--mu", str(F(1, 3))],
            capsys,
        )
        assert code == 2
        assert "N >= K" in err


class TestRegion:
    def test_full_region_dump_parses(self, capsys):
        code, out, _ = run(
            ["region", "--K", "3", "--sigma", "2", "--alpha", "0.4,0.9,1"], capsys
        )
        assert code == 0
        poly = Polytope.from_json(out)
        assert poly.variables == ("r_1", "r_2", "r_3", "r_1_2", "r_1_3", "r_2_3")
        assert poly.rows[0][1] == F(2, 5)

    def test_missing_kind(self, capsys):
        code, out, _ = run(
            ["region", "--K", "4", "--sigma", "2", "--alpha", "0.45,0.65,0.85,1",
             "--kind", "missing", "--leaders", "1,3"],
            capsys,
        )
        assert code == 0
        poly = Polytope.from_json(out)
        assert [coeffs[-1] for coeffs, _ in poly.rows] == [3, 3, 5, 5]


class TestVerify:
    def test_small_suite_passes(self, tmp_path, capsys):
        records = tmp_path / "records.ndjson"
        code, out, _ = run(
            ["verify", "--max-K", "2", "--max-N", "2", "--region-trials", "1",
             "--out", str(records)],
            capsys,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["pass"] is True
        assert summary["caching"]["failed"] == 0
        lines = records.read_text().strip().splitlines()
        assert len(lines) == summary["caching"]["checked"]
        assert all(json.loads(line)["pass"] for line in lines)

    def test_injected_fault_fails(self, tmp_path, capsys):
        records = tmp_path / "records.ndjson"
        code, out, _ = run(
            ["verify", "--max-K", "1", "--max-N", "1", "--region-trials", "1",
             "--inject-fault", "--out", str(records)],
            capsys,
        )
        assert code == 1
        summary = json.loads(out)
        assert summary["caching"]["failed"] == 1

    @pytest.mark.parametrize("flags", [[], ["--inject-fault"]], ids=["sweep", "inject-fault"])
    def test_records_are_sorted_key_json(self, flags, tmp_path, capsys):
        """Each record line is the bytes json.dumps(record, sort_keys=True)
        writes; the --inject-fault record says fault and fail, with no seed."""
        records = tmp_path / "records.ndjson"
        code, _, _ = run(["verify", "--max-K", "3", "--max-N", "3", "--region-trials", "1", "--seed", "12",
                          *flags, "--out", str(records)], capsys)
        lines = records.read_text().splitlines()
        assert len(lines) == sum((K + 1) * N**K for K in range(1, 4) for N in range(1, 4)) + len(flags)
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True)
        swept = [json.loads(line) for line in lines[: len(lines) - len(flags)]]
        assert all(r["pass"] is True and r["seed"] == 12 and len(r) == 6 for r in swept)
        assert swept[-1] == {"K": 3, "Kmu": 3, "N": 3, "d": [3, 3, 3], "pass": True, "seed": 12}
        if flags:
            assert code == 1
            assert json.loads(lines[-1]) == {"K": 3, "Kmu": 1, "N": 3, "d": [1, 2, 3], "fault": True, "pass": False}
        else:
            assert code == 0

    def test_wrong_region_row_fails(self, tmp_path, capsys, monkeypatch):
        """Negative control of the region stage: a theorem region with one
        wrong row (user 1's unicast rate capped at 0) no longer equals the
        projection, and `verify` says so.  No projected row dominates the
        wrong row, so it is refuted by the LP."""
        build, solve = regions.build_region, polytope.maximize_scaled
        solved = []

        def wrong(*args):
            poly = build(*args)
            cap = ((F(1),) + (F(0),) * (len(poly.variables) - 1), F(0))
            return Polytope(poly.variables, poly.rows + (cap,))

        def counted(n, rows, objective):
            solved.append(objective)
            return solve(n, rows, objective)

        monkeypatch.setattr(regions, "build_region", wrong)
        monkeypatch.setattr(polytope, "maximize_scaled", counted)
        code, out, _ = run(
            ["verify", "--max-K", "1", "--max-N", "1", "--region-trials", "1",
             "--out", str(tmp_path / "records.ndjson")],
            capsys,
        )
        summary = json.loads(out)
        assert code == 1 and summary["pass"] is False
        assert summary["caching"]["failed"] == 0
        assert summary["region_equality"]["failed"] >= 1
        assert len(solved) >= summary["region_equality"]["failed"]

    def test_non_integer_budget_is_usage_error(self, tmp_path, capsys):
        records = tmp_path / "records.ndjson"
        code, out, err = run(
            ["verify", "--K", "4", "--N", "2", "--mu", "1/3", "--out", str(records)], capsys
        )
        assert code == 2
        assert "K*mu = 4/3" in err
        assert out == "" and not records.exists()

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_region_trials_must_be_positive(self, trials, tmp_path, capsys):
        records = tmp_path / "records.ndjson"
        code, out, err = run(
            ["verify", "--max-K", "1", "--max-N", "1", "--region-trials", trials,
             "--out", str(records)],
            capsys,
        )
        assert code == 2
        assert "--region-trials" in err
        assert out == "" and not records.exists()

    @pytest.mark.parametrize(
        "argv,exit_code,size,digest",
        [
            (["verify", "--max-K", "4", "--max-N", "4", "--seed", "0"], 0, 160099,
             "fb9656dc1d2f27b99b8ce7473e222bb5bf6cc3803446861d0cacc7049d5af713"),
            (["verify", "--K", "4", "--N", "3", "--B", "96", "--seed", "5", "--region-trials", "1",
              "--inject-fault"], 1, 28966,
             "3f6ff88ef2f88348ee3533e227b1c85375eb7e4020d7b1b7d784d80dc795dda8"),
            (["gndt", *FIG3, "--mu-grid", "0:1:0.05", "--exact"], 0, 1337,
             "50de7519062e199f9744e2a5c7df3b10c55fbbb71bb03838552cafb42d0be557"),
            (["sweep-memory", *FIG3, "--mu-grid", "0:1:0.01"], 0, 5745,
             "8fb91bb938f3fb7098772cc60ff533e268280025a70d77842ec6b3833324cff5"),
            (["gndt", "--K", "6", "--N", "3", "--alpha", "1/5,3/10,1/2,3/5,4/5,1", "--mu", "1/4",
              "--r", "1/20,0,1/30,0,1/10,0", "--format", "json"], 0, 122,
             "92c870488c06b31b26d28686b087c2fe2376bb32e495e31a100c323a0fa297b1"),
            (["sweep-memory", "--K", "5", "--N", "7", "--alpha", "1/4,2/5,1/2,3/4,1",
              "--mu-grid", "0:1:1/15", "--r", "0,1/50,0,1/25,0"], 0, 903,
             "efe26887b64865b49e6d9c415d3dc4ba3574aaecace7811796005ff7de87f517"),
            (["holes", *FIG3, "--mu", "1/4"], 0, 1934,
             "7aa41b7265b8fba8b3dc41a8131e326880a953055d59cc75ae4af190d9f01f2d"),
            (["region", "--K", "4", "--sigma", "2", "--alpha", "0.45,0.65,0.85,1",
              "--kind", "missing", "--leaders", "1,3"], 0, 1354,
             "839d998b7f45fa5029ad07238a4ab5b23a2238961e75e31b98ed5f2eafc520ff"),
            (["finite-snr", "--K", "3", "--sigma", "2", "--alpha", "2/5,9/10,1",
              "--P", "1048576", "--certificates", "10", "--seed", "3"], 0, 410,
             "eda36e4401f42761bab56bbab3d97821413415315efb9d1de7298af6d335f4a2"),
            (["gndt", "--K", "12", "--N", "12", "--alpha",
              "1/20,1/10,3/20,1/5,1/4,3/10,7/20,2/5,9/20,1/2,11/20,1", "--mu-grid", "0:1:1/48",
              "--exact"], 0, 3312,
             "c68c277ae695a1ccc51c4688d86c5b72258ac1ef00ff2e7ee5a9bfd59f929d13"),
            (["sweep-memory", "--K", "12", "--N", "5", "--alpha",
              "1/12,1/6,1/4,1/3,5/12,1/2,7/12,2/3,3/4,5/6,11/12,1", "--mu-grid", "0:1:1/60",
              "--r", "0,1/120,0,0,1/60,0,0,0,0,1/120,0,0"], 0, 2449,
             "ba5d8f216d8deeb6fff73a77b19a9acca00656ece5b50f4d64b6bd46043fc506"),
            (["gndt", "--K", "10", "--N", "4", "--alpha", "1/10,1/5,3/10,2/5,1/2,3/5,7/10,4/5,9/10,1",
              "--mu-grid", "0:1:1/40", "--r", "1/10,0,0,0,0,0,0,0,0,0", "--exact"], 0, 1251,
             "61e8f9961c651406cf6e1b5bce83c99dbd23f2e5557ca087f0973240f3318c63"),
            (["holes", "--K", "8", "--N", "8", "--alpha", "1/5,1/4,2/5,1/2,3/5,3/4,9/10,1",
              "--mu", "3/8"], 0, 6006,
             "9c2ca0c5fd6d3caf83f601f654ef971692055087b9cc7bf1286baa8beceeaafb"),
            (["holes", "--K", "7", "--N", "9", "--alpha", "1/5,1/5,1/2,1/2,1/2,4/5,1",
              "--mu", "2/7"], 0, 4738,
             "1e6cc54b82c842a8946420f4adb8c3eb024b41f4609d1c0dc62e6c9594f77763"),
            # N < K on a 1/100 grid: r_1 + r_2 = alpha_2 exhausts prefix 2, so every
            # row is inf until the full cache's zero load
            (["gndt", "--K", "12", "--N", "6", "--alpha", K12_ALPHA, "--mu-grid", "0:1:1/100",
              "--r", "1/12,1/12,0,1/60,0,0,0,0,0,0,0,0", "--exact"], 0, 2971,
             "b1a822177a348e74818f33ea3286db55a1ae62d2cf1059b5c21ebc5d546fac74"),
            (["gndt", "--K", "12", "--N", "6", "--alpha", K12_ALPHA, "--mu-grid", "0:1:1/100",
              "--r", "1/24,0,1/60,0,0,1/100,0,0,0,0,0,0", "--exact"], 0, 4999,
             "34b397bbeadac9b47af11277b874bb02d15fb59aa3b15dff46b331685b76a0a1"),
            # the delivery-sweep shape: K = 5 is where reconstruction sources repeat most
            (["verify", "--max-K", "5", "--max-N", "4", "--region-trials", "1", "--seed", "901"], 0,
             757459, "b39cf22a74920c8f2f22521d14e7e855e2cbea41373b97b81371869ea39f285e"),
        ],
    )
    def test_output_is_byte_identical(self, argv, exit_code, size, digest, capsys):
        """Stdout of every subcommand is pinned bit for bit: a faster or
        smaller code path must draw the same libraries, reach the same
        verdicts and print the same numbers."""
        caching._reconstruction_sources.cache_clear()
        code, out, _ = run(argv, capsys)
        data = out.encode()
        assert (code, len(data), hashlib.sha256(data).hexdigest()) == (exit_code, size, digest)
        # the K <= 5 sweeps never evict a remembered reconstruction
        memo = caching._reconstruction_sources.cache_info()
        assert memo.currsize < memo.maxsize and memo.misses == memo.currsize


class TestFiniteSnr:
    def test_rows_and_certificates(self, capsys):
        code, out, _ = run(
            ["finite-snr", "--K", "2", "--sigma", "2", "--alpha", "0.5,1",
             "--P", "1048576", "--certificates", "5"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "region,r_1,r_2,r_1_2,rhs"
        inner_rows = [l for l in lines if l.startswith("inner")]
        assert inner_rows[0].endswith(",9")
        cert_lines = [l for l in lines if l.startswith("certificate_")]
        assert len(cert_lines) == 5
        assert all(l.endswith(",pass") for l in cert_lines)

    @pytest.mark.parametrize("power", ["1", "0.5", "nan", "inf"])
    def test_power_it_cannot_honour_is_usage_error(self, power, tmp_path, capsys):
        out_file = tmp_path / "rows.csv"
        code, out, err = run(
            ["finite-snr", "--K", "2", "--sigma", "2", "--alpha", "0.5,1", "--P", power,
             "--out", str(out_file)],
            capsys,
        )
        assert code == 2
        assert "--P must be a finite power above 1" in err
        assert out == "" and not out_file.exists()

    def test_group_size_one_is_usage_error(self, capsys):
        code, out, err = run(
            ["finite-snr", "--K", "2", "--sigma", "1", "--alpha", "0.5,1"], capsys
        )
        assert code == 2
        assert "group size" in err and out == ""


    @pytest.mark.parametrize("certificates", [1, 7])
    def test_regions_built_once_per_run(self, certificates, capsys, monkeypatch):
        """The inner and outer regions are built once, whatever the number of
        certificates; every certificate runs against that pair."""
        calls = collections.Counter()
        for name in ("inner_rate_region", "outer_rate_region", "constant_gap_certificate"):
            original = getattr(finite_snr, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(finite_snr, name, counted)
        code, _, _ = run(
            ["finite-snr", "--K", "3", "--sigma", "2", "--alpha", "2/5,9/10,1",
             "--certificates", str(certificates)],
            capsys,
        )
        assert code == 0
        assert calls == {"inner_rate_region": 1, "outer_rate_region": 1,
                         "constant_gap_certificate": certificates}


class TestParserReuse:
    SEQUENCE = [
        ["gndt", *FIG3, "--mu", "1/4", "--exact", "--format", "json"],
        ["gndt", *FIG3, "--mu", "1/4"],
        ["gndt", *FIG3, "--mu", "1/4", "--out", "{out}"],
        ["gndt", *FIG3, "--mu", "1/4"],
        ["gndt", *FIG3, "--mu", "1/4", "--config", "{config}"],
        ["gndt", *FIG3, "--mu", "1/4"],
        ["verify", "--K", "3", "--N", "2", "--mu", "1/3", "--region-trials", "1", "--inject-fault"],
        ["verify", "--K", "3", "--N", "2", "--mu", "1/3", "--region-trials", "1"],
        ["region", "--K", "3", "--sigma", "2", "--alpha", "0.4,0.9,1", "--kind", "symmetric", "--s", "2"],
        ["region", "--K", "3", "--sigma", "2", "--alpha", "0.4,0.9,1"],
    ]

    def outputs(self, directory, sequence, capsys):
        directory.mkdir()
        config = directory / "run.json"
        config.write_text(json.dumps({"format": "json", "r": "0,0,0,1/10"}))
        results = []
        for i, argv in enumerate(sequence):
            path = directory / f"{i}.out"
            argv = [a.replace("{out}", str(path)).replace("{config}", str(config)) for a in argv]
            code, out, err = run(argv, capsys)
            results.append((code, out, err, path.read_text() if path.exists() else None))
        return results

    def test_calls_with_and_without_options_match_fresh_parsers(
        self, tmp_path, capsys, monkeypatch
    ):
        """What a call sets (a flag, --out, --format, a config file, --inject-fault,
        --kind) does not carry over to the next call: the sequence prints the same
        forwards and backwards, and the same as argparse with a new parser per call."""
        forward = self.outputs(tmp_path / "forward", self.SEQUENCE, capsys)
        backward = self.outputs(tmp_path / "backward", self.SEQUENCE[::-1], capsys)
        monkeypatch.setattr(cli, "_read", lambda argv: None)  # every argv to argparse, which builds its parser
        fresh = self.outputs(tmp_path / "fresh", self.SEQUENCE, capsys)
        assert forward == fresh == backward[::-1]
        assert [r[0] for r in forward] == [0, 0, 0, 0, 0, 0, 1, 0, 0, 0]
        assert forward[2][1] == "" and forward[2][3] == forward[3][1]
        assert forward[4][1].startswith("[") and forward[5][1] == forward[1][1]
