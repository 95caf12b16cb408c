import hashlib
import json
from fractions import Fraction as F

import pytest

from cachecast.cli import main
from cachecast.polytope import Polytope


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FIG3 = ["--K", "4", "--N", "4", "--alpha", "0.45,0.65,0.85,1"]


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


class TestSweepMemory:
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
            (["--max-K", "4", "--max-N", "4", "--seed", "0"], 0, 160099,
             "fb9656dc1d2f27b99b8ce7473e222bb5bf6cc3803446861d0cacc7049d5af713"),
            (["--K", "4", "--N", "3", "--B", "96", "--seed", "5", "--region-trials", "1",
              "--inject-fault"], 1, 28966,
             "3f6ff88ef2f88348ee3533e227b1c85375eb7e4020d7b1b7d784d80dc795dda8"),
        ],
    )
    def test_output_is_byte_identical(self, argv, exit_code, size, digest, capsys):
        """Records and summary are pinned bit for bit: a faster pipeline must
        draw the same libraries and reach the same verdicts."""
        code, out, _ = run(["verify", *argv], capsys)
        data = out.encode()
        assert (code, len(data), hashlib.sha256(data).hexdigest()) == (exit_code, size, digest)


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
