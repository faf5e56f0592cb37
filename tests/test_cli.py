import ast
import contextlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import capacity_lab
import cli_golden
from capacity_lab import BMCertificate, Ellipsoid, EllipsoidPair, Verdict, __version__, bm, bm_check, cli, minkowski, verify
from capacity_lab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


class CliRunner:
    """Runs the CLI in-process: stdout and stderr go into one buffer, and a
    SystemExit becomes the exit code.  Exceptions always propagate."""

    def invoke(self, cli_main, args, catch_exceptions=True):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                exit_code = cli_main(list(args))
            except SystemExit as exc:
                exit_code = exc.code
        return SimpleNamespace(exit_code=exit_code or 0, output=buf.getvalue())


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


class TestCapacity:
    def test_text_even_summand(self, runner):
        res = invoke(runner, "capacity", "2", "E(3/2,1)", "--format", "text")
        assert res.exit_code == 0
        assert "2·π" in res.output

    def test_text_polydisk(self, runner):
        res = invoke(runner, "capacity", "5", "P(1,1)", "--format", "text")
        assert "5·π" in res.output

    def test_text_sum(self, runner):
        res = invoke(runner, "capacity", "2", "sum(E(3/2,1),E(1,3/2))", "--format", "text")
        assert "13/2·π" in res.output

    def test_json_payload(self, runner):
        res = invoke(runner, "capacity", "3", "sum(E(1,1),E(2/3,1))")
        data = json.loads(res.output)
        assert data["value"] == {"num": 50, "den": 9}
        assert data["decimal"] == "17.4532925199"

    def test_csv_quotes_domain(self, runner):
        res = invoke(runner, "capacity", "1", "E(1,1)", "--format", "csv")
        lines = res.output.strip().splitlines()
        assert lines[0] == "k,domain,exact,decimal"
        assert lines[1].startswith('1,"E(1,1)"')

    def test_verify_paths(self, runner):
        for dom in ["E(3/2,1)", "P(2,3)", "sum(E(3/2,1),E(1,3/2))", "prod(E(1,1),2,10)"]:
            res = invoke(runner, "capacity", "2", dom, "--verify")
            assert res.exit_code == 0, res.output
            assert json.loads(res.output)["verified"] is True

    def test_verify_sum_at_the_cli_cap(self, runner):
        res = invoke(runner, "capacity", "1000000", "sum(E(3/2,1),E(1,3/2))", "--verify")
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["verified"] is True

    def test_parse_error_names_position(self, runner):
        res = runner.invoke(main, ["capacity", "2", "E(3/2;1)"])
        assert res.exit_code == 2
        assert "position" in res.output

    def test_k_below_one(self, runner):
        res = runner.invoke(main, ["capacity", "0", "E(1,1)"])
        assert res.exit_code == 2
        assert "positive integer" in res.output

    def test_k_cap(self, runner):
        res = runner.invoke(main, ["capacity", "2000000", "E(1,1)"])
        assert res.exit_code == 2
        assert "capped" in res.output

    def test_stabilization_error_reported(self, runner):
        res = runner.invoke(main, ["capacity", "2", "prod(E(1,1),2,1)"])
        assert res.exit_code == 2
        assert "stabilization" in res.output


def certificate_text(**fields):
    """The certificate of bm-check 2 "E(3/2,1)" "E(1,3/2)" as JSON, with FIELDS replaced."""
    cert = {
        "k": 2,
        "domain1": "E(3/2,1)",
        "domain2": "E(1,3/2)",
        "c_sum": {"num": 13, "den": 2},
        "c1": {"num": 2, "den": 1},
        "c2": {"num": 2, "den": 1},
        "verdict": "Violates",
        "comparison": "LESS",
    }
    return json.dumps({**cert, **fields})


class TestBmCheck:
    def test_even_violates(self, runner):
        res = invoke(runner, "bm-check", "2", "E(3/2,1)", "E(1,3/2)", "--format", "text")
        assert "verdict: Violates" in res.output

    def test_odd_violates(self, runner):
        res = invoke(runner, "bm-check", "3", "E(1,1)", "E(2/3,1)", "--format", "text")
        assert "verdict: Violates" in res.output

    def test_proportional_equality(self, runner):
        res = invoke(runner, "bm-check", "1", "E(1,1)", "E(1,1)", "--format", "text")
        assert "verdict: Equality" in res.output

    def test_equality_prints_margin_zero(self, runner):
        res = invoke(runner, "bm-check", "4", "E(1,1)", "E(2,2)", "--format", "text")
        assert "sqrt(18) = sqrt(2) + sqrt(8)   [margin 0]\n" in res.output
        data = json.loads(invoke(runner, "bm-check", "4", "E(1,1)", "E(2,2)").output)
        assert data["margin"] == "0" and data["witness"] is None

    def test_json_carries_the_witness(self, runner):
        data = json.loads(invoke(runner, "bm-check", "2", "E(3/2,1)", "E(1,3/2)").output)
        assert list(data)[-2:] == ["witness", "margin"]
        assert data["witness"] == {"v1": 1, "v2": 1}

    def test_exit_zero_whatever_the_verdict(self, runner):
        for args in [["2", "E(3/2,1)", "E(1,3/2)"], ["1", "E(1,1)", "E(1,1)"]]:
            assert invoke(runner, "bm-check", *args).exit_code == 0

    def test_verify_flag(self, runner):
        res = invoke(runner, "bm-check", "2", "E(3/2,1)", "E(1,3/2)", "--verify")
        assert res.exit_code == 0

    def test_verify_large_k_mid_range_argmin(self, runner):
        # k = 4000 with the minimizing v1 = 2000 in the middle of 0..k
        res = invoke(runner, "bm-check", "4000", "E(4001/4000,1)", "E(1,4001/4000)", "--verify")
        assert res.exit_code == 0, res.output

    def test_verify_proportional_pair(self, runner):
        assert invoke(runner, "bm-check", "3", "E(1,2)", "E(2,4)", "--verify").exit_code == 0

    def test_certificate_text_is_valid(self, runner, tmp_path):
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(certificate_text())
        assert json.loads(invoke(runner, "bm-check", "--check-certificate", str(cert_file)).output)["valid"] is True

    def test_json_round_trip_via_file(self, runner, tmp_path):
        res = invoke(runner, "bm-check", "2", "E(3/2,1)", "E(1,3/2)")
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(res.output)
        check = invoke(runner, "bm-check", "--check-certificate", str(cert_file))
        assert check.exit_code == 0
        assert json.loads(check.output)["valid"] is True

    def test_tampered_certificate_fails(self, runner, tmp_path):
        res = invoke(runner, "bm-check", "2", "E(3/2,1)", "E(1,3/2)")
        data = json.loads(res.output)
        data["c_sum"] = {"num": 7, "den": 1}
        cert_file = tmp_path / "bad.json"
        cert_file.write_text(json.dumps(data))
        check = runner.invoke(main, ["bm-check", "--check-certificate", str(cert_file)])
        assert check.exit_code == 1
        assert json.loads(check.output.splitlines()[0])["valid"] is False

    def test_swapped_capacities_fail(self, runner, tmp_path):
        data = json.loads(invoke(runner, "bm-check", "3", "E(1,1)", "E(2/3,1)").output)
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps({**data, "c1": data["c2"], "c2": data["c1"]}))
        res = runner.invoke(main, ["bm-check", "--check-certificate", str(cert_file)], catch_exceptions=False)
        assert res.exit_code == 1
        assert json.loads(res.output.splitlines()[0])["valid"] is False
        assert res.output.splitlines()[1].startswith("certificate invalid: c1: 1·π is not the 3-th merged multiple")
        both = {**data, "domain1": data["domain2"], "domain2": data["domain1"], "c1": data["c2"], "c2": data["c1"]}
        cert_file.write_text(json.dumps(both))
        assert invoke(runner, "bm-check", "--check-certificate", str(cert_file)).exit_code == 0

    def test_patched_engine_certificate_fails(self, runner, tmp_path, monkeypatch):
        norm_coeff = minkowski._norm_coeff

        def plus_one(k, pair):
            h = norm_coeff(k, pair)
            return lambda v1: (h(v1)[0] + h(v1)[1], h(v1)[1])

        monkeypatch.setattr(minkowski, "_norm_coeff", plus_one)
        res = invoke(runner, "bm-check", "4", "E(5/4,1)", "E(1,5/4)")
        assert json.loads(res.output)["c_sum"] == {"num": 45, "den": 4}
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(res.output)
        check = runner.invoke(main, ["bm-check", "--check-certificate", str(cert_file)], catch_exceptions=False)
        assert check.exit_code == 1
        assert json.loads(check.output.splitlines()[0])["valid"] is False
        verify = runner.invoke(main, ["bm-check", "4", "E(5/4,1)", "E(1,5/4)", "--verify"], catch_exceptions=False)
        assert verify.exit_code == 2
        reason = "c_sum: norm at the argmin v1 = 2 is 41/4·π, not 45/4·π"
        assert verify.output == f"Error: verification failed: {reason}\n"

    def test_shifted_witness_fails(self, runner, tmp_path):
        data = json.loads(invoke(runner, "bm-check", "1000000", "E(3/2,1)", "E(1,3/2)").output)
        data["witness"] = {"v1": data["witness"]["v1"] + 1, "v2": data["witness"]["v2"] - 1}
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps(data))
        res = runner.invoke(main, ["bm-check", "--check-certificate", str(cert_file)], catch_exceptions=False)
        assert res.exit_code == 1

    def test_long_domain_literal_error_stays_short(self, runner, tmp_path):
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(certificate_text(domain1="E(1,1)" + "x" * 10**6))
        res = runner.invoke(main, ["bm-check", "--check-certificate", str(cert_file)], catch_exceptions=False)
        assert res.exit_code == 2
        assert res.output.startswith("Error: bad certificate file: unexpected trailing input 'xxx")
        assert len(res.output.splitlines()) == 1
        assert len(res.output.encode()) < 200

    @pytest.mark.parametrize(
        "literal",
        ["E(1,1)" + "x" * 10**5, "E(" + "1" * 10**5 + "/0,1)", "Q" * 10**5 + "(1,1)", "E(1,1" + " " * 10**5 + ";"],
    )
    def test_parse_error_line_is_bounded(self, runner, literal):
        res = runner.invoke(main, ["capacity", "2", literal], catch_exceptions=False)
        assert res.exit_code == 2
        assert len(res.output.splitlines()) == 1
        assert len(res.output.encode()) < 200
        assert "at position" in res.output and "..." in res.output

    @pytest.mark.parametrize(
        "content",
        [
            "not json",
            "[1]",
            '{"k": 2}',
            pytest.param(certificate_text(k=0), id="k=0"),
            pytest.param(certificate_text(k=-3), id="k=-3"),
            pytest.param(certificate_text(k=10**30), id="k=10**30"),
            pytest.param(certificate_text(c_sum={"num": 1, "den": 0}), id="den=0"),
            pytest.param(certificate_text(k=2.9), id="k=2.9"),
            pytest.param(certificate_text(k="2"), id="k='2'"),
            pytest.param(certificate_text(k=True), id="k=true"),
            pytest.param(certificate_text(c1={"num": True, "den": 1}), id="num=true"),
            pytest.param(certificate_text(c1={"num": 2, "den": True}), id="den=true"),
            pytest.param(certificate_text(c1={"num": 2.0, "den": 1}), id="num=2.0"),
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
            pytest.param(certificate_text(witness=True), id="witness=true"),
            pytest.param(certificate_text(witness=2.0), id="witness=2.0"),
            pytest.param(certificate_text(witness="2"), id="witness='2'"),
            pytest.param(certificate_text(witness={"v1": -1, "v2": 3}), id="v1=-1"),
            pytest.param(certificate_text(witness={"v1": 2, "v2": 1}), id="v1+v2!=k"),
            pytest.param(certificate_text(witness={"v1": True, "v2": 1}), id="v1=true"),
            pytest.param(certificate_text(witness={"v1": 1.0, "v2": 1}), id="v1=1.0"),
        ],
    )
    def test_malformed_certificate_file(self, runner, tmp_path, content):
        cert_file = tmp_path / "bad.json"
        cert_file.write_text(content)
        res = runner.invoke(main, ["bm-check", "--check-certificate", str(cert_file)], catch_exceptions=False)
        assert res.exit_code == 2
        assert res.output.startswith("Error: bad certificate file")
        assert len(res.output.strip().splitlines()) == 1

    def test_k_zero_equality_certificate_refused(self, runner, tmp_path):
        # every value 0 and verdict Equality: the library's verifier refuses it too, on c_sum
        zero = {"num": 0, "den": 1}
        cert_file = tmp_path / "k0.json"
        fields = {"c_sum": zero, "c1": zero, "c2": zero, "verdict": "Equality", "comparison": "EQUAL", "witness": None}
        cert_file.write_text(certificate_text(k=0, domain1="E(1,1)", domain2="E(2,2)", **fields))
        res = runner.invoke(main, ["bm-check", "--check-certificate", str(cert_file)], catch_exceptions=False)
        assert (res.exit_code, res.output) == (2, "Error: bad certificate file: k must be in 1..1000000, got 0\n")

    @pytest.mark.parametrize(
        "extra",
        [["7"], ["7", "E(1,1)"], ["7", "E(1,1)", "E(9,9)"], ["--verify"], ["--format", "text"], ["--format", "csv"]],
    )
    def test_check_certificate_takes_no_other_input(self, runner, tmp_path, extra):
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(invoke(runner, "bm-check", "2", "E(3/2,1)", "E(1,3/2)").output)
        res = runner.invoke(main, ["bm-check", "--check-certificate", str(cert_file), *extra], catch_exceptions=False)
        assert res.exit_code == 2
        assert res.output.startswith("Error: --check-certificate FILE does not take")
        assert len(res.output.strip().splitlines()) == 1
        explicit_json = ["bm-check", "--check-certificate", str(cert_file), "--format", "json"]
        assert json.loads(invoke(runner, *explicit_json).output)["valid"] is True

    def test_missing_args_reported(self, runner):
        res = runner.invoke(main, ["bm-check", "2", "E(1,1)"])
        assert res.exit_code == 2

    def test_polydisk_rejected(self, runner):
        res = runner.invoke(main, ["bm-check", "2", "P(1,1)", "E(1,1)"])
        assert res.exit_code == 2
        assert "ellipsoid" in res.output


class TestReproduce:
    def test_csv_table(self, runner):
        res = invoke(runner, "reproduce", "6", "--format", "csv")
        lines = res.output.strip().splitlines()
        assert lines[0] == "k,family,c_sum,c1,c2,verdict"
        assert lines[1] == "2,even,13/2,2,2,Violates"
        assert lines[2] == "3,odd,50/9,2,1,Violates"
        assert len(lines) == 6

    def test_exit_zero_on_success(self, runner):
        assert invoke(runner, "reproduce", "4").exit_code == 0

    def test_verify_mode(self, runner):
        assert invoke(runner, "reproduce", "5", "--verify").exit_code == 0

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_a_closed_form_miss_at_the_last_k_prints_nothing(self, monkeypatch, fmt):
        expected = bm.expected_family_coeff
        monkeypatch.setattr(bm, "expected_family_coeff", lambda k: expected(k) + (k == 6))
        got = cli_golden.run(["reproduce", "6", "--format", fmt])
        assert (got["exit"], got["stdout"]) == (3, "")
        assert got["stderr"] == "reproduction FAILED: k=6: computed c_sum = 85/6·π, closed form expects 91/6·π\n"

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_a_rejection_at_the_last_k_prints_nothing(self, monkeypatch, fmt):
        verify_certificate = verify.verify_certificate

        def reject_the_last(cert, reasons=None):
            if cert.k == 6:
                reasons.append("forged rejection")
                return False
            return verify_certificate(cert, reasons)

        monkeypatch.setattr(verify, "verify_certificate", reject_the_last)
        got = cli_golden.run(["reproduce", "6", "--verify", "--format", fmt])
        assert (got["exit"], got["stdout"]) == (3, "")
        assert got["stderr"] == "reproduction FAILED: verify_certificate rejects k=6: forged rejection\n"


class TestOmega:
    def test_csv_header_and_endpoints(self, runner):
        res = invoke(runner, "omega", "E(3/2,1)", "E(1,3/2)", "--samples", "4", "--format", "csv")
        lines = res.output.strip().splitlines()
        assert lines[0] == "psi,x1,x2"
        first = lines[1].split(",")
        last = lines[-1].split(",")
        import math

        assert float(first[1]) == math.pi * 6.25 and float(first[2]) == 0.0
        assert float(last[1]) == 0.0 and float(last[2]) == math.pi * 6.25

    def test_json_arrays(self, runner):
        res = invoke(runner, "omega", "E(1,1)", "E(2/3,1)", "--samples", "8", "--format", "json")
        points = json.loads(res.output)
        assert len(points) == 9
        assert all(len(p) == 3 for p in points)

    def test_file_output(self, runner, tmp_path):
        target = tmp_path / "curve.csv"
        res = invoke(runner, "omega", "E(1,1)", "E(2/3,1)", "--samples", "4", "--format", "csv", "--out", str(target))
        assert res.exit_code == 0
        assert target.read_text().startswith("psi,x1,x2")

    def test_proportional_pair_rejected(self, runner):
        res = runner.invoke(main, ["omega", "E(1,1)", "E(2,2)"])
        assert res.exit_code == 2


class TestMeanWidth:
    def test_polydisk_json(self, runner):
        res = invoke(runner, "mean-width", "P(1,1)")
        assert res.exit_code == 0
        assert json.loads(res.output) == {
            "domain": "P(1,1)",
            "value": {"num": 4, "den": 3},
            "exact": "4/3",
            "decimal": "1.33333333333",
        }

    def test_csv_and_text(self, runner):
        csv_out = invoke(runner, "mean-width", "E(2,1)", "--format", "csv").output
        assert csv_out == 'domain,exact,decimal\n"E(2,1)",14/9,1.55555555556\n'
        text = invoke(runner, "mean-width", "P(1,1)", "--format", "text").output
        assert text == "M(P(1,1)) = 4/3 = 1.33333333333\n"

    def test_sum_is_the_sum_of_the_mean_widths(self, runner):
        # M(E(1,1)) = 1 and M(E(2/3,1)) = 38/45
        res = invoke(runner, "mean-width", "sum(E(1,1),E(2/3,1))", "--format", "text")
        assert res.exit_code == 0
        assert res.output == "M(sum(E(1,1),E(2/3,1))) = 83/45 = 1.84444444444\n"

    def test_prod_rejected(self, runner):
        res = runner.invoke(main, ["mean-width", "prod(E(1,1),2,10)"], catch_exceptions=False)
        assert res.exit_code == 2
        assert res.output == (
            "Error: mean width supports only 4-dimensional ellipsoids, polydisks and ellipsoid sums, "
            "got prod(E(1,1),2,10)\n"
        )


class TestCriterion:
    def test_range_csv(self, runner):
        res = invoke(runner, "criterion", "1..10", "--format", "csv")
        lines = res.output.strip().splitlines()
        assert lines[0] == "k,violating,lhs,rhs,c_polydisk,c_ball"
        flags = [line.split(",")[1] for line in lines[1:]]
        assert flags == ["False", "True", "False", "True", "False", "True", "False", "True", "True", "True"]

    def test_single_k(self, runner):
        res = invoke(runner, "criterion", "7")
        rows = json.loads(res.output)
        assert len(rows) == 1 and rows[0]["violating"] is False

    def test_bad_range(self, runner):
        assert runner.invoke(main, ["criterion", "5..2"]).exit_code == 2

    def test_byte_determinism(self, runner):
        a = invoke(runner, "criterion", "1..20").output
        b = invoke(runner, "criterion", "1..20").output
        assert a == b


def reference_search(bound, ks):
    # every certificate of the sweep, as the list-building search held them
    radii = cli._height_bounded_rationals(bound)
    ellipsoids = [Ellipsoid(a, b) for a in radii for b in radii]
    return [
        bm_check(k, EllipsoidPair.normalized(e1, e2))
        for i, e1 in enumerate(ellipsoids)
        for e2 in ellipsoids[i:]
        for k in ks
    ]


class TestSearch:
    @pytest.mark.parametrize("bound", [2, 3])
    def test_output_matches_every_certificate_reference(self, runner, bound):
        certs = reference_search(bound, range(2, 5))
        violating = [c for c in certs if c.verdict is Verdict.VIOLATES]
        as_json = invoke(runner, "search", str(bound), "2..4").output
        assert as_json == json.dumps([c.to_dict() for c in violating], indent=2) + "\n"
        as_csv = invoke(runner, "search", str(bound), "2..4", "--format", "csv").output.splitlines()
        assert as_csv[0] == "k,domain1,domain2,c_sum,c1,c2,verdict"
        assert [row.split(",")[0] for row in as_csv[1:]] == [str(c.k) for c in violating]
        as_text = invoke(runner, "search", str(bound), "2..4", "--format", "text").output.splitlines()
        assert len(as_text) == len(violating) + 1
        assert as_text[-1] == f"{len(violating)} violating certificates among {len(certs)} checks"

    @pytest.mark.parametrize("bound, k_range, checks", [("8", "1..1", 1_710_325), ("7", "1..2", 1_501_850)])
    def test_check_cap(self, runner, monkeypatch, bound, k_range, checks):
        monkeypatch.setattr("capacity_lab.bm.bm_check", lambda *args: pytest.fail("checked past the search cap"))
        res = runner.invoke(main, ["search", bound, k_range], catch_exceptions=False)
        assert res.exit_code == 2
        assert res.output == f"Error: search is capped at {cli.SEARCH_CAP} checks, got {checks}\n"

    def test_huge_bound_refused_before_enumerating_radii(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "_height_bounded_rationals", lambda *args: pytest.fail("enumerated the radii"))
        res = runner.invoke(main, ["search", "1000000000", "1..1"], catch_exceptions=False)
        assert res.exit_code == 2
        checks = 10**18 * (10**18 + 1) // 2
        assert res.output == f"Error: search is capped at {cli.SEARCH_CAP} checks, got at least {checks}\n"

    def test_bound_one_finds_nothing(self, runner):
        res = invoke(runner, "search", "1", "2..2", "--format", "text")
        assert "0 violating" in res.output

    def test_bound_two_finds_violations(self, runner):
        res = invoke(runner, "search", "2", "3..3")
        certs = json.loads(res.output)
        assert certs
        assert all(c["verdict"] == "Violates" for c in certs)
        found = {(c["domain1"], c["domain2"], c["k"]) for c in certs}
        assert ("E(1,1)", "E(1/2,1)", 3) in found or ("E(1/2,1)", "E(1,1)", 3) in found


class TestOptionsAndErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["capacity", "2", "E(1,1)", "--seed", "1"],
            ["bm-check", "2", "E(1,1)", "E(1,2)", "--samples", "100"],
            ["reproduce", "3", "--jobs", "1"],
            ["omega", "E(1,1)", "E(2/3,1)", "--verify"],
            ["mean-width", "P(1,1)", "--grid", "64"],
            ["mean-width", "P(1,1)", "--samples", "1000"],
            ["mean-width", "P(1,1)", "--seed", "42"],
            ["criterion", "1..3", "--tol", "1e-9"],
            ["search", "1", "2", "--seed", "1"],
            ["capacity", "3", "sum(E(3/2,1),E(1,3/2))", "--verify", "--grid", "4096"],
            ["bm-check", "3", "E(3/2,1)", "E(1,3/2)", "--verify", "--tol", "1e-9"],
            ["reproduce", "5", "--verify", "--grid", "4096"],
            ["capacity", "3", "sum(E(3/2,1),E(1,3/2))", "--verify", "--tol", "1e-9"],
            ["bm-check", "3", "E(3/2,1)", "E(1,3/2)", "--verify", "--grid", "4096"],
            ["reproduce", "5", "--verify", "--tol", "1e-9"],
        ],
    )
    def test_unread_option_rejected(self, runner, args):
        res = runner.invoke(main, args, catch_exceptions=False)
        assert res.exit_code == 2
        assert "No such option" in res.output

    def test_version(self, runner):
        res = runner.invoke(main, ["--version"], catch_exceptions=False)
        assert res.exit_code == 0
        assert res.output.rstrip("\n").endswith(f"version {__version__}")

    def test_version_names_the_program(self, runner):
        res = runner.invoke(main, ["--version"], catch_exceptions=False)
        assert res.output == f"capacity-lab, version {__version__}\n"

    def test_numpy_is_an_optional_extra(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        assert project["dependencies"] == []
        extras = project["optional-dependencies"]
        assert extras["float"] == ["numpy>=1.24"] and "numpy>=1.24" in extras["test"]

    @pytest.mark.parametrize("args", [["--version"], ["--help"], ["reproduce", "--help"]])
    def test_help_and_version_return_0(self, args, capsys):
        # argparse exits after printing them; main returns that exit code like any other
        assert main(args) == 0
        out = capsys.readouterr().out
        if args == ["--version"]:
            assert out == f"capacity-lab, version {__version__}\n"
        else:
            assert out.startswith("usage: capacity-lab")

    @pytest.mark.parametrize(
        "args, names",
        [
            ([], ["COMMAND"]),
            (["no-such-command"], ["no-such-command"]),
            (["capacity"], ["K", "DOMAIN"]),
            (["capacity", "2"], ["DOMAIN"]),
            (["reproduce"], ["K_MAX"]),
            (["omega", "E(1,1)"], ["DOMAIN2"]),
            (["capacity", "two", "E(1,1)"], ["K", "'two'"]),
            (["search", "2.5", "2..4"], ["BOUND", "'2.5'"]),
            (["capacity", "2", "E(1,1)", "--format", "xml"], ["--format", "'xml'"]),
            (["reproduce", "5", "--format", "JSON"], ["--format", "'JSON'"]),
            (["omega", "E(1,1)", "E(2/3,1)", "--samples", "many"], ["--samples", "'many'"]),
            (["capacity", "2", "E(1,1)", "extra"], ["extra"]),
            (["capacity", "2", "E(1,1)", "--form", "text"], ["No such option: --form"]),
            (["--seed", "capacity", "2", "E(1,1)"], ["No such option: --seed"]),
        ],
    )
    def test_usage_error_is_one_line(self, runner, args, names):
        res = runner.invoke(main, args, catch_exceptions=False)
        assert res.exit_code == 2
        assert res.output.startswith("Error: ")
        assert len(res.output.splitlines()) == 1
        assert all(name in res.output for name in names)

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_certificate_path(self, runner, tmp_path, kind):
        path = tmp_path / "cert.json"
        if kind == "directory":
            path.mkdir()
        res = runner.invoke(main, ["bm-check", "--check-certificate", str(path)], catch_exceptions=False)
        assert res.exit_code == 2
        assert res.output.startswith("Error: bad certificate file: [Errno ")
        assert str(path) in res.output
        assert len(res.output.splitlines()) == 1

    def test_options_may_stand_between_positionals(self, runner):
        trailing = invoke(runner, "bm-check", "2", "E(3/2,1)", "E(1,3/2)", "--verify", "--format", "csv")
        interleaved = invoke(runner, "bm-check", "2", "--verify", "E(3/2,1)", "--format", "csv", "E(1,3/2)")
        assert interleaved.exit_code == trailing.exit_code == 0
        assert interleaved.output == trailing.output

    def test_help_exits_zero(self, runner):
        for args in [["--help"], ["capacity", "--help"], ["bm-check", "--help"]]:
            res = runner.invoke(main, args, catch_exceptions=False)
            assert res.exit_code == 0
            assert res.output.startswith("usage: capacity-lab")

    def test_omega_samples_cap(self, runner, monkeypatch):
        monkeypatch.setattr("capacity_lab._kernels.omega_curve", lambda *args: pytest.fail("sampled past the --samples cap"))
        args = ["omega", "E(1,1)", "E(2/3,1)", "--samples", str(cli.SAMPLES_CAP + 1)]
        res = runner.invoke(main, args, catch_exceptions=False)
        assert res.exit_code == 2
        assert res.output == f"Error: --samples is capped at {cli.SAMPLES_CAP} for omega, got {cli.SAMPLES_CAP + 1}\n"

    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    def test_unwritable_omega_out(self, runner, tmp_path, kind):
        path = tmp_path / "no-such-dir" / "curve.csv" if kind == "missing-directory" else tmp_path
        res = runner.invoke(main, ["omega", "E(1,1)", "E(2/3,1)", "--out", str(path)], catch_exceptions=False)
        assert res.exit_code == 2
        assert res.output.startswith("Error: cannot write --out: [Errno ")
        assert str(path) in res.output
        assert len(res.output.splitlines()) == 1

    @pytest.mark.parametrize("command", [["capacity", "2"], ["bm-check", "2", "E(1,1)"], ["mean-width"]])
    @pytest.mark.parametrize("kind", ["sum", "prod"])
    def test_deeply_nested_domain(self, runner, command, kind):
        # the grammar nests at most prod(sum(E,E),m,R), so the parser stops at the second level
        res = runner.invoke(main, [*command, f"{kind}(" * 5000], catch_exceptions=False)
        assert res.exit_code == 2
        assert res.output.startswith(f"Error: {kind}(...) ")
        assert len(res.output.splitlines()) == 1

    @pytest.mark.parametrize("k_max", ["1", "0"])
    def test_reproduce_needs_two_indices(self, runner, monkeypatch, k_max):
        monkeypatch.setattr("capacity_lab.bm.reproduce_theorem", lambda *args: pytest.fail("reproduced below K_MAX = 2"))
        res = runner.invoke(main, ["reproduce", k_max], catch_exceptions=False)
        assert res.exit_code == 2
        assert res.output == f"Error: K_MAX must be >= 2, got {k_max}\n"

    def test_every_certificate_check_goes_through_verify_certificate(self, runner, tmp_path, monkeypatch):
        checked = []

        def verify(cert, reasons=None):
            checked.append(cert.k)
            reasons.append("forged rejection")
            return False

        cert_file = tmp_path / "cert.json"
        cert_file.write_text(invoke(runner, "bm-check", "2", "E(3/2,1)", "E(1,3/2)").output)
        monkeypatch.setattr("capacity_lab.verify.verify_certificate", verify)
        res = runner.invoke(main, ["bm-check", "3", "E(1,1)", "E(2/3,1)", "--verify"], catch_exceptions=False)
        assert (res.exit_code, res.output) == (2, "Error: verification failed: forged rejection\n")
        res = runner.invoke(main, ["reproduce", "4", "--verify"], catch_exceptions=False)
        assert (res.exit_code, res.output) == (3, "reproduction FAILED: verify_certificate rejects k=2: forged rejection\n")
        res = runner.invoke(main, ["bm-check", "--check-certificate", str(cert_file)], catch_exceptions=False)
        assert res.exit_code == 1
        assert res.output.splitlines()[1] == "certificate invalid: forged rejection"
        assert checked == [3, 2, 2]

    def test_verification_failure_exit_codes(self, runner, monkeypatch):
        def disagree(*args):
            raise ValueError("forged disagreement")

        monkeypatch.setattr("capacity_lab.verify.cross_check", disagree)
        res = runner.invoke(main, ["capacity", "2", "E(3/2,1)", "--verify"], catch_exceptions=False)
        assert res.exit_code == 2
        assert "verification failed: forged disagreement" in res.output
        res = runner.invoke(main, ["bm-check", "2", "E(3/2,1)", "E(1,3/2)", "--verify"], catch_exceptions=False)
        assert res.exit_code == 2
        res = runner.invoke(main, ["reproduce", "4", "--verify"], catch_exceptions=False)
        assert res.exit_code == 3
        assert "verify_certificate rejects k=2" in res.output


def run_fresh(*args):
    """Run python with ARGS in a fresh interpreter that imports capacity_lab from the checkout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def run_with_importtime(*args):
    """Run the CLI in a fresh interpreter; stderr lists every module it imported."""
    return run_fresh("-X", "importtime", "-m", "capacity_lab.cli", *args)


def imports_numpy(res):
    return "numpy" in res.stderr


EXACT_MODULES = ("exact", "domains", "minkowski", "bm", "verify")
FLOAT_MODULES = {"numpy", "_kernels"}
# the trusted base, the verifier and the two modules it imports, checks the engine's output,
# so it may import none of the engine's code
TRUSTED_MODULES = ("verify", "domains", "exact")
ENGINE_MODULES = {"bm", "minkowski", "cli", *FLOAT_MODULES}


def forbidden_imports(path, forbidden):
    """(top-level definition, imported name) of each import in PATH, at any depth, that names a module in FORBIDDEN."""
    found = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" if node.module else alias.name for alias in node.names]
            else:
                continue
            found += [(owner, name) for name in names if forbidden & set(name.split("."))]
    return found


EXACT_SUBCOMMANDS = [
    ["capacity", "7", "E(3/2,1)", "--verify"],
    ["capacity", "5", "sum(E(3/2,1),E(1,3/2))"],
    ["bm-check", "6", "E(3/2,1)", "E(1,2)"],
    ["reproduce", "20"],
    ["criterion", "1..20"],
    ["search", "2", "2..4"],
    ["--version"],
    ["bm-check", "6", "E(3/2,1)", "E(1,2)", "--verify"],
    ["reproduce", "20", "--verify"],
    ["capacity", "5", "prod(sum(E(3/2,1),E(1,3/2)),2,10)", "--verify"],
    ["mean-width", "P(1,1)"],
    ["mean-width", "E(3/2,1)", "--format", "text"],
    ["mean-width", "sum(E(1,1),E(2/3,1))", "--format", "csv"],
]


class TestExactPathImports:
    @pytest.mark.parametrize("args", EXACT_SUBCOMMANDS)
    def test_exact_subcommands_never_import_numpy(self, args):
        res = run_with_importtime(*args)
        assert res.returncode == 0, res.stderr
        assert res.stdout
        assert not imports_numpy(res)

    @pytest.mark.parametrize("args", EXACT_SUBCOMMANDS)
    def test_exact_subcommands_import_no_dataclasses_or_typing(self, args):
        # -S: no site module, so no .pth file preloads typing; the last stdout line lists what main loaded
        script = (
            "import json, sys\nfrom capacity_lab.cli import main\n"
            "try:\n    code = main(sys.argv[1:])\nexcept SystemExit as exc:\n    code = exc.code\n"
            "print(json.dumps([code, [m for m in ('csv', 'dataclasses', 'inspect', 'typing') if m in sys.modules]]))"
        )
        res = run_fresh("-S", "-c", script, *args)
        assert res.returncode == 0, res.stderr
        code, loaded = json.loads(res.stdout.splitlines()[-1])
        assert code in (0, None)
        assert loaded == (["csv"] if args[-2:] == ["--format", "csv"] else [])

    def test_package_import_leaves_float_modules_unloaded(self):
        script = (
            "import json, sys, capacity_lab, capacity_lab.cli; loaded = list(sys.modules); "
            "from capacity_lab import *; print(json.dumps(loaded))"
        )
        res = run_fresh("-c", script)
        assert res.returncode == 0, res.stderr
        loaded = set(json.loads(res.stdout))
        assert "numpy" not in loaded and "click" not in loaded
        package = {"capacity_lab", "capacity_lab.cli", "capacity_lab.exact", "capacity_lab.domains"}
        assert {m for m in loaded if m.split(".")[0] == "capacity_lab"} == package

    def test_verifier_loads_no_engine(self):
        # the engine computes the values here; a fresh interpreter checks them with verify alone
        cases = []
        for k, text in [(7, "E(3/2,1)"), (7, "P(2,3)"), (5, "sum(E(1,2),E(2,4))"),
                        (10**6, "sum(E(3/2,1),E(1,3/2))"), (5, "prod(E(1,1),2,10)")]:
            domain = capacity_lab.parse_domain(text)
            value, witnesses = capacity_lab.capacity(k, domain).coeff, [None]
            if isinstance(domain, EllipsoidPair) and not domain.proportional:
                w = minkowski.sum_capacity_with_argmin(k, domain)[1]
                witnesses.append([w.v1, w.v2])
            cases += [[k, text, value.numerator, value.denominator, w] for w in witnesses]
            cases.append([k, text, value.numerator + value.denominator, value.denominator, None])
        script = (
            "import json, sys\nfrom fractions import Fraction\n"
            "from capacity_lab.domains import IndexVector, parse_domain\n"
            "from capacity_lab.exact import PiRational\nfrom capacity_lab.verify import cross_check\n"
            "accepted = []\n"
            "for k, text, num, den, w in json.loads(sys.argv[1]):\n"
            "    try:\n"
            "        cross_check(k, parse_domain(text), PiRational(Fraction(num, den)), w and IndexVector(*w))\n"
            "        accepted.append(True)\n"
            "    except ValueError:\n"
            "        accepted.append(False)\n"
            "engine = ['capacity_lab.minkowski', 'capacity_lab.bm', 'capacity_lab._kernels', 'numpy']\n"
            "print(json.dumps([accepted, [m for m in engine if m in sys.modules]]))"
        )
        res = run_fresh("-c", script, json.dumps(cases))
        assert res.returncode == 0, res.stderr
        accepted, loaded = json.loads(res.stdout)
        # each exact value passes, with and without a witness, and the same value plus 1 fails
        assert accepted == [True, False] * 3 + [True, True, False] + [True, False]
        assert loaded == []

    def test_check_certificate_never_imports_numpy(self, runner, tmp_path):
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(invoke(runner, "bm-check", "6", "E(3/2,1)", "E(1,2)").output)
        res = run_with_importtime("bm-check", "--check-certificate", str(cert_file))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["valid"] is True
        assert not imports_numpy(res)

    def test_mean_width_runs_without_numpy(self):
        # None in sys.modules makes every import of numpy raise ImportError
        script = (
            "import sys\nsys.modules['numpy'] = None\nfrom capacity_lab.cli import main\n"
            "sys.exit(main(['mean-width', 'sum(E(1,1),E(2/3,1))', '--format', 'text']))"
        )
        res = run_fresh("-c", script)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "M(sum(E(1,1),E(2/3,1))) = 83/45 = 1.84444444444\n"
        assert res.stderr == ""

    def test_omega_without_numpy_is_one_error_line(self):
        # also for the proportional pair E(2,2): omega_curve would refuse it, but its module cannot load
        for domain2 in ("E(2/3,1)", "E(2,2)"):
            script = (
                "import sys\nsys.modules['numpy'] = None\nfrom capacity_lab.cli import main\n"
                f"sys.exit(main(['omega', 'E(1,1)', '{domain2}']))"
            )
            res = run_fresh("-c", script)
            assert (res.returncode, res.stdout) == (2, "")
            assert res.stderr == (
                "Error: omega samples the curve with numpy, which cannot be imported: "
                "import of numpy halted; None in sys.modules\n"
            )

    def test_mean_width_estimate_without_numpy_raises_import_error(self):
        # the estimator's module needs numpy, so even a domain it refuses raises ImportError
        script = (
            "import sys\nsys.modules['numpy'] = None\nimport capacity_lab\n"
            "domain = capacity_lab.parse_domain('sum(E(1,1),E(2/3,1))')\n"
            "try:\n    capacity_lab.mean_width_estimate(domain, 1000, 0)\n"
            "except ImportError as exc:\n    print('ImportError:', exc)"
        )
        res = run_fresh("-c", script)
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == "ImportError: import of numpy halted; None in sys.modules\n"

    def test_exact_modules_import_no_float_code(self):
        # every import at any depth; only cmd_omega of the CLI may load _kernels
        found = {
            module: forbidden_imports(SRC / "capacity_lab" / f"{module}.py", FLOAT_MODULES)
            for module in EXACT_MODULES + ("cli",)
        }
        assert found == {**{module: [] for module in EXACT_MODULES}, "cli": [("cmd_omega", "_kernels.omega_curve")]}

    def test_verifier_imports_no_engine_code(self):
        found = {
            module: forbidden_imports(SRC / "capacity_lab" / f"{module}.py", ENGINE_MODULES)
            for module in TRUSTED_MODULES
        }
        assert found == {module: [] for module in TRUSTED_MODULES}

    def test_check_certificate_loads_no_engine(self, runner, tmp_path):
        # reading and checking a certificate file needs exact, domains and verify alone
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(invoke(runner, "bm-check", "6", "E(3/2,1)", "E(1,2)").output)
        script = (
            "import json, sys\nfrom capacity_lab import cli\n"
            "code = cli.main(['bm-check', '--check-certificate', sys.argv[1]])\n"
            "engine = ['capacity_lab.bm', 'capacity_lab.minkowski', 'capacity_lab._kernels', 'numpy']\n"
            "print(json.dumps([code, [m for m in engine if m in sys.modules]]))"
        )
        res = run_fresh("-c", script, str(cert_file))
        assert res.returncode == 0, res.stderr
        checked, loaded = res.stdout.splitlines()
        assert json.loads(checked)["valid"] is True
        assert json.loads(loaded) == [0, []]

    def test_sum_verify_never_imports_numpy(self):
        res = run_with_importtime("capacity", "5", "sum(E(3/2,1),E(1,3/2))", "--verify")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["verified"] is True
        assert "capacity_lab.verify" in res.stderr and "capacity_lab._kernels" not in res.stderr
        assert not imports_numpy(res)


class TestValuesTooLargeToPrint:
    """Radii beyond float range, or results beyond the int-to-str digit limit:
    the exact certificate when it prints, else one error line and exit 2."""

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_bm_check_prints_the_exact_certificate(self, fmt):
        x = 10**155  # c_k of E(x,x) is about 10^310, beyond float range
        res = cli_golden.run(["bm-check", "2", f"E({x},{x})", "E(1,2)", "--format", fmt])
        assert (res["exit"], res["stderr"]) == (0, "")
        cert = bm_check(2, EllipsoidPair.normalized(Ellipsoid(x, x), Ellipsoid(1, 2)))
        if fmt == "json":
            data = json.loads(res["stdout"])
            assert BMCertificate.from_dict(data) == cert
            assert data["margin"] == f"{cert.margin():.12g}"
        else:
            assert all(str(value.coeff) in res["stdout"] for value in (cert.c_sum, cert.c_1, cert.c_2))

    def test_bm_check_margin_beyond_float_range(self):
        x = 10**400
        argv = ["bm-check", "2", f"E({3 * x}/2,{x})", f"E({x},{3 * x}/2)"]
        for fmt in ("json", "text"):
            res = cli_golden.run([*argv, "--format", fmt])
            assert (res["exit"], res["stdout"]) == (2, "")
            assert res["stderr"] == "Error: the margin of the certificate is beyond float range\n"
        # CSV has no margin column
        assert cli_golden.run([*argv, "--format", "csv"])["exit"] == 0

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("command", ["bm-check", "capacity"])
    def test_integers_beyond_the_digit_limit(self, command, fmt):
        rng = random.Random(1)
        a, b, c, d, e, f, g, h = (rng.randrange(10**499, 10**500) for _ in range(8))
        e1, e2 = f"E({a}/{b},{c}/{d})", f"E({e}/{f},{g}/{h})"
        argv = [command, "1000", *((e1, e2) if command == "bm-check" else (f"sum({e1},{e2})",))]
        res = cli_golden.run([*argv, "--format", fmt])
        assert (res["exit"], res["stdout"]) == (2, "")
        assert res["stderr"] == f"Error: the result has an integer of more than {sys.get_int_max_str_digits()} digits\n"

    @pytest.mark.parametrize("exponent", [154, 155, 400])
    def test_omega_refuses_samples_beyond_float_range(self, exponent):
        # a fresh process, so that a numpy RuntimeWarning would reach stderr
        x = 10**exponent
        res = run_fresh("-m", "capacity_lab.cli", "omega", f"E({x},{x})", "E(1,2)")
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == "Error: omega_curve samples of these radii lie beyond float range\n"


def test_public_names_are_declared_once():
    names = [name for names in capacity_lab._MODULES.values() for name in names.split()]
    assert len(names) == len(set(names))
    assert capacity_lab.__all__ == ["__version__", *names]
    for module in capacity_lab._MODULES:
        assert not hasattr(getattr(capacity_lab, module), "__all__")
    for name in names:
        assert getattr(capacity_lab, name) is getattr(getattr(capacity_lab, capacity_lab._EXPORTS[name]), name)


def test_no_settings_beyond_the_ones_in_use():
    # the oracle grid, the decimal digits and the product wrapper each had one value or caller in use
    for name in ("OracleConfig", "golden_max", "product_with_ball_capacity"):
        assert name not in capacity_lab.__all__ and not hasattr(capacity_lab, name)
    assert not hasattr(capacity_lab._kernels, "OracleConfig")
    assert not hasattr(capacity_lab.minkowski, "product_with_ball_capacity")
    signatures = {
        fn.__name__: list(inspect.signature(fn).parameters)
        for fn in (
            capacity_lab.support_norm_numeric,
            capacity_lab.s_derivative_signcheck,
            capacity_lab.format_decimal,
            capacity_lab.PiRational.decimal,
        )
    }
    assert signatures == {
        "support_norm_numeric": ["v", "pair"],
        "s_derivative_signcheck": ["v", "pair"],
        "format_decimal": ["q", "factor"],
        "decimal": ["self"],
    }
