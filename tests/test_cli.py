"""End-to-end tests for the command line interface and its reports."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

import simplexmoments
from simplexmoments.cli import main
from simplexmoments.chords import TriangleSpec, edgepoint_moment
from simplexmoments.tetra import MomentTable

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")


def source_env():
    """The environment for a subprocess, with the package source on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(simplexmoments.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def run_cli(args, out_path=None):
    argv = [str(a) for a in args]
    if out_path is not None:
        argv += ["--out", str(out_path)]
    code = main(argv)
    report = None
    if out_path is not None and os.path.exists(str(out_path)):
        with open(str(out_path), "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            report = json.loads(text)
    return code, report


def assert_float_policy(node, tagged=False):
    """Floats may appear only under an object that declares its inexactness
    (a std_error sibling or a float64 method marker)."""
    if isinstance(node, dict):
        has_tag = "std_error" in node or node.get("method") == "float64"
        for value in node.values():
            assert_float_policy(value, has_tag)
    elif isinstance(node, (list, tuple)):
        for value in node:
            assert_float_policy(value, tagged)
    elif isinstance(node, float):
        assert tagged, "untagged float %r in report" % node


def assert_report_shape(report, command):
    assert report["schema"] == "simplexmoments-report/1"
    assert report["command"] == command
    manifest = report["manifest"]
    for key in (
        "argv",
        "seeds",
        "versions",
        "input_digests",
        "output_digests",
        "threads",
        "wall_time_seconds",
    ):
        assert key in manifest
    assert manifest["versions"]["simplexmoments"]
    assert_float_policy(report["result"])


@pytest.fixture(scope="module")
def tables_dir(tmp_path_factory):
    """A directory with complete k<=7 and k<=15 moment tables, built once."""
    path = tmp_path_factory.mktemp("tables")
    code, report = run_cli(
        ["verify-counterexample", "--tables", path, "--compute-missing"],
        path / "counterexample.json",
    )
    assert code == 0
    assert report["result"]["confirmed"] is True
    return str(path)


class TestExitCodes:
    def test_no_arguments_is_usage(self):
        assert main([]) == 2

    def test_unknown_subcommand_is_usage(self):
        assert main(["frobnicate"]) == 2

    def test_help_is_success(self):
        assert main(["--help"]) == 0

    def test_missing_required_flag_is_usage(self):
        assert main(["chords", "--triangle", "T2"]) == 2

    def test_degenerate_triangle_is_usage(self, capsys):
        assert main(["chords", "--triangle", "1,2,5", "--k", "1"]) == 2
        assert "degenerate" in capsys.readouterr().err

    def test_bad_fixed_keyword_is_usage(self):
        code = main(
            ["chords", "--triangle", "T2", "--k", "1", "--fixed", "corner"]
        )
        assert code == 2

    def test_chords_beyond_float_range_is_capacity(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["chords", "--triangle", "T2", "--k", "5000", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity: ")
        assert "k=5000" in err and "the largest k that evaluates is 2043" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, n, k, eps", [("interior", 3, 2, "1e200"), ("boundary", 2, 1, "1e308")]
    )
    def test_prism_past_float64_is_capacity(self, tmp_path, capsys, mode, n, k, eps):
        # each exited 1 with a bare ValueError: a nan mean that JSON
        # refused, and face weights that did not sum to 1
        out = tmp_path / "r.json"
        code = main(["lift-sweep", "--mode", mode, "--body", "T2", "--n", str(n), "--k", str(k),
                     "--eps", eps, "--samples", "10", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("capacity: ") and err.count("\n") == 1
        assert "float64" in err
        assert not out.exists()

    def test_moment_capacity_refusal(self, capsys):
        code = main(["tetra-moments", "--case", "free", "--kmax", "10"])
        assert code == 3
        assert "capacity" in capsys.readouterr().err

    def test_capacity_refusal_creates_no_tables_directory(self, tmp_path, capsys):
        target = tmp_path / "new" / "sub"
        code = main(["tetra-moments", "--case", "free", "--kmax", "10", "--tables", str(target)])
        assert code == 3
        assert "capacity" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_insufficient_tables_refusal(self, tmp_path):
        code = main(["verify-counterexample", "--tables", str(tmp_path)])
        assert code == 3

    def test_failed_certificate_is_verification_failure(self, capsys):
        # the tangent at 1 overshoots sqrt near 0, so it cannot be a lower
        # bound; the CLI must report that as a verification failure
        code = main(
            ["certify", "--side", "lower", "--nodes", "1*2", "--interval-b", "1"]
        )
        assert code == 4
        assert "verification failed" in capsys.readouterr().err

    def test_exit_codes_through_a_real_process(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "simplexmoments.cli",
                "verify-counterexample",
                "--tables",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            env=source_env(),
        )
        assert proc.returncode == 3
        assert "insufficient moment tables" in proc.stderr

    @pytest.mark.parametrize("module", ["simplexmoments", "simplexmoments.cli"])
    def test_module_entry_points_run_cleanly(self, module):
        # the package root does not import the CLI, so running the CLI
        # module as __main__ warns about nothing
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True,
            text=True,
            env=source_env(),
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "verify-counterexample" in proc.stdout


# an upper bound for the free mean from nodes that fit the pinned support
# [0, 3/10] only; B and B' once came from the side, so this printed a
# "verified" bound below the certified lower bound
UNSOUND_UPPER = ["certify", "--side", "upper", "--case", "free", "--nodes", "1/20*2,1/8*2,3/10"]


class TestRefusedBeforeWork:
    """Bad paths and malformed certificate input are usage errors raised
    before anything is computed."""

    TABLE_COMMANDS = [
        ["tetra-moments", "--case", "free", "--kmax", "3"],
        ["reproduce", "fast"],
    ]
    SAMPLING_HANDLERS = [
        ("_cmd_mc", ["mc", "--body", "T3", "--n", "3", "--k", "1", "--samples", "10",
                     "--seed", "1"]),
        ("_cmd_lift_sweep", ["lift-sweep", "--mode", "interior", "--body", "T2", "--n",
                             "2", "--k", "1", "--eps", "1/2", "--samples", "10",
                             "--format", "csv"]),
    ]

    # (argv, what the one-line message names); each exited 1 with a traceback
    OUT_OF_RANGE = [
        (["chords", "--triangle", "3,4,5", "--k", "2", "--fixed", "edge:1e400"],
         "--fixed: 1e400 lies outside the float64 range"),
        (["chords", "--triangle", "1e400,1e400,1e400", "--k", "2"],
         "--triangle: 1e400 lies outside the float64 range"),
        (["mc", "--body", "T3", "--n", "3", "--k", "1", "--fixed", "1e400,0,0",
          "--samples", "10", "--seed", "1"],
         "--fixed: 1e400 lies outside the float64 range"),
        (["lift-sweep", "--mode", "boundary", "--body", "T2", "--n", "2", "--k", "1",
          "--eps", "1/2", "--samples", "10", "--reference", "1e400"],
         "--reference: 1e400 lies outside the float64 range"),
        (["lift-sweep", "--mode", "interior", "--body", "T2", "--n", "2", "--k", "1",
          "--eps", "1e400", "--samples", "10"],
         "prism height must be a positive number within the float64 range"),
        (["chords", "--triangle", "1e-200,1e-200,1e-200", "--k", "2"],
         "side lengths 1e-200, 1e-200, 1e-200"),
        (["chords", "--triangle", "1e308,1e308,1e308", "--k", "2"],
         "side lengths 1e+308, 1e+308, 1e+308"),
    ]

    @pytest.fixture
    def no_tables(self, monkeypatch):
        import simplexmoments.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("a table was computed before the refusal")

        monkeypatch.setattr(cli, "moment_table", refuse)

    @pytest.fixture
    def handler_calls(self, monkeypatch, request):
        import simplexmoments.cli as cli

        calls = []
        monkeypatch.setattr(cli, request.getfixturevalue("handler"),
                            lambda args, ctx: calls.append(args))
        return calls

    @pytest.mark.parametrize(
        "argv, message", OUT_OF_RANGE,
        ids=["edge", "triangle", "mc-fixed", "reference", "eps", "tiny-sides", "huge-sides"],
    )
    def test_number_outside_float64(self, tmp_path, monkeypatch, capsys, argv, message):
        import simplexmoments.lifting as lifting
        import simplexmoments.mc as mc

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the refusal")

        for module, name in ((mc, "_run_chunks"), (lifting, "_run_chunks"),
                             (lifting, "estimate_moment")):
            monkeypatch.setattr(module, name, no_sampling)
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", TABLE_COMMANDS)
    def test_tables_path_that_is_a_file(self, tmp_path, no_tables, capsys, argv):
        blocker = tmp_path / "tables"
        blocker.write_text("not a directory", encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(argv + ["--tables", str(blocker), "--out", str(out)]) == 2
        assert "not a directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", TABLE_COMMANDS)
    def test_tables_path_under_a_file(self, tmp_path, no_tables, capsys, argv):
        blocker = tmp_path / "tables"
        blocker.write_text("not a directory", encoding="utf-8")
        out = tmp_path / "r.json"
        assert main(argv + ["--tables", str(blocker / "sub"), "--out", str(out)]) == 2
        assert "not a directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("handler, argv", SAMPLING_HANDLERS)
    def test_out_in_missing_directory(self, tmp_path, handler_calls, capsys, handler, argv):
        out = tmp_path / "missing" / "r.json"
        assert main(argv + ["--out", str(out)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert handler_calls == []
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("handler, argv", SAMPLING_HANDLERS)
    def test_out_that_is_a_directory(self, tmp_path, handler_calls, capsys, handler, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err
        assert handler_calls == []

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--nodes", "1/9*2,1/8*2,1/7*2,1/6*2,1/6*2"], "repeated interpolation node 1/6"),
            (["--bprime", "1/2"], "bprime^2 >= interval_b"),
        ],
        ids=["repeated-node", "short-bprime"],
    )
    def test_malformed_certificate_input(self, tmp_path, no_tables, capsys, extra, message):
        tables = tmp_path / "tables"
        out = tmp_path / "r.json"
        argv = ["certify", "--side", "lower", "--tables", str(tables), "--out", str(out)]
        assert main(argv + extra) == 2
        assert message in capsys.readouterr().err
        assert not tables.exists()
        assert not out.exists()

    def test_interval_below_the_support_bound(
        self, tmp_path, tables_dir, no_tables, monkeypatch, capsys
    ):
        import simplexmoments.cli as cli

        def unread(*args):
            raise AssertionError("a table was read before the refusal")

        monkeypatch.setattr(cli, "_read_table", unread)
        out = tmp_path / "r.json"
        argv = UNSOUND_UPPER + ["--interval-b", "1/12", "--tables", tables_dir, "--out", str(out)]
        assert main(argv) == 2
        assert "interval_b 1/12 is below the free support bound 3/4" in capsys.readouterr().err
        assert not out.exists()


class TestChords:
    def test_midpoint_hypotenuse_example(self, tmp_path):
        code, report = run_cli(
            ["chords", "--triangle", "T2", "--k", "2", "--fixed",
             "midpoint-hypotenuse"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert_report_shape(report, "chords")
        assert report["result"]["formula"] == "edge-pinned"
        assert abs(report["result"]["value"] - 1.0 / 6.0) < 1e-10

    def test_two_point_default(self, tmp_path):
        code, report = run_cli(
            ["chords", "--triangle", "T2", "--k", "2"], tmp_path / "r.json"
        )
        assert code == 0
        assert report["result"]["formula"] == "two-point"
        assert abs(report["result"]["value"] - 2.0 / 9.0) < 1e-10

    def test_right_angle_vertex(self, tmp_path):
        # second moment of the distance from the right-angle corner of T2:
        # (int x^2 + int y^2) / area = 1/3
        code, report = run_cli(
            ["chords", "--triangle", "T2", "--k", "2", "--fixed", "vertex:C"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert report["result"]["formula"] == "vertex-pinned"
        assert abs(report["result"]["value"] - 1.0 / 3.0) < 1e-10

    def test_edge_point_matches_library(self, tmp_path):
        code, report = run_cli(
            ["chords", "--triangle", "3,4,5", "--k", "3", "--fixed", "edge:2"],
            tmp_path / "r.json",
        )
        assert code == 0
        spec = TriangleSpec.from_sides(3.0, 4.0, 5.0)
        want = edgepoint_moment(spec, 2.0, 3)
        assert report["result"]["value"] == pytest.approx(want, abs=1e-14)

    def test_scalene_free_runs(self, tmp_path):
        code, report = run_cli(
            ["chords", "--triangle", "3,4,5", "--k", "1"], tmp_path / "r.json"
        )
        assert code == 0
        assert report["result"]["value"] > 0.0


class TestTetraMoments:
    def test_free_k5_reference_list(self, tmp_path):
        code, report = run_cli(
            ["tetra-moments", "--case", "free", "--kmax", "5"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert_report_shape(report, "tetra-moments")
        values = [m["value"] for m in report["result"]["moments"]]
        assert values == [
            "9/1600",
            "27/196000",
            "3161/379330560",
            "93957/106247680000",
            "209022679/1551386124288000",
        ]

    def test_fixed_k2(self, tmp_path):
        code, report = run_cli(
            ["tetra-moments", "--case", "fixed", "--kmax", "2"],
            tmp_path / "r.json",
        )
        assert code == 0
        values = [m["value"] for m in report["result"]["moments"]]
        assert values == ["7/2400", "11/529200"]
        assert report["result"]["case"] == "fixed-centroid"

    def test_checkpoint_roundtrip(self, tmp_path):
        tables = tmp_path / "tables"
        code, first = run_cli(
            ["tetra-moments", "--case", "free", "--kmax", "3", "--tables",
             tables],
            tmp_path / "a.json",
        )
        assert code == 0
        table_file = str(tables / "free_moments.json")
        assert table_file in first["manifest"]["output_digests"]
        code, second = run_cli(
            ["tetra-moments", "--case", "free", "--kmax", "3", "--tables",
             tables],
            tmp_path / "b.json",
        )
        assert code == 0
        assert table_file in second["manifest"]["input_digests"]
        assert second["result"]["moments"] == first["result"]["moments"]
        with open(table_file, "r", encoding="utf-8") as fh:
            stored = json.load(fh)
        assert stored["case"] == "free"
        assert {e["k"] for e in stored["entries"]} == {0, 1, 2, 3}

    def test_extended_checkpoint_records_the_bytes_read(self, tmp_path):
        # the input digest is of the k <= 2 file that was read, not of the
        # k <= 3 file the same command wrote over it
        tables = tmp_path / "tables"
        assert run_cli(["tetra-moments", "--case", "free", "--kmax", "2", "--tables",
                        tables], tmp_path / "a.json")[0] == 0
        table_file = str(tables / "free_moments.json")
        with open(table_file, "rb") as fh:
            read = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
        code, report = run_cli(
            ["tetra-moments", "--case", "free", "--kmax", "3", "--tables", tables],
            tmp_path / "b.json",
        )
        assert code == 0
        manifest = report["manifest"]
        assert manifest["input_digests"][table_file] == read
        assert manifest["output_digests"][table_file] != read


class TestNodes:
    def test_degree_one_chord(self, tmp_path):
        code, report = run_cli(
            ["nodes", "--case", "free", "--degree", "1", "--grid", "8"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert_report_shape(report, "nodes")
        result = report["result"]
        assert result["status"] == "optimal"
        assert result["objective"] == "9/1400"
        assert result["candidate_nodes"] == ["7/8"]
        assert result["active_grid_indices"] == [8]
        assert result["sense"] == "lower"

    def test_pinned_case_runs(self, tmp_path):
        code, report = run_cli(
            ["nodes", "--case", "fixed", "--degree", "2", "--grid", "12"],
            tmp_path / "r.json",
        )
        assert code == 0
        result = report["result"]
        assert result["sense"] == "upper"
        assert result["interval_end"] == "3/10"
        assert F(result["objective"]) > 0
        assert len(result["suggested_nodes"]) == len(result["candidate_nodes"])

    def test_degree_beyond_capacity(self):
        code = main(["nodes", "--case", "free", "--degree", "10", "--grid", "5"])
        assert code == 3


class TestCertify:
    def test_canonical_lower(self, tmp_path, tables_dir):
        code, report = run_cli(
            ["certify", "--side", "lower", "--tables", tables_dir],
            tmp_path / "r.json",
        )
        assert code == 0
        assert_report_shape(report, "certify")
        result = report["result"]
        assert result["verified"] is True
        assert result["bound_above_pivot"] is True
        assert result["nodes"]["double"] == ["2/19", "4/15", "8/17"]
        assert result["nodes"]["single"] == ["0", "47/54"]
        assert result["degree"] == 7
        assert F(result["bound"]) > F(result["pivot"])

    def test_canonical_upper(self, tmp_path, tables_dir):
        code, report = run_cli(
            ["certify", "--side", "upper", "--tables", tables_dir],
            tmp_path / "r.json",
        )
        assert code == 0
        result = report["result"]
        assert result["verified"] is True
        assert result["bound_below_pivot"] is True
        assert result["degree"] == 15
        assert len(result["nodes"]["double"]) == 8

    def test_custom_chord_nodes(self, tmp_path):
        code, report = run_cli(
            ["certify", "--side", "lower", "--nodes", "0,1", "--interval-b",
             "1"],
            tmp_path / "r.json",
        )
        assert code == 0
        result = report["result"]
        # the chord through 0 and 1 is the identity, so the bound is the
        # second moment itself, far below the pivot
        assert result["coefficients"] == ["0", "1"]
        assert result["bound"] == "9/1600"
        assert result["bound_above_pivot"] is False

    def test_explicit_table_file(self, tmp_path, tables_dir):
        table_file = os.path.join(tables_dir, "free_moments.json")
        code, report = run_cli(
            ["certify", "--side", "lower", "--table", table_file],
            tmp_path / "r.json",
        )
        assert code == 0
        assert table_file in report["manifest"]["input_digests"]

    def test_case_sets_the_interval(self, tmp_path, tables_dir, capsys):
        # B, B' follow --case: the free support [0, 13/15] is where these fail
        out = tmp_path / "r.json"
        assert main(UNSOUND_UPPER + ["--tables", tables_dir, "--out", str(out)]) == 4
        assert "bound polynomial fails on [0, 13/15]" in capsys.readouterr().err
        assert not out.exists()

    def test_short_explicit_table_is_capacity(self, tmp_path):
        short = tmp_path / "short.json"
        code, _ = run_cli(
            ["tetra-moments", "--case", "free", "--kmax", "2", "--tables",
             tmp_path],
            tmp_path / "t.json",
        )
        assert code == 0
        os.rename(tmp_path / "free_moments.json", short)
        code = main(["certify", "--side", "lower", "--table", str(short)])
        assert code == 3


class TestVerifyCounterexample:
    def test_full_verdict_from_tables(self, tmp_path, tables_dir):
        code, report = run_cli(
            ["verify-counterexample", "--tables", tables_dir],
            tmp_path / "r.json",
        )
        assert code == 0
        assert_report_shape(report, "verify-counterexample")
        result = report["result"]
        assert result["confirmed"] is True
        assert result["second_moment"]["free"] == "9/1600"
        assert result["second_moment"]["fixed"] == "7/2400"
        assert result["second_moment"]["gap"] == "13/4800"
        assert result["lower_bound_above_pivot"] is True
        assert result["upper_bound_below_pivot"] is True
        assert F(result["mean_separation"]) > 0
        assert result["lower_certificate"]["verified"] is True
        assert result["upper_certificate"]["verified"] is True
        digests = report["manifest"]["input_digests"]
        assert os.path.join(tables_dir, "free_moments.json") in digests
        assert os.path.join(tables_dir, "fixed_moments.json") in digests

    def test_tables_env_var_default(self, tmp_path, tables_dir, monkeypatch):
        monkeypatch.setenv("SIMPLEXMOMENTS_TABLES", tables_dir)
        code, report = run_cli(["verify-counterexample"], tmp_path / "r.json")
        assert code == 0
        assert report["result"]["confirmed"] is True

    def test_no_tables_anywhere_is_usage(self, monkeypatch):
        monkeypatch.delenv("SIMPLEXMOMENTS_TABLES", raising=False)
        assert main(["verify-counterexample"]) == 2


class TestMonteCarlo:
    def test_mean_area_estimate(self, tmp_path):
        code, report = run_cli(
            ["mc", "--body", "T3", "--n", "3", "--k", "1", "--samples",
             "200000", "--seed", "11"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert_report_shape(report, "mc")
        result = report["result"]
        assert result["rng"] == "numpy-philox4x64"
        assert abs(result["mean"] - 0.0592) < 3.0 * result["std_error"] + 5e-5
        assert report["manifest"]["seeds"] == [11]

    def test_pinned_vertex_flag(self, tmp_path):
        code, report = run_cli(
            ["mc", "--body", "T3", "--n", "3", "--k", "1", "--fixed",
             "1/3,1/3,1/3", "--samples", "200000", "--seed", "12"],
            tmp_path / "r.json",
        )
        assert code == 0
        result = report["result"]
        assert abs(result["mean"] - 0.0466) < 3.0 * result["std_error"] + 5e-5

    def test_thread_count_does_not_change_numbers(self, tmp_path):
        base = [
            "mc", "--body", "cube:2", "--n", "3", "--k", "2", "--samples",
            str((1 << 16) * 2 + 333), "--seed", "99",
        ]
        code, one = run_cli(base + ["--threads", "1"], tmp_path / "a.json")
        assert code == 0
        code, four = run_cli(base + ["--threads", "4"], tmp_path / "b.json")
        assert code == 0
        assert one["result"] == four["result"]
        assert one["manifest"]["threads"] == 1
        assert four["manifest"]["threads"] == 4

    def test_fixed_point_outside_body(self):
        code = main(
            ["mc", "--body", "T3", "--n", "3", "--k", "1", "--fixed", "2,2,2",
             "--samples", "100", "--seed", "1"]
        )
        assert code == 2

    def test_unknown_body(self):
        code = main(
            ["mc", "--body", "torus:3", "--n", "2", "--k", "1", "--samples",
             "100", "--seed", "1"]
        )
        assert code == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_negative_seed(self, tmp_path):
        code, report = run_cli(
            ["mc", "--body", "T3", "--n", "3", "--k", "1", "--samples", "100",
             "--seed", "-1"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert report["manifest"]["seeds"] == [-1]


class TestThreadsOption:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["mc", "--body", "T3", "--n", "3", "--k", "1", "--samples", "100", "--seed", "1"],
            ["lift-sweep", "--mode", "interior", "--body", "T2", "--n", "2", "--k", "1",
             "--eps", "1/2", "--samples", "100"],
            ["reproduce", "fast", "--samples", "100"],
        ],
    )
    def test_below_one_is_usage(self, tmp_path, capsys, argv, threads):
        out = tmp_path / "r.json"
        assert main(argv + ["--threads", threads, "--out", str(out)]) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()


class TestPositiveCounts:
    """Counts below 1 are refused by argparse, before any table, LP or MC work."""

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["reproduce", "full", "--samples", "2000000"], "--grid"),
            (["reproduce", "fast"], "--grid"),
            (["nodes", "--case", "free", "--degree", "1", "--grid", "8"], "--rationalize-den"),
            (["nodes", "--case", "free", "--grid", "8"], "--degree"),
            (["nodes", "--case", "free", "--degree", "1"], "--grid"),
            (["tetra-moments", "--case", "free"], "--kmax"),
        ],
    )
    def test_below_one_is_usage(self, tmp_path, capsys, argv, option, value):
        tables = tmp_path / "new" / "tables"
        out = tmp_path / "r.json"
        code = main(argv + [option, value, "--tables", str(tables), "--out", str(out)])
        assert code == 2
        assert option in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "new").exists()


class TestLiftSweep:
    def test_interior_json(self, tmp_path):
        code, report = run_cli(
            ["lift-sweep", "--mode", "interior", "--body", "T2", "--n", "2",
             "--k", "2", "--eps", "1/2,1/8", "--samples", "50000", "--seed",
             "5", "--reference", "2/9"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert_report_shape(report, "lift-sweep")
        result = report["result"]
        assert result["mode"] == "interior"
        assert [row["epsilon"] for row in result["rows"]] == ["1/2", "1/8"]
        assert result["reference"]["source"] == "exact"
        assert result["verdict"] in (
            "converged", "converged within noise", "not converged"
        )
        assert result["rows"][1]["abs_error"] < result["rows"][0]["abs_error"]

    def test_boundary_rows_have_weight_diagnostics(self, tmp_path):
        code, report = run_cli(
            ["lift-sweep", "--mode", "boundary", "--body", "T2", "--n", "2",
             "--k", "2", "--eps", "1/4", "--samples", "50000", "--seed", "6",
             "--reference", "2/9"],
            tmp_path / "r.json",
        )
        assert code == 0
        row = report["result"]["rows"][0]
        expected = (1.0 / (1.0 + (2.0 + math.sqrt(2.0)) * 0.25)) ** 2
        assert abs(row["flat_weight_exact"] - expected) < 1e-12
        assert row["flat_weight_consistent"] is True

    def test_csv_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _ = run_cli(
            ["lift-sweep", "--mode", "interior", "--body", "T2", "--n", "2",
             "--k", "1", "--eps", "1/2,1/4", "--samples", "20000", "--seed",
             "7", "--format", "csv"],
            out,
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        lines = text.splitlines()
        comments = [line for line in lines if line.startswith("#")]
        data = [line for line in lines if not line.startswith("#")]
        assert any("manifest" in line for line in comments)
        assert any("verdict" in line for line in comments)
        assert data[0] == "epsilon,mean,std_error,samples,abs_error,sigma"
        assert len(data) == 3
        assert data[1].startswith("1/2,")

    def test_increasing_eps_is_usage(self):
        code = main(
            ["lift-sweep", "--mode", "interior", "--body", "T2", "--n", "2",
             "--k", "1", "--eps", "1/8,1/2", "--samples", "100", "--seed", "1"]
        )
        assert code == 2


class TestOneSampleRefusal:
    # one sample has an infinite standard error, which strict JSON cannot carry
    @pytest.mark.parametrize(
        "argv",
        [
            ["mc", "--body", "T3", "--n", "3", "--k", "1", "--samples", "1", "--seed", "1"],
            ["lift-sweep", "--mode", "interior", "--body", "T2", "--n", "2", "--k", "1",
             "--eps", "1/2", "--samples", "1", "--seed", "1"],
            ["lift-sweep", "--mode", "boundary", "--body", "T2", "--n", "2", "--k", "1",
             "--eps", "1/2", "--samples", "1", "--seed", "1"],
            ["reproduce", "fast", "--samples", "1"],
        ],
    )
    def test_refused_without_report(self, tmp_path, argv):
        out = tmp_path / "r.json"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_two_samples_give_strict_json(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["mc", "--body", "T3", "--n", "3", "--k", "1", "--samples", "2",
                     "--seed", "1", "--out", str(out)])
        assert code == 0

        def refuse(token):
            raise ValueError("non-finite JSON constant %s" % token)

        json.loads(out.read_text(encoding="utf-8"), parse_constant=refuse)


class TestCaseNames:
    def test_unknown_case_is_usage(self):
        assert main(["nodes", "--case", "sideways", "--degree", "1", "--grid", "8"]) == 2


class TestWrongCaseTable:
    """Every table read checks the case: a pinned table stored under the free
    file name is refused, never priced as if it held free moments."""

    @pytest.fixture
    def swapped(self, tmp_path, tables_dir):
        path = tmp_path / "tables"
        path.mkdir()
        fixed = os.path.join(tables_dir, "fixed_moments.json")
        for name in ("free_moments.json", "fixed_moments.json"):
            shutil.copy(fixed, str(path / name))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["tetra-moments", "--case", "free", "--kmax", "2", "--tables", "{tables}"],
            ["nodes", "--case", "free", "--degree", "1", "--grid", "8", "--tables",
             "{tables}"],
            ["certify", "--side", "lower", "--case", "free", "--nodes", "0,1/4*2",
             "--interval-b", "3/4", "--tables", "{tables}"],
            ["certify", "--side", "lower", "--table", "{tables}/free_moments.json"],
            ["verify-counterexample", "--tables", "{tables}"],
            ["reproduce", "fast", "--samples", "2", "--tables", "{tables}"],
        ],
    )
    def test_refused_without_report(self, tmp_path, swapped, argv, capsys):
        out = tmp_path / "r.json"
        argv = [arg.replace("{tables}", swapped) for arg in argv]
        assert main(argv + ["--out", str(out)]) == 2
        assert "holds case 'fixed-centroid', expected 'free'" in capsys.readouterr().err
        assert not out.exists()


def copy_tables(tables_dir, dest):
    """A private copy of the complete tables, safe to corrupt or extend."""
    shutil.copytree(tables_dir, str(dest))
    return str(dest)


def edit_table(path, edit):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)


def _duplicate_k1(data):
    # check() would see the last value, value(1) the first
    data["entries"][1:2] = [{"k": 1, "value": "2"}, {"k": 1, "value": "1/2"}]


_MALFORMED = {
    "bad-json": None,
    "no-case": lambda d: d.pop("case"),
    "no-entries": lambda d: d.pop("entries"),
    "no-k": lambda d: d["entries"][1].pop("k"),
    "no-value": lambda d: d["entries"][1].pop("value"),
    "float-value": lambda d: d["entries"][1].update(value="0.005625"),
    "zero-denominator": lambda d: d["entries"][1].update(value="1/0"),
    "duplicate-k": _duplicate_k1,
    "negative-k": lambda d: d["entries"].append({"k": -1, "value": "1/2"}),
}


class TestMalformedTable:
    """A file that is not a well-formed moment table is a usage error that
    names the file: exit 2, one line on stderr, no report, file untouched."""

    @pytest.fixture(params=sorted(_MALFORMED))
    def broken(self, request, tmp_path, tables_dir):
        path = copy_tables(tables_dir, tmp_path / "tables")
        free = os.path.join(path, "free_moments.json")
        if _MALFORMED[request.param] is None:
            with open(free, "w", encoding="utf-8") as fh:
                fh.write("{not json")
        else:
            edit_table(free, _MALFORMED[request.param])
        return path

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-counterexample", "--tables", "{tables}"],
            ["certify", "--side", "lower", "--table", "{tables}/free_moments.json"],
            ["tetra-moments", "--case", "free", "--kmax", "2", "--tables", "{tables}"],
        ],
        ids=["verify-counterexample", "certify-table", "tetra-moments"],
    )
    def test_refused_without_report(self, tmp_path, broken, argv, capsys):
        free = os.path.join(broken, "free_moments.json")
        with open(free, "rb") as fh:
            before = fh.read()
        out = tmp_path / "r.json"
        argv = [arg.replace("{tables}", broken) for arg in argv]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert free in err
        assert not out.exists()
        with open(free, "rb") as fh:
            assert fh.read() == before


@pytest.fixture
def from_json_calls(monkeypatch):
    """The case of every table parsed through MomentTable.from_json."""
    calls = []
    real = MomentTable.from_json.__func__

    def counting(cls, data):
        calls.append(data["case"])
        return real(cls, data)

    monkeypatch.setattr(MomentTable, "from_json", classmethod(counting))
    return calls


class TestTablesReadOnce:
    """Each table file is parsed once per command, also when a short
    checkpoint is extended."""

    def test_tetra_moments_extends_short_checkpoint(self, tmp_path, from_json_calls):
        tables = tmp_path / "tables"
        assert run_cli(["tetra-moments", "--case", "free", "--kmax", "2", "--tables",
                        tables], tmp_path / "a.json")[0] == 0
        del from_json_calls[:]
        code, report = run_cli(
            ["tetra-moments", "--case", "free", "--kmax", "3", "--tables", tables],
            tmp_path / "b.json",
        )
        assert code == 0
        assert from_json_calls == ["free"]
        assert report["result"]["moments"][2]["value"] == "3161/379330560"

    def test_verify_counterexample_extends_short_checkpoint(
        self, tmp_path, tables_dir, from_json_calls
    ):
        path = copy_tables(tables_dir, tmp_path / "tables")
        fixed = os.path.join(path, "fixed_moments.json")
        edit_table(fixed, lambda d: d["entries"].pop())
        code, report = run_cli(
            ["verify-counterexample", "--tables", path, "--compute-missing"],
            tmp_path / "r.json",
        )
        assert code == 0
        assert report["result"]["confirmed"] is True
        assert from_json_calls == ["free", "fixed-centroid"]
        with open(fixed, "rb") as a, open(os.path.join(tables_dir, "fixed_moments.json"), "rb") as b:
            assert a.read() == b.read()


class TestTableFilesOpenedOnce:
    def test_verify_counterexample_digests_the_bytes_it_parsed(
        self, tmp_path, tables_dir, monkeypatch
    ):
        # the input digest comes from the one read that was parsed and
        # checked, not from opening the file a second time
        import builtins

        path = copy_tables(tables_dir, tmp_path / "tables")
        files = [os.path.join(path, name) for name in ("free_moments.json", "fixed_moments.json")]
        real_open = builtins.open
        opened = []

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        code, report = run_cli(["verify-counterexample", "--tables", path], tmp_path / "r.json")
        monkeypatch.undo()
        assert code == 0
        assert sorted(p for p in opened if p in files) == sorted(files)
        for table_file in files:
            with open(table_file, "rb") as fh:
                expected = "sha256:" + hashlib.sha256(fh.read()).hexdigest()
            assert report["manifest"]["input_digests"][table_file] == expected


class TestFailedTableCheck:
    def test_verification_error_names_the_file(self, tmp_path, tables_dir, capsys):
        path = copy_tables(tables_dir, tmp_path / "tables")
        fixed = os.path.join(path, "fixed_moments.json")
        edit_table(fixed, lambda d: d.update(entries=[e for e in d["entries"] if e["k"] != 3]))
        out = tmp_path / "r.json"
        assert main(["verify-counterexample", "--tables", path, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert fixed in err and "fixed_moments.json" in err
        assert "missing k=3" in err
        assert not out.exists()


class TestShortTables:
    """verify-counterexample lists every short table, exits 3 and creates
    nothing when it may not compute them."""

    def test_absent_directory_lists_both_and_stays_absent(self, tmp_path, capsys):
        path = tmp_path / "nowhere"
        assert main(["verify-counterexample", "--tables", str(path)]) == 3
        err = capsys.readouterr().err
        assert "insufficient moment tables" in err
        assert str(path / "free_moments.json") + " needs k_max>=7 (absent)" in err
        assert str(path / "fixed_moments.json") + " needs k_max>=15 (absent)" in err
        assert not path.exists()

    def test_one_short_table_is_listed_alone(self, tmp_path, tables_dir, capsys):
        path = copy_tables(tables_dir, tmp_path / "tables")
        fixed = os.path.join(path, "fixed_moments.json")
        edit_table(fixed, lambda d: d["entries"].pop())
        with open(fixed, "rb") as fh:
            before = fh.read()
        out = tmp_path / "r.json"
        assert main(["verify-counterexample", "--tables", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert fixed + " needs k_max>=15 (k_max=14)" in err
        assert "free_moments.json" not in err
        assert not out.exists()
        assert sorted(os.listdir(path)) == sorted(os.listdir(tables_dir))
        with open(fixed, "rb") as fh:
            assert fh.read() == before


class TestReproduce:
    def test_fast_level_passes(self, tmp_path, tables_dir):
        code, report = run_cli(
            ["reproduce", "fast", "--samples", "50000", "--tables", tables_dir],
            tmp_path / "r.json",
        )
        assert code == 0
        assert_report_shape(report, "reproduce")
        result = report["result"]
        assert result["all_passed"] is True
        assert "7/2400 < 9/1600" in result["headlines"]
        names = [c["name"] for c in result["checks"]]
        assert names == [
            "chord-closed-forms",
            "pinning-ratio-law",
            "even-moment-tables",
            "second-moment-comparison",
            "mc-mean-area",
        ]

    def test_fast_level_deterministic_per_seed(self, tmp_path, tables_dir):
        args = ["reproduce", "fast", "--samples", "30000", "--seed", "321",
                "--tables", tables_dir]
        code, a = run_cli(args, tmp_path / "a.json")
        assert code == 0
        code, b = run_cli(args, tmp_path / "b.json")
        assert code == 0
        assert a["result"] == b["result"]

    def test_full_level_reports_coarse_grid_failure_honestly(
        self, tmp_path, tables_dir
    ):
        # the reference LP thresholds hold on the stated 200-point grids;
        # a coarse grid must fail the check and exit 4, while the exact
        # certificate verdict still passes
        code, report = run_cli(
            ["reproduce", "full", "--samples", "30000", "--grid", "40",
             "--tables", tables_dir],
            tmp_path / "r.json",
        )
        assert code == 4
        result = report["result"]
        assert result["all_passed"] is False
        by_name = {c["name"]: c for c in result["checks"]}
        assert by_name["lp-node-searches"]["passed"] is False
        assert by_name["counterexample-verdict"]["passed"] is True
        assert "lower > 0.046942 > upper" in result["headlines"]

    @pytest.mark.slow
    def test_full_level_passes_at_stated_grid(self, tmp_path, tables_dir):
        code, report = run_cli(
            ["reproduce", "full", "--samples", "50000", "--tables", tables_dir],
            tmp_path / "r.json",
        )
        assert code == 0
        result = report["result"]
        assert result["all_passed"] is True
        assert "lower > 0.046942 > upper" in result["headlines"]


# One report per subcommand shape, frozen as full text; "{tables}" stands for
# the tables_dir fixture.  None of these runs writes to the tables directory.
GOLDEN_RUNS = {
    "chords-midpoint": ["chords", "--triangle", "T2", "--k", "2", "--fixed",
                        "midpoint-hypotenuse"],
    "chords-vertex": ["chords", "--triangle", "T2", "--k", "3", "--fixed", "vertex:A"],
    "tetra-moments": ["tetra-moments", "--case", "fixed", "--kmax", "4", "--tables",
                      "{tables}"],
    "nodes-optimal": ["nodes", "--case", "free", "--degree", "3", "--grid", "12",
                      "--tables", "{tables}"],
    "nodes-unbounded": ["nodes", "--case", "free", "--degree", "3", "--grid", "2",
                        "--tables", "{tables}"],
    "certify-lower": ["certify", "--side", "lower", "--tables", "{tables}"],
    "certify-upper": ["certify", "--side", "upper", "--tables", "{tables}"],
    "verify-counterexample": ["verify-counterexample", "--tables", "{tables}"],
    "mc": ["mc", "--body", "T3", "--n", "3", "--k", "1", "--fixed", "1/3,1/3,1/3",
           "--samples", "3000", "--seed", "5"],
    "lift-sweep-interior": ["lift-sweep", "--mode", "interior", "--body", "T2", "--n",
                            "2", "--k", "2", "--eps", "1/2,1/8", "--samples", "3000",
                            "--seed", "5", "--reference", "2/9"],
    "lift-sweep-boundary": ["lift-sweep", "--mode", "boundary", "--body", "T2", "--n",
                            "2", "--k", "2", "--eps", "1/2,1/8", "--samples", "3000",
                            "--seed", "6"],
    "lift-sweep-boundary-csv": ["lift-sweep", "--mode", "boundary", "--body", "T2",
                                "--n", "2", "--k", "2", "--eps", "1/4", "--samples",
                                "3000", "--seed", "7", "--reference", "2/9",
                                "--format", "csv"],
    "reproduce-fast": ["reproduce", "fast", "--samples", "3000", "--tables",
                       "{tables}"],
}


def golden_report(argv, tables_dir):
    """Exit code and stdout text of one run, with the run-dependent parts
    masked: the wall time, the interpreter and numpy versions, and the
    temporary tables directory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([arg.replace("{tables}", tables_dir) for arg in argv])
    text = out.getvalue().replace(tables_dir, "{tables}")
    text = re.sub(r'"wall_time_seconds": [^,}\n]+', '"wall_time_seconds": null', text)
    text = re.sub(r'"(python|numpy)": "[^"]*"', r'"\1": null', text)
    return {"exit_code": code, "text": text}


class TestGoldenReports:
    def test_reports_match_golden_file(self, tables_dir):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
        assert sorted(golden) == sorted(GOLDEN_RUNS)
        for name, argv in GOLDEN_RUNS.items():
            assert golden_report(argv, tables_dir) == golden[name], name


FIXTURE_TABLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "fixtures", "tables"
)

# one CLI run in a fresh interpreter; prints the exit code and whether numpy got loaded
_CLI_RUN = """
import json, sys
from simplexmoments.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}))
"""


def fresh_python(code, *args):
    """The JSON value printed last by ``code`` run in a new interpreter
    with the package source on its path."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=source_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# the verdict in a fresh interpreter; prints the exit code and the modules
# that importing the CLI and running it added to sys.modules
_VERDICT_RUN = """
import json, sys
before = set(sys.modules)
from simplexmoments.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""


class TestVerdictLoadsOnlyWhatItRuns:
    """verify-counterexample imports the package root and the four modules
    its proof runs, and none of the modules it never calls."""

    def test_fresh_verdict_run(self, tmp_path):
        import platform

        tables = str(tmp_path / "tables")
        shutil.copytree(FIXTURE_TABLES, tables)
        out = tmp_path / "r.json"
        status = fresh_python(
            _VERDICT_RUN, "verify-counterexample", "--tables", tables, "--out", str(out)
        )
        assert status["code"] == 0
        loaded = set(status["loaded"])
        assert {name for name in loaded if name.split(".")[0] == "simplexmoments"} == {
            "simplexmoments",
            "simplexmoments.cli",
            "simplexmoments.errors",
            "simplexmoments.exact",
            "simplexmoments.tetra",
            "simplexmoments.certificates",
        }
        unused = {"simplexmoments." + name for name in ("geometry", "chords", "lp", "mc", "lifting")}
        assert not loaded & (unused | {"numpy", "dataclasses", "platform"})
        with open(str(out), encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["result"]["confirmed"] is True
        assert report["manifest"]["versions"]["python"] == platform.python_version()


class TestNumpyOnlyForSampling:
    """mc and lifting are the only modules that import numpy, and the
    package root loads them on first use, so the exact path never does."""

    @pytest.fixture
    def fixture_tables(self, tmp_path):
        path = tmp_path / "tables"
        shutil.copytree(FIXTURE_TABLES, path)
        return str(path)

    def run_fresh(self, argv, tables, out):
        argv = [arg.replace("{tables}", tables) for arg in argv] + ["--out", str(out)]
        status = fresh_python(_CLI_RUN, *argv)
        with open(str(out), encoding="utf-8") as fh:
            report = json.load(fh)
        return status, report

    def test_import_and_table_checks(self):
        loaded = fresh_python(
            "import json, os, sys\n"
            "import simplexmoments\n"
            "for name in sorted(os.listdir(sys.argv[1])):\n"
            "    with open(os.path.join(sys.argv[1], name), encoding='utf-8') as fh:\n"
            "        simplexmoments.MomentTable.from_json(json.load(fh)).check()\n"
            "print(json.dumps('numpy' in sys.modules))\n",
            FIXTURE_TABLES,
        )
        assert loaded is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-counterexample", "--tables", "{tables}"],
            ["certify", "--side", "upper", "--tables", "{tables}"],
            ["nodes", "--case", "free", "--degree", "6", "--grid", "12", "--tables", "{tables}"],
            ["tetra-moments", "--case", "fixed", "--kmax", "4", "--tables", "{tables}"],
            ["chords", "--triangle", "T2", "--k", "3", "--fixed", "midpoint-hypotenuse"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_exact_commands_never_import_numpy(self, tmp_path, fixture_tables, argv):
        status, report = self.run_fresh(argv, fixture_tables, tmp_path / "r.json")
        assert status == {"code": 0, "numpy": False}
        assert report["manifest"]["versions"]["numpy"] is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc", "--body", "T3", "--n", "3", "--k", "1", "--samples", "100", "--seed", "5"],
            ["lift-sweep", "--mode", "boundary", "--body", "T2", "--n", "2", "--k", "2",
             "--eps", "1/2", "--samples", "100", "--reference", "2/9"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_sampling_commands_record_the_numpy_version(self, tmp_path, argv):
        import numpy as np

        status, report = self.run_fresh(argv, "", tmp_path / "r.json")
        assert status == {"code": 0, "numpy": True}
        assert report["manifest"]["versions"]["numpy"] == np.__version__

    def test_root_loads_numpy_only_when_a_lazy_name_is_read(self):
        probe = fresh_python(
            "import json, sys\n"
            "import simplexmoments\n"
            "probe = [hasattr(simplexmoments, 'no_such_name'), 'numpy' in sys.modules]\n"
            "probe.append('estimate_moment' in dir(simplexmoments))\n"
            "probe.append(simplexmoments.lifting.__name__)\n"
            "print(json.dumps(probe + ['numpy' in sys.modules]))\n"
        )
        assert probe == [False, False, True, "simplexmoments.lifting", True]

    def test_root_import_loads_no_module(self):
        loaded = fresh_python(
            "import json, sys\n"
            "import simplexmoments\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('simplexmoments'))))\n"
        )
        assert loaded == ["simplexmoments"]

    def test_lazy_name_lists_match_the_modules(self):
        from simplexmoments import (
            certificates,
            chords,
            errors,
            exact,
            geometry,
            lifting,
            lp,
            mc,
            tetra,
        )

        assert simplexmoments._LAZY_NAMES == {
            "errors": errors.__all__,
            "exact": exact.__all__,
            "geometry": geometry.__all__,
            "chords": chords.__all__,
            "tetra": tetra.__all__,
            "lp": lp.__all__,
            "certificates": certificates.__all__,
            "mc": mc.__all__,
            "lifting": lifting.__all__,
        }
        modules = (errors, exact, geometry, chords, tetra, lp, certificates, mc, lifting)
        assert simplexmoments.__all__ == [
            name for module in modules for name in module.__all__
        ] + ["__version__"]
        namespace = {}
        exec("from simplexmoments import *", namespace)
        assert set(simplexmoments.__all__) <= set(namespace)
        assert namespace["estimate_moment"] is mc.estimate_moment
