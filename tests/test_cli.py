"""Command-line surface: outputs, round-trips, and exit codes."""
import json
import os
import subprocess
import sys

import pytest

import neighborly_gale
from neighborly_gale.cli import main
from neighborly_gale.diagram import GaleDiagram


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCofacets:
    def test_square(self, capsys):
        code, out, _ = run(capsys, "cofacets", "--labels", "3,3,3,3")
        assert code == 0
        assert out.splitlines()[0] == "18"

    def test_with_oracle(self, capsys):
        code, out, _ = run(capsys, "cofacets", "--labels", "1,1,1,1,1,1,1,1", "--oracle")
        assert code == 0
        assert out.splitlines() == ["12", "oracle: 12"]

    @pytest.mark.parametrize(
        "labels", ["11,10,10,10", ",".join(["1"] * 22)], ids=["label-sum-41", "n-11"]
    )
    def test_oracle_guard_is_a_usage_error(self, capsys, labels):
        # exit 1 means the counters disagree; too big for the oracle is bad input
        code, _, err = run(capsys, "cofacets", "--labels", labels, "--oracle")
        assert code == 2
        assert "oracle guard" in err

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "cofacets", "--labels", "0,1,0,1,0,1,0,1,0,1,0,1,0,1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cofacets"] == 14
        assert GaleDiagram.from_json(payload["diagram"]).vertex_count == 7

    def test_center_flag(self, capsys):
        code, out, _ = run(capsys, "cofacets", "--labels", "3,3,3,3", "--center", "2")
        assert code == 0
        assert out.splitlines()[0] == "20"

    def test_odd_length_rejected(self, capsys):
        code, _, err = run(capsys, "cofacets", "--labels", "1,2,3")
        assert code == 2
        assert "even number" in err

    def test_negative_rejected(self, capsys):
        code, _, err = run(capsys, "cofacets", "--labels", "1,-2,3,4")
        assert code == 2
        assert "nonnegative" in err


class TestCheck:
    def test_simplicial_example(self, capsys):
        code, out, _ = run(
            capsys, "check", "--labels", "0,1,0,1,0,1,0,1,0,1,0,1,0,1", "--k", "2"
        )
        assert code == 0
        assert "S: pass" in out
        assert "N: pass" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "check", "--labels", "1,0,0,1,1,1", "--k", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["P3"] is False
        assert payload["first_violations"]["P3"] == 1


class TestBound:
    def test_corollary2(self, capsys):
        code, out, _ = run(capsys, "bound", "corollary2", "--d", "4", "--k", "2")
        assert code == 0
        assert out.strip() == "14"

    def test_gtheorem_json(self, capsys):
        code, out, _ = run(
            capsys, "bound", "gtheorem", "--d", "4", "--n", "7", "--k", "2",
            "--j", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 14
        assert payload["params"] == {"d": 4, "n": 7, "k": 2, "j": 3}

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "bound", "ubt", "--n", "6")
        assert code == 2
        assert "needs parameters" in err

    def test_unknown_bound_usage_error(self, capsys):
        code, _, _ = run(capsys, "bound", "nosuch", "--d", "4")
        assert code == 2


class TestConstruct:
    def test_example_diagrams(self, capsys):
        code, out, _ = run(capsys, "construct", "example2", "--k", "2")
        assert code == 0
        diagram = GaleDiagram.from_json(json.loads(out))
        assert diagram == GaleDiagram(4, (1,) * 8)

    def test_join(self, capsys):
        code, out, _ = run(
            capsys, "construct", "join", "--pair", "4,6,9", "--pair", "4,6,9"
        )
        assert code == 0
        assert json.loads(out) == {"d": 9, "vertices": 12, "facets": 18}

    def test_pyramid(self, capsys):
        code, out, _ = run(capsys, "construct", "pyramid", "--pair", "4,6,9")
        assert code == 0
        assert json.loads(out) == {"d": 5, "vertices": 7, "facets": 10}

    def test_family(self, capsys):
        code, out, _ = run(capsys, "construct", "family", "--m", "2", "--n", "5")
        assert code == 0
        assert json.loads(out) == {"d": 19, "vertices": 20, "facets": 20}

    def test_join_needs_two_pairs(self, capsys):
        code, _, err = run(capsys, "construct", "join", "--pair", "4,6,9")
        assert code == 2
        assert "two" in err

    def test_example_needs_k(self, capsys):
        code, _, _ = run(capsys, "construct", "example1")
        assert code == 2


class TestDelta3:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "delta3", "--k", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2
        assert payload["delta3"] == 4

    def test_json_key_order(self, capsys):
        # the schema README documents, key for key and in order
        code, out, _ = run(capsys, "delta3", "--k", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["k", "prune_level", "delta3", "witnesses", "stats"]
        assert list(payload["stats"]) == ["nodes", "evaluated", "wall_time", "pieces"]

    def test_text_output_lists_witness(self, capsys):
        code, out, _ = run(capsys, "delta3", "--k", "2", "--emit-all")
        assert code == 0
        assert "delta3=4" in out
        assert "labels=1,1,1,1,1,1,1,1" in out

    def test_jsonl_file(self, capsys, tmp_path):
        target = tmp_path / "witnesses.jsonl"
        code, _, _ = run(
            capsys, "delta3", "--k", "2", "--emit-all", "--out", str(target)
        )
        assert code == 0
        lines = [json.loads(line) for line in target.read_text().splitlines()]
        assert lines[-1]["delta3"] == 4
        for line in lines[:-1]:
            parsed = GaleDiagram.from_json(line["diagram"])
            assert line["cofacets"] - line["vertices"] == 4
            assert parsed.vertex_count == line["vertices"]

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "witnesses.jsonl"
        code, out, err = run(capsys, "delta3", "--k", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err


class TestEnumerate:
    def test_stream_limit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "2", "--limit", "5")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        for line in lines:
            GaleDiagram.from_json(json.loads(line))

    def test_stream_limit_zero_prints_nothing(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--k", "2", "--limit", "0")
        assert code == 0
        assert out == ""

    def test_stream_negative_limit_is_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--k", "2", "--limit", "-1")
        assert code == 2
        assert out == ""
        assert "--limit" in err

    def test_stream_to_file(self, capsys, tmp_path):
        target = tmp_path / "stream.jsonl"
        code, _, _ = run(
            capsys, "enumerate", "--k", "2", "--prune", "extremal", "--out", str(target)
        )
        assert code == 0
        parsed = [
            GaleDiagram.from_json(json.loads(line))
            for line in target.read_text().splitlines()
        ]
        assert GaleDiagram(4, (1,) * 8) in parsed

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "stream.jsonl"
        code, out, err = run(capsys, "enumerate", "--k", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err

    def test_closed_pipe_ends_quietly(self):
        # `enumerate ... | head -1`: the reader closes the pipe after one
        # line of a long stream, and the command stops with exit code 0 and
        # nothing on stderr, not even from the flush at exit
        src = os.path.dirname(os.path.dirname(neighborly_gale.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "neighborly_gale.cli", "enumerate", "--k", "3",
             "--prune", "marcus"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)  # raises while the process still runs
        finally:
            proc.kill()  # a no-op once it has exited
            proc.wait()
        GaleDiagram.from_json(json.loads(first))
        assert err == b""
        assert code == 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFailedWrite:
    # every write to /dev/full fails with ENOSPC, as on a full disk
    @pytest.mark.parametrize(
        "argv,out",
        [
            (["delta3", "--k", "2"], "/dev/full"),
            (["verify", "--kmax", "2"], "/dev/full"),
            (["enumerate", "--k", "2", "--limit", "3"], "/dev/full"),
            (["delta3", "--k", "2", "--out", "/dev/full"], os.devnull),
        ],
        ids=["delta3", "verify", "enumerate", "delta3-out"],
    )
    def test_full_device_is_one_error_line(self, argv, out):
        src = os.path.dirname(os.path.dirname(neighborly_gale.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        with open(out, "w") as sink:
            proc = subprocess.run(
                [sys.executable, "-m", "neighborly_gale.cli", *argv],
                stdout=sink, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        err = proc.stderr.decode()
        assert proc.returncode == 1
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "No space left on device" in err


class TestVerify:
    def test_through_k3(self, capsys):
        code, out, _ = run(capsys, "verify", "--kmax", "3")
        assert code == 0
        assert "2  4  4  yes" in out
        assert "3  15  15  yes" in out
        assert "example3  14  7  yes" in out

    def test_bad_kmax(self, capsys):
        code, _, _ = run(capsys, "verify", "--kmax", "29")
        assert code == 2


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["cofacets", "--labels", "1,1,1,1", "--frob"]) == 2

    def test_jobs_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("NEIGHBORLY_GALE_JOBS", "2")
        code, out, _ = run(capsys, "delta3", "--k", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["delta3"] == 4

    @pytest.mark.parametrize("value", ["two", "0"])
    def test_jobs_env_must_be_positive_integer(self, capsys, monkeypatch, value):
        monkeypatch.setenv("NEIGHBORLY_GALE_JOBS", value)
        code, out, err = run(capsys, "delta3", "--k", "2")
        assert code == 2
        assert out == ""
        assert "NEIGHBORLY_GALE_JOBS" in err
