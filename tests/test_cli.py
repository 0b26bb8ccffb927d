import numpy as np
import pytest

from tropwfst import decoder, is_pushed, push_weights, serialize_text
from tropwfst.cli import main

from conftest import FIG1_TEXT, FIG2_TEXT
from generators import random_hmm

OBS_FIG1 = "5 1\no 0 0 0 0 0\n"
SEQ_FIG1 = "o o o\n"


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "fig1.fst").write_text(FIG1_TEXT)
    (tmp_path / "fig2.fst").write_text(FIG2_TEXT)
    (tmp_path / "obs.txt").write_text(OBS_FIG1)
    (tmp_path / "seq.txt").write_text(SEQ_FIG1)
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPush:
    def test_fig1(self, workspace, capsys):
        out = workspace / "out.fst"
        code, _, _ = run(capsys, "push", workspace / "fig1.fst", out)
        assert code == 0
        text = out.read_text()
        assert "I 0 5" in text
        assert "0 1 a A 38" in text
        assert "0 2 a A 0" in text
        assert "1 3 z Z 0" in text
        assert "2 4 x X 0" in text

    def test_then_info_reports_pushed(self, workspace, capsys):
        out = workspace / "out.fst"
        run(capsys, "push", workspace / "fig1.fst", out)
        code, stdout, _ = run(capsys, "info", out)
        assert code == 0
        assert "pushed yes" in stdout

    def test_float_weights_info_reports_pushed(self, workspace, capsys):
        # pushing float weights leaves residues such as -2.2e-16
        for seed in range(20):
            m, _ = random_hmm(np.random.default_rng(seed), max_states=8,
                              float_costs=True)
            assert is_pushed(push_weights(m))
            (workspace / "in.fst").write_text(serialize_text(m))
            run(capsys, "push", workspace / "in.fst", workspace / "out.fst")
            code, stdout, _ = run(capsys, "info", workspace / "out.fst")
            assert code == 0
            assert stdout.endswith("pushed yes\n")

    def test_unpushed_info(self, workspace, capsys):
        code, stdout, _ = run(capsys, "info", workspace / "fig1.fst")
        assert code == 0
        assert stdout == "states 5\narcs 4\neps_arcs 0\npushed no\n"


class TestRmepsilon:
    def test_fig2(self, workspace, capsys):
        out = workspace / "out.fst"
        code, _, _ = run(capsys, "rmepsilon", workspace / "fig2.fst", out)
        assert code == 0
        code, stdout, _ = run(capsys, "info", out)
        assert "eps_arcs 0" in stdout

    def test_trim(self, workspace, capsys):
        out = workspace / "out.fst"
        code, _, _ = run(capsys, "rmepsilon", workspace / "fig2.fst", out,
                         "--trim")
        assert code == 0
        # state q is unreachable once its incoming epsilon arc is gone
        assert out.read_text() == "I 0 0\n0 1 a a-out 3\nF 1 0\n"


class TestDecode:
    def test_exact(self, workspace, capsys):
        code, stdout, _ = run(
            capsys, "decode", workspace / "fig1.fst",
            "--obs", workspace / "obs.txt", "--seq", workspace / "seq.txt")
        assert code == 0
        assert stdout == "cost 5\npath 0 2 4\n"

    def test_pruned_with_metrics(self, workspace, capsys):
        csv = workspace / "t.csv"
        code, stdout, _ = run(
            capsys, "decode", workspace / "fig1.fst",
            "--obs", workspace / "obs.txt", "--seq", workspace / "seq.txt",
            "--theta", "0", "--metrics", csv)
        assert code == 0
        # greedy pruning commits to the cheap-looking early branch
        assert stdout.startswith("cost 43\n")
        rows = csv.read_text().splitlines()
        assert rows[0] == "step,support,eta,nu,entropy,degenerate"
        assert len(rows) == 4
        assert all(r.split(",")[1] == "1" for r in rows[1:])

    def test_metrics_command(self, workspace, capsys):
        csv = workspace / "t.csv"
        code, stdout, _ = run(
            capsys, "metrics", workspace / "fig1.fst",
            "--obs", workspace / "obs.txt", "--seq", workspace / "seq.txt",
            "--theta", "1", "--metrics", csv)
        assert code == 0
        assert stdout == ""
        assert csv.exists()

    @pytest.mark.parametrize("theta", ["0", "1", "inf"])
    def test_pruned_without_trace_computes_no_metrics(self, workspace, capsys,
                                                      monkeypatch, theta):
        calls = []
        metric_nu = decoder.metric_nu
        monkeypatch.setattr(decoder, "metric_nu",
                            lambda *a: calls.append(a) or metric_nu(*a))
        argv = ["decode", workspace / "fig1.fst", "--obs", workspace / "obs.txt",
                "--seq", workspace / "seq.txt", "--theta", theta]
        code, traced, _ = run(capsys, *argv, "--metrics", workspace / "t.csv")
        assert code == 0 and len(calls) == 3  # one per frame
        calls.clear()
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert calls == []
        assert stdout == traced

    @pytest.mark.parametrize("obs", [
        "1 1\no 0\n",                # one state against five
        "5 1\no -inf 0 0 0 0\n",     # costs are finite or +inf
    ])
    @pytest.mark.parametrize("command,extra", [
        ("decode", []),
        ("decode", ["--theta", "1"]),
        ("metrics", ["--theta", "1", "--metrics", "t.csv"]),
    ])
    def test_bad_observation_model_is_usage_error(self, workspace, capsys,
                                                  obs, command, extra):
        (workspace / "obs.txt").write_text(obs)
        code, stdout, err = run(
            capsys, command, workspace / "fig1.fst",
            "--obs", workspace / "obs.txt", "--seq", workspace / "seq.txt",
            *[workspace / a if a.endswith(".csv") else a for a in extra])
        assert code == 2
        assert stdout == ""
        assert "error" in err

    def test_unknown_symbol_is_domain_error(self, workspace, capsys):
        (workspace / "seq.txt").write_text("o zzz\n")
        code, _, err = run(
            capsys, "decode", workspace / "fig1.fst",
            "--obs", workspace / "obs.txt", "--seq", workspace / "seq.txt")
        assert code == 1
        assert "error" in err


class TestValidateCmd:
    def test_clean(self, workspace, capsys):
        code, stdout, _ = run(capsys, "validate", workspace / "fig1.fst")
        assert code == 0
        assert stdout == ""

    def test_violations(self, workspace, capsys):
        bad = workspace / "bad.fst"
        bad.write_text("I 0 0\n0 1 a A 1\n0 1 b B 2\nF 1 0\n")
        code, stdout, _ = run(capsys, "validate", bad)
        assert code == 1
        assert "duplicate" in stdout


NEG_INF_INITIAL = "I 0 0\nI 1 -inf\n0 1 a a 1\nF 1 0\n"

# a negative cycle 2 <-> 3 from which no final state can be reached
DEAD_NEGATIVE_CYCLE = ("I 0 0\n0 1 a a 1\n0 2 b b 1\n2 3 c c -2\n"
                       "3 2 c c 1\nF 1 0\n")


class TestNegativeInfiniteWeights:
    def test_validate_reports(self, workspace, capsys):
        (workspace / "m.fst").write_text(NEG_INF_INITIAL)
        code, stdout, _ = run(capsys, "validate", workspace / "m.fst")
        assert code == 1
        assert stdout == "initial weight of state 1 is -inf\n"

    @pytest.mark.parametrize("argv", [
        ["push", "m.fst", "o.fst"],
        ["rmepsilon", "m.fst", "o.fst"],
        ["rmepsilon", "m.fst", "o.fst", "--trim"],
        ["decode", "m.fst", "--obs", "obs.txt", "--seq", "seq.txt"],
        ["decode", "m.fst", "--obs", "obs.txt", "--seq", "seq.txt",
         "--theta", "1"],
        ["info", "m.fst"],  # no partial output before the error
    ])
    def test_commands_are_usage_errors(self, workspace, capsys, argv):
        (workspace / "m.fst").write_text(NEG_INF_INITIAL)
        (workspace / "obs.txt").write_text("2 1\no 0 0\n")
        code, stdout, err = run(capsys, *[workspace / a if "." in a else a
                                          for a in argv])
        assert code == 2
        assert stdout == ""
        assert "initial weight of state 1 is -inf" in err
        assert not (workspace / "o.fst").exists()


class TestNegativeCycleRule:
    def test_dead_cycle_push(self, workspace, capsys):
        (workspace / "m.fst").write_text(DEAD_NEGATIVE_CYCLE)
        code, _, _ = run(capsys, "push", workspace / "m.fst",
                         workspace / "o.fst")
        assert code == 0
        # states 2 and 3 cannot terminate, so their arcs are dropped
        assert (workspace / "o.fst").read_text() == "I 0 1\n0 1 a a 0\nF 1 0\n"

    def test_dead_cycle_info(self, workspace, capsys):
        (workspace / "m.fst").write_text(DEAD_NEGATIVE_CYCLE)
        code, stdout, _ = run(capsys, "info", workspace / "m.fst")
        assert code == 0
        assert stdout == "states 4\narcs 4\neps_arcs 0\npushed no\n"

    def test_live_cycle_push_is_domain_error(self, workspace, capsys):
        # the same cycle, now with a way out to the final state 1
        (workspace / "m.fst").write_text(DEAD_NEGATIVE_CYCLE
                                         + "3 1 d d 0\n")
        code, _, err = run(capsys, "push", workspace / "m.fst",
                           workspace / "o.fst")
        assert code == 1
        assert "cycle" in err

    def test_negative_epsilon_cycle_rmepsilon(self, workspace, capsys):
        (workspace / "m.fst").write_text(
            "I 0 0\n0 1 <eps> <eps> -2\n1 0 <eps> <eps> 1\n"
            "1 2 a a 1\nF 2 0\n")
        code, _, err = run(capsys, "rmepsilon", workspace / "m.fst",
                           workspace / "o.fst", "--trim")
        assert code == 1
        assert "cycle" in err


class TestErrors:
    def test_missing_file(self, workspace, capsys):
        code, _, err = run(capsys, "info", workspace / "nope.fst")
        assert code == 2
        assert "error" in err

    def test_parse_error(self, workspace, capsys):
        bad = workspace / "bad.fst"
        bad.write_text("0 1 a\n")
        code, _, err = run(capsys, "push", bad, workspace / "o.fst")
        assert code == 2
        assert "line 1" in err

    def test_negative_cycle(self, workspace, capsys):
        bad = workspace / "neg.fst"
        bad.write_text("I 0 0\n0 1 a A -2\n1 0 b B 1\nF 1 0\n")
        code, _, err = run(capsys, "push", bad, workspace / "o.fst")
        assert code == 1
        assert "cycle" in err


class TestDeterminism:
    def test_byte_identical_runs(self, workspace, capsys):
        cases = [
            ("push", workspace / "fig1.fst", workspace / "p.fst"),
            ("rmepsilon", workspace / "fig2.fst", workspace / "r.fst"),
            ("decode", workspace / "fig1.fst", "--obs", workspace / "obs.txt",
             "--seq", workspace / "seq.txt", "--theta", "0.5",
             "--metrics", workspace / "m.csv"),
            ("info", workspace / "fig1.fst"),
            ("validate", workspace / "fig1.fst"),
        ]
        for argv in cases:
            outputs = []
            for _ in range(2):
                code, stdout, _ = run(capsys, *argv)
                assert code == 0
                files = {
                    p.name: p.read_bytes()
                    for p in workspace.iterdir() if p.suffix in (".csv",)
                    or p.name in ("p.fst", "r.fst")
                }
                outputs.append((stdout.encode(), files))
            assert outputs[0] == outputs[1]
