import contextlib
import io
import json
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropwfst import (ObservationModel, ParseError, approx_equal, cli,
                      decoder, is_pushed, parse_text, push_weights, semiring,
                      serialize_text, validate, wfst)
from tropwfst.cli import main
from tropwfst.textio import parse_weight

from conftest import FIG1_TEXT, FIG2_TEXT
from generators import (exhaustive_viterbi_cost, random_cyclic_machine,
                        random_hmm)
from test_parsers import SYMBOLS, machine_texts

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
        code, stdout, _ = run(capsys, "info", workspace / "fig2.fst")
        assert code == 0 and "eps_arcs 1\n" in stdout  # the one epsilon:epsilon arc
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

    def test_trim_to_no_state_is_domain_error(self, workspace, capsys):
        # no initial-to-final path: the trimmed machine has no state, and no
        # machine text can hold that
        (workspace / "dead.fst").write_text("I 0 0\n0 1 a a 1\nF 2 0\n")
        out = workspace / "out.fst"
        code, stdout, err = run(capsys, "rmepsilon", workspace / "dead.fst",
                                out, "--trim")
        assert code == 1
        assert stdout == ""
        assert err == "error: no accepting path; trim leaves no state\n"
        assert not out.exists()
        code, _, _ = run(capsys, "rmepsilon", workspace / "dead.fst", out)
        assert code == 0 and out.exists()  # untrimmed, the states stay

    def test_parser_keeps_no_state_between_calls(self, workspace, capsys):
        out = workspace / "out.fst"
        run(capsys, "rmepsilon", workspace / "fig2.fst", out, "--trim")
        code, _, _ = run(capsys, "rmepsilon", workspace / "fig2.fst", out)
        assert code == 0
        # the untrimmed output keeps state 1, which test_trim drops
        assert out.read_bytes() == (b"I 0 0\n0 2 a a-out 3\n1 2 a a-out 2\n"
                                    b"F 2 0\n")


# observation models the parser or the decoder rejects, and the message;
# line numbers count every line of the file, blank ones included
BAD_OBSERVATION_MODELS = {
    "1 1\no 0\n": "observation model has 1 states, machine has 5",
    "5 1\no -inf 0 0 0 0\n": "line 2: cost vector for 'o' has a -inf entry",
    "\n\n5 1\n\no 0 0 0\n": "line 5: expected symbol plus 5 costs",
    " \n\nfive 1\n": "line 3: expected header 'n_states n_symbols'",
    "\n5 2\n\no 0 0 0 0 0\n\no 5 inf 0 0 0\n": "line 6: duplicate symbol 'o'",
    "5 1\n\n\no 0 0 0 0 x\n":
        "line 4: could not convert string to float: 'x'",
    "5 1\no 0 0 1e400 0 0\n": "line 2: weight '1e400' overflows float64",
    "-1 0\n": "line 1: header counts must not be negative",
    "2 -1\n": "line 1: header counts must not be negative",
    "": "empty observation model",
    " \n\n": "empty observation model",
}


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
        block_metrics = decoder._block_metrics
        monkeypatch.setattr(decoder, "_block_metrics",
                            lambda *a: calls.append(a) or block_metrics(*a))
        argv = ["decode", workspace / "fig1.fst", "--obs", workspace / "obs.txt",
                "--seq", workspace / "seq.txt", "--theta", theta]
        code, traced, _ = run(capsys, *argv, "--metrics", workspace / "t.csv")
        assert code == 0 and len(calls) >= 1
        calls.clear()
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert calls == []
        assert stdout == traced

    def test_exact_decode_writes_the_theta_inf_trace(self, workspace, capsys,
                                                     monkeypatch):
        argv = ["decode", workspace / "fig1.fst", "--obs", workspace / "obs.txt",
                "--seq", workspace / "seq.txt"]
        code, exact, _ = run(capsys, *argv)
        assert code == 0 and exact == "cost 5\npath 0 2 4\n"
        code, stdout, _ = run(capsys, *argv, "--metrics", workspace / "t0.csv")
        assert code == 0 and stdout == exact
        code, _, _ = run(capsys, *argv, "--theta", "inf",
                         "--metrics", workspace / "t.csv")
        assert code == 0
        trace = (workspace / "t0.csv").read_text()
        assert trace == (workspace / "t.csv").read_text()
        # survivors [0], [1, 2], [43, 5]; entropy is mean z exp(-z), and nu
        # degenerates since the slack inf - z is unbounded
        assert trace.splitlines()[1:] == [
            "0,1,inf,0,0,1", "1,2,inf,0,0.319275004,1",
            "2,2,inf,0,0.0168448675,1"]
        # without --metrics the exact decode builds no trace
        monkeypatch.setattr(cli, "decode_with_metrics", None)
        assert run(capsys, *argv) == (0, exact, "")

    @pytest.mark.parametrize("obs", list(BAD_OBSERVATION_MODELS))
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
        assert err == f"error: {BAD_OBSERVATION_MODELS[obs]}\n"
        assert not (workspace / "t.csv").exists()

    @pytest.mark.parametrize("command,extra", [
        ("decode", []),
        ("decode", ["--metrics", "t.csv"]),
        ("metrics", ["--metrics", "t.csv"]),
    ])
    def test_nan_theta_is_usage_error(self, workspace, capsys, command, extra):
        code, stdout, err = run(
            capsys, command, workspace / "fig1.fst",
            "--obs", workspace / "obs.txt", "--seq", workspace / "seq.txt",
            "--theta", "nan",
            *[workspace / a if a.endswith(".csv") else a for a in extra])
        assert code == 2
        assert stdout == ""
        assert err == "error: --theta must be >= 0\n"
        assert not (workspace / "t.csv").exists()

    @pytest.mark.parametrize("command,extra", [
        ("decode", []),
        ("metrics", ["--theta", "1", "--metrics", "t.csv"]),
    ])
    def test_duplicate_observation_symbol_is_usage_error(
            self, workspace, capsys, command, extra):
        (workspace / "obs.txt").write_text("5 2\no 0 0 0 0 0\no 5 inf 0 0 0\n")
        code, stdout, err = run(
            capsys, command, workspace / "fig1.fst",
            "--obs", workspace / "obs.txt", "--seq", workspace / "seq.txt",
            *[workspace / a if a.endswith(".csv") else a for a in extra])
        assert code == 2
        assert stdout == ""
        assert err == "error: line 3: duplicate symbol 'o'\n"
        assert not (workspace / "t.csv").exists()

    @pytest.mark.parametrize("command", ["decode", "metrics"])
    def test_entropy_overflow_is_domain_error(self, workspace, capsys,
                                              command):
        (workspace / "m.fst").write_text(
            "I 0 0\n0 1 a a -800\n1 1 a a 0\nF 1 0\n")
        (workspace / "obs.txt").write_text("2 1\nx 0 0\n")
        (workspace / "seq.txt").write_text("x x x\n")
        code, stdout, err = run(
            capsys, command, workspace / "m.fst",
            "--obs", workspace / "obs.txt", "--seq", workspace / "seq.txt",
            "--theta", "5",
            "--metrics", workspace / "t.csv")
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: entropy overflows")
        assert not (workspace / "t.csv").exists()

    @pytest.mark.parametrize("missing", ["--obs", "--theta"])
    def test_metrics_missing_option_is_usage_error(self, workspace, capsys,
                                                   missing):
        argv = ["metrics", workspace / "fig1.fst",
                "--obs", workspace / "obs.txt", "--seq", workspace / "seq.txt",
                "--theta", "1", "--metrics", workspace / "t.csv"]
        del argv[argv.index(missing):argv.index(missing) + 2]
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.endswith(f"error: the following arguments are "
                                f"required: {missing}\n")
        assert not (workspace / "t.csv").exists()

    @pytest.mark.parametrize("theta", ["0", "1"])
    def test_parser_keeps_no_state_between_calls(self, workspace, capsys,
                                                 theta):
        csv = workspace / "t.csv"
        argv = ["decode", workspace / "fig1.fst", "--obs",
                workspace / "obs.txt", "--seq", workspace / "seq.txt"]
        code, _, _ = run(capsys, *argv, "--theta", theta, "--metrics", csv)
        assert code == 0 and csv.exists()
        csv.unlink()
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert stdout == "cost 5\npath 0 2 4\n"
        assert not csv.exists()

    def test_unknown_symbol_is_domain_error(self, workspace, capsys):
        (workspace / "seq.txt").write_text("o zzz\n")
        code, _, err = run(
            capsys, "decode", workspace / "fig1.fst",
            "--obs", workspace / "obs.txt", "--seq", workspace / "seq.txt")
        assert code == 1
        assert err == "error: unknown symbol 'zzz'\n"


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


# 1e308 + 1e308 overflows float64; the second machine also has a path of
# cost 2, so the overflowing sum loses the minimum and still fails
OVERFLOW_MACHINES = ["I 0 1e308\n0 1 a a 1e308\nF 1 0\n",
                     "I 0 0\n0 1 a a 1e308\n1 2 a a 1e308\n0 2 a a 2\nF 2 0\n"]


# weights that overflow float64 as they are parsed, and the error
OVERFLOWING_WEIGHTS = {
    "I 0 0\n0 1 a a 1\n1 2 a a 1\nF 1 0\nF 2 1e400\n":
        "line 5: weight '1e400' overflows float64",
    "I 0 1e400\n0 1 a a 1\nF 1 0\n": "line 1: weight '1e400' overflows float64",
}


class TestOverflow:
    @pytest.mark.parametrize("text", list(OVERFLOWING_WEIGHTS))
    @pytest.mark.parametrize("argv", [["push", "m.fst", "o.fst"],
                                      ["info", "m.fst"], ["validate", "m.fst"]])
    def test_overflowing_weight_is_parse_error(self, workspace, capsys, text,
                                               argv):
        (workspace / "m.fst").write_text(text)
        code, stdout, err = run(capsys, *[workspace / a if "." in a else a
                                          for a in argv])
        assert code == 2
        assert stdout == ""
        assert err == f"error: {OVERFLOWING_WEIGHTS[text]}\n"
        assert not (workspace / "o.fst").exists()

    @pytest.mark.parametrize("text", OVERFLOW_MACHINES)
    def test_push_is_domain_error(self, workspace, capsys, text):
        (workspace / "m.fst").write_text(text)
        code, stdout, err = run(capsys, "push", workspace / "m.fst",
                                workspace / "o.fst")
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: overflow encountered")
        assert not (workspace / "o.fst").exists()

    @pytest.mark.parametrize("extra", [[], ["--theta", "1", "--metrics",
                                            "t.csv"]])
    def test_decode_is_domain_error(self, workspace, capsys, extra):
        (workspace / "m.fst").write_text(OVERFLOW_MACHINES[0])
        (workspace / "obs.txt").write_text("2 1\no 0 0\n")
        code, stdout, err = run(
            capsys, "decode", workspace / "m.fst", "--obs",
            workspace / "obs.txt", "--seq", workspace / "seq.txt",
            *[workspace / a if a.endswith(".csv") else a for a in extra])
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: overflow encountered")
        assert not (workspace / "t.csv").exists()


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

    def test_state_index_beyond_the_text_is_parse_error(self, workspace,
                                                        capsys):
        # lam and rho for 3 000 001 states would take 48 MB
        big = workspace / "big.fst"
        big.write_text("I 0 0\n0 1 a a 1\nF 3000000 0\n")
        tracemalloc.start()
        try:
            code, stdout, err = run(capsys, "info", big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, stdout) == (2, "")
        assert err.startswith("error: line 3: state index 3000000 ")
        assert peak < 1e6

    def test_push_writes_a_text_the_cli_reads(self, workspace, capsys):
        # 126 KB, so state 69999 is under the cap; the 8000 arcs are dead,
        # and push renumbers the two live states 0 and 1
        dead = "".join(f"{k} {k + 1} b b 1\n" for k in range(1, 8001))
        (workspace / "m.fst").write_text("I 0 0\n0 69999 a a 1\n" + dead
                                         + "F 69999 0\n")
        code, _, _ = run(capsys, "push", workspace / "m.fst",
                         workspace / "o.fst")
        assert code == 0
        assert (workspace / "o.fst").read_text() == "I 0 1\n0 1 a a 0\nF 1 0\n"
        code, _, err = run(capsys, "info", workspace / "o.fst")
        assert (code, err) == (0, "")

    def test_out_of_memory_is_usage_error(self, workspace, capsys,
                                          monkeypatch):
        def remove_epsilons(m):
            raise MemoryError("Unable to allocate 11.9 GiB for an array")
        monkeypatch.setattr(cli, "remove_epsilons", remove_epsilons)
        code, stdout, err = run(capsys, "rmepsilon", workspace / "fig2.fst",
                                workspace / "o.fst")
        assert code == 2
        assert stdout == ""
        assert err == "error: Unable to allocate 11.9 GiB for an array\n"
        assert not (workspace / "o.fst").exists()

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


# The dense closed forms and the per-row metrics are the specification the
# tests compare against; no CLI command may run them.
SPECIFICATION_FORMS = [(semiring, "gamma"), (semiring, "delta"),
                       (semiring, "minplus_mul"), (semiring, "maxplus_mul"),
                       (semiring, "cg_conjugate"), (semiring, "pointwise_min"),
                       (wfst, "build_matrices"), (decoder, "metric_nu"),
                       (decoder, "metric_entropy")]
OFF_PATH_TEXTS = [FIG1_TEXT, FIG2_TEXT] + [
    serialize_text(random_cyclic_machine(np.random.default_rng(7000 + seed),
                                         float_weights=fw))
    for fw in (False, True) for seed in range(40)]


@pytest.fixture
def specification_forms_raise(monkeypatch):
    """Each specification form raises, under every name a tropwfst module
    binds."""
    modules = [mod for name, mod in list(sys.modules.items())
               if name == "tropwfst" or name.startswith("tropwfst.")]
    for owner, name in SPECIFICATION_FORMS:
        fn = getattr(owner, name)

        def forbidden(*args, name=name, **kwargs):
            raise AssertionError(f"{name} runs on a CLI path")

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, forbidden)


@pytest.mark.parametrize("text", OFF_PATH_TEXTS)
def test_no_dense_form_on_any_cli_path(text, tmp_path, capsys,
                                       specification_forms_raise):
    with pytest.raises(AssertionError, match="runs on a CLI path"):
        semiring.gamma(np.zeros((1, 1)))
    fst, out = tmp_path / "m.fst", tmp_path / "out.fst"
    fst.write_text(text)
    n = parse_text(text).n_states
    rng = np.random.default_rng(n)
    (tmp_path / "obs.txt").write_text(f"{n} 2\n" + "".join(
        f"{sym} " + " ".join(str(c) for c in rng.integers(0, 6, n)) + "\n"
        for sym in "xy"))
    (tmp_path / "seq.txt").write_text("x y y x\n")
    decode = ["decode", fst, "--obs", tmp_path / "obs.txt",
              "--seq", tmp_path / "seq.txt"]
    for argv in (["push", fst, out], ["rmepsilon", fst, out],
                 ["rmepsilon", fst, out, "--trim"], ["info", fst],
                 ["validate", fst], decode, decode + ["--theta", "3"],
                 decode + ["--theta", "3", "--metrics", tmp_path / "m.csv"]):
        code, _, _ = run(capsys, *argv)
        assert code in (0, 1)  # 1: a state that cannot reach a final one


def quiet_main(*argv):
    """cli.main with RuntimeWarnings as errors; (exit code, stdout)."""
    out = io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(io.StringIO())):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def decoded_cost(stdout):
    line = stdout.splitlines()[0]
    assert line.startswith("cost ")
    return parse_weight(line[5:])


@st.composite
def valid_machine_texts(draw):
    """Texts of machines that validate, which machine_texts seldom gives:
    one arc per state pair, finite weights (negative cycles included), an
    initial and a final state."""
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    weight = st.one_of(st.integers(-3, 20).map(str),
                       st.floats(-1e3, 1e3).map(repr))
    pairs = draw(st.lists(st.tuples(state, state), unique=True, max_size=12))
    lines = [f"{src} {dst} {draw(SYMBOLS)} {draw(SYMBOLS)} {draw(weight)}"
             for src, dst in pairs]
    lines += [f"{kind} {draw(state)} {draw(weight)}" for kind in "IF"]
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(machine_texts(), valid_machine_texts()),
       st.lists(st.integers(0, 9), min_size=16, max_size=16),
       st.lists(st.sampled_from("xy"), min_size=3, max_size=3))
def test_cli_contract(text, costs, seq):
    """Every command on a generated text: exit code 0, 1 or 2, no output
    file after an error, output machines that parse and validate, an exact
    decode cost that the brute-force oracle confirms and a pruned one never
    below it."""
    try:
        m = parse_text(text)
    except ParseError:
        m = None
    n = m.n_states if m else 1
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        fst, obs, sequence = d / "in.fst", d / "obs.txt", d / "seq.txt"
        fst.write_bytes(text.encode())
        model = {"x": costs[:n], "y": costs[n:2 * n]}
        obs.write_text(f"{n} 2\n" + "".join(
            f"{sym} {' '.join(map(str, c))}\n" for sym, c in model.items()))
        sequence.write_text(" ".join(seq) + "\n")
        for argv in (["validate", fst], ["info", fst]):
            assert quiet_main(*argv)[0] in (0, 1, 2)
        for k, (command, *flags) in enumerate((["push"], ["rmepsilon"],
                                               ["rmepsilon", "--trim"])):
            out = d / f"out{k}.fst"
            code, _ = quiet_main(command, fst, out, *flags)
            assert code in (0, 1, 2)
            if code:
                assert not out.exists()
            else:
                assert validate(parse_text(out.read_text())) == []
        decode = ["decode", fst, "--obs", obs, "--seq", sequence]
        code, stdout = quiet_main(*decode)
        assert code in (0, 1, 2)
        exact = None
        if code == 0:
            exact = decoded_cost(stdout)
            with np.errstate(over="ignore"):
                want = exhaustive_viterbi_cost(m, ObservationModel(n, model), seq)
            assert approx_equal(exact, want)
        trace = d / "trace.csv"
        code, stdout = quiet_main(*decode, "--theta", "2", "--metrics", trace)
        assert code in (0, 1, 2)
        if code:
            assert not trace.exists()
        elif exact is not None:
            assert decoded_cost(stdout) >= exact


def test_benchmark_tracer_finds_every_traced_function():
    """The benchmark's traced run wraps functions by the module that
    defines them; one deleted or moved leaves its per-layer rows absent."""
    root = Path(__file__).resolve().parents[1]
    # a fresh process, since install() rebinds functions in every module
    code = ("import sys; sys.path[:0] = sys.argv[1:]\n"
            "import tropwfst.cli\n"
            "from tracing import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "print(tracer.metrics(1, 0, 0.0)[1])\n")
    done = subprocess.run([sys.executable, "-c", code, str(root / "src"),
                           str(root / "perfbench")],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


DECODE = ["fig1.fst", "--obs", "obs.txt", "--seq", "seq.txt"]
EVERY_COMMAND = [["validate", "fig2.fst"], ["info", "fig2.fst"],
                 ["push", "fig1.fst", "p.fst"],
                 ["rmepsilon", "fig2.fst", "r.fst", "--trim"],
                 ["decode", *DECODE],
                 ["decode", *DECODE, "--theta", "2", "--metrics", "a.csv"],
                 ["metrics", *DECODE, "--theta", "2", "--metrics", "b.csv"]]


def test_no_cli_command_imports_numpy_ma(workspace):
    # np.unique, and np.isin when it sorts, import numpy.ma on their first
    # call, which adds more than a megabyte to a command's resident set
    code = ("import json, sys; sys.path.insert(0, sys.argv[2])\n"
            "from tropwfst.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "print('numpy.ma' in sys.modules)\n")
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code,
                           json.dumps(EVERY_COMMAND), str(root / "src")],
                          cwd=workspace, capture_output=True, text=True,
                          check=True)
    assert done.stdout.splitlines()[-1] == "False"


def gap_text(k):
    return f"I 0 0\n0 {k} a a 1\nF {k} 0\n"


def eps_chain_text(n):
    return ("I 0 0\n" + "".join(f"{i} {i + 1} <eps> <eps> 1\n"
                                for i in range(n - 1)) + f"F {n - 1} 0\n")


def eps_block_text(n):
    return ("I 0 0\n" + "".join(f"{i} {j} <eps> <eps> 1\n" for i in range(n)
                                for j in range(n))
            + f"{n - 1} {n} a a 1\nF {n} 0\n")


# Peak memory of a command is bounded by its text: k bytes per input and
# output byte, plus C for the weight vectors of up to 2**16 states that
# parse_text allows whatever the text's length. Measured (tracemalloc,
# numpy 2.4): push on the 60 000-state gap peaks at 3.0 MB, about six
# float64 vectors of its states; validate on the 2000-state chain at 15
# bytes per input byte. rmepsilon builds a |U| x |U| closure and an
# n x |U| product, U the states that epsilon arcs touch: 0.08 MB on a gap
# of 1000 behind one epsilon arc, but 8.1 MB on a 500-state chain, where U
# is every state, and at 2000 states it would also take minutes, as the
# chain needs n sweeps.
MEMORY_K, MEMORY_C = 16, 8 * 2**16 * 8
ITEM_6 = pytest.mark.xfail(strict=True, reason="rmepsilon's dense |U| x |U| "
                           "epsilon closure (ROADMAP item 6)")
RMEPSILON = ["rmepsilon", "o.fst", "--trim"]
MEMORY_CASES = [
    *[pytest.param(text, argv, id=f"{name}-{argv[0]}")
      for name, text in (("gap60000", gap_text(60000)),
                         ("chain2000", eps_chain_text(2000)),
                         ("block64", eps_block_text(64)))
      for argv in (["validate"], ["info"], ["push", "o.fst"])],
    pytest.param(gap_text(1000), RMEPSILON, id="gap1000-rmepsilon"),
    pytest.param("I 0 0\n0 1 <eps> <eps> 0\n1 1000 a a 1\nF 1000 0\n",
                 RMEPSILON, id="eps-gap1000-rmepsilon"),
    pytest.param(eps_chain_text(500), RMEPSILON, marks=ITEM_6,
                 id="chain500-rmepsilon"),
    pytest.param(eps_block_text(64), RMEPSILON, id="block64-rmepsilon"),
]


@pytest.mark.parametrize("text, argv", MEMORY_CASES)
def test_peak_memory_is_bounded_by_the_text(text, argv, workspace, capsys):
    (workspace / "m.fst").write_text(text)
    argv = [argv[0], workspace / "m.fst", *[workspace / a if "." in a else a
                                           for a in argv[1:]]]
    tracemalloc.start()
    try:
        code, stdout, _ = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    out = workspace / "o.fst"
    size = len(text) + len(stdout) + (out.stat().st_size if out.exists() else 0)
    assert peak <= MEMORY_K * size + MEMORY_C
