"""The benchmark's output checks pass real outputs and fail corrupted ones.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from tracing import Tracer  # noqa: E402
from tropwfst import cli  # noqa: E402


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """One many-small input with every output the workload produces."""
    d = tmp_path_factory.mktemp("small")
    item = gen.generate("many-small", 7, str(d))[0]
    decode = ["decode", item["fst"], "--obs", item["obs"], "--seq", item["seq"]]
    out = dict(
        fst=Path(item["fst"]).read_text(),
        info=run_cli(["info", item["fst"]]),
        exact=run_cli(decode),
        pruned=run_cli(decode + ["--theta", "12", "--metrics", str(d / "t.csv")]),
    )
    run_cli(["push", item["fst"], str(d / "push.fst")])
    run_cli(["rmepsilon", item["fst"], str(d / "rm.fst"), "--trim"])
    out.update(push=(d / "push.fst").read_text(), rm=(d / "rm.fst").read_text(),
               trace=(d / "t.csv").read_text())
    m = checks.parse_machine(out["fst"])
    obs = checks.parse_observations(Path(item["obs"]).read_text())
    seq = Path(item["seq"]).read_text().split()
    out.update(m=m, obs=obs, seq=seq, ref=checks.reference_viterbi(m, obs, seq))
    return out


def replace_line(text, index, edit):
    lines = text.splitlines()
    lines[index] = edit(lines[index])
    return "\n".join(lines) + "\n"


def arc_line(text):
    return next(k for k, ln in enumerate(text.splitlines())
                if ln.split()[0] not in ("I", "F"))


def test_real_outputs_pass(small):
    s = small
    assert checks.check_push(s["fst"], s["push"]) == []
    assert checks.check_rmepsilon_trim(s["fst"], s["rm"]) == []
    assert checks.check_info(s["fst"], s["info"]) == []
    assert checks.check_decode(s["m"], s["obs"], s["seq"], s["exact"], s["ref"]) == []
    assert checks.check_decode(s["m"], s["obs"], s["seq"], s["pruned"], s["ref"],
                               s["trace"]) == []


def test_push_perturbed_arc_weight_fails(small):
    # A pushed arc moved below 0 makes its source's minimum negative.
    bad = replace_line(small["push"], arc_line(small["push"]),
                       lambda ln: " ".join(ln.split()[:4] + ["-0.5"]))
    assert checks.check_push(small["fst"], bad)


def test_push_unchanged_input_is_not_pushed(small):
    assert checks.check_push(small["fst"], small["fst"])


def test_rmepsilon_leftover_eps_arc_fails(small):
    bad = replace_line(small["rm"], arc_line(small["rm"]),
                       lambda ln: " ".join(ln.split()[:2] + ["<eps>", "<eps>"]
                                           + ln.split()[4:]))
    assert any("eps arc" in p for p in checks.check_rmepsilon_trim(small["fst"], bad))


def test_rmepsilon_perturbed_weight_fails(small):
    # Every arc of the output lies on an accepting path, so raising all of
    # them raises the best accepting cost.
    text = small["rm"]
    for k, line in enumerate(text.splitlines()):
        if line.split()[0] not in ("I", "F"):
            text = replace_line(text, k, lambda ln: " ".join(
                ln.split()[:4] + [repr(float(ln.split()[4]) + 1.0)]))
    assert checks.check_rmepsilon_trim(small["fst"], text)


def test_rmepsilon_untrimmed_state_fails(small):
    n = checks.parse_machine(small["rm"]).n
    bad = small["rm"] + f"{n} {n} a A 1\n"
    assert checks.check_rmepsilon_trim(small["fst"], bad)


def test_info_wrong_count_fails(small):
    bad = small["info"].replace("arcs ", "arcs 1", 1)
    assert checks.check_info(small["fst"], bad)


def test_decode_wrong_path_cost_fails(small):
    s = small
    cost, path = checks.parse_decode(s["exact"])
    bad = f"cost {cost + 0.25!r}\npath {' '.join(map(str, path))}\n"
    assert checks.check_decode(s["m"], s["obs"], s["seq"], bad, s["ref"])
    # Same cost as the reference, but a path that does not earn it.
    other = [path[0]] * len(path)
    bad = f"cost {cost!r}\npath {' '.join(map(str, other))}\n"
    assert checks.check_decode(s["m"], s["obs"], s["seq"], bad, s["ref"])


def test_pruned_decode_below_exact_fails(small):
    s = small
    bad = f"cost {s['ref'] - 1!r}\npath \n"
    assert checks.check_decode(s["m"], s["obs"], s["seq"], bad, s["ref"], s["trace"])


def test_trace_missing_row_fails(small):
    s = small
    bad = "\n".join(s["trace"].splitlines()[:-1]) + "\n"
    assert checks.check_decode(s["m"], s["obs"], s["seq"], s["pruned"], s["ref"], bad)


def test_traced_metrics_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = Tracer()
    tracer.install()
    metrics, absent = tracer.metrics(1, 0, 1.0)
    assert absent == []
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]}


def test_missing_function_is_reported_absent():
    tracer = Tracer()
    metrics, absent = tracer.metrics(1, 0, 1.0)
    assert "semiring.gamma.ms" in absent and "semiring.gamma.ms" not in metrics
    assert "decoder.search_errors" in metrics
