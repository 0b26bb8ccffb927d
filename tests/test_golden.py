"""The CLI's outputs pinned byte for byte.

golden.json holds, for Fig. 1, Fig. 2, two machines that the CLI rejects
and seeded generated machines of 16 to 64 states (integer and
non-integer weights, epsilon arcs), the input files and, for each command
line of COMMANDS, the exit code, stdout, stderr and every output file.
The test replays each command line on the stored inputs and compares. To
record the data afresh after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tropwfst import serialize_text
from tropwfst.cli import main
from tropwfst.textio import format_weight

DATA = Path(__file__).with_name("golden.json")
INPUTS = ("in.fst", "obs.txt", "seq.txt")
OUTPUTS = ("out.fst", "trace.csv")
DECODE = ["decode", "in.fst", "--obs", "obs.txt", "--seq", "seq.txt",
          "--metrics", "trace.csv"]
COMMANDS = [
    ["push", "in.fst", "out.fst"],
    ["rmepsilon", "in.fst", "out.fst"],
    ["rmepsilon", "in.fst", "out.fst", "--trim"],
    ["info", "in.fst"],
    ["validate", "in.fst"],
    DECODE,
    *(DECODE + ["--theta", theta] for theta in ("0", "8", "inf")),
]


def run(workdir: Path, argv: list[str]) -> dict:
    """Run one command line in workdir; its exit code, stdout, stderr and
    the output files it left (None where it left none)."""
    for name in OUTPUTS:
        (workdir / name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    files = INPUTS + OUTPUTS
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(workdir / a) if a in files else a for a in argv])
    record = {"argv": argv, "code": code, "stdout": out.getvalue(),
              "stderr": err.getvalue()}
    for name in OUTPUTS:
        path = workdir / name
        record[name] = path.read_text() if path.exists() else None
    return record


def _cases():
    """(name, input files) for every recorded case; generated, so only
    the recording needs the generators."""
    from conftest import FIG1_TEXT, FIG2_TEXT
    from generators import (random_acyclic_machine, random_cyclic_machine,
                            random_hmm, split_epsilons)

    def obs_text(rng, n, floats, symbols=("o", "p", "q")):
        rows = []
        for sym in symbols:
            c = rng.integers(0, 10, n) + (rng.random(n) if floats else 0.0)
            c[rng.random(n) < 0.1] = math.inf
            rows.append(" ".join([sym, *map(format_weight, c)]))
        return "\n".join([f"{n} {len(symbols)}", *rows]) + "\n"

    def seq_text(rng, symbols=("o", "p", "q"), frames=16):
        return " ".join(symbols[k] for k in rng.integers(0, len(symbols),
                                                         frames)) + "\n"

    def sized(make, lo=16, hi=64):
        for seed in range(1000):  # the first seed that gives lo..hi states
            rng = np.random.default_rng(seed)
            made = make(rng)
            m = made[0] if isinstance(made, tuple) else made
            if lo <= m.n_states <= hi:
                return rng, made

    rng = np.random.default_rng(0)
    cases = [
        ("fig1", FIG1_TEXT, "5 2\no 0 0 0 0 0\np 1 2.5 0 inf 0\n", "o p o\n"),
        ("fig2", FIG2_TEXT, "3 2\no 0 1 0.5\np inf 0 0\n", "o o p\n"),
        ("invalid", "I 0 0\nI 1 -inf\n0 1 a A 1\n0 1 b B 2\n"
         "1 2 <eps> <eps> inf\nF 2 0\n", "3 1\no 0 0 0\n", "o o\n"),
        ("no-accepting-path", "I 0 0\n0 1 a A 1\n2 2 b B 1\nF 2 0\n",
         "3 1\no 0 0 0\n", "o o\n"),
    ]
    for name, floats, make in (
            ("cyclic-float", True,
             lambda r: random_cyclic_machine(r, 24, float_weights=True)),
            ("cyclic-int", False,
             lambda r: random_cyclic_machine(r, 32, float_weights=False)),
            ("acyclic-eps", False,
             lambda r: split_epsilons(r, random_acyclic_machine(r, 48, 80), 16))):
        rng, m = sized(make)
        cases.append((name, serialize_text(m), obs_text(rng, m.n_states, floats),
                      seq_text(rng)))
    for name, floats in (("hmm-float", True), ("hmm-int", False)):
        rng, (m, obs) = sized(lambda r: random_hmm(r, 20, 3, float_costs=floats))
        rows = [" ".join([s, *map(format_weight, c)]) for s, c in obs.costs.items()]
        cases.append((name, serialize_text(m),
                      "\n".join([f"{m.n_states} {len(rows)}", *rows]) + "\n",
                      seq_text(rng, tuple(obs.costs))))
    return [(name, dict(zip(INPUTS, texts))) for name, *texts in cases]


def _golden():
    if __name__ == "__main__":  # recording: the data is being made
        return []
    data = json.loads(DATA.read_text())
    files = {*INPUTS, *OUTPUTS, "--obs", "--seq", "--metrics"}
    return [pytest.param(case["inputs"], rec, id=name + ":" + " ".join(
                a for a in rec["argv"] if a not in files))
            for name, case in data.items() for rec in case["runs"]]


@pytest.mark.parametrize("inputs, recorded", _golden())
def test_cli_output_unchanged(tmp_path, inputs, recorded):
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    assert run(tmp_path, recorded["argv"]) == recorded


if __name__ == "__main__":
    import tempfile

    data = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, inputs in _cases():
            for file, text in inputs.items():
                (Path(tmp) / file).write_text(text)
            data[name] = {"inputs": inputs,
                          "runs": [run(Path(tmp), argv) for argv in COMMANDS]}
    DATA.write_text(json.dumps(data, indent=1) + "\n")
