"""The column parsers against the per-line parsers they replaced.

parse_text converts its lines a column at a time and parse_observation_model
reads its costs with one np.loadtxt call. The references below are the
per-line parsers, kept here as the specification: on every text both give
the same machine (or model), bit for bit, or the same exception type,
message and line.
"""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropwfst import (EPSILON, EPSILON_SYM, ObservationModel, ParseError,
                      Wfst, parse_observation_model, parse_text, textio)
from tropwfst.semiring import trop_zeros
from tropwfst.textio import CHUNK, parse_weight


def reference_lines(text):
    """(file line number, tokens) of each non-blank line, one at a time."""
    lines = enumerate(text.splitlines(), start=1)
    return ((lineno, line.split()) for lineno, line in lines if line.split())


def reference_parse_text(text):
    """The per-line machine parser, plus the rules that a state index must
    fit int64 and be below max(2**16, len(text))."""
    limit = max(2**16, len(text))
    isyms, osyms = {EPSILON_SYM: EPSILON}, {EPSILON_SYM: EPSILON}
    initials, finals, arcs = [], [], []
    max_state = -1
    for lineno, toks in reference_lines(text):
        try:
            if toks[0] in ("I", "F"):
                if len(toks) != 3:
                    raise ValueError("expected 'I/F state weight'")
                state, w = int(toks[1]), parse_weight(toks[2])
                if state < 0:
                    raise ValueError("negative state index")
                if state >= 2**63:
                    raise ValueError(f"state index {state} does not fit int64")
                if state >= limit:
                    raise ValueError(f"state index {state} is not below "
                                     f"max(2**16, text length) = {limit}")
                (initials if toks[0] == "I" else finals).append((state, w))
                max_state = max(max_state, state)
            else:
                if len(toks) != 5:
                    raise ValueError("expected 'src dst ilabel olabel weight'")
                src, dst = int(toks[0]), int(toks[1])
                if min(src, dst) < 0:
                    raise ValueError("negative state index")
                if max(src, dst) >= 2**63:
                    raise ValueError(f"state index {max(src, dst)} "
                                     "does not fit int64")
                if max(src, dst) >= limit:
                    raise ValueError(f"state index {max(src, dst)} is not "
                                     f"below max(2**16, text length) = {limit}")
                w = parse_weight(toks[4])
                arcs.append((src, dst, toks[2], toks[3], w))
                max_state = max(max_state, src, dst)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    n = max_state + 1
    if n == 0:
        raise ParseError("no states in input")
    lam = trop_zeros(n)
    rho = trop_zeros(n)
    for state, w in initials:
        lam[state] = min(lam[state], w)
    for state, w in finals:
        rho[state] = min(rho[state], w)
    arcs = [(s, d, isyms.setdefault(i, len(isyms)),
             osyms.setdefault(o, len(osyms)), w) for s, d, i, o, w in arcs]
    return Wfst(n, arcs, lam, rho, tuple(isyms), tuple(osyms))


def reference_parse_observation_model(text):
    """The per-line observation-model parser."""
    lines = reference_lines(text)
    lineno, header = next(lines, (None, None))
    if header is None:
        raise ParseError("empty observation model")
    try:
        n_states, n_symbols = (int(t) for t in header)
    except ValueError:
        raise ParseError("expected header 'n_states n_symbols'", lineno) from None
    if n_states < 0 or n_symbols < 0:
        raise ParseError("header counts must not be negative", lineno)
    costs = {}
    for lineno, toks in lines:
        if len(toks) != n_states + 1:
            raise ParseError(f"expected symbol plus {n_states} costs", lineno)
        if toks[0] in costs:
            raise ParseError(f"duplicate symbol {toks[0]!r}", lineno)
        try:
            c = np.array([float(t) for t in toks[1:]])
            if not np.isfinite(c).all():
                c = np.array([parse_weight(t) for t in toks[1:]])
            if (c == -np.inf).any():
                raise ValueError(f"cost vector for {toks[0]!r} has a -inf entry")
            costs[toks[0]] = c
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    if len(costs) != n_symbols:
        raise ParseError(f"expected {n_symbols} symbol lines, got {len(costs)}")
    return ObservationModel(n_states=n_states, costs=costs)


def outcome(call):
    """What a parser gives: the exception's type, message and line, or the
    parsed object."""
    try:
        return call()
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)


def machine_key(m):
    if isinstance(m, tuple):
        return m
    return (m.n_states, m.arcs.tobytes(), m.lam.tobytes(), m.rho.tobytes(),
            m.isyms, m.osyms)


def assert_same_machine(text):
    got = outcome(lambda: parse_text(text))
    want = outcome(lambda: reference_parse_text(text))
    assert machine_key(got) == machine_key(want)
    return got


STATES = st.integers(0, 7).map(str)
SYMBOLS = st.sampled_from(["a", "b", "<eps>", "x-y", "Ω", "1.5"])
WEIGHTS = st.one_of(
    st.integers(-50, 50).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),  # long reprs
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["inf", "+Inf", "infinity", "-INFINITY", "-0.0", "1_000",
                     "1e-320", ".5", "5."]))
ROWS = st.one_of(
    st.tuples(st.sampled_from("IF"), STATES, WEIGHTS),
    st.tuples(STATES, STATES, SYMBOLS, SYMBOLS, WEIGHTS))
# a fault replaces one token: a bad int, a negative, over-int64 or
# over-the-bound index, NaN, an overflowing decimal or a new symbol, by
# where it lands
BAD = ["x", "1.5", "-1", "-0", "9223372036854775808", "99999999999999999999",
       "70000", "nan", "NaN", "1e400", "-1e400", "zz", "I"]


@st.composite
def machine_texts(draw):
    rows = [list(r) for r in draw(st.lists(ROWS, max_size=25))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["replace", "drop", "extra"]))
        if kind == "replace":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD))
        elif kind == "drop":
            row.pop()
        else:
            row.append("1")
    lines = []
    for row in rows:
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(row))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=400, deadline=None)
@given(machine_texts())
def test_parse_text_matches_per_line_parser(text):
    assert_same_machine(text)


def test_repeated_end_lines_keep_the_first_least_weight():
    m = assert_same_machine("I 0 0\nI 0 -0.0\nF 0 -0.0\nF 0 0\nI 0 5\n")
    assert not np.signbit(m.lam[0]) and np.signbit(m.rho[0])


def long_text(seed, lines=3 * CHUNK + 7):
    """A valid machine text of more than two chunks, I/F lines among the
    arcs, with no blank line, so line k of a chunk is file line k + 1."""
    r = random.Random(seed)
    rows = []
    for _ in range(lines):
        if r.random() < 0.1:
            rows.append(f"{r.choice('IF')} {r.randrange(60)} "
                        f"{r.choice(['3', '0.25', 'inf', repr(r.random())])}")
        else:
            rows.append(f"{r.randrange(60)} {r.randrange(60)} "
                        f"{r.choice('abc')} {r.choice(['a', 'x-y'])} "
                        f"{r.choice([str(r.randrange(9)), repr(r.uniform(0, 9))])}")
    return rows


FAULTS = {  # where in the line, and what
    "count": lambda toks: toks[:-1],
    "bad int": lambda toks: toks[:1] + ["x"] + toks[2:],
    "negative": lambda toks: toks[:1] + ["-3"] + toks[2:],
    "over int64": lambda toks: toks[:1] + ["9223372036854775808"] + toks[2:],
    "over the bound": lambda toks: toks[:1] + ["1000000000"] + toks[2:],
    "nan": lambda toks: toks[:-1] + ["nan"],
    "overflow": lambda toks: toks[:-1] + ["1e400"],
}


@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("line", [0, CHUNK - 1, CHUNK, 2 * CHUNK - 1,
                                  2 * CHUNK, 3 * CHUNK + 6])
def test_fault_at_a_chunk_edge(fault, line):
    rows = long_text(line)
    rows[line] = " ".join(FAULTS[fault](rows[line].split()))
    got = assert_same_machine("\n".join(rows) + "\n")
    assert got[0] is ParseError and got[2] == line + 1


@pytest.mark.parametrize("kind", ["I", "F", "arc"])
@pytest.mark.parametrize("state", ["bad int", "negative", "over int64",
                                   "over the bound"])
@pytest.mark.parametrize("weight", ["nan", "overflow"])
def test_two_faults_on_a_line_give_the_first_rule(kind, state, weight):
    # an I/F line's weight is read before the range checks, an arc's after
    rows = long_text(11)
    line = next(k for k, r in enumerate(rows) if k > CHUNK and (
        r[0] == kind or kind == "arc" and r[0] not in "IF"))
    rows[line] = " ".join(FAULTS[weight](FAULTS[state](rows[line].split())))
    got = assert_same_machine("\n".join(rows) + "\n")
    assert got[0] is ParseError and got[2] == line + 1


def test_finite_weights_whose_sum_overflows():
    text = "I 0 1e308\n0 1 a a 1.7e308\n1 0 b b 1.7e308\nF 1 -1e308\n"
    assert isinstance(assert_same_machine(text), Wfst)


def test_long_texts_with_blank_lines_and_crlf():
    for seed in range(3):
        rows = long_text(seed)
        text = "\r\n".join(r + "\r\n" * (k % 97 == 0) for k, r in enumerate(rows))
        assert isinstance(assert_same_machine(text), Wfst)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0c"])
@pytest.mark.parametrize("size", [1, 2, 3, 50])
def test_token_chunks_numbers_lines_as_splitlines(monkeypatch, end, size):
    # slices of a few characters, so a CRLF pair and blank lines meet
    # every slice boundary
    monkeypatch.setattr(textio, "SLICE", size)
    rows = long_text(size, lines=2 * CHUNK + 3)
    text = "".join(r + end * (1 + (k % 7 == 0)) for k, r in enumerate(rows))
    chunks = list(textio.token_chunks(text))
    assert [first for first, _ in chunks] == list(range(1, len(chunks) *
                                                        CHUNK, CHUNK))
    assert [toks for _, chunk in chunks for toks in chunk] == [
        line.split() for line in text.splitlines()]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0c"])
def test_long_texts_name_a_bad_line_beyond_the_first_slice(end):
    rows = long_text(8, lines=16 * CHUNK)
    text = end.join(rows) + end
    assert len(text) > 2 * textio.SLICE
    assert isinstance(assert_same_machine(text), Wfst)
    rows[-3] = " ".join(FAULTS["nan"](rows[-3].split()))
    got = assert_same_machine(end.join(rows) + end)
    assert got[0] is ParseError and got[2] == len(rows) - 2


@pytest.mark.parametrize("text,lineno", [
    ("I 0 0\n0 9223372036854775808 a a 1\nF 1 0\n", 2),
    ("I 0 0\n9223372036854775808 1 a a 1\nF 1 0\n", 2),
    ("I 9223372036854775808 0\n0 1 a a 1\nF 1 0\n", 1),
    ("I 0 0\n0 1 a a 1\nF 99999999999999999999 0\n", 3),
])
def test_state_index_beyond_int64_names_its_line(text, lineno):
    with pytest.raises(ParseError, match=f"line {lineno}: state index "
                       r"\d+ does not fit int64"):
        parse_text(text)


def test_no_per_token_weight_parse_on_a_valid_text(monkeypatch):
    calls = []
    monkeypatch.setattr(textio, "parse_weight",
                        lambda tok: calls.append(tok) or parse_weight(tok))
    rows = long_text(4)
    text = "\n".join(rows) + "\n"
    m = parse_text(text)
    assert calls == [r.split()[-1] for r in rows if r.endswith(" inf")]
    assert machine_key(m) == machine_key(reference_parse_text(text))


@pytest.mark.parametrize("end", ["\n", "\r", "\x0c"])
def test_parse_peak_memory_is_a_few_times_the_arcs(end):
    # every line end cuts the text into slices, so none is split whole
    r = random.Random(5)
    n = 5000
    rows = ["I 0 0"] + [f"F {s} {r.randrange(9)}" for s in range(0, n, 7)]
    rows += [f"{s} {r.randrange(n)} s{r.randrange(20)} t{r.randrange(20)} "
             f"{r.randrange(100) / 4}" for s in range(n) for _ in range(10)]
    text = end.join(rows) + end
    assert len(rows) > 50_000
    tracemalloc.start()
    try:
        m = parse_text(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(m.arcs) == 50_000
    # measured 2.5 times with each line end: the arcs in text order, a row
    # per line, and their sorted copy (3.25 times with "\r" or "\x0c" when
    # only "\n" ended a slice)
    assert peak < 3 * m.arcs.nbytes


@pytest.mark.parametrize("end", ["\n", ""])
def test_arc_lines_of_the_fewest_characters(end):
    # 9 characters and a line end a line, none at the last with end "":
    # parse_text's one arc array has just enough rows, (len(text) + 1) // 10
    rows = [f"{k % 10} {k // 10 % 10} a b {k % 7}" for k in range(3 * CHUNK)]
    m = assert_same_machine("\n".join(rows) + end)
    assert len(m.arcs) == len(rows)


def model_key(obs):
    if isinstance(obs, tuple):
        return obs
    return obs.n_states, [(s, c.tobytes()) for s, c in obs.costs.items()]


def assert_same_model(text):
    got = outcome(lambda: parse_observation_model(text))
    want = outcome(lambda: reference_parse_observation_model(text))
    assert model_key(got) == model_key(want)
    return got


def decimals(r):
    """A decimal string of up to 17 significant digits."""
    digits = str(r.randrange(10 ** r.randint(1, 17)))
    point = r.randint(0, len(digits))
    mantissa = digits[:point] + "." + digits[point:] if point else digits
    exponent = f"e{r.randint(-30, 30)}" if r.random() < 0.5 else ""
    return r.choice(["", "-", "+"]) + mantissa + exponent


COSTS = st.one_of(
    st.integers(0, 10**6).map(lambda i: random.Random(i)).map(decimals),
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
    st.sampled_from(["inf", "+Infinity", "1_000", "-0.5e1", "nan", "1e400",
                     "-inf", "x", "0x1p3", "1d5", "#1", "١"]))
SEPARATORS = st.sampled_from([" ", "\t", "  ", "\xa0", "　", "\x1f"])


@st.composite
def model_texts(draw):
    n = draw(st.integers(0, 4))
    rows = [[draw(st.sampled_from(["u", "w", "x-y", "#", "Ω"]))]
            + [draw(COSTS) for _ in range(n + draw(st.sampled_from(
                [0, 0, 0, 0, 1, -1])))]
            for _ in range(draw(st.integers(0, 5)))]
    header = f"{n} {len(rows) + draw(st.sampled_from([0, 0, 0, 1]))}"
    lines = [draw(st.sampled_from(["", " "]))] * draw(st.integers(0, 1))
    lines.append(header)
    for row in rows:
        lines.append(draw(SEPARATORS).join(row) + draw(st.sampled_from(["", " "])))
        lines += [""] * draw(st.integers(0, 1))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(model_texts())
def test_observation_model_matches_per_line_parser(text):
    assert_same_model(text)


def recorded_weights(monkeypatch):
    """The token lists that textio.weights is called on from now on."""
    calls = []
    weights = textio.weights
    monkeypatch.setattr(textio, "weights", lambda toks: calls.append(
        list(toks)) or weights(toks))
    return calls


def test_observation_costs_are_float_of_each_token(monkeypatch):
    r = random.Random(9)
    n = 60
    rows = [[f"o{k}"] + [decimals(r) for _ in range(n)] for k in range(40)]
    text = f"{n} {len(rows)}\n" + "".join(" ".join(row) + "\n" for row in rows)
    calls = recorded_weights(monkeypatch)
    obs = parse_observation_model(text)
    assert calls == []  # loadtxt read every valid row
    for row in rows:
        assert obs.cost(row[0]).tobytes() == np.array(
            [float(t) for t in row[1:]]).tobytes()


@pytest.mark.parametrize("text", [
    "2 1\nu 0 1 2\n",  # a row too long: loadtxt alone would skip the column
    "2 2\nu 0 1\nw 0 1 2\n",
    "2 2\nu 0 1\nw 0\n",
    "2 2\nu 0 1\nu 0 1\n",
    "2 1\nu 0 1_0\n",
    "2 1\nu 0 inf\n",
    "2 0\n\n",
    "0 2\nu\nw\n",
    "-1 1\nu\n",
    "-1 0\n",
    "2 -1\n",
    f"{2**70} 0\n",
    f"{2**70} 1\nu 1\n",
])
def test_observation_model_edge_cases(text):
    assert_same_model(text)


@pytest.mark.parametrize("text, line", [("-1 0\n", 1), ("2 -1\n", 1),
                                        ("\n-3 -3\nu\n", 2)])
def test_negative_header_count_is_a_parse_error(text, line):
    with pytest.raises(ParseError) as info:
        parse_observation_model(text)
    assert str(info.value) == f"line {line}: header counts must not be negative"


def test_observation_model_cost_of_inf_is_exact():
    obs = assert_same_model("3 2\nu 0 inf 1\nw 2 2 Infinity\n")
    assert obs.cost("u")[1] == math.inf and obs.cost("w")[2] == math.inf


def model_lines(seed, n=7, symbols=40):
    """The lines of a valid observation model, some of them blank."""
    r = random.Random(seed)
    lines = ["", f"{n} {symbols}"]
    for k in range(symbols):
        lines.append(f"o{k} " + " ".join(decimals(r) for _ in range(n)))
        lines += [r.choice(["", "  ", "\t"])] * (k % 5 == 0)
    return lines


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0c"])
@pytest.mark.parametrize("size", [1, 2, 3, 50])
def test_observation_model_lines_across_slices(monkeypatch, end, size):
    # slices of a few characters end on every line, or inside the next one;
    # the valid text, and each with a bad cost on its last symbol line
    lines = model_lines(size)
    line = max(k for k, row in enumerate(lines) if row.startswith("o"))
    head = lines[line].rsplit(None, 1)[0]
    texts = [lines] + [lines[:line] + [f"{head} {bad}"] + lines[line + 1:]
                       for bad in ["x", "nan", "1e400"]]
    wants = [outcome(lambda: parse_observation_model("\n".join(rows) + "\n"))
             for rows in texts]
    assert isinstance(wants[0], ObservationModel)
    assert all(w[0] is ParseError and w[2] == line + 1 for w in wants[1:])
    calls = recorded_weights(monkeypatch)
    monkeypatch.setattr(textio, "SLICE", size)
    for k, (rows, want) in enumerate(zip(texts, wants)):
        got = assert_same_model(end.join(rows) + end)
        assert model_key(got) == model_key(want)
        assert k or calls == []  # loadtxt read the lines of every slice


@pytest.mark.parametrize("text", ["2 0\n", "2 0\n\n \t\n"])
def test_a_model_of_no_symbol_lines_warns_nothing(text):
    # np.loadtxt warns on a text of no rows, and the CLI would print it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_observation_model(text).costs == {}


def test_observation_model_parse_holds_no_line_list():
    # 500 costs a line, each about 19 characters: the text is 1.9 MB and
    # the costs 0.8 MB. Measured 1.3 times the costs (3.6 times when the
    # whole text was split into one list of lines).
    r = random.Random(3)
    n, symbols = 500, 200
    rows = [f"o{k} " + " ".join(repr(r.uniform(0, 20)) for _ in range(n))
            for k in range(symbols)]
    text = "\n".join([f"{n} {symbols}", *rows]) + "\n"
    tracemalloc.start()
    try:
        obs = parse_observation_model(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(obs.costs) == symbols
    assert peak < 2 * n * symbols * 8
