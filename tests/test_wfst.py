import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropwfst import (ARC, EPSILON_SYM, Arc, ObservationModel, ParseError,
                      UnknownSymbolError, Wfst, build_matrices,
                      compute_potentials, decode_with_metrics, is_pushed,
                      parse_text, pointwise_min, push_weights, remove_epsilons,
                      serialize_text, trim, validate, viterbi_decode)
from tropwfst import wfst
from tropwfst.textio import CHUNK, format_weight

from conftest import FIG1_TEXT, FIG2_TEXT
from generators import (random_acyclic_machine, random_cyclic_machine,
                        split_epsilons)

INF = math.inf


class TestValidate:
    def test_fig1_clean(self, fig1):
        assert validate(fig1) == []

    def test_duplicate_pair(self):
        m = Wfst(2, [Arc(0, 1, 1, 1, 1.0), Arc(0, 1, 2, 2, 2.0)],
                 np.array([0.0, INF]), np.array([INF, 0.0]),
                 (EPSILON_SYM, "a", "b"), (EPSILON_SYM, "a", "b"))
        assert any("duplicate" in p for p in validate(m))

    def test_nonfinite_weight_and_missing_endpoints(self):
        m = Wfst(2, [Arc(0, 1, 0, 0, INF)],
                 np.full(2, INF), np.full(2, INF))
        problems = validate(m)
        assert any("non-finite" in p for p in problems)
        assert any("no initial" in p for p in problems)
        assert any("no final" in p for p in problems)


    def test_messages_in_arc_order(self):
        m = Wfst(2, [Arc(0, 1, 1, 1, 1.0), Arc(1, 1, 1, 1, 1.0),
                     Arc(0, 1, 1, 1, INF), Arc(1, 0, 1, 1, -INF)],
                 np.array([0.0, INF]), np.array([INF, 0.0]))
        assert validate(m) == ["arc 0->1: duplicate state pair",
                               "arc 0->1: non-finite weight",
                               "arc 1->0: non-finite weight"]

    def test_negative_infinite_initial_and_final_weights(self):
        m = parse_text("I 0 0\nI 1 -inf\n0 1 a a 1\nF 1 0\nF 0 -inf\n")
        assert validate(m) == ["initial weight of state 1 is -inf",
                               "final weight of state 0 is -inf"]
        with pytest.raises(ValueError, match="is -inf"):
            build_matrices(m)


class TestConstructor:
    def test_index_out_of_range(self):
        with pytest.raises(ValueError,
                           match=r"^arc 7->1: state outside \[0, 3\)$"):
            Wfst(3, [Arc(7, 1, 0, 0, 1.0)],
                 np.array([0.0, INF, INF]), np.array([INF, INF, 0.0]))

    @pytest.mark.parametrize("lam", [np.zeros(3), np.zeros(1), np.zeros((2, 1)),
                                     np.float64(0.0)])
    def test_weight_vector_shape(self, lam):
        with pytest.raises(ValueError, match=r"^lam has shape .*, not \(2,\)$"):
            Wfst(2, [], lam, np.zeros(2))
        with pytest.raises(ValueError, match=r"^rho has shape "):
            Wfst(2, [], np.zeros(2), lam)

    def test_no_states(self):
        m = Wfst(0, [], np.zeros(0), np.zeros(0))
        assert validate(m) == ["no initial state", "no final state"]
        with pytest.raises(ValueError, match=r"outside \[0, 0\)"):
            Wfst(0, [Arc(0, 0, 1, 1, 1.0)], np.zeros(0), np.zeros(0))


@pytest.mark.parametrize("seed", range(60))
def test_constructor_names_first_arc_outside(seed):
    # a few indices outside [0, n) among in-range ones, int64 extremes too
    rng = np.random.default_rng(9500 + seed)
    n = int(rng.integers(1, 6))
    outside = [-2**63, -2**62, -3, -1, n, n + 4, 2**62, 2**63 - 1]

    def state():
        if rng.random() < 0.9:
            return int(rng.integers(0, n))
        return int(rng.choice(outside))

    arcs = [(state(), state(), 1, 1, 1.0)
            for _ in range(int(rng.integers(0, 25)))]
    first = next(((s, d) for s, d, *_ in arcs
                  if not (0 <= s < n and 0 <= d < n)), None)
    if first is None:
        assert len(Wfst(n, arcs, np.zeros(n), np.zeros(n)).arcs) == len(arcs)
    else:
        with pytest.raises(ValueError) as info:
            Wfst(n, arcs, np.zeros(n), np.zeros(n))
        assert str(info.value) == (f"arc {first[0]}->{first[1]}: state "
                                   f"outside [0, {n})")


def reference_arc_problems(m):
    """validate's per-arc messages by a plain loop over the arcs."""
    problems, seen = [], set()
    for s, d, w in zip(m.arcs["src"].tolist(), m.arcs["dst"].tolist(),
                       m.arcs["weight"].tolist()):
        if (s, d) in seen:
            problems.append(f"arc {s}->{d}: duplicate state pair")
        seen.add((s, d))
        if not math.isfinite(w):
            problems.append(f"arc {s}->{d}: non-finite weight")
    return problems


@pytest.mark.parametrize("seed", range(60))
def test_validate_matches_per_arc_loop(seed):
    # few states, so duplicates are common
    rng = np.random.default_rng(9000 + seed)
    n = int(rng.integers(1, 6))
    weights = [1.0, -2.5, 0.0, INF, -INF, math.nan]

    def state():
        return int(rng.integers(0, n))

    arcs = [(state(), state(), 1, 1, float(rng.choice(weights)))
            for _ in range(int(rng.integers(0, 25)))]
    m = Wfst(n, arcs, np.zeros(n), np.zeros(n))
    assert validate(m) == reference_arc_problems(m)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))))
def test_serialize_orders_arcs_like_lexsort(case):
    # the weight is the insertion index, so stability shows in the text
    n, pairs = case
    m = Wfst(n, [(s, d, 0, 0, float(k)) for k, (s, d) in enumerate(pairs)],
             np.zeros(n), np.zeros(n))
    lines = serialize_text(m).splitlines()[n:n + len(pairs)]
    order = sorted(range(len(pairs)), key=pairs.__getitem__)  # stable
    assert [int(line.split()[-1]) for line in lines] == order


@pytest.mark.parametrize("seed", range(20))
def test_shuffled_arcs_give_the_sorted_machine(seed):
    # few states, so state pairs repeat and their order within a pair shows
    rng = np.random.default_rng(7000 + seed)
    n = int(rng.integers(1, 6))
    arcs = [(int(rng.integers(0, n)), int(rng.integers(0, n)), k % 3, 1,
             float(rng.choice([1.5, -2.0, INF, k]))) for k in range(30)]
    shuffled = [arcs[k] for k in rng.permutation(len(arcs))]
    ends = np.where(rng.random(n) < 0.5, 0.0, INF), np.zeros(n)
    syms = (EPSILON_SYM, "a", "b"), (EPSILON_SYM, "x")
    got = Wfst(n, shuffled, *ends, *syms)
    want = Wfst(n, sorted(shuffled, key=lambda a: a[:2]), *ends, *syms)
    assert got.arcs.tobytes() == want.arcs.tobytes()
    assert serialize_text(got) == serialize_text(want)
    problems = validate(got)
    assert problems == validate(want)
    pairs = [tuple(map(int, re.match(r"arc (\d+)->(\d+):", p).groups()))
             for p in problems if p.startswith("arc ")]
    assert pairs == sorted(pairs) and any("duplicate" in p for p in problems)


class TestBuildMatrices:
    def test_fig2_split(self, fig2):
        view = build_matrices(fig2)
        assert view.E[0, 1] == 1.0
        assert np.isinf(np.delete(view.E.ravel(), 1)).all()
        assert view.A_eps[1, 2] == 2.0
        assert np.array_equal(view.A, pointwise_min(view.A_eps, view.E))

    def test_no_eps_arcs(self, fig1):
        assert np.isinf(build_matrices(fig1).E).all()

    def test_only_eps_arcs(self):
        m = parse_text("I 0 0\n0 1 <eps> <eps> 2\nF 1 0\n")
        view = build_matrices(m)
        assert np.isinf(view.A_eps).all()
        assert view.E[0, 1] == 2.0

    def test_label_matrices(self, fig1):
        view = build_matrices(fig1)
        assert view.sigma_i[0, 1] == fig1.isyms.index("a")
        assert view.sigma_o[1, 3] == fig1.osyms.index("Z")
        assert view.sigma_i[3, 0] == -1

    def test_rejects_invalid(self):
        m = Wfst(2, [], np.full(2, INF), np.full(2, INF))
        with pytest.raises(ValueError):
            build_matrices(m)

    @pytest.mark.parametrize("seed", range(20))
    def test_decomposition_on_random_machines(self, seed):
        rng = np.random.default_rng(seed)
        m = split_epsilons(rng, random_acyclic_machine(rng),
                           int(rng.integers(0, 4)))
        view = build_matrices(m)
        assert np.array_equal(view.A, pointwise_min(view.A_eps, view.E))


class TestTextFormat:
    def test_fig1_round_trip(self, fig1):
        assert serialize_text(fig1) == FIG1_TEXT
        assert fig1.n_states == 5
        assert len(fig1.arcs) == 4

    def test_single_state_acceptor(self):
        m = parse_text("I 0 0\nF 0 0\n")
        assert m.n_states == 1 and len(m.arcs) == 0
        assert serialize_text(m) == "I 0 0\nF 0 0\n"

    def test_too_few_fields(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_text("0 1 a\n")

    def test_bad_weight(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_text("I 0 0\n0 1 a A oops\n")

    @pytest.mark.parametrize("tok", ["1e400", "-1e400", "1E+999"])
    def test_weight_overflowing_float64(self, tok):
        with pytest.raises(ParseError, match=re.escape(
                f"line 2: weight '{tok}' overflows float64")):
            parse_text(f"I 0 0\n0 1 a a {tok}\nF 1 0\n")

    @pytest.mark.parametrize("tok", ["inf", "+Inf", "infinity", "-INFINITY"])
    def test_spelled_out_infinity(self, tok):
        m = parse_text(f"I 0 0\n0 1 a a 1\nF 1 0\nF 0 {tok}\n")
        assert m.rho[0] == float(tok)

    @pytest.mark.parametrize("text,lineno", [
        ("I -1 0\n0 1 a a 1\nF 1 0\n", 1),
        ("I 0 0\n0 1 a a 1\nF -1 0\n", 3),
        ("I 0 0\n-2 1 a a 1\nF 1 0\n", 2),
        ("I 0 0\n0 -1 a a 1\nF 1 0\n", 2),
    ])
    def test_negative_state_index(self, text, lineno):
        with pytest.raises(ParseError, match=f"line {lineno}: negative state"):
            parse_text(text)

    def test_fractional_weights_round_trip(self):
        text = "I 0 0.5\n0 1 a A 0.1\nF 1 2\n"
        assert serialize_text(parse_text(text)) == text

    def test_fig2_round_trip(self, fig2):
        assert serialize_text(fig2) == FIG2_TEXT

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_random(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m = split_epsilons(rng, random_acyclic_machine(rng),
                           int(rng.integers(0, 3)))
        text = serialize_text(m)
        again = parse_text(text)
        assert serialize_text(again) == text
        assert validate(again) == []


def symbol(syms, label):
    """syms[label], or UnknownSymbolError for a label outside [0, len)."""
    if not 0 <= label < len(syms):
        raise UnknownSymbolError(label)
    return syms[label]


def reference_serialize_text(m):
    """The per-line writer that serialize_text replaced, kept as its
    specification: one f-string per line, each label through symbol and
    each weight through format_weight."""
    key = m.arcs["src"] * m.n_states + m.arcs["dst"]
    arcs = m.arcs[np.argsort(key, kind="stable")]
    lines = [f"I {i} {format_weight(w)}" for i, w in enumerate(m.lam.tolist())
             if math.isfinite(w)]
    lines += [f"{s} {d} {symbol(m.isyms, i)} {symbol(m.osyms, o)} "
              f"{format_weight(w)}" for s, d, i, o, w in arcs.tolist()]
    lines += [f"F {i} {format_weight(w)}" for i, w in enumerate(m.rho.tolist())
              if math.isfinite(w)]
    return "\n".join(lines) + "\n"


def outcome(call):
    try:
        return call()
    except UnknownSymbolError as exc:
        return type(exc), exc.args


# integers, -0.0, +-inf and the floats whose repr is not format_weight's
WEIGHTS = [0.0, -0.0, 3.0, -7.0, INF, -INF, 1e16, -1e16, 1e-5, 1e300, -1e300,
           0.1, 2.5, 1 / 3, 123456.789, 5e-324]


def random_machine(rng, k, n, weights=WEIGHTS, bad_labels=0):
    """k arcs on at most 40 of n states, so most states are on no line; about
    half the weights drawn from weights, the others uniform. bad_labels
    arcs get a label outside its table."""
    states = rng.choice(n, size=min(n, 40), replace=False)  # gaps between
    arcs = np.empty(k, ARC)
    arcs["src"], arcs["dst"] = rng.choice(states, k), rng.choice(states, k)
    arcs["ilabel"] = rng.integers(0, 4, k)
    arcs["olabel"] = rng.integers(0, 3, k)
    arcs["weight"] = np.where(rng.random(k) < 0.5, rng.choice(weights, k),
                              rng.uniform(-50, 50, k))
    for j in rng.choice(k, bad_labels):
        arcs[str(rng.choice(["ilabel", "olabel"]))][j] = rng.choice([-1, 4, 9])
    ends = [np.where(rng.random(n) < 0.1, rng.choice(weights, n), INF)
            for _ in "IF"]
    return Wfst(n, arcs, *ends, (EPSILON_SYM, *"abc"), (EPSILON_SYM, *"xy"))


class TestWriterAgainstReference:
    @pytest.mark.parametrize("k", [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1,
                                   2 * CHUNK + 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_block_edges(self, k, seed):
        rng = np.random.default_rng(k * 10 + seed)
        m = random_machine(rng, k, int(rng.integers(1, 3000)))
        assert serialize_text(m) == reference_serialize_text(m)

    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_each_weight(self, weight):
        m = random_machine(np.random.default_rng(1), CHUNK + 3, 50, [weight])
        assert serialize_text(m) == reference_serialize_text(m)

    def test_no_arcs_and_no_lines(self):
        for lam in ([INF, INF], [0.0, INF]):
            m = Wfst(2, [], lam, [INF, INF])
            assert serialize_text(m) == reference_serialize_text(m)

    @pytest.mark.parametrize("k", [1, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("seed", range(8))
    def test_unknown_label(self, k, seed):
        rng = np.random.default_rng(500 + seed)
        m = random_machine(rng, k, 60, bad_labels=int(rng.integers(1, 4)))
        want = outcome(lambda: reference_serialize_text(m))
        assert want[0] is UnknownSymbolError
        assert outcome(lambda: serialize_text(m)) == want

    def test_peak_memory_is_a_few_times_the_text(self):
        # about 20 000 arcs; holding one string per line took 9.2 times
        # the text, a block at a time takes 2.4
        rng = np.random.default_rng(3)
        m = random_machine(rng, 20_000, 2000, weights=np.arange(100) / 8)
        tracemalloc.start()
        try:
            text = serialize_text(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == reference_serialize_text(m)
        assert peak < 3 * len(text)


SYMS = (EPSILON_SYM, "a", "b")


def labelled(isyms, osyms, labels):
    """A chain with one arc per (ilabel, olabel) pair of labels."""
    n = len(labels) + 1
    arcs = [(k, k + 1, i, o, 1.0) for k, (i, o) in enumerate(labels)]
    return Wfst(n, arcs, [0.0] + [INF] * (n - 1), [INF] * (n - 1) + [0.0],
                isyms, osyms)


class TestSymbolTable:
    """What serialize_text needs of a machine's symbol tuples, checked
    before it builds any text."""

    @pytest.fixture(autouse=True)
    def no_text_built(self, monkeypatch):
        def built(*args):
            raise AssertionError("text built before the table rules ran")
        monkeypatch.setattr(wfst, "_end_lines", built)

    @pytest.mark.parametrize("syms", [(), ("a",), ("a", EPSILON_SYM),
                                      ("<EPS>", "a")])
    def test_id_0_is_eps(self, syms):
        for tables in ((syms, SYMS), (SYMS, syms)):
            with pytest.raises(ValueError, match=re.escape(
                    f"symbols start {list(syms[:1])}, not ['<eps>']")):
                serialize_text(labelled(*tables, [(0, 0)]))

    @pytest.mark.parametrize("sym", ["", "a b", " a", "a\t", "a\nb", "\xa0"])
    def test_symbol_that_is_not_one_token(self, sym):
        # the text would hold it as no token or as several, also when it
        # labels no arc
        syms = (*SYMS, sym, "c")
        for tables in ((syms, SYMS), (SYMS, syms)):
            with pytest.raises(ValueError, match=re.escape(
                    f"symbol {sym!r} is not one text token")):
                serialize_text(labelled(*tables, [(1, 1)]))

    @pytest.mark.parametrize("syms, sym", [
        ((EPSILON_SYM, "a", "a"), "a"),
        ((EPSILON_SYM, "a", EPSILON_SYM), EPSILON_SYM),
        ((EPSILON_SYM, "b", "a", "a", "b"), "b"),
    ])
    def test_repeated_symbol(self, syms, sym):
        # parse_text of the text would give the two ids one symbol
        for tables in ((syms, SYMS), (SYMS, syms)):
            with pytest.raises(ValueError,
                               match=re.escape(f"symbol {sym!r} repeats")):
                serialize_text(labelled(*tables, [(1, 1)]))

    def test_first_symbol_breaking_a_rule_is_named(self):
        m = labelled((EPSILON_SYM, "a", "a", "b c"), SYMS, [(1, 1)])
        with pytest.raises(ValueError, match="'a' repeats"):
            serialize_text(m)
        m = labelled((EPSILON_SYM, "b c", "a", "a"), SYMS, [(1, 1)])
        with pytest.raises(ValueError, match="'b c' is not one text token"):
            serialize_text(m)

    @pytest.mark.parametrize("label", [-1, -3, 3])
    def test_id_out_of_range_is_unknown(self, label):
        # 3 is one past the end; a bare tuple index would read -1 as the
        # last symbol
        for bad in ((label, 2), (2, label)):
            m = labelled(SYMS, SYMS, [(1, 1), bad, (2, 2)])
            with pytest.raises(UnknownSymbolError) as info:
                serialize_text(m)
            assert info.value.args == (label,)
            assert type(info.value.args[0]) is int

    def test_negative_label_does_not_serialize(self):
        m = Wfst(2, [Arc(0, 1, -1, -1, 1.0)], np.array([0.0, INF]),
                 np.array([INF, 0.0]), SYMS, SYMS)
        with pytest.raises(UnknownSymbolError):
            serialize_text(m)

    @pytest.mark.parametrize("labels, label", [
        ([(1, 1), (1, 5), (7, 9)], 5),  # the first arc with a bad label
        ([(1, 1), (-1, -2), (7, 1)], -1),  # ilabel before olabel
        ([(1, 1), (2, -2), (-1, 1)], -2),
        ([(1, 1), (2**40, 1)], 2**40),
    ])
    def test_first_arc_with_a_label_outside(self, labels, label):
        with pytest.raises(UnknownSymbolError) as info:
            serialize_text(labelled(SYMS, SYMS, labels))
        assert info.value.args == (label,)


def cyclic(seed, float_weights):
    return random_cyclic_machine(np.random.default_rng(7000 + seed),
                                 float_weights=float_weights)


MACHINES = ([lambda: parse_text(FIG1_TEXT), lambda: parse_text(FIG2_TEXT)]
            + [lambda s=s, fw=fw: cyclic(s, fw)
               for fw in (False, True) for s in range(40)])


def is_plain_arc_array(arcs):
    return (type(arcs) is np.ndarray and arcs.dtype == ARC
            and arcs.dtype.type is np.void)


class ArcGuard(np.ndarray):
    """An arc array that raises when its records are iterated one by one."""

    def __iter__(self):
        if self.dtype.names:
            raise AssertionError("arc records iterated one by one")
        return super().__iter__()


class TestArcRecords:
    def test_empty(self):
        m = Wfst(1, [], [0.0], [0.0])
        assert is_plain_arc_array(m.arcs) and m.arcs.shape == (0,)

    @pytest.mark.parametrize("make", MACHINES)
    def test_every_machine_holds_a_plain_array(self, make):
        m = make()  # parse_text for Fig. 1 and 2, Arcs for the others
        n, records = m.n_states, m.arcs.tolist()
        # every state that can terminate is initial, so pushing is defined
        lam = np.where(np.isfinite(compute_potentials(m).v), 0.0, INF)
        for built in (m, Wfst(n, [Arc(*a) for a in records], lam, m.rho),
                      Wfst(n, records, lam, m.rho),
                      Wfst(n, m.arcs.view(np.recarray), lam, m.rho),
                      push_weights(Wfst(n, m.arcs, lam, m.rho)),
                      remove_epsilons(m), trim(m)):
            assert is_plain_arc_array(built.arcs)

    @pytest.mark.parametrize("make", MACHINES)
    def test_rebuilt_from_records(self, make):
        m = make()
        again = Wfst(m.n_states, list(m.arcs), m.lam, m.rho, m.isyms, m.osyms)
        for name in ARC.names:
            assert np.array_equal(again.arcs[name], m.arcs[name])

    @pytest.mark.parametrize("make", MACHINES)
    def test_no_record_by_record_loop(self, make, monkeypatch):
        post_init = Wfst.__post_init__

        def guarded(self):  # every machine built from here on
            post_init(self)
            self.arcs = self.arcs.view(ArcGuard)
        monkeypatch.setattr(Wfst, "__post_init__", guarded)
        m = make()
        with pytest.raises(AssertionError):
            list(m.arcs)
        text = serialize_text(m)
        assert serialize_text(parse_text(text)) == text
        validate(m)
        build_matrices(m)
        v = compute_potentials(m).v
        is_pushed(m)
        # every state that can terminate is initial, so pushing is defined
        lam = np.where(np.isfinite(v), 0.0, INF)
        push_weights(Wfst(m.n_states, m.arcs, lam, m.rho, m.isyms, m.osyms))
        trim(remove_epsilons(m))
        rng = np.random.default_rng(m.n_states)
        obs = ObservationModel(m.n_states, {s: rng.uniform(0, 5, m.n_states)
                                            for s in "xy"})
        viterbi_decode(m, obs, list("xyxx"))
        decode_with_metrics(m, obs, list("xyxx"), 2.0)
