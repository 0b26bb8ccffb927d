import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropwfst import (ARC, Arc, ObservationModel, ParseError, SymbolTable,
                      UnknownSymbolError, Wfst, build_matrices,
                      compute_potentials, decode_with_metrics, is_pushed,
                      parse_text, pointwise_min, push_weights, remove_epsilons,
                      serialize_text, trim, validate, viterbi_decode)

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
                 SymbolTable(["a", "b"]), SymbolTable(["a", "b"]))
        assert any("duplicate" in p for p in validate(m))

    def test_index_out_of_range(self):
        m = Wfst(3, [Arc(7, 1, 0, 0, 1.0)],
                 np.array([0.0, INF, INF]), np.array([INF, INF, 0.0]))
        assert any("out of range" in p for p in validate(m))

    def test_nonfinite_weight_and_missing_endpoints(self):
        m = Wfst(2, [Arc(0, 1, 0, 0, INF)],
                 np.full(2, INF), np.full(2, INF))
        problems = validate(m)
        assert any("non-finite" in p for p in problems)
        assert any("no initial" in p for p in problems)
        assert any("no final" in p for p in problems)


    def test_messages_in_arc_order(self):
        m = Wfst(2, [Arc(0, 1, 1, 1, 1.0), Arc(5, 0, 1, 1, 1.0),
                     Arc(0, 1, 1, 1, INF), Arc(1, 0, 1, 1, -INF)],
                 np.array([0.0, INF]), np.array([INF, 0.0]))
        assert validate(m) == ["arc 5->0: state index out of range",
                               "arc 0->1: duplicate state pair",
                               "arc 0->1: non-finite weight",
                               "arc 1->0: non-finite weight"]

    def test_negative_infinite_initial_and_final_weights(self):
        m = parse_text("I 0 0\nI 1 -inf\n0 1 a a 1\nF 1 0\nF 0 -inf\n")
        assert validate(m) == ["initial weight of state 1 is -inf",
                               "final weight of state 0 is -inf"]
        with pytest.raises(ValueError, match="is -inf"):
            build_matrices(m)


def reference_arc_problems(m):
    """validate's per-arc messages by a plain loop over the arcs."""
    problems, seen, n = [], set(), m.n_states
    for s, d, w in zip(m.arcs["src"].tolist(), m.arcs["dst"].tolist(),
                       m.arcs["weight"].tolist()):
        if not (0 <= s < n and 0 <= d < n):
            problems.append(f"arc {s}->{d}: state index out of range")
            continue
        if (s, d) in seen:
            problems.append(f"arc {s}->{d}: duplicate state pair")
        seen.add((s, d))
        if not math.isfinite(w):
            problems.append(f"arc {s}->{d}: non-finite weight")
    return problems


@pytest.mark.parametrize("seed", range(60))
def test_validate_matches_per_arc_loop(seed):
    # mostly in-range pairs, so duplicates are common
    rng = np.random.default_rng(9000 + seed)
    n = int(rng.integers(1, 6))
    outside = [-2**62, -3, -1, n, n + 4, 2**62]
    weights = [1.0, -2.5, 0.0, INF, -INF, math.nan]

    def state():
        if rng.random() < 0.8:
            return int(rng.integers(0, n))
        return int(rng.choice(outside))

    arcs = [(state(), state(), 1, 1, float(rng.choice(weights)))
            for _ in range(int(rng.integers(0, 25)))]
    m = Wfst(n, arcs, np.zeros(n), np.zeros(n))
    assert validate(m) == reference_arc_problems(m)


INT64 = st.integers(-2**63, 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.integers(-3, 6), INT64),
                          st.one_of(st.integers(-3, 6), INT64)), max_size=30))
def test_serialize_orders_arcs_like_lexsort(pairs):
    # any int64 indices, out of range and negative ones included; the
    # weight is the insertion index, so stability shows in the text
    m = Wfst(3, [(s, d, 0, 0, float(k)) for k, (s, d) in enumerate(pairs)],
             np.zeros(3), np.zeros(3))
    lines = serialize_text(m).splitlines()[3:3 + len(pairs)]
    order = np.lexsort((m.arcs["dst"], m.arcs["src"]))
    assert [int(line.split()[-1]) for line in lines] == order.tolist()


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
        assert view.sigma_i[0, 1] == fig1.isyms.id_of("a")
        assert view.sigma_o[1, 3] == fig1.osyms.id_of("Z")
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


class TestSymbolTable:
    @pytest.mark.parametrize("sym", ["", "a b", " a", "a\t", "a\nb", "\xa0"])
    def test_symbol_that_is_not_one_token(self, sym):
        # serialize_text would write it as no token or as several
        with pytest.raises(ValueError, match="not one text token"):
            SymbolTable([sym])
        table = SymbolTable(["a"])
        with pytest.raises(ValueError):
            table.add(sym)
        assert table._syms == ["<eps>", "a"]

    @pytest.mark.parametrize("label", [-1, -3, 3])
    def test_id_out_of_range_is_unknown(self, label):
        with pytest.raises(UnknownSymbolError):
            SymbolTable(["a", "b"]).sym_of(label)

    def test_negative_label_does_not_serialize(self):
        m = Wfst(2, [Arc(0, 1, -1, -1, 1.0)], np.array([0.0, INF]),
                 np.array([INF, 0.0]), SymbolTable(["a"]), SymbolTable(["a"]))
        with pytest.raises(UnknownSymbolError):
            serialize_text(m)


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
