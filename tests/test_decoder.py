import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropwfst import (EmptyTrellisError, ObservationModel, ParseError,
                      UnknownSymbolError, build_matrices, decode_with_metrics,
                      format_metrics_csv, metric_entropy, metric_nu,
                      parse_observation_model, parse_sequence, parse_text,
                      prune_indicator, push_weights, viterbi_decode)
from tropwfst import decoder
from tropwfst.oracles import scalar_viterbi

from generators import exhaustive_viterbi_cost, random_hmm

INF = math.inf


def uniform_obs(n, symbols=("u", "w")):
    return ObservationModel(n, {s: np.zeros(n) for s in symbols})


class TestViterbiStep:
    # one trellis update, x[i] = p_sigma[i] + min_j (a[j, i] + x_prev[j]),
    # seen through the decode loop
    def test_two_state_chain(self):
        m = parse_text("I 0 0\n0 1 a A 1\nF 1 0\n")
        assert viterbi_decode(m, uniform_obs(2), ["u", "u"]) == (1.0, [0, 1])

    def test_identity_step(self):
        # zero-cost self-loops only: the step leaves x = lam unchanged
        lam = [2.0, 0.0, 5.0]
        loops = "".join(f"I {i} {w:g}\n{i} {i} a A 0\n"
                        for i, w in enumerate(lam))
        for k in range(3):
            m = parse_text(loops + f"F {k} 0\n")
            assert viterbi_decode(m, uniform_obs(3), ["u", "u"]) == (lam[k], [k, k])

    def test_shape_mismatch(self):
        # a one-state observation model must not broadcast over three states
        m = parse_text("I 0 0\n0 1 a a 1\n1 2 a a 1\nF 2 0\n")
        obs = ObservationModel(1, {"x": np.array([0.5])})
        for seq in (["x"] * 3, []):
            with pytest.raises(ValueError, match="1 states"):
                viterbi_decode(m, obs, seq)
            with pytest.raises(ValueError, match="1 states"):
                decode_with_metrics(m, obs, seq, 1.0)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_probability_domain(self, seed):
        # exp(-cost) of every prefix tracks the max-product recursion
        rng = np.random.default_rng(seed)
        m, obs = random_hmm(rng, max_states=4)
        seq = [f"s{int(rng.integers(0, 2))}" for _ in range(4)]
        w = np.exp(-build_matrices(m).A)
        q = np.exp(-m.lam) * np.exp(-obs.cost(seq[0]))
        for t in range(1, len(seq) + 1):
            if t > 1:
                q = np.exp(-obs.cost(seq[t - 1])) * (w * q[:, None]).max(axis=0)
            cost, _ = viterbi_decode(m, obs, seq[:t])
            assert abs(math.exp(-cost) - np.max(q * np.exp(-m.rho))) <= 1e-9


class TestViterbiDecode:
    def test_deterministic_chain(self):
        m = parse_text("I 0 0\n0 1 a A 1\n1 2 b B 2\nF 2 3\n")
        obs = uniform_obs(3)
        cost, path = viterbi_decode(m, obs, ["u", "w", "u"])
        assert cost == 6.0
        assert path == [0, 1, 2]

    def test_empty_sequence(self):
        m = parse_text("I 0 1\nF 0 2\n")
        assert viterbi_decode(m, uniform_obs(1), []) == (3.0, [0])

    def test_unknown_symbol(self):
        m = parse_text("I 0 0\nF 0 0\n")
        with pytest.raises(UnknownSymbolError):
            viterbi_decode(m, uniform_obs(1), ["zzz"])
        # also after the trellis dies, so that pruning cannot hide it
        obs = ObservationModel(1, {"d": np.array([INF])})
        for theta in (0.0, INF):
            with pytest.raises(UnknownSymbolError):
                decode_with_metrics(m, obs, ["d", "zzz"], theta)

    def test_tie_break_lowest_index(self):
        # two identical-cost branches; the smaller state indices win
        m = parse_text(
            "I 0 0\n0 1 a A 1\n0 2 a A 1\n1 3 b B 1\n2 3 b B 1\nF 3 0\n")
        _, path = viterbi_decode(m, uniform_obs(4), ["u", "u", "u"])
        assert path == [0, 1, 3]

    @pytest.mark.parametrize("seed", range(25))
    def test_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(100 + seed)
        m, obs = random_hmm(rng)
        seq = [f"s{int(rng.integers(0, 2))}"
               for _ in range(int(rng.integers(1, 6)))]
        cost, _ = viterbi_decode(m, obs, seq)
        assert cost == exhaustive_viterbi_cost(m, obs, seq)

    @pytest.mark.parametrize("seed", range(25))
    def test_scalar_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        m, obs = random_hmm(rng, max_states=4, float_costs=True)
        seq = [f"s{int(rng.integers(0, 2))}"
               for _ in range(int(rng.integers(1, 6)))]
        cost, path = viterbi_decode(m, obs, seq)
        prob, opath = scalar_viterbi(m, obs, seq)
        assert abs(math.exp(-cost) - prob) <= 1e-9
        if prob > 0:
            assert path == opath


class TestPruning:
    def test_hand_example(self):
        rep = prune_indicator(np.array([3.0, 5.0, 9.0]), 4.0)
        assert rep.eta == 7.0
        assert np.array_equal(rep.support, [0, 1])
        assert np.array_equal(rep.z, [3.0, 5.0])
        assert np.array_equal(rep.eta - rep.z, [4.0, 2.0])  # slack r

    def test_theta_zero_keeps_argmin(self):
        rep = prune_indicator(np.array([2.0, 7.0, 2.0]), 0.0)
        assert np.array_equal(rep.support, [0, 2])
        assert rep.eta - rep.z[0] == 0.0

    def test_all_equal_survive(self):
        rep = prune_indicator(np.full(4, 3.0), 0.0)
        assert np.array_equal(rep.support, [0, 1, 2, 3])

    def test_empty_trellis(self):
        with pytest.raises(EmptyTrellisError):
            prune_indicator(np.full(3, INF), 1.0)

    def test_nan_theta_rejected(self):
        # NaN >= 0 is false, so NaN is not read as an unbounded beam
        with pytest.raises(ValueError, match="leniency"):
            prune_indicator(np.array([1.0, 2.0]), math.nan)

    def test_negative_infinite_entry_rejected(self):
        with pytest.raises(ValueError, match="-inf"):
            prune_indicator(np.array([1.0, -INF]), 1.0)

    def test_prune_step_hand(self):
        # x = [3, 5, 9] with theta 4: state 2 is set to +inf, so its cheap
        # final weight is lost
        m = parse_text("I 0 0\nI 1 0\nI 2 0\nF 0 10\nF 1 0\nF 2 -10\n")
        obs = ObservationModel(3, {"u": np.array([3.0, 5.0, 9.0])})
        assert viterbi_decode(m, obs, ["u"]) == (-1.0, [2])
        cost, path, etas, xs = decode_with_metrics(m, obs, ["u"], 4.0)
        assert (cost, path) == (5.0, [1])
        assert etas.tolist() == [7.0] and xs.tolist() == [[3.0, 5.0, INF]]

    def test_theta_inf_unchanged(self):
        # exact decoding is the theta = inf case: every finite entry survives
        x = np.array([3.0, INF, 9.0])
        assert np.array_equal(prune_indicator(x, INF).support, [0, 2])
        for seed in range(20):
            rng = np.random.default_rng(400 + seed)
            m, obs = random_hmm(rng, float_costs=True)
            seq = [f"s{int(rng.integers(0, 2))}"
                   for _ in range(int(rng.integers(0, 6)))]
            cost, path, etas, xs = decode_with_metrics(m, obs, seq, INF)
            assert (cost, path) == viterbi_decode(m, obs, seq)
            if math.isfinite(cost):
                assert len(etas) == len(xs) == len(seq)

    @pytest.mark.parametrize("seed", range(10))
    def test_pruned_cost_one_sided(self, seed):
        rng = np.random.default_rng(300 + seed)
        m, obs = random_hmm(rng)
        seq = [f"s{int(rng.integers(0, 2))}" for _ in range(4)]
        exact, _ = viterbi_decode(m, obs, seq)
        pruned = decode_with_metrics(m, obs, seq, 1.0)[0]
        assert pruned >= exact

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(-20, 50).map(float), st.just(INF)),
                 min_size=1, max_size=10).filter(
                     lambda xs: any(math.isfinite(v) for v in xs)),
        st.floats(0, 30, allow_nan=False))
    def test_support_is_threshold_set(self, xs, theta):
        x = np.array(xs)
        rep = prune_indicator(x, theta)
        expected = np.flatnonzero(x <= np.min(x[np.isfinite(x)]) + theta)
        assert np.array_equal(rep.support, expected)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-20, 50).map(float), min_size=1, max_size=8),
        st.floats(0, 10), st.floats(0, 10))
    def test_support_monotone_in_theta(self, xs, t1, t2):
        lo, hi = sorted((t1, t2))
        x = np.array(xs)
        small = set(prune_indicator(x, lo).support.tolist())
        big = set(prune_indicator(x, hi).support.tolist())
        assert small <= big


class TestMetrics:
    def test_nu_hand_example(self):
        nu, degenerate = metric_nu(7.0, np.array([3.0, 5.0]))
        assert abs(nu - (-0.75)) <= 1e-12
        assert not degenerate

    def test_nu_all_equal(self):
        assert metric_nu(7.0, np.array([3.0, 3.0])) == (-1.0, False)

    def test_nu_single_survivor(self):
        assert metric_nu(9.0, np.array([3.0])) == (-1.0, False)

    def test_nu_degenerate_on_boundary(self):
        assert metric_nu(3.0, np.array([3.0])) == (0.0, True)

    def test_nu_degenerate_small_slack(self):
        assert metric_nu(3.5, np.array([3.0, 3.2])) == (0.0, True)

    def test_entropy_hand_example(self):
        ent = metric_entropy(np.array([3.0, 5.0]))
        assert abs(ent - 0.5 * (3 * math.exp(-3) + 5 * math.exp(-5))) <= 1e-12
        assert abs(ent - 0.091525) <= 1e-6

    def test_entropy_zero_vector(self):
        assert metric_entropy(np.zeros(2)) == 0.0

    def test_entropy_single_peak(self):
        ent = metric_entropy(np.array([1.0]))
        assert abs(ent - math.exp(-1)) <= 1e-12

    def test_entropy_overflow_raises(self):
        # exp(800) overflows float64; the mean would be -inf
        with pytest.raises(OverflowError):
            metric_entropy(np.array([-800.0]))
        # the trace names the step whose entropy overflows
        xs = np.array([[0.0, INF]] * 3 + [[-800.0, INF]])
        with pytest.raises(OverflowError, match="at step 3"):
            format_metrics_csv(np.zeros(4), xs)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(0, 60, allow_nan=False), min_size=1,
                    max_size=10))
    def test_entropy_bounds_nonneg(self, zs):
        ent = metric_entropy(np.array(zs))
        assert 0.0 <= ent <= math.exp(-1) + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 30, allow_nan=False), min_size=2,
                    max_size=8), st.floats(2, 10))
    def test_permutation_invariance(self, zs, slack):
        z = np.array(zs)
        eta = float(z.max() + slack)
        perm = z[::-1].copy()
        assert metric_nu(eta, z)[0] == pytest.approx(metric_nu(eta, perm)[0])
        assert metric_nu(eta, z)[1] == metric_nu(eta, perm)[1]
        assert metric_entropy(z) == pytest.approx(metric_entropy(perm))


GOLDEN_3STATE = (
    "I 0 0\nI 1 1\nI 2 2\n"
    "0 0 a A 1\n0 1 a A 2\n0 2 a A 3\n"
    "1 0 a A 2\n1 1 a A 1\n1 2 a A 4\n"
    "2 0 a A 5\n2 1 a A 2\n2 2 a A 1\n"
    "F 0 0\nF 1 0\nF 2 0\n"
)

GOLDEN_TRACE = (
    "step,support,eta,nu,entropy,degenerate\n"
    "0,2,2.5,-0.121764601,0.135335283,0\n"
    "1,3,4.5,-0.228678751,0.164431442,0\n"
    "2,2,6.5,-1,0.0732625556,0\n"
    "3,2,7.5,-0.121764601,0.0200364544,0\n"
)


def per_row_csv(etas, xs):
    """The trace with metric_nu and metric_entropy evaluated row by row on
    each row's finite entries."""
    lines = ["step,support,eta,nu,entropy,degenerate"]
    for step, (eta, x) in enumerate(zip(etas.tolist(), xs)):
        z = x[x < INF]
        nu, degenerate = metric_nu(eta, z)
        lines.append(f"{step},{z.size},{eta:.9g},{nu:.9g},"
                     f"{metric_entropy(z):.9g},{int(degenerate)}")
    return "\n".join(lines) + "\n"


def pruned_rows(xs, thetas):
    """(etas, rows) of xs pruned by prune_indicator, one theta per row: each
    row keeps its support's costs and is +inf elsewhere."""
    etas, rows = np.empty(len(xs)), np.full((len(xs), xs.shape[1]), INF)
    for t, (x, theta) in enumerate(zip(xs, thetas)):
        rep = prune_indicator(x, theta)
        etas[t], rows[t, rep.support] = rep.eta, rep.z
    return etas, rows


@pytest.mark.parametrize("float_costs", [False, True])
def test_blocked_trace_matches_per_row_metrics(float_costs):
    rng = np.random.default_rng(11)
    xs = np.full((600, 60), INF)  # more than two blocks of 256 frames
    for x in xs:
        n = int(rng.integers(1, 60))  # the rest of the row is +inf padding
        x[:n] = (rng.uniform(-5, 30, n) if float_costs
                 else rng.integers(-5, 30, n).astype(float))
        x[1:n][rng.random(n - 1) < 0.2] = INF
    thetas = rng.choice([0.0, 0.5, 1.0, 3.0, 40.0, INF], len(xs)).tolist()
    etas, xs = pruned_rows(xs, thetas)
    text = format_metrics_csv(etas, xs)
    assert text == per_row_csv(etas, xs)  # byte for byte
    for k in range(0, len(xs), 256):
        eta, block = etas[k:k + 256], xs[k:k + 256]
        sizes, nu, entropy, degenerate = decoder._block_metrics(eta, block, k)
        rows = [(e, x[x < INF]) for e, x in zip(eta, block)]
        assert sizes == [z.size for _, z in rows]
        assert nu == [metric_nu(e, z)[0] for e, z in rows]
        assert entropy == [metric_entropy(z) for _, z in rows]
        assert degenerate == [metric_nu(e, z)[1] for e, z in rows]
    flags = [row[-1] for row in text.splitlines()[1:]]
    assert 100 < flags.count("1") < 500  # degenerate rows and others
    # the first entropy overflow names its step, in the second block too
    for step in (300, 400):
        etas[step], xs[step] = 0.0, INF
        xs[step, 7] = -800.0
    with pytest.raises(OverflowError,
                       match="^entropy overflows float64 at step 300$"):
        format_metrics_csv(etas, xs)
    xs[500] = INF  # a row with no survivor
    with pytest.raises(ValueError, match="^empty support$"):
        format_metrics_csv(etas[450:], xs[450:])


def test_trace_temporaries_stay_the_size_of_a_block():
    etas, xs = np.full(2560, 500.0), np.tile(np.arange(200.0), (2560, 1))
    tracemalloc.start()
    try:
        text = format_metrics_csv(etas, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6  # 1.7 MB; all 2560 rows at once peak at 14.1 MB
    assert text == per_row_csv(etas, xs)


def test_trace_memory_is_the_trellis_and_one_block():
    # the trace is read off the trellis the decode keeps for its backtrace;
    # one report per frame (support and z) would double the trellis bytes
    rng = np.random.default_rng(5)
    n, frames = 200, 2000
    lines = ["I 0 0", *(f"{i} {j} a a {int(rng.integers(0, 10))}"
                        for i in range(n)
                        for j in sorted({(i + 1) % n, *rng.integers(0, n, 9)})),
             *(f"F {i} 0" for i in range(n))]
    m = parse_text("\n".join(lines) + "\n")
    obs = ObservationModel(n, {f"o{k}": rng.integers(0, 10, n).astype(float)
                               for k in range(20)})
    seq = [f"o{k}" for k in rng.integers(0, 20, frames)]
    tracemalloc.start()
    try:
        cost, _, etas, xs = decode_with_metrics(m, obs, seq, INF)
        text = format_metrics_csv(etas, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(cost) and xs.nbytes == frames * n * 8
    assert peak < 2 * xs.nbytes
    assert len(text.splitlines()) == frames + 1


class TestDecodeWithMetrics:
    def make_golden(self):
        m = parse_text(GOLDEN_3STATE)
        obs = ObservationModel(3, {"u": np.array([0.0, 1.0, 2.0]),
                                   "w": np.array([2.0, 0.0, 1.0])})
        return m, obs

    def test_golden_trace(self):
        # frozen from an independent scalar simulation of the same fixture
        m, obs = self.make_golden()
        cost, path, etas, xs = decode_with_metrics(
            m, obs, ["u", "w", "u", "w"], 2.5)
        assert cost == 5.0
        assert format_metrics_csv(etas, xs) == GOLDEN_TRACE

    def test_large_theta_matches_exact(self):
        m, obs = self.make_golden()
        seq = ["u", "w", "u"]
        exact = viterbi_decode(m, obs, seq)
        pruned_cost, pruned_path, etas, xs = decode_with_metrics(
            m, obs, seq, 100.0)
        assert (pruned_cost, pruned_path) == exact
        assert len(etas) == len(xs) == len(seq)

    def test_theta_zero_greedy_support(self):
        m, obs = self.make_golden()
        _, _, etas, xs = decode_with_metrics(m, obs, ["u", "w", "w"], 0.0)
        for eta, x in zip(etas, xs):
            z = x[x < INF]
            assert z.size == 1
            assert metric_nu(eta, z) == (0.0, True)

    @pytest.mark.parametrize("seq", [[], ["y"]])
    def test_negative_theta_rejected_before_the_trellis(self, seq):
        # neither an empty sequence nor an all-+inf first vector skips the
        # theta >= 0 check
        m = parse_text("I 0 0\n0 1 a a 1\nF 1 0\n")
        obs = ObservationModel(2, {"x": np.zeros(2),
                                   "y": np.array([INF, INF])})
        with pytest.raises(ValueError, match="leniency"):
            decode_with_metrics(m, obs, seq, -1.0)

    @pytest.mark.parametrize("seq", [[], ["x"], ["y"]])
    def test_nan_theta_rejected(self, seq):
        m = parse_text("I 0 0\n0 1 a a 1\nF 1 0\n")
        obs = ObservationModel(2, {"x": np.zeros(2),
                                   "y": np.array([INF, INF])})
        with pytest.raises(ValueError, match="leniency"):
            decode_with_metrics(m, obs, seq, math.nan)

    def test_pushing_helps_pruning(self, fig1):
        # late heavy weights defeat early pruning on the unpushed machine
        obs = uniform_obs(5, ("o",))
        seq = ["o", "o", "o"]
        unpushed = decode_with_metrics(fig1, obs, seq, 0.5)[0]
        pushed = decode_with_metrics(push_weights(fig1), obs, seq, 0.5)[0]
        exact, _ = viterbi_decode(fig1, obs, seq)
        assert viterbi_decode(push_weights(fig1), obs, seq)[0] == exact
        assert pushed <= unpushed
        assert pushed == exact == 5.0 and unpushed == 43.0


def prune_loop(m, obs, seq, theta):
    """The reference for decode_with_metrics: the dense trellis step, then
    prune_indicator on each frame; returns (cost, reports)."""
    a, reports = build_matrices(m).A, []
    x = m.lam + obs.cost(seq[0])
    for t, sym in enumerate(seq):
        if t:
            x = obs.cost(sym) + (a + x[:, None]).min(axis=0)
        if not np.isfinite(x).any():
            return INF, reports
        reports.append(prune_indicator(x, theta))
        x = np.where(x <= reports[-1].eta, x, INF)
    return float(np.min(x + m.rho)), reports


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReportsOffTheTrellis:
    # the trace is the stored pruned rows; row t's finite entries, their
    # costs and etas[t] must be frame t's prune_indicator report bit for bit
    def check(self, m, obs, seq, theta):
        cost, _, etas, xs = decode_with_metrics(m, obs, seq, theta)
        want_cost, want = prune_loop(m, obs, seq, theta)
        assert cost == want_cost
        assert len(etas) == len(xs) == len(want)
        for eta, x, ref in zip(etas.tolist(), xs, want):
            assert same_bits(eta, ref.eta)
            assert same_bits(np.flatnonzero(x < INF), ref.support)
            assert same_bits(x[x < INF], ref.z)
        return etas

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("float_costs", [False, True])
    @pytest.mark.parametrize("theta", [0.0, 0.5, 8.0, INF])
    def test_random_hmms_past_a_block_boundary(self, seed, float_costs, theta):
        rng = np.random.default_rng(seed)
        m, obs = random_hmm(rng, max_states=7, float_costs=float_costs)
        seq = [f"s{int(s)}" for s in rng.integers(0, 2, 300)]
        assert 300 > decoder._METRIC_BLOCK
        self.check(m, obs, seq, theta)

    @pytest.mark.parametrize("theta", [0.0, 8.0, INF])
    def test_trellis_dies_mid_sequence(self, theta):
        m, obs = random_hmm(np.random.default_rng(3), max_states=6)
        obs = ObservationModel(m.n_states, {**obs.costs,
                                            "d": np.full(m.n_states, INF)})
        seq = ["s0", "s1"] * 140 + ["d"] + ["s0"] * 20
        etas = self.check(m, obs, seq, theta)
        assert len(etas) == 280
        assert decode_with_metrics(m, obs, seq, theta)[:2] == (INF, [])

    def test_no_per_frame_reference_calls(self, monkeypatch):
        m, obs = random_hmm(np.random.default_rng(1), max_states=6)
        seq = ["s0", "s1"] * 150
        want = decode_with_metrics(m, obs, seq, 8.0)
        calls = []
        for name in ("prune_indicator", "as_trop", "PruneReport"):
            monkeypatch.setattr(decoder, name,
                                lambda *a, name=name: calls.append(name))
        cost, path, etas, xs = decode_with_metrics(m, obs, seq, 8.0)
        text = format_metrics_csv(etas, xs)
        assert calls == []
        assert (cost, path) == want[:2] and text == format_metrics_csv(*want[2:])


class TestOverflowedTrellis:
    # a cost that overflows to -inf, or -inf + inf = NaN, is an error, not
    # a cost; the CLI sees the overflow itself (np.errstate over="raise")
    TEXT = "I 0 -1e308\nI 1 0\n0 1 a a 1\n1 1 a a 1\nF 1 0\n"

    @pytest.mark.parametrize("u,match", [([-1e308, 0.0], "-inf entry"),
                                         ([-1e308, INF], "NaN")])
    def test_exact_decode_raises(self, u, match):
        with np.errstate(over="ignore", invalid="ignore"):
            m = parse_text(self.TEXT)
            obs = ObservationModel(2, {"u": np.array(u)})
            with pytest.raises(ValueError, match=match):
                viterbi_decode(m, obs, ["u", "u"])

    @pytest.mark.parametrize("u", [[-1e308, 0.0], [-1e308, INF]])
    def test_pruned_decode_raises(self, u):
        with np.errstate(over="ignore", invalid="ignore"):
            m = parse_text(self.TEXT)
            obs = ObservationModel(2, {"u": np.array(u)})
            for theta in (0.0, 1.0, INF):
                with pytest.raises(ValueError, match="-inf entry"):
                    decode_with_metrics(m, obs, ["u", "u"], theta)

    def test_final_weight_overflow_raises(self):
        with np.errstate(over="ignore"):
            m = parse_text("I 0 -1e308\n0 1 a a 0\nF 1 -1e308\n")
            obs = uniform_obs(2)
            for decode in (lambda: viterbi_decode(m, obs, ["u", "u"]),
                           lambda: decode_with_metrics(m, obs, ["u", "u"], 1.0)):
                with pytest.raises(ValueError, match="-inf entry"):
                    decode()


class TestObservationFiles:
    def test_round_trip_parse(self):
        text = "2 2\nu 0 1\nw inf 2.5\n"
        obs = parse_observation_model(text)
        assert obs.n_states == 2
        assert np.array_equal(obs.cost("u"), [0.0, 1.0])
        assert np.array_equal(obs.cost("w"), [INF, 2.5])

    def test_bad_header(self):
        with pytest.raises(Exception):
            parse_observation_model("u 0 1\n")
        # errors name the file line, blank lines included
        with pytest.raises(ParseError, match="^line 3: expected header"):
            parse_observation_model("\n  \nu 0 1\n")
        with pytest.raises(ParseError, match="^line 4: expected symbol plus"):
            parse_observation_model("\n2 1\n\nu 0\n")
        with pytest.raises(ParseError, match="^line 3: NaN"):
            parse_observation_model("2 1\n\nu 0 nan\n")
        with pytest.raises(ParseError, match="^line 2: weight '1e400' overflows"):
            parse_observation_model("2 1\nu 1e400 0\n")
        with pytest.raises(ParseError,
                           match="^line 2: could not convert string to float: 'x'$"):
            parse_observation_model("2 1\nu 0 x\n")

    def test_costs_accept_what_float_accepts(self):
        obs = parse_observation_model("4 1\nu +inf Infinity 1_0 -0.5e1\n")
        assert np.array_equal(obs.cost("u"), [INF, INF, 10.0, -5.0])

    def test_rejects_duplicate_symbol(self):
        # a second line for x must not silently replace the first
        with pytest.raises(ParseError, match="line 3: duplicate symbol 'x'"):
            parse_observation_model("2 2\nx 0 0\nx 5 inf\n")
        with pytest.raises(ParseError, match="^line 4: duplicate symbol 'x'"):
            parse_observation_model("2 2\nx 0 0\n\nx 5 inf\n")
        with pytest.raises(ParseError, match="^line 6: duplicate symbol 'x'"):
            parse_observation_model("\n\n2 2\nx 0 0\n\nx 5 inf\n")

    def test_rejects_negative_state_count(self):
        with pytest.raises(ValueError, match="^n_states -1 is negative$"):
            ObservationModel(-1, {})

    def test_rejects_negative_infinite_cost(self):
        with pytest.raises(ValueError, match="-inf"):
            ObservationModel(2, {"u": np.array([0.0, -INF])})
        with pytest.raises(ValueError, match="-inf"):
            parse_observation_model("2 1\nu 0 -inf\n")

    def test_sequence(self):
        assert parse_sequence(" u w\nu ") == ["u", "w", "u"]
