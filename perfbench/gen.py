"""Seeded input generator for the benchmark workloads.

The same (workload, seed) pair always writes byte-identical files. The
program under test receives only these files, never the generator's
in-memory state.

Run: python3 perfbench/gen.py --workload transform --seed 1 --out DIR
"""

import argparse
import os
import random

# Fixed shapes, one per workload; see README.md for why each was chosen.
TRANSFORM = dict(n=64, density=0.10, eps_share=0.20, final_share=0.125, count=24)
DECODE = dict(words=40, word_len=5, symbols=50, frames=500, count=8)
SMALL = dict(n=16, density=0.15, eps_share=0.20, final_share=0.5, symbols=6,
             frames=20, count=16)
LETTERS = "abcdefgh"


def _w(r, lo, hi):
    """A non-negative float weight, rounded so the text stays short."""
    return round(r.uniform(lo, hi), 4)


def random_machine(r, n, density, eps_share, final_share, self_loops):
    """Machine text with float weights >= 0, so no negative cycle.

    The chain 0 -> 1 -> ... -> n-1 -> 0 guarantees that every state is
    accessible from state 0 and co-accessible to the final state n-1.
    With self_loops every state also loops, so a path of any length
    >= n-1 reaches n-1. The arc count is round(density * n^2) (or the
    structural minimum), exactly round(eps_share * arcs) of them eps:eps.
    Returns the text and each state's successor list.
    """
    pairs = {(i, (i + 1) % n) for i in range(n)}
    if self_loops:
        pairs |= {(i, i) for i in range(n)}
    target = max(len(pairs), round(density * n * n))
    while len(pairs) < target:
        pairs.add((r.randrange(n), r.randrange(n)))
    pairs = sorted(pairs)
    succ = [[] for _ in range(n)]
    for src, dst in pairs:
        succ[src].append(dst)
    eps = set(r.sample(range(len(pairs)), round(eps_share * len(pairs))))
    lines = ["I 0 0", f"I {r.randrange(1, n)} {_w(r, 0, 2)}"]
    for k, (s, d) in enumerate(pairs):
        if k in eps:
            il = ol = "<eps>"
        else:
            il, ol = r.choice(LETTERS), r.choice(LETTERS).upper()
        lines.append(f"{s} {d} {il} {ol} {_w(r, 0.1, 10)}")
    finals = {n - 1} | set(r.sample(range(n), round(final_share * n)))
    for f in sorted(finals):
        lines.append(f"F {f} {_w(r, 0, 3)}")
    return "\n".join(lines) + "\n", succ


def observation_model(r, n, symbols, target):
    """Costs per symbol and state: low for the state's target symbol.

    Every cost is finite, so any surviving trellis state can emit the
    next frame and pruning never empties the trellis.
    """
    lines = [f"{n} {symbols}"]
    for k in range(symbols):
        costs = [_w(r, 0, 1) if target[s] == k else _w(r, 3, 6) for s in range(n)]
        lines.append(f"o{k} " + " ".join(repr(c) for c in costs))
    return "\n".join(lines) + "\n"


def utterance(r, succ, start, target, symbols, frames, hit=0.8):
    """Symbols emitted along a random walk: the target symbol w.p. hit."""
    s, out = start, []
    for _ in range(frames):
        out.append(target[s] if r.random() < hit else r.randrange(symbols))
        s = r.choice(succ[s])
    return " ".join(f"o{k}" for k in out) + "\n"


def hmm_graph(r, words, word_len):
    """HMM-like decoding graph: a loop over left-to-right word models.

    Each state loops on itself and steps forward in its word; each word
    end enters every word start. All states are final, word ends at
    cost 0 and mid-word states at a penalty, so every pruned decode ends
    on a finite path.
    """
    n = words * word_len
    succ = [[] for _ in range(n)]
    lines = [f"I {w * word_len} {_w(r, 3, 4)}" for w in range(words)]
    arcs = []
    for w in range(words):
        for p in range(word_len):
            s = w * word_len + p
            arcs.append((s, s, f"h{s}", "<eps>", _w(r, 0.2, 1.5)))
            if p + 1 < word_len:
                arcs.append((s, s + 1, f"h{s + 1}", "<eps>", _w(r, 0.2, 1.5)))
            else:
                for v in range(words):
                    arcs.append((s, v * word_len, f"h{v * word_len}", f"w{v}",
                                 _w(r, 2, 5)))
    for s, d, il, ol, wt in arcs:
        succ[s].append(d)
        lines.append(f"{s} {d} {il} {ol} {wt}")
    for s in range(n):
        end = s % word_len == word_len - 1
        lines.append(f"F {s} {0 if end else _w(r, 6, 9)}")
    return "\n".join(lines) + "\n", succ


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def generate(workload, seed, out):
    """Write the inputs of one workload; return one dict of paths per item.

    Items are listed in the order the benchmark cycles through them.
    """
    r = random.Random(f"{workload}:{seed}")
    os.makedirs(out, exist_ok=True)
    items = []
    if workload == "transform":
        c = TRANSFORM
        for k in range(c["count"]):
            fst = os.path.join(out, f"m{k}.fst")
            text, _ = random_machine(r, c["n"], c["density"], c["eps_share"],
                                     c["final_share"], False)
            _write(fst, text)
            items.append(dict(fst=fst))
    elif workload == "decode":
        c = DECODE
        n = c["words"] * c["word_len"]
        text, succ = hmm_graph(r, c["words"], c["word_len"])
        target = [r.randrange(c["symbols"]) for _ in range(n)]
        fst, obs = os.path.join(out, "graph.fst"), os.path.join(out, "obs.txt")
        _write(fst, text)
        _write(obs, observation_model(r, n, c["symbols"], target))
        for k in range(c["count"]):
            seq = os.path.join(out, f"u{k}.txt")
            start = r.randrange(c["words"]) * c["word_len"]
            _write(seq, utterance(r, succ, start, target, c["symbols"], c["frames"]))
            items.append(dict(fst=fst, obs=obs, seq=seq))
    elif workload == "many-small":
        c = SMALL
        for k in range(c["count"]):
            text, succ = random_machine(r, c["n"], c["density"], c["eps_share"],
                                        c["final_share"], True)
            target = [r.randrange(c["symbols"]) for _ in range(c["n"])]
            paths = {key: os.path.join(out, f"{key}{k}{ext}") for key, ext in
                     (("fst", ".fst"), ("obs", ".txt"), ("seq", ".txt"))}
            _write(paths["fst"], text)
            _write(paths["obs"], observation_model(r, c["n"], c["symbols"], target))
            _write(paths["seq"], utterance(r, succ, 0, target, c["symbols"],
                                           c["frames"]))
            items.append(paths)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    for item in generate(args.workload, args.seed, args.out):
        print(" ".join(item[k] for k in sorted(item)))


if __name__ == "__main__":
    main()
