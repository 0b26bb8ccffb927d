"""Weight pushing walkthrough.

A small transducer maps lowercase letters to capitals. One branch hides
a heavy cost (42) on a late arc, so a beam search only discovers how bad
that branch is after already committing resources to it. Pushing moves
the cost onto the first arc without changing any path total.

Run: python3 demos/weight_pushing.py
"""

from tropwfst import compute_potentials, parse_text, push_weights, serialize_text
from tropwfst.oracles import enumerate_paths

MACHINE = """\
I 0 0
0 1 a A 1
0 2 a A 2
1 3 z Z 42
2 4 x X 3
F 3 0
F 4 0
"""


def show_paths(m, title):
    print(title)
    for p in enumerate_paths(m, m.n_states):
        labels = "".join(m.isyms[l] for l in p.ilabels)
        print(f"  path {'->'.join(map(str, p.states))}  "
              f"input '{labels}'  total cost {p.total_cost:g}")


def main():
    m = parse_text(MACHINE)
    print("original machine:")
    print(serialize_text(m))

    pot = compute_potentials(m)
    print(f"potential per state (cheapest cost to termination): {pot.v}")
    print(f"fixpoint reached after {pot.iterations_to_fixpoint} sweeps\n")

    pushed = push_weights(m)
    print("pushed machine (the 42 now sits on the first arc):")
    print(serialize_text(pushed))

    show_paths(m, "path totals before pushing:")
    show_paths(pushed, "path totals after pushing (identical):")


if __name__ == "__main__":
    main()
