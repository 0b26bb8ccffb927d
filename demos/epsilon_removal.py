"""Epsilon removal walkthrough.

Epsilon arcs consume no symbols; they only add states and slow down
decoding. The closed-form removal multiplies the closure of the
epsilon-only part of the transition matrix into the rest: the epsilon
chain p -> q collapses and p gains a direct labeled arc to r at the
combined cost.

Run: python3 demos/epsilon_removal.py
"""

from tropwfst import (build_matrices, format_matrix, gamma, parse_text,
                      remove_epsilons, serialize_text, trim)

MACHINE = """\
I 0 0
0 1 <eps> <eps> 1
1 2 a a-out 2
F 2 0
"""


def main():
    m = parse_text(MACHINE)
    print("machine with an epsilon arc:")
    print(serialize_text(m))

    view = build_matrices(m)
    print("epsilon-only weight matrix E:")
    print(format_matrix(view.E))
    print("epsilon closure (shortest epsilon-only path costs):")
    print(format_matrix(gamma(view.E)))

    out = remove_epsilons(m)
    print("after removal (state 1 keeps its arc but is now unreachable):")
    print(serialize_text(out))

    print("after trimming dead states:")
    print(serialize_text(trim(out)))


if __name__ == "__main__":
    main()
