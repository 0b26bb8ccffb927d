"""Beam-pruned Viterbi decoding and the per-step polytope metrics.

Decodes a short observation sequence against a 3-state model, pruning
every trellis vector with leniency theta. Each step keeps the states
within theta of the step optimum; the survivors and the leniency bound
define a tropical polytope whose normalized volume (nu) and normalized
entropy track how much of the search space the beam keeps and how
plausible the surviving costs are.

Run: python3 demos/pruned_decoding.py
"""

import numpy as np

from tropwfst import (ObservationModel, decode_with_metrics,
                      format_metrics_csv, parse_text, viterbi_decode)

MACHINE = """\
I 0 0
I 1 1
I 2 2
0 0 a A 1
0 1 a A 2
0 2 a A 3
1 0 a A 2
1 1 a A 1
1 2 a A 4
2 0 a A 5
2 1 a A 2
2 2 a A 1
F 0 0
F 1 0
F 2 0
"""


def main():
    m = parse_text(MACHINE)
    obs = ObservationModel(3, {"u": np.array([0.0, 1.0, 2.0]),
                               "w": np.array([2.0, 0.0, 1.0])})
    sequence = ["u", "w", "u", "w"]

    exact_cost, exact_path = viterbi_decode(m, obs, sequence)
    print(f"exact decode: cost {exact_cost:g}, path {exact_path}")

    for theta in (0.0, 2.5, 10.0):
        cost, path, etas, xs = decode_with_metrics(m, obs, sequence, theta)
        survivors = np.count_nonzero(xs < np.inf, axis=1).tolist()
        print(f"\ntheta={theta:g}: cost {cost:g}, path {path}, "
              f"survivors per step {survivors}")
        print(format_metrics_csv(etas, xs), end="")


if __name__ == "__main__":
    main()
