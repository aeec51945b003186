"""Time the obstruction pipeline on the K_p family, one rung per p.

    python tools/kp_ladder.py [P ...] [--repeat K] [--nodes]

For each p (default 20 30 40 60) it builds make_certificate_Kn(p) once, then
prints one line: p, the lower bound on gamma_4,p that gamma4p_lower_bound
certifies, and the best wall time in seconds of K calls of it (default 3;
the certificate is built outside the timing).  With --nodes the line also
gives the node count: the smallest max_nodes at which the report is
conclusive, found by doubling and then bisection.  A search that completes
within N nodes completes within any larger budget, so that is the count of
the report's largest search.  The package is imported from the src directory
next to this script, so a checkout measures its own code.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from goeritz.family import make_certificate_Kn  # noqa: E402
from goeritz.obstruction import gamma4p_lower_bound  # noqa: E402


def best_time(cert, repeat: int) -> tuple[int, float]:
    """The bound and the best wall time of repeat unbounded runs."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        bound = gamma4p_lower_bound(cert).gamma4p_lower_bound
        best = min(best, time.perf_counter() - start)
    return bound, best


def node_count(cert) -> int:
    """The smallest max_nodes at which the report is conclusive."""

    def conclusive(budget: int) -> bool:
        return gamma4p_lower_bound(cert, max_nodes=budget).conclusive

    lo, hi = 0, 1  # conclusive(hi) is unknown until the doubling stops
    while not conclusive(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # not conclusive at lo, conclusive at hi
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if conclusive(mid) else (mid, hi)
    return hi


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("p", nargs="*", type=int, default=[20, 30, 40, 60])
    parser.add_argument("--repeat", type=int, default=3, help="timed calls per rung")
    parser.add_argument("--nodes", action="store_true", help="add node counts")
    args = parser.parse_args(argv[1:])
    if args.repeat < 1 or any(p < 2 for p in args.p):
        parser.error("need --repeat >= 1 and every p >= 2")
    print("p bound seconds" + (" nodes" if args.nodes else ""))
    for p in args.p:
        cert = make_certificate_Kn(p)
        bound, seconds = best_time(cert, args.repeat)
        line = f"{p} {bound} {seconds:.3f}"
        if args.nodes:
            line += f" {node_count(cert)}"
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
