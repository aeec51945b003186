"""Self-checks for the benchmark's own input generators.

    python3 -m pytest bench/test_generators.py

Generated diagrams are connected and carry their declared period; every
generated embedding gets the equivariance verdict it was built for; the same
seed gives the same inputs.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from goeritz import equivariance, lattice  # noqa: E402

import generators as gen  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(6)


def test_periodic_diagrams_are_connected_and_periodic():
    for seed in SEEDS:
        rng = random.Random(seed)
        period = 2 + seed % 6
        regions = 1 + period * rng.randrange(3, 12)
        crossings, rot = gen.periodic_diagram(rng, regions, period)
        crossings, rot = gen.relabel_regions(rng, regions, crossings, rot)
        assert gen.is_connected(regions, crossings)
        assert rot[0] == 0 and gen.perm_order(rot) == period
        assert gen.is_automorphism(crossings, rot)
        bad = gen.non_isometric_action(rng, crossings, rot)
        assert bad is not None and bad[0] == 0 and gen.perm_order(bad) == period
        assert not gen.is_automorphism(crossings, bad)


def _verdict(phi, f, sign=1):
    emb = lattice.LatticeEmbedding(phi, lattice.GramLattice(gen.gram(phi, sign)),
                                   lattice.StandardTarget(len(phi), sign))
    return equivariance.find_equivariant_witness(emb, f).outcome


def test_constructions_get_the_outcome_they_were_built_for():
    for seed in SEEDS:
        rng = random.Random(seed)
        blocks = {
            "witness": gen.witness_block(rng, 6 + seed),
            "refuted_search": gen.twin_block(rng, rational=False),
            "refuted_rational": gen.twin_block(rng, rational=True),
        }
        for outcome, block in blocks.items():
            assert _verdict(*block) == outcome
            padded = gen.direct_sum(block, gen.witness_block(rng, 5))
            assert _verdict(*gen.conjugate(rng, *padded), sign=-1) == outcome


def test_restricted_relabellings_keep_the_form_up_to_signs():
    fxs = workloads.fixture_table()
    rng = random.Random(0)
    for fx in fxs.values():
        g, f = gen.apply_relabelling(gen.relabelling(rng, fx.f, fx.aut(rng)), fx.g, fx.f)
        assert [[abs(x) for x in r] for r in g] == [[abs(x) for x in r] for r in fx.g]
        assert all(sorted(r) == [0] * (len(r) - 1) + [1] for r in f + gen.transpose(f))


def test_same_seed_same_inputs():
    work = BENCH / "out" / f"test-work-{os.getpid()}"
    ctx = {"src": str(BENCH.parent / "src"), "workdir": str(work)}

    def inputs(name, seed):
        inst = workloads.WORKLOADS[name](random.Random(f"{name}/{seed}"), ctx)
        inst.prepare()
        files = sorted((p.name, p.read_text()) for p in work.rglob("*.json"))
        inst.cleanup()
        return [op.data for op in inst.ops + inst.verify], files

    try:
        for name in workloads.WORKLOADS:
            first = inputs(name, 1)
            assert inputs(name, 1) == first
            assert inputs(name, 2) != first
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
