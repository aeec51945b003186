"""The four benchmark workloads.

Each workload's setup takes a random.Random made from the seed and returns an
Instance: a pool of operations that the runner cycles through in a closed
loop, one at a time, plus checks that run once after the timed loop.  The
program only ever sees the generated inputs.  Calls go through module
attributes (`lattice.enumerate_embeddings`, ...) so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from goeritz import cli, diagram, equivariance, family, lattice, obstruction

import generators as gen

TAGS = ("K_4", "K_5", "12a1019")


@dataclass
class Op:
    """One operation: `run` calls the program, `check` returns None when the
    output is right and a message otherwise.  `tag` names the fixture the
    input derives from ("" for generated inputs); `data` is the input itself,
    used to check that a seed always gives the same inputs."""

    tag: str
    data: Any
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Instance:
    ops: list[Op]
    verify: list[Op] = field(default_factory=list)
    warmup_ops: int = 1
    # latency_tail_s is the latency of the op that ranks tail_rank-th
    # slowest of the ops (see run.py); each workload picks an op inside a
    # group of like-cost ops, so noise does not move it to another group.
    tail_rank: int = 1
    prepare: Callable[[], None] = lambda: None  # untimed, after the last set-up
    cleanup: Callable[[], None] = lambda: None
    # cli_presets only: the same commands as `python -m goeritz.cli`
    # subprocesses, timed in the traced run.
    subprocesses: list[Op] | None = None


# --- fixtures built the way a user builds them: from the diagram ------------


@dataclass(frozen=True)
class Fixture:
    name: str
    diagram: diagram.CheckerboardDiagram
    action: diagram.RegionAction
    g: tuple  # negative definite Goeritz form from the diagram
    f: tuple  # induced action matrix
    cert: obstruction.KnotCertificate  # the packaged invariants
    aut: Callable  # rng -> basis images of a permutation automorphism of g
    bound: int
    corank: int  # corank of the problems gamma4p_lower_bound decides
    classes: int  # classes at that corank


def fixture_table() -> dict[str, Fixture]:
    specs = []
    for n, bound, corank, classes in ((3, 3, 2, 6), (4, 2, 1, 12), (5, 3, 2, 60)):
        specs.append((
            f"K_{n}", family.diagram_Kn(n), family.rotation_region_action(n),
            family.make_certificate_Kn(n),
            lambda rng, n=n: gen.block_images(rng, n, 2), bound, corank, classes,
        ))
    specs.append((
        "12a1019", family.diagram_12a1019(), diagram.RegionAction((0, 2, 3, 1, 5, 6, 4), 3),
        family.fixture_12a1019(), gen.triangle_images, 1, 1, 2,
    ))
    table = {}
    for name, d, a, cert, aut, bound, corank, classes in specs:
        g = diagram.goeritz(d).matrix
        f = diagram.induced_action_matrix(d, a)
        if not diagram.validate_action(d, a).passed:
            raise RuntimeError(f"{name}: fixture action does not validate")
        if g != cert.goeritz_minus.matrix or f != cert.action_minus:
            raise RuntimeError(f"{name}: diagram and packaged certificate disagree")
        table[name] = Fixture(name, d, a, g, f, cert, aut, bound, corank, classes)
    return table


def certificate_json(fx: Fixture, p) -> dict:
    """fx relabelled by the signed permutation p, as certificate JSON."""
    g, f = gen.apply_relabelling(p, fx.g, fx.f)
    return {
        "name": fx.name, "goeritz_minus": g, "goeritz_plus": gen.neg(g),
        "action_minus": f, "action_plus": f, "period": fx.cert.period,
        "signature": fx.cert.signature, "arf": fx.cert.arf,
        "known_gamma4": fx.cert.known_gamma4,
    }


def load_certificate(obj: dict) -> obstruction.KnotCertificate:
    return obstruction.certificate_from_json(json.loads(json.dumps(obj)))


def report_error(rep, fx: Fixture, g, f) -> str | None:
    """Check a gamma4p_lower_bound report on fx relabelled to (g, f)."""
    if rep.gamma4p_lower_bound != fx.bound:
        return f"{fx.name}: bound {rep.gamma4p_lower_bound}, expected {fx.bound}"
    verdicts = [rep.mobius] + ([rep.klein] if rep.klein else [])
    if not all(v.certifying for v in verdicts):
        return f"{fx.name}: verdict not certifying"
    if (rep.klein is not None) != (fx.cert.residue == 4):
        return f"{fx.name}: Klein test applicability wrong"
    witnesses = [w for v in verdicts for w in v.witnesses]
    if (fx.bound == 1) != bool(witnesses):
        return f"{fx.name}: {len(witnesses)} witnesses for bound {fx.bound}"
    for sign, emb, t in witnesses:
        form = g if sign == -1 else gen.neg(g)
        err = gen.witness_error(emb.matrix, form, f, sign, t.matrix())
        if err:
            return f"{fx.name}: {err}"
    return None


def _class_count_op(fx: Fixture, g) -> Op:
    lat = lattice.GramLattice(g)

    def check(classes):
        if len(classes) != fx.classes:
            return f"{fx.name}: {len(classes)} corank-{fx.corank} classes, expected {fx.classes}"
        bad = [e for e in classes if gen.gram(e.matrix, -1) != g]
        return f"{fx.name}: class does not realize the form" if bad else None

    return Op(fx.name, (g, fx.corank), lambda: lattice.enumerate_embeddings(lat, fx.corank, -1), check)


def _bound_op(fx: Fixture, obj: dict) -> Op:
    cert = load_certificate(obj)
    g, f = obj["goeritz_minus"], obj["action_minus"]
    return Op(fx.name, (g, f), lambda: obstruction.gamma4p_lower_bound(cert),
              lambda rep: report_error(rep, fx, g, f))


# --- obstruct_presets ---------------------------------------------------------

# K_5 is about two thirds of a round; three K_4 and three 12a1019 inputs give
# the run enough samples for a median and a tail.
_OBSTRUCT_ROUND = ("K_4", "K_5", "12a1019", "K_4", "12a1019", "K_4", "12a1019")


def setup_obstruct_presets(rng, ctx) -> Instance:
    fxs = fixture_table()
    ops, seen = [], {}
    for name in _OBSTRUCT_ROUND:
        fx = fxs[name]
        # A permutation automorphism of G with one sign per action orbit:
        # the form changes only in its signs, so every seed gives the same
        # search (node counts are sign-blind); the action changes.
        obj = certificate_json(fx, gen.relabelling(rng, fx.f, fx.aut(rng)))
        ops.append(_bound_op(fx, obj))
        seen.setdefault((name, obj["goeritz_minus"]), (fx, obj["goeritz_minus"]))
    verify = [_class_count_op(fx, g) for fx, g in seen.values()]
    # Unrestricted relabellings change the search order (and node counts
    # several-fold), so they are checked once per run, untimed.
    for name in ("K_3", "K_4", "12a1019"):
        fx = fxs[name]
        images = rng.sample(range(len(fx.g)), len(fx.g))
        verify.append(_bound_op(fx, certificate_json(fx, gen.relabelling(rng, fx.f, images))))
    # Per pass: K_5 is the slowest op, then the three 12a1019 ones.
    return Instance(ops, verify, warmup_ops=len(ops), tail_rank=3)


# --- equivariance_verdicts ----------------------------------------------------

_N_CONSTRUCTED = 66  # plus 36 inputs from each fixture's classes


def _verdict_error(v, expected, phi, g, f, sign) -> str | None:
    if v.outcome != expected:
        return f"outcome {v.outcome}, expected {expected}"
    if v.outcome == "witness":
        return gen.witness_error(phi, g, f, sign, v.witness.matrix())
    if v.outcome == "refuted_rational":
        if not v.certificate or any(x.denominator == 1 for _, _, x in v.certificate):
            return "rational refutation without a non-integral certificate entry"
    return None


def _verdict_op(fam, rng, tag, block, sign, rank, expected) -> Op:
    pad = max(0, rank - len(block[0]))
    if pad == 1:
        pad = 2
    pair = gen.direct_sum(block, gen.witness_block(fam, pad)) if pad else block
    phi, f = gen.conjugate(rng, *pair)
    g = gen.gram(phi, sign)
    emb = lattice.LatticeEmbedding(phi, lattice.GramLattice(g), lattice.StandardTarget(len(phi), sign))
    return Op(tag, (phi, f, sign), lambda: equivariance.find_equivariant_witness(emb, f),
              lambda v: _verdict_error(v, expected, phi, g, f, sign))


@functools.cache
def _fixture_verdicts():
    """The classes of K_4 corank 1, 12a1019 corank 1/2/3 and the closed-form
    K_5 corank-2 family, each with its verdict.  They do not depend on the
    seed, so they are computed once per process, outside the timed set-ups."""
    fxs = fixture_table()
    k4, f12 = fxs["K_4"], fxs["12a1019"]
    classes = {("K_4", 1): lattice.enumerate_embeddings(lattice.GramLattice(k4.g), 1, -1)}
    for c in (1, 2, 3):
        classes[("12a1019", c)] = lattice.enumerate_embeddings(lattice.GramLattice(f12.g), c, -1)
    classes[("K_5", 2)] = family.family_embeddings(5)  # closed form: no search
    return {key: [(e, equivariance.find_equivariant_witness(e, fxs[key[0]].f).outcome)
                  for e in embs]
            for key, embs in classes.items()}


def setup_equivariance_verdicts(rng, ctx) -> Instance:
    fxs = fixture_table()
    base, verify = [], []

    def expect_counts(tag, what, got, expected):
        verify.append(Op(tag, expected, lambda: got, lambda value: None if value == expected
                         else f"{tag} {what}: {value}, expected {expected}"))

    # Known class counts and outcome splits; K_4 and K_5 have bound >= 2, so
    # none of their classes may have a witness.
    want = {("K_4", 1): (12, "refuted"), ("12a1019", 1): (2, {"witness": 2}),
            ("12a1019", 2): (2, None), ("12a1019", 3): (14, {"refuted_search": 9, "witness": 5}),
            ("K_5", 2): (4, "refuted")}
    for (tag, c), verdicts in _fixture_verdicts().items():
        f = fxs[tag].f
        outcomes = [o for _, o in verdicts]
        count, split = want[(tag, c)]
        expect_counts(tag, f"corank-{c} classes", len(verdicts), count)
        got = {o: outcomes.count(o) for o in sorted(set(outcomes))}
        if split == "refuted":
            expect_counts(tag, f"corank-{c} witnesses", got.get("witness", 0), 0)
        elif split:
            expect_counts(tag, f"corank-{c} outcomes", got, split)
        # 36 inputs per fixture: one class's span-test cost moves ~10% under
        # conjugation, and the per-fixture median needs many near the middle.
        copies = 36 // (len(verdicts) * (2 if tag == "12a1019" else 1))
        base += [(tag, e.matrix, f, o) for e, o in verdicts] * copies

    # The constructions come from a fixed stream and the seed conjugates
    # them: the span test's cost moves ~30% with the entries of a block but
    # only ~3% under signed permutations, so every seed gets the same work.
    fam = random.Random("equivariance_verdicts/constructions")
    kinds = ("witness", "refuted_search", "refuted_rational")
    specs = [(tag, (phi, f), -1, o, 16 + (3 * i) % 10)
             for i, (tag, phi, f, o) in enumerate(base)]
    for k in range(_N_CONSTRUCTED):
        kind = kinds[k % 3]
        block = (gen.witness_block(fam, 6 + fam.randrange(6)) if kind == "witness"
                 else gen.twin_block(fam, kind == "refuted_rational"))
        specs.append(("", block, fam.choice((1, -1)), kind, 10 + (7 * k) % 16))
    # Fixture classes are padded to ranks 16..25 and constructions to 10..25.
    ops = [_verdict_op(fam, rng, tag, block, sign, rank, expected)
           for tag, block, sign, expected, rank in specs]
    order = list(range(len(ops)))
    rng.shuffle(order)
    # The slowest ops are fixture classes padded to rank 22-25, a few per
    # cent apart.  The tenth of them (p95) moved with the host's slow spells
    # about as much as the median; the second (p99.2) moved twice as much.
    return Instance([ops[i] for i in order], verify, warmup_ops=20, tail_rank=10)


# --- certify_large ------------------------------------------------------------

_N_DIAGRAMS = 24


def _certify_op(tag, regions, crossings, perm, period, expect) -> Op:
    """goeritz -> induced action -> validate_action -> certificate JSON ->
    certificate_from_json.  expect is "ok", "period" or "isometry"."""
    d = diagram.CheckerboardDiagram(regions, crossings)
    a = diagram.RegionAction(perm, period)
    want_g = gen.expected_goeritz(regions, crossings)
    want_f = gen.action_matrix(perm)

    def run():
        g = diagram.goeritz(d).matrix
        f = diagram.induced_action_matrix(d, a)
        valid = diagram.validate_action(d, a)
        text = json.dumps({
            "name": tag, "goeritz_minus": g, "goeritz_plus": [[-x for x in r] for r in g],
            "action_minus": f, "action_plus": f, "period": period, "signature": 0, "arf": 0,
        })
        try:
            return g, f, valid, obstruction.certificate_from_json(json.loads(text)), ""
        except ValueError as exc:
            return g, f, valid, None, str(exc)

    def check(out):
        g, f, valid, cert, err = out
        if g != want_g or f != want_f:
            return "Goeritz matrix or action matrix wrong"
        if expect == "ok":
            if not valid.passed or cert is None:
                return f"valid certificate rejected: {valid.failures} {err}"
            if cert.goeritz_minus.matrix != want_g or cert.period != period:
                return "certificate does not carry its input"
            return None
        word = {"period": "order", "isometry": "isometry"}[expect]
        if not any(word in msg for msg in valid.failures):
            return f"validate_action missed the bad {expect}: {valid.failures}"
        if cert is not None or word not in err:
            return f"certificate with a bad {expect} not rejected as such: {err!r}"
        return None

    return Op(tag, (regions, crossings, perm, period), run, check)


def setup_certify_large(rng, ctx) -> Instance:
    ops = []
    for k in range(_N_DIAGRAMS):
        period = 2 + k % 6
        target = 40 + (41 * k) // _N_DIAGRAMS  # 40..80 regions, one per stratum
        regions = 1 + period * ((target - 1) // period)
        crossings, rot = gen.periodic_diagram(rng, regions, period)
        crossings, rot = gen.relabel_regions(rng, regions, crossings, rot)
        expect, perm, declared = "ok", rot, period
        if k % 4 == 3:
            bad = gen.non_isometric_action(rng, crossings, rot) if k % 8 == 7 else None
            if bad is not None:
                expect, perm = "isometry", bad
            else:
                expect, declared = "period", rng.choice([q for q in range(2, 8) if q != period])
        ops.append(_certify_op("", regions, crossings, perm, declared, expect))
    # Interleave sizes (k -> 7k mod 24) so any prefix of the stream has the
    # same size mix; the seed changes the diagrams, not the sizes.
    ops = [ops[(7 * k) % _N_DIAGRAMS] for k in range(_N_DIAGRAMS)]
    # Five relabelled copies of each fixture diagram, first in the pass: they
    # take under 2 ms, so the per-fixture medians need the samples.
    fxs = fixture_table()
    fixture_ops = []
    for name in TAGS * 5:
        fx = fxs[name]
        d = fx.diagram
        crossings, perm = gen.relabel_regions(rng, d.region_count, d.crossings, fx.action.permutation)
        fixture_ops.append(_certify_op(name, d.region_count, crossings, perm, fx.action.period, "ok"))
    ops = fixture_ops + ops
    # Per pass the largest diagrams are the slowest ops, a few per cent
    # apart; the fifth sits well inside the ops' spread.
    return Instance(ops, warmup_ops=len(fixture_ops) + 3, tail_rank=5)


# --- cli_presets --------------------------------------------------------------


def _json_out(out):
    rc, stdout, _ = out
    return rc, json.loads(stdout) if rc == 0 else None


def _cli_checks(fxs, files):
    """(tag, argv, check) for every command; check takes (rc, stdout, stderr).

    One command per fixture tag: a median over two unlike commands would sit
    between them and jump from run to run."""
    k3, k4, k5, f12 = fxs["K_3"], fxs["K_4"], fxs["K_5"], fxs["12a1019"]

    def bound(fx, g, f):
        def check(out):
            rc, obj = _json_out(out)
            if rc != 0:
                return f"exit {rc}"
            if obj["gamma4p_lower_bound"] != fx.bound:
                return f"{fx.name}: bound {obj['gamma4p_lower_bound']}, expected {fx.bound}"
            for v in (obj["mobius"], obj["klein"] or {"witnesses": []}):
                for w in v["witnesses"]:
                    form = g if w["sign"] == -1 else gen.neg(g)
                    phi = tuple(map(tuple, w["embedding"]))
                    err = gen.witness_error(phi, form, f, w["sign"], tuple(map(tuple, w["intertwiner"])))
                    if err:
                        return err
            return None
        return check

    def classes(form, count):
        def check(out):
            rc, obj = _json_out(out)
            if rc != 0 or len(obj["classes"]) != count:
                return f"exit {rc}, expected {count} classes"
            bad = [c for c in obj["classes"] if gen.gram(tuple(map(tuple, c)), -1) != form]
            return "class does not realize the form" if bad else None
        return check

    def equivariant(form, f, want):
        """want: the sorted outcomes."""
        def check(out):
            rc, obj = _json_out(out)
            if rc != 0:
                return f"exit {rc}"
            got = sorted(c["outcome"] for c in obj["classes"])
            if got != want:
                return f"outcomes {got}, expected {want}"
            for c in obj["classes"]:
                if "witness" in c:
                    phi = tuple(map(tuple, c["class"]))
                    err = gen.witness_error(phi, form, f, -1, tuple(map(tuple, c["witness"])))
                    if err:
                        return err
            return None
        return check

    def goeritz_out(want):
        def check(out):
            rc, obj = _json_out(out)
            if rc != 0 or tuple(map(tuple, obj["goeritz"])) != want:
                return f"exit {rc} or wrong Goeritz matrix"
            return None
        return check

    def family_k5(out):
        rc, obj = _json_out(out)
        want = gen.expected_goeritz(k5.diagram.region_count, k5.diagram.crossings)
        if rc != 0 or tuple(map(tuple, obj["goeritz_minus"])) != want or obj["period"] != 5:
            return "family k_n:5 output wrong"
        if len(obj["closed_form_embeddings"]) != 4:
            return "expected 4 closed-form embeddings"
        return None

    def budget(out):
        rc, stdout, _ = out
        return None if rc == 2 and "inconclusive (budget)" in stdout else f"exit {rc}, expected 2"

    def malformed(out):
        rc, stdout, stderr = out
        lines = stderr.strip().splitlines()
        if rc != 1 or len(lines) != 1 or not lines[0].startswith("error:"):
            return f"exit {rc} with stderr {stderr[-200:]!r}, expected 1 and one error line"
        return None

    return [
        ("", ["obstruct", "--preset", "k_n:3", "--format", "json"], bound(k3, k3.g, k3.f)),
        ("K_4", ["obstruct", "--preset", "k_n:4", "--format", "json"], bound(k4, k4.g, k4.f)),
        ("", ["obstruct", "--preset", "k_n:4", "--budget", "1000"], budget),
        ("", ["embed", "--preset", "12a1019", "--corank", "1", "--format", "json"],
         classes(f12.g, 2)),
        ("", ["equivariant", "--preset", "12a1019", "--corank", "1", "--format", "json"],
         equivariant(f12.g, f12.f, ["witness", "witness"])),
        ("", ["equivariant", "--preset", "k_n:2", "--format", "json"],
         equivariant(family.goeritz_Gn(2).matrix, family.action_fn(2),
                     ["refuted_rational", "refuted_rational"])),
        ("K_5", ["obstruct", "--preset", "k_n:5", "--format", "json"], bound(k5, k5.g, k5.f)),
        ("", ["family", "--preset", "k_n:5", "--format", "json"], family_k5),
        ("", ["embed", "--preset", "k_n:3", "--corank", "2", "--format", "json"],
         classes(k3.g, 6)),
        ("", ["goeritz", "--input", files["diagram"], "--format", "json"],
         goeritz_out(files["diagram_g"])),
        ("", ["goeritz", "--input", files["k5_diagram"], "--format", "json"],
         goeritz_out(files["k5_diagram_g"])),
        ("", ["obstruct", "--input", files["k3_cert"], "--format", "json"],
         bound(k3, *files["k3_gf"])),
        ("12a1019", ["obstruct", "--input", files["12a_cert"], "--format", "json"],
         bound(f12, *files["12a_gf"])),
        ("", ["obstruct", "--input", files["bad"]], malformed),
    ]


def _malformed_certificate(rng, obj) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return json.dumps(obj)[:-rng.randrange(2, 40)]  # truncated JSON
    obj = dict(obj)
    if kind == 1:
        del obj["period"]
    else:
        g = [list(r) for r in obj["goeritz_minus"]]
        g[0][1] += 1  # no longer symmetric
        obj["goeritz_minus"] = g
    return json.dumps(obj)


def setup_cli_presets(rng, ctx) -> Instance:
    # The input files are written once, after the timed set-ups: file-system
    # latency here is erratic and is not the program's work.
    work = os.path.join(ctx["workdir"], "cli")
    fxs = fixture_table()
    files, texts = {}, {}

    def write(key, text):
        files[key] = os.path.join(work, key + ".json")
        texts[files[key]] = text

    def prepare():
        os.makedirs(work, exist_ok=True)
        for path, text in texts.items():
            with open(path, "w") as fh:
                fh.write(text)

    period = rng.randrange(2, 6)
    regions = 1 + period * rng.randrange(3, 6)
    crossings, _ = gen.periodic_diagram(rng, regions, period)
    write("diagram", json.dumps({"regions": regions, "crossings": crossings}))
    files["diagram_g"] = gen.expected_goeritz(regions, crossings)
    k5 = fxs["K_5"].diagram
    crossings, _ = gen.relabel_regions(rng, k5.region_count, k5.crossings, tuple(range(k5.region_count)))
    write("k5_diagram", json.dumps({"regions": k5.region_count, "crossings": crossings}))
    files["k5_diagram_g"] = gen.expected_goeritz(k5.region_count, crossings)
    # Relabellings that keep the search (see setup_obstruct_presets): the
    # median of this mix of commands sits among the cheap ones, so their
    # cost must not depend on the seed.
    certs = {}
    for key, name in (("k3_cert", "K_3"), ("12a_cert", "12a1019")):
        fx = fxs[name]
        certs[key] = obj = certificate_json(fx, gen.relabelling(rng, fx.f, fx.aut(rng)))
        write(key, json.dumps(obj))
        files[key.replace("cert", "gf")] = (obj["goeritz_minus"], obj["action_minus"])
    write("bad", _malformed_certificate(rng, certs["k3_cert"]))

    commands = _cli_checks(fxs, files)
    rng.shuffle(commands)
    env = {k: v for k, v in os.environ.items() if k not in ("GO_BUDGET", "GO_JOBS")}
    env["PYTHONPATH"] = ctx["src"]

    def subprocess_op(tag, argv, check):
        def run():
            p = subprocess.run([sys.executable, "-m", "goeritz.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
            return p.returncode, p.stdout, p.stderr
        return Op(tag, [os.path.basename(a) if a.startswith(work) else a for a in argv],
                  run, check)

    def in_process_op(tag, argv, check):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return rc, out.getvalue(), err.getvalue()
        return Op(tag, argv, run, check)

    # The timed commands run in-process through cli.main: measured as
    # subprocesses, the same code moved 30-50% between two sets of ten runs
    # on the shared reference machine (process start-up), against
    # under 5% in-process.  Start-up is measured in the traced run.  The
    # slowest command is the K_5 one; the next, obstruct on the 12a1019
    # certificate, gives the tail.
    return Instance(
        [in_process_op(*c) for c in commands],
        warmup_ops=len(commands),
        tail_rank=2,
        prepare=prepare,
        cleanup=lambda: shutil.rmtree(work, ignore_errors=True),
        subprocesses=[subprocess_op(*c) for c in commands],
    )


WORKLOADS = {
    "obstruct_presets": setup_obstruct_presets,
    "equivariance_verdicts": setup_equivariance_verdicts,
    "certify_large": setup_certify_large,
    "cli_presets": setup_cli_presets,
}
