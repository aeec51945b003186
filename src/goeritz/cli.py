"""Command-line front end.

Verbs:
  goeritz      print the pre-Goeritz and Goeritz matrices of a diagram
  embed        enumerate canonical embedding classes of a Gram form
  equivariant  test each embedding class for an equivariant intertwiner
  obstruct     run the full obstruction pipeline on a knot certificate
  family       print the built-in K_n / 12a1019 fixtures

Inputs come from --input FILE (JSON) or --preset NAME (k_n:3, 12a1019).
Exit status: 0 conclusive, 1 input or usage error, 2 inconclusive (budget
exhausted).

JSON schemas:
  diagram      {"regions": n+1, "crossings": [[i, j, eta], ...], "label": "..."}
  form         {"matrix": [[...], ...]}   (embed / equivariant; equivariant
               additionally takes {"action": [[...]] or [images...]})
  certificate  {"name", "goeritz_minus", "goeritz_plus", "action_minus",
                "action_plus", "period", "signature", "arf", "known_gamma4"?}
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import _intlinalg as la
from . import family
from .diagram import diagram_from_json, goeritz, pre_goeritz
from .equivariance import find_equivariant_witness
from .lattice import GramLattice, SearchIncomplete, enumerate_embeddings, is_isometry
from .obstruction import (
    KnotCertificate,
    certificate_from_json,
    gamma4p_lower_bound,
    parse_action,
    report_to_json,
    report_to_text,
)

DEFAULT_BUDGET = 10**8
# Every class carries all n + corank rows: at corank 10**6, equivariant
# --preset k_n:2 prints its text in 19-24 s with a 323-331 MB peak (2 cores,
# Python 3.11), and the work grows linearly.
MAX_CORANK = 10**6
# equivariant --format json prints each witness as an (n + corank)^2 matrix:
# for k_n:2, n + corank = 1005 prints 27 MB in 1.5 s (205 MB peak) and
# 2005 prints 105 MB in 4.8 s (766 MB peak).
MAX_EQUIVARIANT_JSON_RANK = 1000
# family --format json lists 2 ** (n // 2) matrices of size (2n + 1) x 2n:
# k_n:20 prints 19 MB in 5 s, k_n:22 46 MB in 15 s.
MAX_FAMILY_JSON_N = 20
# Building the k_n:N certificate takes 0.25 s at N = 100 and 0.8 s at N = 150
# (2 cores, Python 3.11), and grows about as N ** 3.
MAX_PRESET_N = 100


def _parse_preset(name: str) -> KnotCertificate:
    if name == "12a1019":
        return family.fixture_12a1019()
    if name.startswith("k_n:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad preset {name!r}: expected k_n:<integer>")
        if n < 2:
            raise ValueError("k_n preset needs n >= 2")
        if n > MAX_PRESET_N:
            raise ValueError(f"k_n preset needs n <= {MAX_PRESET_N}")
        return family.make_certificate_Kn(n)
    raise ValueError(f"unknown preset {name!r} (try k_n:3 or 12a1019)")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")
    except RecursionError:
        raise ValueError(f"{path}: invalid JSON: nested too deeply")


def _form_text(label: str, mat) -> str:
    width = max(len(str(x)) for row in mat for x in row)
    lines = [label]
    for row in mat:
        lines.append("  [" + " ".join(str(x).rjust(width) for x in row) + "]")
    return "\n".join(lines)


def _emit(args, payload_json: dict, payload_text: str) -> None:
    if args.format == "json":
        text = json.dumps(payload_json, indent=2, sort_keys=True)
    else:
        text = payload_text
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed the pipe early (e.g. `| head`).  Point stdout at
        # devnull so the flush at interpreter exit cannot fail again, and
        # exit quietly with status 1, as Python itself does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)


def _resolve_form(args) -> tuple[GramLattice, la.IntMatrix | None]:
    """Gram form plus (for presets) the matching action, honoring --sign."""
    if args.preset:
        cert = _parse_preset(args.preset)
        if args.sign == "-":
            return cert.goeritz_minus, cert.action_minus
        return cert.goeritz_plus, cert.action_plus
    obj = _load_json(args.input)
    try:
        lat = GramLattice(la.freeze(obj["matrix"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad form input: {exc}")
    action = None
    if "action" in obj:
        action = parse_action(obj["action"], lat.rank)
    return lat, action


def cmd_goeritz(args) -> int:
    d = diagram_from_json(_load_json(args.input))
    pg = pre_goeritz(d)
    g = goeritz(d)
    _emit(
        args,
        {
            "label": d.label,
            "pre_goeritz": pg,
            "goeritz": g.matrix,
        },
        _form_text("pre-Goeritz:", pg) + "\n" + _form_text("Goeritz:", g.matrix),
    )
    return 0


def cmd_embed(args) -> int:
    lat, _ = _resolve_form(args)
    sign = -1 if args.sign == "-" else 1
    classes = enumerate_embeddings(lat, args.corank, sign, max_nodes=args.budget)
    _emit(
        args,
        {
            "source": lat.matrix,
            "target": {"rank": lat.rank + args.corank, "sign": sign},
            "canonical": True,
            "classes": [e.matrix for e in classes],
        },
        "\n".join(
            [f"{len(classes)} canonical embedding class(es)"]
            + [_form_text(f"class {k + 1}:", e.matrix) for k, e in enumerate(classes)]
        ),
    )
    return 0


def cmd_equivariant(args) -> int:
    lat, action = _resolve_form(args)
    if action is None:
        raise ValueError("equivariant needs an action (preset or \"action\" key)")
    # checked before the search, which may find no class to check it on
    if not is_isometry(action, lat):  # ValueError on a wrong shape
        raise ValueError("f is not an isometry of the source form")
    rank = lat.rank + args.corank
    if args.format == "json" and rank > MAX_EQUIVARIANT_JSON_RANK:
        raise ValueError(
            f"equivariant --format json prints each witness as a {rank} x {rank} "
            f"matrix; n + corank must be at most {MAX_EQUIVARIANT_JSON_RANK} "
            "(text prints the outcomes)"
        )
    sign = -1 if args.sign == "-" else 1
    classes = enumerate_embeddings(lat, args.corank, sign, max_nodes=args.budget)
    verdicts = [find_equivariant_witness(e, action) for e in classes]
    out_json = []
    out_text = [f"{len(classes)} canonical embedding class(es)"]
    for k, (emb, v) in enumerate(zip(classes, verdicts)):
        entry = {"class": emb.matrix, "outcome": v.outcome}
        if v.witness is not None and args.format == "json":  # (n + corank)^2 entries
            entry["witness"] = v.witness.matrix()
        if v.certificate:
            entry["certificate"] = [
                {"row": i, "col": j, "num": x.numerator, "den": x.denominator}
                for i, j, x in v.certificate
            ]
        out_json.append(entry)
        line = f"class {k + 1}: {v.outcome}"
        if v.certificate:
            i, j, x = v.certificate[0]
            line += f" (entry ({i + 1},{j + 1}) = {x})"
        out_text.append(line)
    _emit(args, {"classes": out_json}, "\n".join(out_text))
    return 0


def cmd_obstruct(args) -> int:
    if args.preset:
        cert = _parse_preset(args.preset)
    else:
        cert = certificate_from_json(_load_json(args.input))
    report = gamma4p_lower_bound(cert, max_nodes=args.budget)
    _emit(args, report_to_json(report), report_to_text(report))
    return 0 if report.conclusive else 2


def cmd_family(args) -> int:
    cert = _parse_preset(args.preset)
    payload = {
        "name": cert.name,
        "goeritz_minus": cert.goeritz_minus.matrix,
        "goeritz_plus": cert.goeritz_plus.matrix,
        "action_minus": cert.action_minus,
        "period": cert.period,
        "signature": cert.signature,
        "arf": cert.arf,
        "known_gamma4": cert.known_gamma4,
    }
    text = [
        f"knot {cert.name}: period {cert.period}, signature {cert.signature}, "
        f"Arf {cert.arf}, known gamma_4 {cert.known_gamma4}",
        _form_text("G_-:", cert.goeritz_minus.matrix),
    ]
    if cert.name.startswith("K_"):
        n = cert.period
        # one psi_1 or psi_2 block per pair of summands (family_embeddings)
        text.append(f"{2 ** (n // 2)} closed-form embedding(s)")
        if args.format == "json":
            if n > MAX_FAMILY_JSON_N:
                raise ValueError(
                    f"family --format json lists {2 ** (n // 2)} closed-form "
                    f"embeddings; k_n needs n <= {MAX_FAMILY_JSON_N} (text prints the count)"
                )
            payload["closed_form_embeddings"] = [
                e.matrix for e in family.family_embeddings(n)
            ]
    _emit(args, payload, "\n".join(text))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the input-error status: 2 means inconclusive."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="goeritz",
        description="Equivariant non-orientable 4-genus obstructions "
        "from Goeritz forms and definite lattice embeddings.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--input", metavar="FILE", help="JSON input file")
        src.add_argument("--preset", help="built-in fixture (k_n:3, 12a1019)")
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_BUDGET,
            help=f"search node budget (default {DEFAULT_BUDGET})",
        )
        p.add_argument("--format", choices=["json", "text"], default="text")

    def target(p):  # the target lattice (Z^{n+corank}, sign * Id)
        p.add_argument("--corank", type=int, default=1)
        p.add_argument("--sign", choices=["+", "-"], default="-")

    p = sub.add_parser("goeritz", help="pre-Goeritz and Goeritz matrices")
    p.add_argument("--input", metavar="FILE", required=True)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_goeritz)

    p = sub.add_parser("embed", help="canonical embedding classes")
    common(p)
    target(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("equivariant", help="equivariance verdict per class")
    common(p)
    target(p)
    p.set_defaults(func=cmd_equivariant)

    p = sub.add_parser("obstruct", help="full obstruction report")
    common(p)
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("family", help="built-in fixtures")
    p.add_argument("--preset", required=True)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_family)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb in ("embed", "equivariant", "obstruct") and args.budget <= 0:
        print("error: budget must be positive", file=sys.stderr)
        return 1
    if args.verb in ("embed", "equivariant") and args.corank > MAX_CORANK:
        print(f"error: corank must be at most {MAX_CORANK}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except SearchIncomplete as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:  # OverflowError: sizes past 2**63
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
