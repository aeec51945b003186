import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import goeritz
import goeritz._intlinalg as la
from goeritz import cli, family
from goeritz.cli import DEFAULT_BUDGET, build_parser, main
from goeritz.lattice import SignedPermutation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_subprocess(*argv, timeout=60):
    src = os.path.dirname(os.path.dirname(goeritz.__file__))
    return subprocess.run(
        [sys.executable, "-m", "goeritz.cli", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=timeout,
    )


def usage_exit(*argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


class TestGoeritzVerb:
    def test_single_crossing(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "d.json", {"regions": 2, "crossings": [[0, 1, -1]]}
        )
        code, out, _ = run(capsys, "goeritz", "--input", path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["goeritz"] == [[-1]]
        assert payload["pre_goeritz"] == [[-1, 1], [1, -1]]

    def test_text_format(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "d.json", {"regions": 2, "crossings": [[0, 1, -1]]}
        )
        code, out, _ = run(capsys, "goeritz", "--input", path)
        assert code == 0
        assert "Goeritz:" in out

    def test_bad_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "goeritz", "--input", str(path))
        assert code == 1
        assert "invalid JSON" in err

    def test_bad_schema_is_input_error(self, capsys, tmp_path):
        path = write_json(tmp_path, "d.json", {"regions": 3})
        code, _, err = run(capsys, "goeritz", "--input", str(path))
        assert code == 1

    @pytest.mark.parametrize(
        "diagram",
        [
            {"regions": 2.9, "crossings": [[0, 1, -1]]},
            {"regions": "2", "crossings": [[0, 1, -1]]},
            {"regions": 2, "crossings": [[0, True, -1]]},
            {"regions": 2, "crossings": [[0, 1, -1.0]]},
        ],
    )
    def test_non_int_diagram_entry_is_input_error(self, capsys, tmp_path, diagram):
        path = write_json(tmp_path, "d.json", diagram)
        code, out, err = run(capsys, "goeritz", "--input", path)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    @pytest.mark.parametrize(
        "diagram",
        [
            {"regions": 2, "crossings": [[0, 1]]},
            {"regions": 2, "crossings": [[0, 1, -1, 1]]},
            {"regions": 2, "crossings": [[0, 1, -1]], "label": [1, 2]},
        ],
        ids=["pair", "quadruple", "list-label"],
    )
    def test_malformed_diagram_is_input_error(self, capsys, tmp_path, diagram):
        path = write_json(tmp_path, "d.json", diagram)
        code, out, err = run(capsys, "goeritz", "--input", path, "--format", "json")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: malformed diagram JSON: ")

    @pytest.mark.parametrize("regions", [3, 10**12])
    def test_region_without_crossing_is_input_error(self, capsys, tmp_path, regions):
        # more regions than crossing ends: rejected before a matrix is sized
        path = write_json(tmp_path, "d.json", {"regions": regions, "crossings": [[0, 1, -1]]})
        code, out, err = run(capsys, "goeritz", "--input", path)
        assert (code, out) == (1, "")
        assert err == f"error: {regions} regions but 1 crossing(s): some white region touches no crossing\n"


class TestEmbedVerb:
    def test_12a1019_two_classes(self, capsys):
        code, out, _ = run(
            capsys, "embed", "--preset", "12a1019", "--corank", "1",
            "--sign", "-", "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["classes"]) == 2

    def test_matrix_input(self, capsys, tmp_path):
        path = write_json(tmp_path, "f.json", {"matrix": [[-3, 1], [1, -2]]})
        code, out, _ = run(
            capsys, "embed", "--input", path, "--corank", "2",
            "--sign", "-", "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["classes"]) == 1

    def test_budget_exhaustion_exit_2(self, capsys):
        code, _, err = run(
            capsys, "embed", "--preset", "12a1019", "--budget", "10"
        )
        assert code == 2
        assert "inconclusive" in err

    @pytest.mark.parametrize("entry", [-2.0, "a", True])
    def test_non_int_matrix_entry_is_input_error(self, capsys, tmp_path, entry):
        path = write_json(tmp_path, "f.json", {"matrix": [[entry]]})
        code, out, err = run(capsys, "embed", "--input", path)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_invalid_budget(self, capsys):
        code, _, err = run(capsys, "embed", "--preset", "12a1019", "--budget", "0")
        assert code == 1

    def test_invalid_corank(self, capsys):
        code, _, _ = run(capsys, "embed", "--preset", "12a1019", "--corank", "-1")
        assert code == 1

    def test_negative_corank_message_comes_from_the_library(self, capsys):
        code, out, err = run(capsys, "embed", "--preset", "k_n:2", "--corank", "-1")
        assert (code, out, err) == (1, "", "error: corank must be non-negative\n")

    @pytest.mark.parametrize("verb", ["embed", "equivariant"])
    def test_sign_plus_uses_the_plus_form(self, capsys, verb):
        _, minus, _ = run(capsys, verb, "--preset", "k_n:2", "--format", "json")
        code, plus, _ = run(
            capsys, verb, "--preset", "k_n:2", "--sign", "+", "--format", "json"
        )
        assert code == 0
        if verb == "embed":
            assert json.loads(plus)["target"] == {"rank": 5, "sign": 1}
            assert json.loads(plus)["source"] == [
                list(r) for r in family.make_certificate_Kn(2).goeritz_plus.matrix
            ]
        # K_2 has G_+ = -G_- and one action: the same classes on both sides
        assert json.loads(plus)["classes"] == json.loads(minus)["classes"]

    def test_huge_norm_exits_2_at_once(self, tmp_path):
        # 10**15 values to scan in one coordinate: the budget must stop it
        path = write_json(tmp_path, "f.json", {"matrix": [[-4, 0], [0, -(10**30)]]})
        proc = run_subprocess(
            "embed", "--input", path, "--corank", "0", "--budget", "10", timeout=30
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("inconclusive: search budget exhausted")

    def test_byte_deterministic(self, capsys):
        outs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "embed", "--preset", "k_n:2", "--format", "json")
            outs.add(out)
        assert len(outs) == 1


class TestEquivariantVerb:
    def test_12a1019_witnesses(self, capsys):
        code, out, _ = run(
            capsys, "equivariant", "--preset", "12a1019", "--format", "json"
        )
        assert code == 0
        classes = json.loads(out)["classes"]
        assert len(classes) == 2
        assert all(c["outcome"] == "witness" for c in classes)
        assert all("witness" in c for c in classes)

    def test_k2_refuted_with_certificates(self, capsys):
        code, out, _ = run(
            capsys, "equivariant", "--preset", "k_n:2", "--format", "json"
        )
        assert code == 0
        classes = json.loads(out)["classes"]
        assert len(classes) == 2
        assert all(c["outcome"] == "refuted_rational" for c in classes)
        assert all(c["certificate"][0]["den"] == 5 for c in classes)

    def test_k2_certificates_recheck(self, capsys):
        # the README's re-check: with H the Hermite basis of the row lattice
        # of the class, solve H X = f^T H over Q by forward substitution on
        # the pivot rows of H; the certificate lists the non-integral
        # entries of X^T, row by row
        code, out, _ = run(capsys, "equivariant", "--preset", "k_n:2", "--format", "json")
        assert code == 0
        f = family.action_fn(2)
        for c in json.loads(out)["classes"]:
            h = la.column_hnf(la.transpose(c["class"]))
            b = la.matmul(la.transpose(f), h)
            x = []
            for j, col in enumerate(zip(*h)):
                p = next(i for i, v in enumerate(col) if v)
                x.append([(v - sum(h[p][t] * x[t][k] for t in range(j))) / Fraction(h[p][j])
                          for k, v in enumerate(b[p])])
            assert la.matmul(h, x) == b
            r = len(x)
            assert c["certificate"] == [
                {"row": i, "col": j, "num": x[j][i].numerator, "den": x[j][i].denominator}
                for i in range(r) for j in range(r) if x[j][i].denominator != 1
            ]

    def test_k2_text_is_frozen(self, capsys):
        code, out, err = run(capsys, "equivariant", "--preset", "k_n:2")
        assert (code, err) == (0, "")
        assert out == (
            "2 canonical embedding class(es)\n"
            "class 1: refuted_rational (entry (1,4) = -6/5)\n"
            "class 2: refuted_rational (entry (1,4) = -11/5)\n"
        )

    def test_text_builds_no_witness_matrix(self, capsys, monkeypatch):
        # a witness matrix has (n + corank)^2 entries; text prints the outcome
        def refuse(self):
            raise AssertionError("text output built a witness matrix")

        monkeypatch.setattr(SignedPermutation, "matrix", refuse)
        code, out, err = run(capsys, "equivariant", "--preset", "k_n:2", "--corank", "2000")
        assert (code, err) == (0, "")
        assert out == (
            "4 canonical embedding class(es)\n"
            "class 1: witness\n"
            "class 2: refuted_rational (entry (1,4) = -6/5)\n"
            "class 3: witness\n"
            "class 4: refuted_rational (entry (1,4) = -11/5)\n"
        )

    def test_json_is_capped(self, capsys, monkeypatch, tmp_path):
        # past the cap the refusal comes before the search, which would
        # exhaust --budget 1 and exit 2
        path = write_json(tmp_path, "f.json", {"matrix": [[-2]], "action": [[-1]]})
        cap = cli.MAX_EQUIVARIANT_JSON_RANK
        argv = ["equivariant", "--input", path, "--corank", str(cap), "--budget", "1"]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, out) == (1, "")
        assert err == (
            f"error: equivariant --format json prints each witness as a {cap + 1} x "
            f"{cap + 1} matrix; n + corank must be at most {cap} (text prints the outcomes)\n"
        )
        assert run(capsys, *argv)[0] == 2  # text has no cap
        # the cap itself is allowed
        monkeypatch.setattr(cli, "MAX_EQUIVARIANT_JSON_RANK", 4)
        code, out, _ = run(
            capsys, "equivariant", "--input", path, "--corank", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["classes"][0]["witness"] == [
            [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]
        ]
        code, _, _ = run(
            capsys, "equivariant", "--input", path, "--corank", "4", "--format", "json"
        )
        assert code == 1

    def test_file_input_needs_action(self, capsys, tmp_path):
        path = write_json(tmp_path, "f.json", {"matrix": [[-3, 1], [1, -2]]})
        code, _, err = run(capsys, "equivariant", "--input", path)
        assert code == 1
        assert "action" in err

    def test_file_input_with_action(self, capsys, tmp_path):
        cert = family.make_certificate_Kn(2)
        path = write_json(
            tmp_path,
            "f.json",
            {
                "matrix": [list(r) for r in cert.goeritz_minus.matrix],
                "action": [list(r) for r in cert.action_minus],
            },
        )
        code, out, _ = run(
            capsys, "equivariant", "--input", path, "--format", "json"
        )
        assert code == 0
        assert len(json.loads(out)["classes"]) == 2

    @pytest.mark.parametrize(
        "form, argv, message",
        [
            ({"matrix": [[-2, 1], [1, -2]], "action": [[1, 5], [0, 1]]}, argv,
             "f is not an isometry of the source form")
            for argv in (["--corank", "0"], ["--corank", "1", "--sign", "+"], ["--corank", "1"])
        ] + [
            ({"matrix": [[2, 1], [1, 2]], "action": action}, ["--corank", "0"],
             "action matrix has wrong shape")
            for action in ([[7]], [])
        ],
        ids=["corank-0", "corank-1-plus", "corank-1", "one-by-one-action", "empty-action"],
    )
    def test_bad_action_is_input_error_with_or_without_a_class(
        self, capsys, tmp_path, form, argv, message
    ):
        # with no canonical class there is no verdict to check the action on
        path = write_json(tmp_path, "f.json", form)
        code, out, err = run(capsys, "equivariant", "--input", path, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("action", [5, [True, False], [[1.0, 0], [0, 1]]])
    def test_malformed_action_is_input_error(self, capsys, tmp_path, action):
        path = write_json(
            tmp_path, "f.json", {"matrix": [[-3, 1], [1, -2]], "action": action}
        )
        code, out, err = run(capsys, "equivariant", "--input", path)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")


class TestObstructVerb:
    def test_k3_bound_3(self, capsys):
        code, out, _ = run(
            capsys, "obstruct", "--preset", "k_n:3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma4p_lower_bound"] == 3
        assert payload["gap_detected"] is True

    def test_k2_bound_2(self, capsys):
        code, out, _ = run(
            capsys, "obstruct", "--preset", "k_n:2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma4p_lower_bound"] == 2
        assert payload["gap_detected"] is True

    def test_12a1019_json_is_frozen(self, capsys):
        # the stream stops at the first witness; the report must not move
        embedding = [
            [-1, -1, 1, 0, 1, 0], [-1, 0, 0, 0, -1, 1], [-1, 1, -1, 1, 0, 0],
            [-1, 1, 1, 0, 0, -1], [0, -1, 0, 1, 0, -1], [0, 0, -1, -1, 1, 0],
            [0, 0, 0, 0, 0, 0],
        ]
        intertwiner = [
            [0, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0], [0, 0, 0, -1, 0, 0, 0],
            [-1, 0, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1],
        ]
        expected = {
            "action_defaulted": None, "cover_sign": "indeterminate",
            "gamma4p_lower_bound": 1, "gap_detected": False, "klein": None,
            "known_gamma4": 1, "name": "12a1019", "residue": 0,
            "mobius": {
                "applicable": True, "certifying": True, "kind": "mobius",
                "obstructed": False, "reason": "equivariant embedding witness found",
                "vacuous": False,
                "witnesses": [
                    {"embedding": embedding, "intertwiner": intertwiner, "sign": sign}
                    for sign in (-1, 1)
                ],
            },
        }
        code, out, _ = run(capsys, "obstruct", "--preset", "12a1019", "--format", "json")
        assert code == 0
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "argv, exit_code, expected",
        [
            (  # Mobius obstructed; residue 0 has no Klein test
                ["--preset", "k_n:2"], 0,
                {
                    "action_defaulted": None, "cover_sign": "indeterminate",
                    "gamma4p_lower_bound": 2, "gap_detected": True, "klein": None,
                    "known_gamma4": 1, "name": "K_2", "residue": 0,
                    "mobius": {
                        "applicable": True, "certifying": True, "kind": "mobius",
                        "obstructed": True, "reason": "no equivariant embedding exists",
                        "vacuous": False, "witnesses": [],
                    },
                },
            ),
            (  # residue 4: Mobius vacuous, Klein obstructed
                ["--preset", "k_n:3"], 0,
                {
                    "action_defaulted": None, "cover_sign": "mobius_impossible",
                    "gamma4p_lower_bound": 3, "gap_detected": True,
                    "known_gamma4": 2, "name": "K_3", "residue": 4,
                    "klein": {
                        "applicable": True, "certifying": True, "kind": "klein",
                        "obstructed": True, "reason": "no equivariant embedding exists",
                        "vacuous": False, "witnesses": [],
                    },
                    "mobius": {
                        "applicable": True, "certifying": True, "kind": "mobius",
                        "obstructed": True,
                        "reason": "residue 4: the knot bounds no Mobius band in the 4-ball",
                        "vacuous": True, "witnesses": [],
                    },
                },
            ),
            (  # budget exhausted: no claim, exit 2
                ["--preset", "k_n:2", "--budget", "10"], 2,
                {
                    "action_defaulted": None, "cover_sign": "indeterminate",
                    "gamma4p_lower_bound": 1, "gap_detected": False, "klein": None,
                    "known_gamma4": 1, "name": "K_2", "residue": 0,
                    "mobius": {
                        "applicable": True, "certifying": False, "kind": "mobius",
                        "obstructed": None,
                        "reason": "enumeration incomplete: search budget exhausted after 11 nodes",
                        "vacuous": False, "witnesses": [],
                    },
                },
            ),
        ],
        ids=["k_n:2", "k_n:3", "k_n:2-budget-10"],
    )
    def test_verdict_states_json_is_frozen(self, capsys, argv, exit_code, expected):
        code, out, err = run(capsys, "obstruct", *argv, "--format", "json")
        assert (code, err) == (exit_code, "")
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_12a1019_text(self, capsys):
        code, out, _ = run(capsys, "obstruct", "--preset", "12a1019")
        assert code == 0
        assert "gap detected" in out and "no" in out

    def test_certificate_file(self, capsys, tmp_path):
        cert = family.make_certificate_Kn(2)
        path = write_json(
            tmp_path,
            "cert.json",
            {
                "name": "K_2",
                "goeritz_minus": [list(r) for r in cert.goeritz_minus.matrix],
                "goeritz_plus": [list(r) for r in cert.goeritz_plus.matrix],
                "action_minus": [list(r) for r in cert.action_minus],
                "period": 2,
                "signature": 0,
                "arf": 0,
                "known_gamma4": 1,
            },
        )
        code, out, _ = run(
            capsys, "obstruct", "--input", path, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma4p_lower_bound"] == 2
        assert payload["action_defaulted"] == "plus"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("period", 2.9),
            ("signature", "0"),
            ("action_minus", [[x == 1 for x in r] for r in family.action_fn(2)]),
            ("known_gamma4", "one"),
            # a name that is not UTF-8 text is refused before the search
            ("name", "\ud800x"),
            ("name", 5),
            ("name", [1]),
        ],
    )
    def test_non_int_certificate_field_is_input_error(
        self, capsys, tmp_path, key, value
    ):
        cert = family.make_certificate_Kn(2)
        obj = {
            "goeritz_minus": [list(r) for r in cert.goeritz_minus.matrix],
            "goeritz_plus": [list(r) for r in cert.goeritz_plus.matrix],
            "action_minus": [list(r) for r in cert.action_minus],
            "period": 2,
            "signature": 0,
            "arf": 0,
        }
        obj[key] = value
        path = write_json(tmp_path, "cert.json", obj)
        code, out, err = run(capsys, "obstruct", "--input", path)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_budget_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "obstruct", "--preset", "k_n:2", "--budget", "10"
        )
        assert code == 2

    def test_k4_needs_more_than_1000_nodes(self, capsys):
        # refuting K_4 at corank 1 takes 1,308 nodes
        code, out, _ = run(
            capsys, "obstruct", "--preset", "k_n:4", "--budget", "1000"
        )
        assert code == 2
        assert "inconclusive (budget)" in out

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "obstruct", "--preset", "nope")
        assert code == 1
        assert "unknown preset" in err

    @pytest.mark.parametrize("option", [["--corank", "7"], ["--sign", "+"]])
    def test_has_no_target_options(self, capsys, option):
        assert usage_exit("obstruct", "--preset", "k_n:2", *option) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFamilyVerb:
    def test_kn_preset_json(self, capsys):
        code, out, _ = run(capsys, "family", "--preset", "k_n:3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["arf"] == 1
        assert payload["known_gamma4"] == 2
        assert len(payload["closed_form_embeddings"]) == 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_text_count_is_the_closed_form_list(self, capsys, n):
        code, out, _ = run(capsys, "family", "--preset", f"k_n:{n}")
        assert code == 0
        count = len(family.family_embeddings(n))
        assert out.endswith(f"\n{count} closed-form embedding(s)\n")
        code, out, _ = run(capsys, "family", "--preset", f"k_n:{n}", "--format", "json")
        assert len(json.loads(out)["closed_form_embeddings"]) == count

    def test_text_builds_no_list(self, capsys):
        # k_n:40 has 2^20 closed-form embeddings; text prints only the count
        start = time.perf_counter()
        code, out, _ = run(capsys, "family", "--preset", "k_n:40")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert out.endswith("\n1048576 closed-form embedding(s)\n")

    def test_json_list_is_capped(self, capsys, monkeypatch):
        # k_n:22 would list 2,048 matrices (46 MB); the cap is an input error
        start = time.perf_counter()
        code, out, err = run(capsys, "family", "--preset", "k_n:22", "--format", "json")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error:")
        assert f"n <= {cli.MAX_FAMILY_JSON_N}" in err
        code, out, _ = run(capsys, "family", "--preset", "k_n:22")
        assert code == 0
        assert out.endswith("\n2048 closed-form embedding(s)\n")
        # the cap itself is allowed
        monkeypatch.setattr(cli, "MAX_FAMILY_JSON_N", 6)
        code, out, _ = run(capsys, "family", "--preset", "k_n:6", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["closed_form_embeddings"]) == 8
        code, _, _ = run(capsys, "family", "--preset", "k_n:7", "--format", "json")
        assert code == 1

    def test_bad_kn_value(self, capsys):
        code, _, _ = run(capsys, "family", "--preset", "k_n:x")
        assert code == 1

    def test_kn_below_2(self, capsys):
        code, out, err = run(capsys, "family", "--preset", "k_n:1")
        assert (code, out, err) == (1, "", "error: k_n preset needs n >= 2\n")

    def test_kn_above_the_cap(self, capsys):
        # refused before the certificate is built, which takes 1.8 s for k_n:1000
        start = time.perf_counter()
        code, out, err = run(capsys, "family", "--preset", "k_n:1000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == f"error: k_n preset needs n <= {cli.MAX_PRESET_N}\n"
        for n in (17, 25, cli.MAX_PRESET_N):
            code, out, _ = run(capsys, "family", "--preset", f"k_n:{n}")
            assert code == 0 and out.startswith(f"knot K_{n}:")

    def test_closed_pipe_exits_quietly(self):
        # the reader has closed the pipe before the first write
        src = os.path.dirname(os.path.dirname(goeritz.__file__))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "goeritz.cli", "family",
                 "--preset", "k_n:3", "--format", "json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": src}, timeout=60,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ""
        assert proc.returncode == 1


class TestInputBoundary:
    @pytest.mark.parametrize("value", ["abc", "10"])
    def test_go_budget_is_not_read(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GO_BUDGET", value)
        code, _, _ = run(capsys, "family", "--preset", "k_n:2")
        assert code == 0
        args = build_parser().parse_args(["embed", "--preset", "12a1019"])
        assert args.budget == DEFAULT_BUDGET
        # a budget of 10 nodes would exit 2 here
        code, out, _ = run(capsys, "embed", "--preset", "12a1019")
        assert code == 0
        assert out.startswith("2 canonical embedding class(es)")

    @pytest.mark.parametrize("verb", ["goeritz", "embed", "obstruct"])
    def test_deeply_nested_json_is_input_error(self, capsys, tmp_path, verb):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, verb, "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")


class TestParserBuiltOnce:
    def test_each_call_gets_its_own_namespace_and_defaults(self, capsys):
        assert build_parser() is build_parser()
        # a budget of 10 nodes runs out on 12a1019; the next call is back
        # at the default budget
        code, out, err = run(capsys, "embed", "--preset", "12a1019", "--budget", "10")
        assert (code, out) == (2, "")
        assert err.startswith("inconclusive:")
        code, out, _ = run(capsys, "embed", "--preset", "12a1019")
        assert code == 0
        assert out.startswith("2 canonical embedding class(es)")
        first = build_parser().parse_args(["embed", "--preset", "k_n:3", "--budget", "10"])
        second = build_parser().parse_args(["obstruct", "--preset", "k_n:3"])
        assert first is not second
        assert (first.budget, second.budget) == (10, DEFAULT_BUDGET)
        assert (first.verb, first.corank) == ("embed", 1)
        assert second.verb == "obstruct" and not hasattr(second, "corank")

    def test_usage_error_leaves_the_parser_usable(self, capsys):
        assert usage_exit("embed", "--preset", "12a1019", "--budget", "x") == 1
        code, out, _ = run(capsys, "embed", "--preset", "12a1019")
        assert code == 0
        assert out.startswith("2 canonical embedding class(es)")


class TestUsageErrors:
    """Usage errors exit 1, the input-error status; 2 means inconclusive."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["obstruct", "--preset", "k_n:2", "--budget", "abc"],
            ["obstruct", "--preset", "k_n:2", "--bogus"],
            ["obstruct"],
            ["embed", "--preset", "k_n:2", "--input", "f.json"],
            ["embed", "--preset", "k_n:2", "--sign", "0"],
            ["nope"],
            [],
        ],
    )
    def test_exit_1(self, capsys, argv):
        assert usage_exit(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: goeritz")
        assert "error:" in err.splitlines()[-1]

    def test_exit_1_in_a_subprocess(self):
        proc = run_subprocess("obstruct", "--preset", "k_n:2", "--bogus")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [["--help"], ["obstruct", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert usage_exit(*argv) == 0
        assert capsys.readouterr().out.startswith("usage: goeritz")


class TestHugeSizes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["embed", "--preset", "k_n:2", "--corank", str(10**20)],
            ["family", "--preset", f"k_n:{10**20}"],
            # past the 10**6 cap: rejected before a class is padded with zero rows
            ["embed", "--preset", "k_n:2", "--corank", str(10**15), "--budget", "1000"],
            ["equivariant", "--preset", "k_n:2", "--corank", str(10**15)],
            # 991 searched rows, one recursion of the column filling each
            ["embed", "--input", {"matrix": [[-1000]]}, "--corank", "990"],
        ],
    )
    def test_one_error_line(self, capsys, tmp_path, argv):
        argv = [
            write_json(tmp_path, "form.json", a) if isinstance(a, dict) else a
            for a in argv
        ]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")


# Random JSON at the input boundary: every value kind, ints past 64 bits.
JSON_SCALARS = st.one_of(
    st.integers(-6, 6),
    st.sampled_from([10**30, -(10**30)]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
ENTRIES = st.one_of(st.integers(-3, 3), JSON_SCALARS)
SLACKS = st.one_of(st.integers(1, 4), st.just(10**30))


def _definite(n, offdiag, slack):
    """Symmetric, negative definite by a dominant diagonal that may be huge."""
    g = [[offdiag(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        g[i][i] = -(sum(abs(x) for j, x in enumerate(g[i]) if j != i) + slack(i))
    return g


@st.composite
def matrices(draw):
    """Matrices of size at most 6: mostly definite, else any entries or any
    JSON value."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["definite"] * 3 + ["entries", "any"]))
    if kind == "any":
        return draw(JSON_VALUES)
    if kind == "entries":
        row = st.lists(ENTRIES, min_size=n, max_size=n)
        return draw(st.lists(row, min_size=n, max_size=n))
    off = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            off[i][j] = off[j][i] = draw(st.integers(-2, 2))
    slacks = [draw(SLACKS) for _ in range(n)]
    return _definite(n, lambda i, j: off[i][j], slacks.__getitem__)


@st.composite
def periodic_forms(draw):
    """(G, images, period): a definite circulant form of size 2 to 6 and the
    cyclic shift, an isometry of order n."""
    n = draw(st.integers(2, 6))
    c = [draw(st.integers(-2, 2)) for _ in range(n)]
    slack = draw(SLACKS)
    g = _definite(n, lambda i, j: c[min((j - i) % n, (i - j) % n)], lambda i: slack)
    return g, [(i + 1) % n for i in range(n)], n


def actions(n):
    return st.one_of(st.permutations(list(range(n))), JSON_VALUES)


@st.composite
def forms(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    if draw(st.booleans()):
        g, images, _ = draw(periodic_forms())
        return {"matrix": g, "action": images}
    obj = {"matrix": draw(matrices())}
    if draw(st.booleans()):
        n = len(obj["matrix"]) if isinstance(obj["matrix"], list) else 1
        obj["action"] = draw(actions(n))
    return obj


CROSSINGS = st.one_of(
    st.lists(
        st.tuples(st.integers(-1, 6), st.integers(-1, 6), st.sampled_from([1, -1])).map(list),
        max_size=8,
    ),
    st.lists(st.lists(ENTRIES, max_size=4), max_size=3),
    JSON_VALUES,
)


@st.composite
def diagrams(draw):
    """Diagrams whose region count may be far past their crossings, with
    crossings that may be malformed, or any JSON value."""
    if draw(st.integers(0, 9)) == 9:
        return draw(JSON_VALUES)
    obj = {
        "regions": draw(st.one_of(
            st.integers(-1, 8), st.sampled_from([10**7, 10**30]), JSON_SCALARS
        )),
        "crossings": draw(CROSSINGS),
    }
    if draw(st.booleans()):
        obj["label"] = draw(JSON_VALUES)
    return obj


CERTIFICATE_KEYS = (
    "name", "goeritz_minus", "goeritz_plus", "action_minus", "action_plus",
    "period", "signature", "arf", "known_gamma4",
)


@st.composite
def certificates(draw):
    """A valid certificate of a periodic form with up to two fields replaced
    by random values or deleted, or any JSON value."""
    if draw(st.integers(0, 9)) == 9:
        return draw(JSON_VALUES)
    g, images, period = draw(periodic_forms())
    obj = {
        "goeritz_minus": g,
        "goeritz_plus": [[-x for x in row] for row in g],
        "action_minus": images,
        "period": period,
        "signature": draw(st.sampled_from([0, 2, 4, 6, -2])),
        "arf": draw(st.integers(0, 1)),
    }
    for key in draw(st.sets(st.sampled_from(CERTIFICATE_KEYS), max_size=2)):
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(st.one_of(JSON_VALUES, matrices(), actions(len(g))))
    return obj


class TestRandomJson:
    """No traceback and no exit status outside {0, 1, 2} on any JSON input."""

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        verb=st.sampled_from(["embed", "equivariant"]),
        obj=forms(),
        corank=st.integers(0, 2),
    )
    def test_forms(self, capsys, tmp_path, verb, obj, corank):
        path = write_json(tmp_path, "f.json", obj)
        code, _, err = run(
            capsys, verb, "--input", path, "--corank", str(corank), "--budget", "1000"
        )
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(obj=diagrams(), fmt=st.sampled_from(["json", "text"]))
    def test_diagrams(self, capsys, tmp_path, obj, fmt):
        path = write_json(tmp_path, "d.json", obj)
        code, _, err = run(capsys, "goeritz", "--input", path, "--format", fmt)
        assert code in (0, 1)
        assert "Traceback" not in err

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(obj=certificates())
    def test_certificates(self, capsys, tmp_path, obj):
        path = write_json(tmp_path, "cert.json", obj)
        code, _, err = run(capsys, "obstruct", "--input", path, "--budget", "1000")
        assert code in (0, 1, 2)
        assert "Traceback" not in err
