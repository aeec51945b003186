import json
import os
import subprocess
import sys

import pytest

import goeritz
from goeritz import family
from goeritz.cli import DEFAULT_BUDGET, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


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

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "obstruct", "--preset", "nope")
        assert code == 1
        assert "unknown preset" in err


class TestFamilyVerb:
    def test_kn_preset_json(self, capsys):
        code, out, _ = run(capsys, "family", "--preset", "k_n:3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["arf"] == 1
        assert payload["known_gamma4"] == 2
        assert len(payload["closed_form_embeddings"]) == 2

    def test_bad_kn_value(self, capsys):
        code, _, _ = run(capsys, "family", "--preset", "k_n:x")
        assert code == 1

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
