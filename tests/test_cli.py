import json
import math

import pytest

from invtrees.cli import main
from invtrees.trees import (format_tree, parse_tree, path_tree, star_tree,
                            trees_isomorphic, elongated_caterpillar)


@pytest.fixture
def p6_file(tmp_path):
    path = tmp_path / "p6.elist"
    path.write_text(format_tree(path_tree(6)))
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "k13.elist"
    path.write_text(format_tree(star_tree(4)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerate:
    def test_counts(self, capsys):
        assert run(capsys, "enumerate", "--vertices", "6")[1].strip() == "6"
        assert run(capsys, "enumerate", "--vertices", "6",
                   "--invertible-only")[1].strip() == "2"
        assert run(capsys, "enumerate", "--vertices", "4",
                   "--invertible-only")[1].strip() == "1"

    def test_writes_elist_files(self, capsys, tmp_path):
        out = tmp_path / "classes"
        code, stdout, _ = run(capsys, "enumerate", "--vertices", "6",
                              "--invertible-only", "--out", str(out))
        assert code == 0
        files = sorted(out.glob("*.elist"))
        assert len(files) == 2
        for f in files:
            t = parse_tree(f.read_text())
            assert t.n == 6

    def test_json(self, capsys):
        code, stdout, _ = run(capsys, "enumerate", "--vertices", "4",
                              "--json")
        data = json.loads(stdout)
        assert len(data) == 2 and all(d["n"] == 4 for d in data)

    def test_bound_exceeded(self, capsys):
        code, _, err = run(capsys, "--bound", "6", "enumerate",
                           "--vertices", "8")
        assert code == 3 and "error" in err

    def test_bad_env_bound_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("INVTREE_MAX_VERTICES", "abc")
        code, _, err = run(capsys, "enumerate", "--vertices", "4")
        assert code == 2
        assert err.startswith("error:") and "INVTREE_MAX_VERTICES" in err


class TestInvert:
    def test_p6_edges(self, capsys, p6_file):
        code, out, _ = run(capsys, "invert", p6_file)
        lines = out.strip().splitlines()
        assert code == 0 and lines[0] == "6" and len(lines) == 7

    def test_signed(self, capsys, p6_file):
        _, out, _ = run(capsys, "invert", p6_file, "--signed")
        assert "0 3 -1" in out and "0 1 +1" in out

    def test_not_invertible_exit_2(self, capsys, star_file):
        code, _, err = run(capsys, "invert", star_file)
        assert code == 2 and "no perfect matching" in err

    def test_dot(self, capsys, p6_file):
        _, out, _ = run(capsys, "invert", p6_file, "--format", "dot")
        assert out.startswith("graph") and out.count("--") == 6

    def test_json(self, capsys, p6_file):
        _, out, _ = run(capsys, "invert", p6_file, "--format", "json",
                        "--signed")
        data = json.loads(out)
        assert data["n"] == 6 and len(data["edges"]) == 6

    def test_deterministic(self, capsys, p6_file):
        a = run(capsys, "invert", p6_file, "--signed")
        b = run(capsys, "invert", p6_file, "--signed")
        assert a == b


class TestSpectrum:
    def test_median(self, capsys, p6_file):
        _, out, _ = run(capsys, "spectrum", p6_file, "--median")
        assert out.strip() == "0.4450419"

    def test_all_values(self, capsys, p6_file):
        _, out, _ = run(capsys, "spectrum", p6_file)
        values = [float(x) for x in out.split()]
        assert len(values) == 6 and values == sorted(values)

    def test_json(self, capsys, p6_file):
        _, out, _ = run(capsys, "spectrum", p6_file, "--json")
        data = json.loads(out)
        assert set(data) == {"values", "median", "tol"}

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_bad_tol_exit_2(self, capsys, p6_file, tol):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", p6_file, "--median", "--tol", tol])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.splitlines()[-1].endswith(
            f"argument --tol: must be a positive finite number, got {tol!r}")
        assert "Traceback" not in err

    def test_median_of_deep_path(self, capsys, tmp_path):
        path = tmp_path / "path-1200.elist"
        path.write_text(format_tree(path_tree(1200)))
        code, out, _ = run(capsys, "spectrum", str(path), "--median")
        assert code == 0
        assert out.strip() == f"{2 * math.cos(600 * math.pi / 1201):.7f}"


class TestExchange:
    def test_image_form(self, capsys, p6_file):
        code, out, _ = run(capsys, "exchange", p6_file,
                           "--add", "1,4", "--remove", "1,2")
        assert code == 0
        assert trees_isomorphic(parse_tree(out), elongated_caterpillar(3))

    def test_inverse_edge_form(self, capsys, p6_file):
        a = run(capsys, "exchange", p6_file, "--add", "0,5",
                "--remove", "1,2")
        b = run(capsys, "exchange", p6_file, "--add", "1,4",
                "--remove", "1,2")
        assert a == b

    def test_bad_edge_exit_2(self, capsys, p6_file):
        for add, remove, reason in (
                ("0,1", "1,2", "neither a usable inverse-graph edge"),
                ("100,200", "1,2", "vertex out of range 0..5 in '100,200'"),
                ("-1,4", "1,2", "vertex out of range 0..5 in '-1,4'"),
                ("1,4,5", "1,2", "expected two vertices"),
                ("1,4", "3,40", "vertex out of range 0..5 in '3,40'")):
            code, _, err = run(capsys, "exchange", p6_file,
                               f"--add={add}", f"--remove={remove}")
            assert code == 2 and err.startswith("error: ") and reason in err

    def test_emitted_elist_reparses(self, capsys, p6_file):
        _, out, _ = run(capsys, "exchange", p6_file, "--add", "1,4",
                        "--remove", "3,4")
        assert parse_tree(out).n == 6


class TestPoset:
    def test_json(self, capsys):
        _, out, _ = run(capsys, "poset", "--n", "3")
        data = json.loads(out)
        assert len(data["nodes"]) == 2 and data["covers"] == [[0, 1]]

    def test_dot(self, capsys):
        _, out, _ = run(capsys, "poset", "--n", "3", "--format", "dot")
        assert "0 -> 1" in out


class TestVerify:
    def test_max_n_3(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 0
        assert "checked 4 classes" in out and "all checks passed" in out

    def test_max_n_4(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 0 and "checked 9 classes" in out

    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_nonpositive_max_n_exit_2(self, capsys, max_n):
        with pytest.raises(SystemExit) as exc:
            main(["verify", f"--max-n={max_n}"])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["poset", "--n", "0"],
                                      ["poset", "--n=-2"],
                                      ["enumerate", "--vertices", "0"]])
    def test_nonpositive_size_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err
