"""Command-line interface behavior."""

import subprocess
import sys

import pytest

from vemlab.cli import main
from vemlab.mesh import load_mesh


def _rejected(argv, capsys, usage=None):
    """Run ``main(argv)``, which must end in a usage error (exit status
    2), printed with the usage of the subcommand ``usage`` when given;
    returns the error line it printed."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if usage is not None:
        assert err.startswith(f"usage: vemlab {usage} "), err
    return err.splitlines()[-1]


class TestMeshGen:
    def test_square(self, tmp_path, capsys):
        out = tmp_path / "mesh.json"
        code = main(["mesh", "gen", "--family", "square", "--cells", "9",
                     "--out", str(out)])
        assert code == 0
        mesh = load_mesh(str(out))
        assert mesh.num_cells == 9
        assert "9 cells" in capsys.readouterr().out

    def test_voronoi_with_iterations(self, tmp_path):
        out = tmp_path / "vor.json"
        main(["mesh", "gen", "--family", "voronoi", "--cells", "12",
              "--seed", "4", "--iters", "3", "--out", str(out)])
        mesh = load_mesh(str(out))
        assert mesh.num_cells == 12

    def test_negative_iterations_rejected(self, tmp_path, capsys):
        out = tmp_path / "vor.json"
        assert "lloyd_iterations must be >= 0" in _rejected(
            ["mesh", "gen", "--family", "voronoi", "--cells", "10",
             "--iters", "-1", "--out", str(out)], capsys)
        assert not out.exists()

    def test_iterations_rejected_outside_voronoi(self, tmp_path, capsys):
        # lloyd0 has no relaxation and lloyd100 its own 100 iterations:
        # --iters must not write a mesh that ignores it
        out = tmp_path / "lloyd0.json"
        assert "'lloyd0'" in _rejected(
            ["mesh", "gen", "--family", "lloyd0", "--cells", "50",
             "--iters", "5", "--out", str(out)], capsys)
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "vor.json"
        assert "seed must be >= 0" in _rejected(
            ["mesh", "gen", "--family", "lloyd0", "--cells", "10",
             "--seed", "-1", "--out", str(out)], capsys)
        assert not out.exists()

    def test_non_square_count_rejected(self, tmp_path, capsys):
        # the generator, not the spec, rejects this one
        out = tmp_path / "square.json"
        assert "square cell count" in _rejected(
            ["mesh", "gen", "--family", "square", "--cells", "10",
             "--out", str(out)], capsys, usage="mesh gen")
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            main(["mesh", "gen", "--family", "lloyd0", "--cells", "10",
                  "--seed", "2", "--out", str(p)])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestRun:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["run", "--k", "1", "--family", "square",
                     "--sizes", "4,16", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("family,")
        assert len(text.splitlines()) == 4  # header + 2 data + 1 fit
        printed = capsys.readouterr().out
        assert "slope_L2" in printed
        assert str(out) in printed

    def test_mode_flag(self, tmp_path):
        out = tmp_path / "report.csv"
        main(["run", "--k", "2", "--family", "square", "--sizes", "4,16",
              "--mode", "grad_pinabla", "--out", str(out)])
        assert ",grad_pinabla," in out.read_text()

    def test_invalid_family_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert "unknown family 'hexagons'" in _rejected(
            ["run", "--family", "hexagons", "--sizes", "4",
             "--out", str(out)], capsys)
        assert not out.exists()

    def test_invalid_degree_rejected(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert "k must be >= 1, got 0" in _rejected(
            ["run", "--k", "0", "--sizes", "4", "--out", str(out)], capsys,
            usage="run")
        assert not out.exists()

    def test_non_integer_size_names_the_option(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        error = _rejected(["run", "--sizes", "4,x", "--out", str(out)],
                          capsys, usage="run")
        assert "argument --sizes" in error and "'4,x'" in error
        assert "invalid literal" not in error
        assert not out.exists()

    def test_invalid_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--mode", "bogus"])


def test_module_invocation(tmp_path):
    out = tmp_path / "m.json"
    proc = subprocess.run(
        [sys.executable, "-m", "vemlab.cli", "mesh", "gen", "--family",
         "square", "--cells", "4", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()
