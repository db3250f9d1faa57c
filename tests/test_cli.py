"""Command-line interface behavior."""

import subprocess
import sys

import pytest

from vemlab.cli import main
from vemlab.mesh import load_mesh


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

    def test_negative_iterations_rejected(self, tmp_path):
        out = tmp_path / "vor.json"
        with pytest.raises(ValueError, match="lloyd_iterations must be >= 0"):
            main(["mesh", "gen", "--family", "voronoi", "--cells", "10",
                  "--iters", "-1", "--out", str(out)])
        assert not out.exists()

    def test_iterations_rejected_outside_voronoi(self, tmp_path):
        # lloyd0 has no relaxation and lloyd100 its own 100 iterations:
        # --iters must not write a mesh that ignores it
        out = tmp_path / "lloyd0.json"
        with pytest.raises(ValueError, match="'lloyd0'"):
            main(["mesh", "gen", "--family", "lloyd0", "--cells", "50",
                  "--iters", "5", "--out", str(out)])
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path):
        out = tmp_path / "vor.json"
        with pytest.raises(ValueError, match="seed must be >= 0"):
            main(["mesh", "gen", "--family", "lloyd0", "--cells", "10",
                  "--seed", "-1", "--out", str(out)])
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

    def test_invalid_family_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            main(["run", "--family", "hexagons", "--sizes", "4",
                  "--out", str(tmp_path / "x.csv")])

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
