import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_scripts_run_at_small_sizes(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)  # anything a script writes stays out of the checkout
    for name, argv in [
        ("run_structure_sweep.py", ["--reps", "2000"]),
        ("run_item_vs_bundle.py", ["--ns", "60", "--reps", "2000"]),
        ("run_benchmark_failures.py", ["--reps", "2000"]),
    ]:
        path = SCRIPTS / name
        monkeypatch.setattr(sys, "argv", [str(path), *argv])
        try:
            runpy.run_path(str(path), run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code
        assert code in (0, None), name
        assert capsys.readouterr().out.strip(), name
    assert not any(tmp_path.iterdir())
