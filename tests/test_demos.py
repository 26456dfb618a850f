import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_mining_and_features_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "01_mining_and_features.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "feature matrix for build 25: " in out
    assert "x 150 features" in out
