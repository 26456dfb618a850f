import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# one line each demo prints once its pipeline has run
HEADLINES = {
    "01_mining_and_features": r"feature matrix for build 25: \d+ tests x 150 features",
    "02_train_and_evaluate": r"  full +\d\.\d{4}  \(sd \d\.\d{4}\)",
    "03_retraining_decay": r"least-squares slope: [+-]\d\.\d{5} per window",
}


@pytest.mark.parametrize("demo", sorted(HEADLINES))
def test_demo_runs(demo, capsys):
    runpy.run_path(str(DEMOS / f"{demo}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert re.search(f"^{HEADLINES[demo]}$", out, re.MULTILINE)
