"""scripts/compare_runs.py on small hand-made run trees."""

import importlib.util
import math
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_runs.py"
_spec = importlib.util.spec_from_file_location("compare_runs", _SCRIPT)
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

_POINTS = ("figure,point_index,method,objective,N_t,chi\n"
           "fig7,0,es,0.67693878521355633,18,{chi}\n"
           "fig7,1,ao,0.78931600519882861,{n_t},0.5;0.25\n")
_AUDIT = ("figure,point_index,N_d,sum_error,passed\n"
          "fig7,0,82,0.97270000000000012,{passed}\n")
_CHI = (9.1941176359057925e-05, 6.5744327480387818e-05)


def _tree(root: Path, chi=_CHI, n_t="10", passed="True") -> Path:
    (root / "fig7").mkdir(parents=True)
    (root / "fig7" / "points.csv").write_text(_POINTS.format(
        chi=";".join(f"{c!r}" for c in chi), n_t=n_t))
    (root / "fig7" / "audit.csv").write_text(_AUDIT.format(passed=passed))
    return root


def _run(tmp_path, capsys, **changes):
    base = _tree(tmp_path / "a")
    new = _tree(tmp_path / "b", **changes)
    code = compare_runs.main(["compare_runs.py", str(base), str(new)])
    return code, capsys.readouterr().out


def test_identical_trees_pass(tmp_path, capsys):
    code, out = _run(tmp_path, capsys)
    assert code == 0
    assert out.count(": identical") == 2


def test_an_ulp_in_a_vector_cell_is_reported_and_passes(tmp_path, capsys):
    moved = (_CHI[0], math.nextafter(_CHI[1], 1.0))
    code, out = _run(tmp_path, capsys, chi=moved)
    assert code == 0
    line = next(s for s in out.splitlines() if "points.csv" in s)
    assert "vector cells max rel diff" in line and "(chi, row 1)" in line
    reported = float(line.split("vector cells max rel diff ")[1].split()[0])
    assert reported == pytest.approx(
        (moved[1] - _CHI[1]) / moved[1], rel=1e-2)
    assert "non-float" not in line


def test_a_changed_vector_length_fails(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, chi=_CHI[:1])
    assert code == 1
    assert "1 non-float cells differ" in out


def test_a_changed_pilot_count_fails(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, n_t="11")
    assert code == 1
    assert "1 integer cells differ" in out
    assert "row 2: N_t 10 -> 11" in out


def test_a_flipped_audit_verdict_fails(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, passed="False")
    assert code == 1
    assert "row 1: passed True -> False" in out
