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


def _edit_points(tmp_path, capsys, edit, **changes):
    """main() on two trees whose b side's points.csv lines pass through
    edit(lines) -> lines."""
    base = _tree(tmp_path / "a")
    new = _tree(tmp_path / "b", **changes)
    path = new / "fig7" / "points.csv"
    path.write_text("".join(edit(path.read_text().splitlines(True))))
    code = compare_runs.main(["compare_runs.py", str(base), str(new)])
    out = capsys.readouterr().out
    return code, next(s for s in out.splitlines() if "points.csv" in s)


def _append(lines):
    """Two trailing columns, exact_lo and converged, on every line."""
    return [lines[0].rstrip("\n") + ",exact_lo,converged\n"] + [
        line.rstrip("\n") + ",1.5,True\n" for line in lines[1:]]


def test_appended_columns_are_named_and_the_shared_ones_compared(
        tmp_path, capsys):
    code, line = _edit_points(tmp_path, capsys, _append)
    assert code == 0
    assert line.endswith(
        ": identical cells; columns added: exact_lo, converged")
    # A changed shared cell is still judged by the old rules.
    moved = (_CHI[0], math.nextafter(_CHI[1], 1.0))
    code, line = _edit_points(tmp_path / "ulp", capsys, _append,
                              chi=moved)
    assert code == 0
    assert "vector cells max rel diff" in line
    assert line.endswith("; columns added: exact_lo, converged")
    code, line = _edit_points(tmp_path / "n_t", capsys, _append,
                              n_t="11")
    assert code == 1
    assert "1 integer cells differ" in line


def test_a_dropped_column_fails_and_is_named(tmp_path, capsys):
    def drop_chi(lines):
        return [line.rsplit(",", 1)[0] + "\n" for line in lines]
    code, line = _edit_points(tmp_path, capsys, drop_chi)
    assert code == 1
    assert line.endswith(": identical cells; columns dropped: chi")


def test_a_reordered_header_or_changed_row_count_fails(tmp_path, capsys):
    def swap(lines):
        return [lines[0].replace("N_t,chi", "chi,N_t")] + lines[1:]
    code, line = _edit_points(tmp_path, capsys, swap)
    assert code == 1
    assert line.endswith(": header or shape differs")
    code, line = _edit_points(tmp_path / "rows", capsys,
                              lambda lines: lines[:-1])
    assert code == 1
    assert line.endswith(": header or shape differs")
    # An added header cell needs its cell in every row.
    code, line = _edit_points(tmp_path / "ragged", capsys,
                              lambda lines: _append(lines)[:-1] + lines[-1:])
    assert code == 1
    assert line.endswith(": header or shape differs")
    # Appended columns do not excuse a changed row count.
    code, line = _edit_points(tmp_path / "both", capsys,
                              lambda lines: _append(lines)[:-1])
    assert code == 1
    assert line.endswith(": header or shape differs")


def _columns(lines, drop=None, insert=None):
    """Lines without column `drop`, or with a column `insert` (its cells
    0.01) after `objective`."""
    out = []
    for i, line in enumerate(lines):
        cells = line.rstrip("\n").split(",")
        if insert:
            if i == 0:
                at = cells.index("objective") + 1
            cells.insert(at, insert if i == 0 else "0.01")
        if drop:
            if i == 0:
                gone = cells.index(drop)
            del cells[gone]
        out.append(",".join(cells) + "\n")
    return out


def test_columns_are_matched_by_name_wherever_they_sit(tmp_path, capsys):
    # An inserted column shifts the shared ones, which are still compared.
    code, line = _edit_points(tmp_path / "ci", capsys,
                              lambda lines: _columns(lines, insert="ci"),
                              n_t="11")
    assert code == 1
    assert "1 integer cells differ" in line
    assert line.endswith("; columns added: ci")
    moved = (_CHI[0], math.nextafter(_CHI[1], 1.0))
    code, line = _edit_points(tmp_path / "ulp", capsys,
                              lambda lines: _columns(lines, insert="ci"),
                              chi=moved)
    assert code == 0
    assert "vector cells max rel diff" in line and "(chi, row 1)" in line
    assert line.endswith("; columns added: ci")
    # A dropped middle column fails but does not stop the comparison.
    code, line = _edit_points(
        tmp_path / "drop", capsys,
        lambda lines: _columns(lines, drop="objective", insert="ci"),
        chi=moved)
    assert code == 1
    assert "vector cells max rel diff" in line
    assert line.endswith("; columns added: ci; columns dropped: objective")


def _fig2_points(hellinger: float) -> str:
    """Three curves at two sweep values in one objective column; the last
    row, the Hellinger bound at 0.1, reads `hellinger`."""
    values = {"tv_numeric": 0.07, "pinsker_bound": 0.18,
              "hellinger_bound": 0.15}
    lines = ["figure,point_index,sweep_value,method,objective\n"]
    for i, chi in enumerate(("0.05", "0.1")):
        for method, value in values.items():
            lines.append(f"fig2,{i},{chi},{method},{value!r}\n")
    lines[-1] = lines[-1].replace("0.15", repr(hellinger))
    return "".join(lines)


def test_the_largest_difference_names_its_method_and_sweep_value(
        tmp_path, capsys):
    trees = []
    for side, hellinger in (("a", 0.15), ("b", math.nextafter(0.15, 1.0))):
        (tmp_path / side / "fig2").mkdir(parents=True)
        (tmp_path / side / "fig2" / "points.csv").write_text(
            _fig2_points(hellinger))
        trees.append(str(tmp_path / side))
    code = compare_runs.main(["compare_runs.py", *trees])
    out = capsys.readouterr().out
    assert code == 0
    assert out.rstrip().endswith(
        "(objective, row 6) at method=hellinger_bound sweep_value=0.1")
    # With a method column only, the row is named by its method.
    code, out = _run(tmp_path / "fig7", capsys,
                     chi=(_CHI[0], math.nextafter(_CHI[1], 1.0)))
    line = next(s for s in out.splitlines() if "points.csv" in s)
    assert line.endswith("(chi, row 1) at method=es")
