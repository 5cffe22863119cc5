import importlib.util
from pathlib import Path

from listhom import oracles

ROOT = Path(__file__).resolve().parents[1]


def _ladder():
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ladder_families_classify_at_120_colours_with_their_expected_witness():
    # relabelled cycles with leaves: the per-length cycle search took minutes
    # on the even family at this size
    ladder = _ladder()
    for family in ladder.CLASSIFY_FAMILIES:
        step = ladder.step(str(ROOT / "src"), family, 120)
        assert step["colours"] == 120
        assert step["class"] == "sat_equivalent"
        assert step["verified"] and step["expected"], (family, step)
        assert step["seconds"] < 5, (family, step)
        # building the 120-colour target: neighbour rows, not a 120 x 120 matrix
        assert 0 < step["build_seconds"] < 0.1, (family, step)
        assert 0 < step["build_peak_mib"] < 0.1, (family, step)


def test_ladder_gadget_step_passes_every_check_at_120_colours():
    step = _ladder().step(str(ROOT / "src"), "gadget_even_cycle", 120)
    assert step["colours"] == 120
    assert (step["kind"], step["length"]) == ("CycleNe4", 80) and step["expected"], step
    assert step["checks_pass"], step
    assert step["seconds"] < 5, step


def test_ladder_grid_step_counts_by_plan_and_matches_the_transfer_matrix():
    real = oracles._plan
    step = _ladder().step(str(ROOT / "src"), "k2prime_grid", 10)
    assert step["expected"] and step["refused"] is None, step
    # min-degree fits on the 10 x 10 grid, so it is the only plan drawn up
    assert [plan["rule"] for plan in step["plans"]] == ["min-degree"]
    assert step["plans"][0]["largest"] <= 1 << 18
    assert oracles._plan is real  # the step puts the engine back as it was


def test_ladder_records_a_failed_step_and_ends_its_family(monkeypatch):
    # a step that exits non-zero, as one calling what an older checkout
    # lacks would, is recorded instead of aborting the whole ladder
    ladder = _ladder()
    monkeypatch.setattr(ladder, "FAMILIES", {"no_such_family": (30, 60)})
    families = ladder.ladder({"change": ROOT / "src"})
    assert families == {"change": {"no_such_family": [
        {"size": 30, "seconds": "failed", "error": "KeyError: 'no_such_family'"}]}}


def test_ladder_reduce_sat_step_counts_the_formula_and_the_instance_alike():
    # P6 on the 4 x 4 grid: the bit-level engine refused the formula (width
    # 18); its chains of levels have the instance's width
    real = oracles._plan
    step = _ladder().step(str(ROOT / "src"), "reduce_sat_grid_p6", 4)
    assert (step["vertices"], step["colours"]) == (16, 6)
    assert step["refused"] is None and step["count_refused"] is None, step
    assert step["answer"] == step["count_answer"] == "7612"
    assert step["expected"] and step["count_expected"], step
    assert step["plans"][0]["width"] == 4 and step["plans"][0]["largest"] <= 1 << 18
    assert oracles._plan is real


def test_ladder_reduce_ising_step_parses_and_counts_the_written_instance():
    # the X3 gadget at t = 1 on the 4 x 4 grid: 448 vertices, counted at
    # width 4 and equal to the grid's transfer-matrix count
    real = oracles._plan
    step = _ladder().step(str(ROOT / "src"), "reduce_ising_count", 4)
    assert (step["grid_vertices"], step["vertices"]) == (16, 448)
    assert step["refused"] is None and step["expected"], step
    assert [(plan["rule"], plan["width"]) for plan in step["plans"]] == [("min-degree", 4)]
    assert oracles._plan is real


def test_ladder_reduce_ising_cycle_step_is_counted_whole_by_the_phase():
    # the X3 gadget at t = 1 on the 100-cycle: 1,900 vertices, series-
    # parallel, so no plan is drawn up; the answer is (a + b)^m + (a - b)^m
    real = oracles._plan
    step = _ladder().step(str(ROOT / "src"), "reduce_ising_cycle", 100)
    assert (step["cycle_vertices"], step["vertices"]) == (100, 1900)
    assert step["refused"] is None and step["expected"], step
    assert step["plans"] == []
    assert oracles._plan is real


def test_ladder_count_sat_chain_step_reads_and_counts_the_chain():
    # f 1500 and the lines i v+1 v: one run of 1,500 variables, so one
    # engine variable over its 1,501 levels, and n + 1 models
    real = oracles._plan
    step = _ladder().step(str(ROOT / "src"), "count_sat_chain", 1500)
    assert step["variables"] == 1500 and step["answer"] == "1501", step
    assert step["refused"] is None and step["expected"], step
    assert [(plan["width"], plan["largest"]) for plan in step["plans"]] == [(0, 1501)]
    assert oracles._plan is real
