import importlib.util
from pathlib import Path

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
    for family in ladder.FAMILIES:
        step = ladder.step(str(ROOT / "src"), family, 120)
        assert step["colours"] == 120
        assert step["class"] == "sat_equivalent"
        assert step["verified"] and step["expected"], (family, step)
        assert step["seconds"] < 5, (family, step)
