"""The rounding classes of tools/equivalence.py --classes."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"
spec = importlib.util.spec_from_file_location("equivalence", TOOL)
equivalence = importlib.util.module_from_spec(spec)
spec.loader.exec_module(equivalence)


@pytest.mark.parametrize(
    "old, new, json_values, expected",
    [
        (2.46519033e-32, 0.0, [], equivalence.ZERO),
        ("2.46519033e-32", "0", [], equivalence.ZERO),
        (0.4999499999999996, 0.49995, [], equivalence.JSON_FLOAT),
        (1234.5, 1234.5 * (1 + 5e-13), [], equivalence.JSON_FLOAT),
        (0.5, 0.5 + 2e-12, [], None),
        (1e-11, 0.0, [], None),
        # 769/1024 = 0.7509765625 lies on the 9-digit rounding boundary.
        ("0.750976562", "0.750976563", [0.7509765625000001], equivalence.TIE),
        ("0.750976562", "0.750976563", [0.75097656], None),
        ("0.750976562", "0.750976564", [0.750976563], None),
        ("inf", "inf", [], None),
    ],
)
def test_number_classes(old, new, json_values, expected):
    assert equivalence.number_class(old, new, json_values) == expected


def test_json_documents_name_the_field_that_differs():
    found = {}
    old = '{"double": {"power": 1.0, "feasible": true}, "omega": [0.5, 1e-20]}'
    new = '{"double": {"power": 1.0000000000000002, "feasible": true}, "omega": [0.5, 0.0]}'
    assert equivalence.text_classes(old, new, [], found) is None
    assert found == {equivalence.JSON_FLOAT: (1, 2.220446049250313e-16),
                     equivalence.ZERO: (1, 1e-20)}
    wrong = '{"double": {"power": 1.1, "feasible": true}, "omega": [0.5, 0.0]}'
    assert equivalence.text_classes(old, wrong, [], {}) == "double.power (1.0 against 1.1)"
    reordered = '{"omega": [0.5, 1e-20], "double": {"power": 1.0, "feasible": true}}'
    assert equivalence.text_classes(old, reordered, [], {}).startswith("<document> (keys")
    # An int where a float was is a change of text, not of rounding.
    as_int = new.replace("0.0]", "0]")
    assert equivalence.text_classes(old, as_int, [], {}) == "omega[1] (1e-20 against 0)"


def test_csv_rows_name_the_column_that_differs():
    old = "# a comment\nt,amp,paths\n0,0.750976562,1;3\n1,4.8e-32,1;3\n"
    found = {}
    new = "# a comment\nt,amp,paths\n0,0.750976563,1;3\n1,0,1;3\n"
    assert equivalence.text_classes(old, new, [0.7509765625], found) is None
    assert set(found) == {equivalence.TIE, equivalence.ZERO}
    assert (equivalence.text_classes(old, new.replace("1;3\n1,", "1;4\n1,"), [0.7509765625], {})
            == "line 3 field paths ('3' against '4')")
    assert equivalence.text_classes(old, new.replace("amp", "amps"), [], {}).startswith("line 2")
    assert equivalence.text_classes(old, new + "2,0,1\n", [], {}).startswith("line count")
