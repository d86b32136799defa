import xml.etree.ElementTree as ET

import numpy as np

from treespace import DistanceMatrix, FeatureMatrix
from treespace.svgfig import svg_histogram, svg_pair_grid, svg_scatter

AWKWARD_IDS = ('a,b', 'say "hi"', '"', ',', 'plain')


def test_distance_csv_roundtrip_quotes_awkward_ids():
    n = len(AWKWARD_IDS)
    rng = np.random.default_rng(5)
    a = rng.uniform(0.1, 2.0, size=(n, n))
    values = a + a.T
    np.fill_diagonal(values, 0.0)
    labels = ('x,y', 'q"', '', 'z', '')
    dm = DistanceMatrix(AWKWARD_IDS, values, labels)
    back = DistanceMatrix.from_csv(dm.to_csv())
    assert back.ids == dm.ids
    assert back.labels == dm.labels
    assert np.array_equal(back.values, dm.values)


def test_distance_csv_bytes_unchanged_for_plain_ids():
    dm = DistanceMatrix(("p0", "p1"), [[0.0, 0.5], [0.5, 0.0]], ("a", "b"))
    assert dm.to_csv() == "id,label,p0,p1\np0,a,0,0.5\np1,b,0.5,0\n"


def test_feature_csv_roundtrip_quotes_awkward_ids():
    n = len(AWKWARD_IDS)
    values = np.arange(2.0 * n).reshape(n, 2) / 7.0
    columns = (("L,1", None), ('R"', "case,x"))
    y = ("case", 'ctl,"b"', "case", "case", "ctl")
    fm = FeatureMatrix(values, columns, AWKWARD_IDS, y)
    back = FeatureMatrix.from_csv(fm.to_csv())
    assert back.ids == fm.ids
    assert back.y == fm.y
    assert back.columns == fm.columns
    assert np.array_equal(back.values, fm.values)

    plain = FeatureMatrix(values[:1], (("A", None), ("B", "c")), ("s0",))
    assert plain.to_csv() == (
        f"id,class,A,B:c\ns0,,{values[0, 0]:.17g},{values[0, 1]:.17g}\n")


def test_svg_text_is_escaped():
    label = "A&B<1>"
    docs = [
        svg_scatter([[0.0, 0.0], [1.0, 1.0]], [label, "x"], title=label),
        svg_histogram([1, 2], [0.0, 1.0, 2.0], title=label),
        svg_pair_grid([[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]], [label, '"q"']),
    ]
    for doc in docs:
        root = ET.fromstring(doc)
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert label in texts
