import json
import logging
from collections import Counter

import pytest

from odin.graph import (
    GraphFormatError,
    TextGraph,
    load_graph,
    make_few_shot_split,
    parse_edge_file,
    save_graph,
)


def write_graph_files(tmp_path, records, edge_lines):
    nodes = tmp_path / "nodes.jsonl"
    edges = tmp_path / "edges.txt"
    nodes.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    edges.write_text("\n".join(edge_lines) + "\n")
    return nodes, edges


def path_graph_files(tmp_path):
    records = [{"id": i, "text": f"node {i} text"} for i in range(3)]
    return write_graph_files(tmp_path, records, ["0 1", "1 2"])


def test_load_path_graph_degrees(tmp_path):
    g = load_graph(*path_graph_files(tmp_path))
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_self_loop_dropped_with_count(tmp_path):
    nodes, edges = write_graph_files(
        tmp_path, [{"id": 0, "text": "a"}, {"id": 1, "text": "b"}], ["0 0", "0 1"]
    )
    es, self_loops, dups = parse_edge_file(edges, 2)
    assert es == frozenset({(0, 1)}) and self_loops == 1 and dups == 0
    g = load_graph(nodes, edges)
    assert g.num_edges == 1


def test_reversed_duplicate_stored_once(tmp_path):
    nodes, edges = write_graph_files(
        tmp_path, [{"id": 0, "text": "a"}, {"id": 1, "text": "b"}], ["0 1", "1 0"]
    )
    g = load_graph(nodes, edges)
    assert g.num_edges == 1
    assert g.neighbors(0) == (1,) and g.neighbors(1) == (0,)


def test_edge_to_missing_node_is_hard_error(tmp_path):
    nodes, edges = write_graph_files(tmp_path, [{"id": 0, "text": "a"}], ["0 5"])
    with pytest.raises(GraphFormatError, match="edges.txt:1"):
        load_graph(nodes, edges)


def test_empty_text_is_hard_error(tmp_path):
    nodes, edges = write_graph_files(
        tmp_path, [{"id": 0, "text": "ok"}, {"id": 1, "text": "   "}], ["0 1"]
    )
    with pytest.raises(GraphFormatError, match="empty text"):
        load_graph(nodes, edges)


@pytest.mark.parametrize("line", ['[1, "hello world"]', '"node 1"', "7", "null"])
def test_a_node_line_that_is_not_an_object_is_hard_error(tmp_path, line):
    nodes, edges = write_graph_files(tmp_path, [{"id": 0, "text": "ok"}], ["0 1"])
    nodes.write_text(nodes.read_text() + line + "\n")
    with pytest.raises(GraphFormatError, match="nodes.jsonl:2: not a JSON object"):
        load_graph(nodes, edges)


@pytest.mark.parametrize("field", ["fine_label", "coarse_label"])
@pytest.mark.parametrize("labels, line", [
    ([0, [1]], 2),        # unhashable: ended a task in a TypeError
    ([{"a": 1}], 1),
    ([0, 1.5], 2),
    ([1.0], 1),           # a float equals the int class 1 as a dict key
    ([True], 1),          # so does a bool
    ([0, 1, True], 3),
    ([0, "zero", 1], 2),  # a str among ints does not sort
    (["a", None, 3], 3),
], ids=["list", "object", "float", "integral float", "bool", "bool among ints",
        "str among ints", "int among strs"])
def test_a_label_not_all_integers_or_all_strings_is_hard_error(tmp_path, field, labels, line):
    records = [{"id": i, "text": f"node {i}", field: lab} for i, lab in enumerate(labels)]
    nodes, edges = write_graph_files(tmp_path, records, [])
    with pytest.raises(GraphFormatError, match=f"nodes.jsonl:{line}: {field} "):
        load_graph(nodes, edges)


def test_labels_load_as_all_integers_or_all_strings_with_gaps(tmp_path):
    records = [{"id": 0, "text": "a", "fine_label": "x", "coarse_label": 2},
               {"id": 1, "text": "b", "fine_label": None},
               {"id": 2, "text": "c", "fine_label": "y", "coarse_label": 0}]
    g = load_graph(*write_graph_files(tmp_path, records, []))
    assert g.fine_labels == ("x", None, "y") and g.coarse_labels == (2, None, 0)


def test_comments_and_blank_lines_in_edge_file(tmp_path):
    nodes, edges = write_graph_files(
        tmp_path,
        [{"id": 0, "text": "a"}, {"id": 1, "text": "b"}],
        ["# header", "", "0 1  # trailing"],
    )
    assert load_graph(nodes, edges).num_edges == 1


def test_neighbors_star_graph_matches_dict_scan():
    # independent oracle: adjacency rebuilt by a plain dictionary scan
    edges = frozenset((0, leaf) for leaf in range(1, 6))
    g = TextGraph(tuple(f"t{i}" for i in range(6)), edges)
    oracle: dict[int, set] = {i: set() for i in range(6)}
    for u, v in edges:
        oracle[u].add(v)
        oracle[v].add(u)
    for v in range(6):
        assert set(g.neighbors(v)) == oracle[v]
    assert len(g.neighbors(0)) == 5


def test_neighbors_invalid_id():
    g = TextGraph(("a", "b"), frozenset({(0, 1)}))
    with pytest.raises(IndexError):
        g.neighbors(2)


def test_isolated_node_allowed():
    g = TextGraph(("a", "b", "c"), frozenset({(0, 1)}))
    assert g.neighbors(2) == ()


@pytest.mark.parametrize("lines, match", [
    (['{"id": 0, "name": "x"}', '{"id": 1, "name": '], "labels.jsonl:2: not a JSON"),
    (['{"name": "x"}'], "labels.jsonl:1: not a JSON"),
    (['{"id": 0, "name": "x"}', "", '{"id": 0, "name": "y"}'],
     "labels.jsonl:3: duplicate label id 0"),
], ids=["invalid-json", "missing-id", "duplicate-id"])
def test_malformed_label_file_is_hard_error(tmp_path, lines, match):
    labels = tmp_path / "labels.jsonl"
    labels.write_text("\n".join(lines) + "\n")
    with pytest.raises(GraphFormatError, match=match):
        load_graph(*path_graph_files(tmp_path), labels)


def test_symmetry_property():
    g = TextGraph(tuple(f"n{i}" for i in range(6)), frozenset({(0, 1), (1, 3), (2, 4)}))
    for u in range(6):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


def test_save_load_round_trip(tmp_path):
    g = TextGraph(
        ("alpha", "beta", "gamma"),
        frozenset({(0, 1), (1, 2)}),
        fine_labels=(0, 1, 0),
        coarse_labels=(0, 0, 0),
        label_names={0: "zero", 1: "one"},
    )
    nodes, edges, labels = tmp_path / "n.jsonl", tmp_path / "e.txt", tmp_path / "l.jsonl"
    save_graph(g, nodes, edges, labels)
    g2 = load_graph(nodes, edges, labels)
    assert g2 == g


def labeled_graph(per_class=20, classes=2):
    n = per_class * classes
    texts = tuple(f"text {i}" for i in range(n))
    fine = tuple(i % classes for i in range(n))
    return TextGraph(texts, frozenset(), fine_labels=fine, coarse_labels=fine)


def test_few_shot_split_sizes():
    split = make_few_shot_split(labeled_graph(), k=8, label_kind="fine", seed=3)
    assert len(split.train_ids) == 16
    assert len(split.test_ids) == 24


def uneven_graph():
    # fine classes of 1, 2, 5, 9 and 20 nodes, then 3 nodes without one;
    # coarse classes of about 20, and every 11th node without one
    fine = tuple(c for c, size in enumerate((1, 2, 5, 9, 20)) for _ in range(size))
    fine += (None,) * 3
    coarse = tuple(None if v % 11 == 0 else v % 2 for v in range(len(fine)))
    return TextGraph(tuple(f"t{v}" for v in range(len(fine))), frozenset(),
                     fine_labels=fine, coarse_labels=coarse)


@pytest.mark.parametrize("kind", ["fine", "coarse"])
@pytest.mark.parametrize("k", [1, 2, 8])
def test_few_shot_split_partitions_the_labelled_nodes(kind, k):
    g = uneven_graph()
    labels = g.labels(kind)
    split = make_few_shot_split(g, k, kind, seed=5)
    train, test = set(split.train_ids), set(split.test_ids)
    assert train | test == {v for v, lab in enumerate(labels) if lab is not None}
    assert not train & test
    sizes = Counter(lab for lab in labels if lab is not None)
    assert Counter(labels[v] for v in train) == {lab: min(k, n) for lab, n in sizes.items()}
    assert {labels[v] for v in test} <= {labels[v] for v in train}


def test_few_shot_split_deterministic():
    g = labeled_graph()
    a = make_few_shot_split(g, 8, "fine", seed=11)
    b = make_few_shot_split(g, 8, "fine", seed=11)
    assert a == b
    c = make_few_shot_split(g, 8, "fine", seed=12)
    assert a != c


def test_few_shot_small_class_all_in_train(caplog):
    texts = tuple(f"t{i}" for i in range(23))
    fine = tuple(0 if i < 20 else 1 for i in range(23))  # class 1 has 3 members
    g = TextGraph(texts, frozenset(), fine_labels=fine)
    with caplog.at_level(logging.WARNING):
        split = make_few_shot_split(g, k=8, label_kind="fine", seed=0)
    assert {20, 21, 22} <= set(split.train_ids)
    assert "fewer than k" in caplog.text



def test_few_shot_short_classes_log_one_warning(caplog):
    # 12 classes of 2 members and one of 20: k=5 leaves 12 short classes
    fine = tuple(i // 2 for i in range(24)) + (12,) * 20
    g = TextGraph(tuple(f"t{i}" for i in range(len(fine))), frozenset(), fine_labels=fine)
    with caplog.at_level(logging.WARNING, logger="odin.graph"):
        split = make_few_shot_split(g, k=5, label_kind="fine", seed=0)
    assert set(range(24)) <= set(split.train_ids)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    msg = caplog.records[0].getMessage()
    assert msg.startswith("12 of 13 fine class(es) have fewer than k=5 members")
    assert msg.endswith(": " + ", ".join(str(c) for c in range(12)))
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="odin.graph"):
        make_few_shot_split(g, k=2, label_kind="fine", seed=0)
    assert not caplog.records


def test_few_shot_per_class_counts():
    split = make_few_shot_split(labeled_graph(per_class=30, classes=3), 5, "fine", 7)
    g = labeled_graph(per_class=30, classes=3)
    for cls in range(3):
        got = sum(1 for v in split.train_ids if g.fine_labels[v] == cls)
        assert got == 5
