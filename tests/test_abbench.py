"""tools/abbench.py: the summary of canned perfbench result lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "abbench.py"
_spec = importlib.util.spec_from_file_location("abbench", _PATH)
abbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abbench)

END_TO_END = [
    {"name": "latency_s.mean", "better": "lower", "bound": 0.25},
    {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def _record(pair, side, latency, rss, workload="w", failed=0):
    metrics = {"latency_s.mean": latency, "throughput_per_s": 1 / latency, "peak_rss_mb": rss}
    return {"workload": workload, "pair": pair, "seed": 100 + pair, "side": side,
            "result": {"correct": not failed, "attempted": 5, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}}


def _canned():
    records = []
    for i in range(10):
        # the change is faster in every pair but pair 3, and always uses 4 MB more
        records.append(_record(i, "parent", 1.0 + i / 100, 28.0))
        records.append(_record(i, "change", 1.2 if i == 3 else 0.8 + i / 100, 32.0))
    records.append(_record(10, "parent", 5.0, 99.0, failed=1))  # no change side: not a pair
    records.append({"workload": "w", "pair": 10, "seed": 110, "side": "change",
                    "result": {"error": "exit 2: boom"}})
    return records


def test_the_summary_table_of_canned_runs():
    assert abbench.summarize(_canned(), END_TO_END) == [
        "| workload | metric | parent | change | change/parent | change better in | bound "
        "| verdict |",
        "|---|---|---|---|---|---|---|---|",
        "| w | latency_s.mean | 1.045 [1.018, 1.073] | 0.855 [0.8175, 0.8825] | 0.818 | 9/10 "
        "| 0.25 | gain<bound |",
        "| w | throughput_per_s | 0.957 [0.9324, 0.9828] | 1.17 [1.133, 1.223] | 1.222 | 9/10 "
        "| 0.25 | gain<bound |",
        "| w | peak_rss_mb | 28 [28, 28] | 32 [32, 32] | 1.143 | 0/10 | 0.1 | worse |",
        "w parent: 11 runs, failed/attempted 1/55, correct in 10",
        "w change: 10 runs, failed/attempted 0/50, correct in 10",
        "error: w pair 10 change: exit 2: boom",
    ]


def test_a_gain_past_the_bound_is_a_gain():
    records = []
    for i in range(10):
        # the change is faster in every pair but pair 3, by about 0.6x: past the 0.25 bound
        records.append(_record(i, "parent", 1.0 + i / 100, 28.0))
        records.append(_record(i, "change", 1.2 if i == 3 else 0.6 + i / 100, 28.0))
    rows = abbench.summarize(records, END_TO_END)
    assert rows[2:5] == [
        "| w | latency_s.mean | 1.045 [1.018, 1.073] | 0.655 [0.6175, 0.6825] | 0.627 | 9/10 "
        "| 0.25 | gain |",
        "| w | throughput_per_s | 0.957 [0.9324, 0.9828] | 1.527 [1.465, 1.62] | 1.595 | 9/10 "
        "| 0.25 | gain |",
        "| w | peak_rss_mb | 28 [28, 28] | 28 [28, 28] | 1.000 | 0/10 | 0.1 | - |",
    ]


def test_fewer_than_ten_pairs_claim_no_gain():
    rows = abbench.summarize(_canned()[:18], END_TO_END)
    assert rows[2].endswith("| 8/9 | 0.25 | - |")


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    records = []
    for i in range(10):
        # "noisy": the parent's quartiles span 0.38 of its median, and the sides overlap
        records.append(_record(i, "parent", 1.0 + i / 10, 28.0, workload="noisy"))
        records.append(_record(i, "change", 1.05 + i / 10, 28.0, workload="noisy"))
    for i in range(5):
        # "apart": the parent spans 0.43 of its median, but every change run beats every one
        records.append(_record(i, "parent", 1.0 + i / 5, 28.0, workload="apart"))
        records.append(_record(i, "change", 0.9 - i / 100, 28.0, workload="apart"))
    rows = abbench.summarize(records, END_TO_END)
    assert rows[2:8] == [
        "| noisy | latency_s.mean | 1.45 [1.175, 1.725] | 1.5 [1.225, 1.775] | 1.034 | 0/10 "
        "| 0.25 | unresolved |",
        "| noisy | throughput_per_s | 0.6905 [0.5801, 0.8523] | 0.6674 [0.5637, 0.8174] | 0.967 "
        "| 0/10 | 0.25 | unresolved |",
        "| noisy | peak_rss_mb | 28 [28, 28] | 28 [28, 28] | 1.000 | 0/10 | 0.1 | - |",
        "| apart | latency_s.mean | 1.4 [1.1, 1.7] | 0.88 [0.865, 0.895] | 0.629 | 5/5 "
        "| 0.25 | - |",
        "| apart | throughput_per_s | 0.7143 [0.5903, 0.9167] | 1.136 [1.117, 1.156] | 1.591 "
        "| 5/5 | 0.25 | - |",
        "| apart | peak_rss_mb | 28 [28, 28] | 28 [28, 28] | 1.000 | 0/5 | 0.1 | - |",
    ]


@pytest.mark.parametrize("text, seeds", [("2201-2203", [2201, 2202, 2203]), ("7,9", [7, 9])])
def test_seed_lists(text, seeds):
    assert abbench.parse_seeds(text) == seeds


def test_the_net_src_line_change_between_the_recorded_trees(tmp_path):
    def tree(files):
        for name, text in files.items():
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(text)
        abbench.git("add", "-A", cwd=tmp_path)
        return abbench.git("write-tree", cwd=tmp_path).decode().strip()

    abbench.git("init", "-q", cwd=tmp_path)
    parent = tree({"src/a.py": "1\n2\n3\n", "README": "x\n"})
    # a.py loses two lines and gains one, b.py adds four; README is outside src/
    change = tree({"src/a.py": "1\nnew\n", "src/b.py": "1\n2\n3\n4\n", "README": "y\nz\n"})
    records = [{"side": "parent", "tree": parent}, {"side": "change", "tree": change}]
    assert abbench.src_lines(records, root=tmp_path) == "src/ lines: +5 -2, net +3"
    assert abbench.code_lines(records, root=tmp_path) == "code lines: 3 -> 6, net +3"
    # a change that adds only a docstring and a comment adds lines, but no code lines
    documented = tree({"src/b.py": '"""What b holds."""\n1\n2  # the second\n# a remark\n3\n4\n'})
    docs = [{"side": "parent", "tree": change}, {"side": "change", "tree": documented}]
    assert abbench.src_lines(docs, root=tmp_path) == "src/ lines: +3 -1, net +2"
    assert abbench.code_lines(docs, root=tmp_path) == "code lines: 6 -> 6, net +0"
    assert abbench.src_lines(records[1:], root=tmp_path) == (
        "src/ lines: the records carry no tree for one side")
    missing = [{"side": "parent", "tree": "0" * 40}, records[1]]
    assert abbench.src_lines(missing, root=tmp_path) == (
        f"src/ lines: trees {'0' * 40} and {change} are not in this repository")
    assert abbench.code_lines(records[1:], root=tmp_path) is None
    assert abbench.code_lines(missing, root=tmp_path) is None


def test_code_lines_leave_out_comments_blank_lines_and_docstrings():
    text = (
        '"""Module doc,\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # code and a comment\n"
        '    """Doc."""\n'
        "    return x\n"
        "\n"
        "\n"
        "class C:\n"
        '    def g(self): """One-line body: the def is code."""\n'
        '    s = """a string\n    that is data"""\n'
    )
    # def f, return x, class C, def g, and the two lines of s
    assert abbench.count_code_lines(text) == 6
