"""Rule perf-pop0: positives, negatives, scoping, suppression."""

from tests.lint.lintutil import rule_lines, run_rule

RULE = "perf-pop0"

#: Module name inside the rule's default hot-path scope.
HOT = "repro.des.fixture"


def test_pop0_flagged():
    report = run_rule("queue.pop(0)\n", RULE, module=HOT)
    assert rule_lines(report, RULE) == [1]


def test_insert0_flagged():
    report = run_rule("queue.insert(0, item)\n", RULE, module=HOT)
    assert rule_lines(report, RULE) == [1]


def test_nested_attribute_receiver_flagged():
    report = run_rule("self._pending.pop(0)\n", RULE, module=HOT)
    assert rule_lines(report, RULE) == [1]


def test_every_hot_layer_in_scope():
    for module in ("repro.des.m", "repro.tpwire.m", "repro.net.m", "repro.hw.m"):
        report = run_rule("q.pop(0)\n", RULE, module=module)
        assert rule_lines(report, RULE) == [1], module


def test_pop_without_index_not_flagged():
    report = run_rule("queue.pop()\n", RULE, module=HOT)
    assert report.findings == []


def test_pop_nonzero_index_not_flagged():
    report = run_rule("queue.pop(1)\nqueue.pop(-1)\n", RULE, module=HOT)
    assert report.findings == []


def test_dict_pop_with_default_not_flagged():
    report = run_rule("table.pop(0, None)\n", RULE, module=HOT)
    assert report.findings == []


def test_insert_variable_index_not_flagged():
    report = run_rule("queue.insert(index, item)\n", RULE, module=HOT)
    assert report.findings == []


def test_deque_popleft_not_flagged():
    report = run_rule(
        """\
        from collections import deque

        queue = deque()
        queue.appendleft(1)
        queue.popleft()
        """,
        RULE,
        module=HOT,
    )
    assert report.findings == []


def test_cold_modules_out_of_scope():
    for module in ("repro.core.space", "repro.obs.tracer", "tests.fixture"):
        report = run_rule("q.pop(0)\n", RULE, module=module)
        assert report.findings == [], module


def test_suppression():
    report = run_rule(
        "table.pop(0)  # lint: disable=perf-pop0\n", RULE, module=HOT
    )
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == [RULE]
