"""Rule perf-sched-alloc: positives, negatives, scoping, suppression."""

from tests.lint.lintutil import rule_lines, run_rule

RULE = "perf-sched-alloc"

#: Module name inside the rule's default hot-path scope.
HOT = "repro.des.fixture"


def test_lambda_in_after_flagged():
    report = run_rule("sim.after(0.1, lambda: handler(x))\n", RULE, module=HOT)
    assert rule_lines(report, RULE) == [1]


def test_lambda_in_call_after_flagged():
    report = run_rule(
        "self.sim.call_after(0.0, lambda: self._step(None))\n",
        RULE,
        module=HOT,
    )
    assert rule_lines(report, RULE) == [1]


def test_tuple_literal_argument_flagged():
    report = run_rule(
        "sim.call_after(delay, fn, (done, result))\n", RULE, module=HOT
    )
    assert rule_lines(report, RULE) == [1]


def test_list_literal_argument_flagged():
    report = run_rule("sim.call_at(t, handler, [1, 2])\n", RULE, module=HOT)
    assert rule_lines(report, RULE) == [1]


def test_keyword_lambda_flagged():
    report = run_rule(
        "sim.at(t, fn, callback=lambda: None)\n", RULE, module=HOT
    )
    assert rule_lines(report, RULE) == [1]


def test_every_hot_layer_in_scope():
    for module in ("repro.des.m", "repro.tpwire.m", "repro.hw.m"):
        report = run_rule("sim.after(0.1, lambda: f())\n", RULE, module=module)
        assert rule_lines(report, RULE) == [1], module


def test_args_protocol_not_flagged():
    report = run_rule(
        "sim.call_after(delay, self._finish_cycle, done, result)\n",
        RULE,
        module=HOT,
    )
    assert report.findings == []


def test_plain_after_not_flagged():
    report = run_rule("sim.after(gap, handler)\n", RULE, module=HOT)
    assert report.findings == []


def test_lambda_outside_scheduling_call_not_flagged():
    report = run_rule(
        "ordered = sorted(entries, key=lambda e: e[0])\n", RULE, module=HOT
    )
    assert report.findings == []


def test_unrelated_method_with_tuple_not_flagged():
    report = run_rule("queue.append((frame, done))\n", RULE, module=HOT)
    assert report.findings == []


def test_cold_modules_out_of_scope():
    for module in ("repro.net.link", "repro.core.space", "tests.fixture"):
        report = run_rule("sim.after(0.1, lambda: f())\n", RULE, module=module)
        assert report.findings == [], module


def test_suppression():
    report = run_rule(
        "sim.after(0.1, lambda: f())  # lint: disable=perf-sched-alloc\n",
        RULE,
        module=HOT,
    )
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == [RULE]
