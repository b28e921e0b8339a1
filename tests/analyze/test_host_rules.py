"""Host-layer lint: tamper regressions, suppression, and the tree gate.

Every rule gets a minimal tampered fixture asserting the exact
diagnostic fires (and a clean twin asserting it does not), so a future
refactor of :mod:`repro.analyze.host` cannot silently stop detecting a
violation class.  The suite ends with the real gate: the installed
``repro`` package must lint clean.
"""

import json
import textwrap

import pytest

from repro.analyze.host import (
    Baseline,
    DEFAULT_BASELINE_PATH,
    default_rules,
    line_digest,
    lint_text,
    lint_tree,
    rule_catalog,
)


def findings_of(text, rule=None, relpath="repro/fixture.py"):
    result = lint_text(textwrap.dedent(text), relpath=relpath)
    if rule is None:
        return result.findings
    return [f for f in result.findings if f.rule == rule]


class TestWallClockRule:
    def test_time_time_flagged(self):
        found = findings_of("""
            import time

            def stamp():
                return time.time()
        """, rule="host.time.wallclock")
        assert len(found) == 1
        assert found[0].line == 5

    def test_aliased_import_flagged(self):
        found = findings_of("""
            from time import perf_counter as pc

            def stamp():
                return pc()
        """, rule="host.time.wallclock")
        assert len(found) == 1

    def test_datetime_now_flagged(self):
        found = findings_of("""
            import datetime

            def stamp():
                return datetime.datetime.now()
        """, rule="host.time.wallclock")
        assert len(found) == 1

    def test_sleep_not_flagged(self):
        assert findings_of("""
            import time

            def nap():
                time.sleep(0.1)
        """, rule="host.time.wallclock") == []

    def test_allowlisted_stats_file_passes(self):
        found = findings_of("""
            import time

            def stamp():
                return time.perf_counter()
        """, rule="host.time.wallclock", relpath="repro/tuner/search.py")
        assert found == []


class TestUnseededRngRule:
    def test_module_level_random_flagged(self):
        found = findings_of("""
            import random

            def draw():
                return random.random()
        """, rule="host.rng.unseeded")
        assert len(found) == 1

    def test_uuid4_and_urandom_flagged(self):
        found = findings_of("""
            import uuid, os

            def token():
                return uuid.uuid4(), os.urandom(8)
        """, rule="host.rng.unseeded")
        assert len(found) == 2

    def test_unseeded_default_rng_flagged(self):
        found = findings_of("""
            import numpy as np

            def gen():
                return np.random.default_rng()
        """, rule="host.rng.unseeded")
        assert len(found) == 1

    def test_seeded_rng_passes(self):
        assert findings_of("""
            import random
            import numpy as np

            def gen(seed):
                return random.Random(seed), np.random.default_rng(seed)
        """, rule="host.rng.unseeded") == []


class TestRawWriteRule:
    def test_write_mode_open_flagged(self):
        found = findings_of("""
            def save(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
        """, rule="host.persist.raw-write")
        assert len(found) == 1
        assert found[0].line == 3

    def test_mode_keyword_and_binary_flagged(self):
        found = findings_of("""
            def save(path, blob):
                with open(path, mode="wb") as fh:
                    fh.write(blob)
        """, rule="host.persist.raw-write")
        assert len(found) == 1

    def test_read_mode_passes(self):
        assert findings_of("""
            def load(path):
                with open(path) as fh:
                    return fh.read()
        """, rule="host.persist.raw-write") == []

    def test_persist_module_is_exempt(self):
        found = findings_of("""
            def save(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
        """, rule="host.persist.raw-write", relpath="repro/persist.py")
        assert found == []


class TestUnlockedSharedMutationRule:
    TAMPERED = """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self._jobs = []

            def push(self, job):
                self._jobs = self._jobs + [job]
    """

    def test_unlocked_mutation_flagged(self):
        found = findings_of(self.TAMPERED, rule="host.race.unlocked-attr")
        assert len(found) == 1
        assert "push" in found[0].message

    def test_locked_mutation_passes(self):
        assert findings_of("""
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._jobs = []

                def push(self, job):
                    with self._lock:
                        self._jobs = self._jobs + [job]
        """, rule="host.race.unlocked-attr") == []

    def test_plain_class_not_in_scope(self):
        assert findings_of("""
            class Bag:
                def __init__(self):
                    self.items = []

                def push(self, item):
                    self.items = self.items + [item]
        """, rule="host.race.unlocked-attr") == []


class TestLockOrderRule:
    def test_inversion_flagged(self):
        found = findings_of("""
            import threading

            a_lock = threading.Lock()
            b_lock = threading.Lock()

            def forward():
                with a_lock:
                    with b_lock:
                        pass

            def backward():
                with b_lock:
                    with a_lock:
                        pass
        """, rule="host.lock.order")
        assert len(found) == 1
        assert "a_lock" in found[0].message and "b_lock" in found[0].message

    def test_consistent_order_passes(self):
        assert findings_of("""
            import threading

            a_lock = threading.Lock()
            b_lock = threading.Lock()

            def one():
                with a_lock:
                    with b_lock:
                        pass

            def two():
                with a_lock:
                    with b_lock:
                        pass
        """, rule="host.lock.order") == []


class TestSpanLeakRule:
    def test_naked_span_flagged(self):
        found = findings_of("""
            def work(obs):
                span = obs.span("step")
                return span
        """, rule="host.obs.span-leak")
        assert len(found) == 1

    def test_with_span_passes(self):
        assert findings_of("""
            def work(obs):
                with obs.span("step"):
                    pass
        """, rule="host.obs.span-leak") == []

    def test_delegating_wrapper_passes(self):
        assert findings_of("""
            class Facade:
                def span(self, name):
                    return self.tracer.span(name)
        """, rule="host.obs.span-leak") == []


class TestCounterDecrementRule:
    def test_dec_flagged(self):
        found = findings_of("""
            def drop(request_counter):
                request_counter.dec()
        """, rule="host.obs.counter-dec")
        assert len(found) == 1

    def test_negative_inc_flagged(self):
        found = findings_of("""
            def drop(counter):
                counter.inc(-1)
        """, rule="host.obs.counter-dec")
        assert len(found) == 1

    def test_positive_inc_passes(self):
        assert findings_of("""
            def bump(counter):
                counter.inc(1)
        """, rule="host.obs.counter-dec") == []

    def test_multi_line_receiver_witness(self):
        found = findings_of(
            "def drop(stats):\r\n    stats['é'].request_counter.dec(\r\n    )\r\n",
            rule="host.obs.counter-dec",
        )
        assert [f.witness["receiver"] for f in found] == [
            "stats['é'].request_counter"]


class TestSourceSegment:
    def test_segment_is_ast_get_source_segment(self):
        # Line ends of every kind, multi-byte characters and multi-line
        # nodes: the offset table must slice exactly what the stdlib does.
        import ast

        from repro.analyze.host.model import parse_source

        text = ("x = 'é€'\r\ny = f(\r\n  'ü', 2)\rz = [1,\n 2]\n"
                "s = '''\nµ\n'''.join(q)\r\nw = obs.trace(\n    'naïve',\n)")
        src = parse_source(text, "repro/fixture.py")
        nodes = [n for n in ast.walk(src.tree) if hasattr(n, "end_lineno")]
        assert len(nodes) > 20
        for node in nodes:
            assert src.segment(node) == ast.get_source_segment(text, node)


class TestExceptionRules:
    def test_bare_except_flagged(self):
        found = findings_of("""
            def run(fn):
                try:
                    fn()
                except:
                    pass
        """, rule="host.except.bare")
        assert len(found) == 1

    def test_silent_blanket_handler_flagged(self):
        found = findings_of("""
            from repro.errors import TransientError

            def run(fn):
                try:
                    fn()
                except Exception:
                    pass
        """, rule="host.except.swallow")
        assert len(found) == 1

    def test_handler_that_logs_passes(self):
        assert findings_of("""
            def run(fn, log):
                try:
                    fn()
                except Exception as exc:
                    log.incident(exc)
        """, rule="host.except.swallow") == []

    def test_narrow_handler_passes(self):
        assert findings_of("""
            from repro.errors import ParameterError

            def run(fn):
                try:
                    fn()
                except ParameterError:
                    pass
        """, rule="host.except.swallow") == []


class TestSuppression:
    VIOLATION = """
        import time

        def stamp():
            return time.time()
    """

    def test_pragma_on_line_suppresses(self):
        result = lint_text(textwrap.dedent("""
            import time

            def stamp():
                return time.time()  # repro: allow(host.time.wallclock)
        """))
        assert result.findings == []
        assert [f.rule for f in result.suppressed_pragma] == [
            "host.time.wallclock"]

    def test_pragma_on_line_above_suppresses(self):
        result = lint_text(textwrap.dedent("""
            import time

            def stamp():
                # repro: allow(host.time.wallclock) legacy stamp
                return time.time()
        """))
        assert result.findings == []
        assert len(result.suppressed_pragma) == 1

    def test_pragma_for_other_rule_does_not_suppress(self):
        result = lint_text(textwrap.dedent("""
            import time

            def stamp():
                return time.time()  # repro: allow(host.rng.unseeded)
        """))
        assert [f.rule for f in result.findings] == ["host.time.wallclock"]

    def test_baseline_entry_suppresses_exact_line(self):
        text = textwrap.dedent(self.VIOLATION)
        offending = "return time.time()"
        baseline = Baseline([{
            "rule": "host.time.wallclock",
            "path": "repro/fixture.py",
            "digest": line_digest(offending),
        }])
        result = lint_text(text, baseline=baseline)
        assert result.findings == []
        assert len(result.suppressed_baseline) == 1

    def test_baseline_entry_dies_with_the_line(self):
        text = textwrap.dedent(self.VIOLATION)
        baseline = Baseline([{
            "rule": "host.time.wallclock",
            "path": "repro/fixture.py",
            "digest": line_digest("return time.time()  # edited"),
        }])
        result = lint_text(text, baseline=baseline)
        assert [f.rule for f in result.findings] == ["host.time.wallclock"]


class TestCatalogAndCli:
    def test_every_rule_has_a_unique_id_and_description(self):
        catalog = rule_catalog()
        ids = [rule_id for rule_id, _ in catalog]
        assert len(ids) == len(set(ids)) == len(default_rules())
        assert all(rule_id.startswith("host.") for rule_id in ids)
        assert all(desc for _, desc in catalog)

    def test_cli_lint_reports_clean_tree(self, tmp_path, capsys):
        from repro.cli import main

        out_json = str(tmp_path / "lint.json")
        assert main(["lint", "--json", out_json]) == 0
        report = json.loads(open(out_json).read())
        assert report["format"] == "repro-host-lint/1"
        assert report["ok"] is True
        assert report["findings"] == 0

    def test_cli_lint_fails_on_violation(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "repro_fixture.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["lint", str(bad), "--no-baseline"]) == 1

    def test_checked_in_baseline_parses(self):
        import os

        if os.path.exists(DEFAULT_BASELINE_PATH):
            Baseline.load(DEFAULT_BASELINE_PATH)


@pytest.fixture(scope="module")
def tree_lint():
    """One whole-tree lint shared by the gate tests (a scan takes seconds)."""
    return lint_tree()


class TestTreeGate:
    def test_repro_package_lints_clean(self, tree_lint):
        """The acceptance criterion: zero unsuppressed findings."""
        assert tree_lint.files_scanned > 50
        rendered = "\n".join(f.render() for f in tree_lint.findings)
        assert tree_lint.ok, f"unsuppressed host-lint findings:\n{rendered}"

    def test_tree_scan_covers_all_rules(self, tree_lint):
        assert set(tree_lint.rules) == {r.rule_id for r in default_rules()}
