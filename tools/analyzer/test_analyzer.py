#!/usr/bin/env python3
"""Tests for the semantic analyzer (registered as ctest
`analyzer_selftest`).

Covers, with the lite frontend (always available):
  * the repo head analyzes clean;
  * every seeded-violation fixture fails with findings at exactly its
    `// LINE`-marked lines;
  * the clean fixture passes;
  * deleting a serialized member reference from DtnFlowRouter's
    checkpoint_save (without DTN_CKPT_SKIP) fails the coverage check;
  * moving a required replay-critical file out of the replay-critical
    directories fails the policy check;
  * ambient calls and bare markers are caught in src/ files outside
    the replay-critical directories too;
  * `// det-lint: ok(...)` suppresses;
and, when clang.cindex is importable (CI's analyzer job), frontend
equivalence on the fixtures.
"""
from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
FIXTURES = HERE / "fixtures"
ANALYZER = HERE / "analyzer.py"


def run_analyzer(*args: str) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, str(ANALYZER), *args],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def finding_lines(stdout: str, path: Path) -> set[int]:
    lines = set()
    rx = re.compile(re.escape(path.name) + r":(\d+): \[")
    for out_line in stdout.splitlines():
        m = rx.search(out_line)
        if m:
            lines.add(int(m.group(1)))
    return lines


def marked_lines(path: Path) -> set[int]:
    marks = set()
    for no, line in enumerate(path.read_text().splitlines(), start=1):
        if "// LINE" in line:
            marks.add(no)
    return marks


def clang_available() -> bool:
    try:
        import clang.cindex  # noqa: F401
        return True
    except Exception:
        return False


class RepoHeadTest(unittest.TestCase):
    def test_repo_head_is_clean(self):
        code, out, err = run_analyzer("--frontend", "lite",
                                      "--root", str(ROOT))
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")
        self.assertEqual(out.strip(), "")


class FixtureTest(unittest.TestCase):
    """Each bad fixture must fail with findings at exactly the lines it
    marks; the clean fixture must pass."""

    def _check_bad(self, name: str, check: str):
        path = FIXTURES / name
        code, out, _ = run_analyzer("--frontend", "lite",
                                    "--root", str(ROOT), str(path))
        self.assertEqual(code, 1, f"expected findings for {name}:\n{out}")
        self.assertIn(f"[{check}]", out)
        self.assertEqual(finding_lines(out, path), marked_lines(path),
                         f"finding lines != marked lines for {name}:\n{out}")

    def test_bad_determinism(self):
        self._check_bad("bad_determinism.cpp", "determinism")

    def test_bad_alias_iteration(self):
        self._check_bad("bad_alias_iteration.cpp", "determinism")

    def test_bad_ckpt(self):
        self._check_bad("bad_ckpt.cpp", "ckpt-coverage")

    def test_bad_suppression(self):
        self._check_bad("bad_suppression.cpp", "policy")

    def test_clean_fixture(self):
        code, out, err = run_analyzer("--frontend", "lite",
                                      "--root", str(ROOT),
                                      str(FIXTURES / "clean.cpp"))
        self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")


class MutationTest(unittest.TestCase):
    """Acceptance criterion: dropping a member from a type's field list
    without DTN_CKPT_SKIP must fail.  The lists are template members
    (`template <class Ar> void fields(Ar&)`) reached from save/load, so
    this also pins that the frontend reads member references inside a
    template body and follows `const_cast<T*>(this)->fields(w)`."""

    DROPS = (
        ("src/core/distributed_bandwidth.cpp",
         '  ar.matrix("bandwidth outgoing ewma", outgoing_ewma_);\n',
         "outgoing_ewma_", "DistributedBandwidth"),
        ("src/core/dtn_flow_router.cpp",
         '  ar.fixed("router needs reconvergence", needs_reconvergence_);\n',
         "needs_reconvergence_", "DtnFlowRouter"),
    )

    def test_dropped_field_is_caught(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_root = Path(tmp)
            shutil.copytree(ROOT / "src", tmp_root / "src")
            for rel, line, _, _ in self.DROPS:
                path = tmp_root / rel
                text = path.read_text()
                mutated = text.replace(line, "", 1)
                self.assertNotEqual(text, mutated,
                                    f"expected {line.strip()} in {rel}")
                path.write_text(mutated)
            code, out, _ = run_analyzer("--frontend", "lite",
                                        "--root", str(tmp_root))
            self.assertEqual(code, 1, f"mutation not caught:\n{out}")
            for _, _, member, cls in self.DROPS:
                self.assertRegex(
                    out, r"\[ckpt-coverage\] member `" + member + r"` of "
                         r"dtn::core::" + cls + r" is not referenced in "
                         r"\w*save")


class RequiredCoverageTest(unittest.TestCase):
    """A REQUIRED_COVERED_FILES entry that leaves the replay-critical
    directories must fail the repo-head run, not narrow it silently."""

    def test_moved_required_file_is_caught(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_root = Path(tmp)
            shutil.copytree(ROOT / "src", tmp_root / "src")
            moved = tmp_root / "src/trace/checkpoint.hpp"
            (tmp_root / "src/persist/checkpoint.hpp").rename(moved)
            code, out, _ = run_analyzer("--frontend", "lite",
                                        "--root", str(tmp_root))
            self.assertEqual(code, 1, f"move not caught:\n{out}")
            self.assertIn("src/persist/checkpoint.hpp:1: [policy]", out)


class SourceWideRulesTest(unittest.TestCase):
    """The ambient-call and bare-marker rules cover all of src/, not
    only the replay-critical directories: the trace generators' output
    is what the golden digests pin."""

    def test_violations_outside_replay_critical_dirs_are_caught(self):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_root = Path(tmp)
            shutil.copytree(ROOT / "src", tmp_root / "src")
            gen = tmp_root / "src/trace/campus_generator.cpp"
            gen.write_text(gen.read_text() + (
                "\nnamespace dtn::trace {\n"
                "int injected_jitter() { return std::rand() % 7; }\n"
                "}  // namespace dtn::trace\n"))
            metrics = tmp_root / "src/metrics/metrics.cpp"
            metrics.write_text(metrics.read_text() + (
                "\nnamespace dtn::metrics {\n"
                "int injected_bare() {\n"
                "  return 0;  // det-lint: ok\n"
                "}\n"
                "}  // namespace dtn::metrics\n"))
            code, out, _ = run_analyzer("--frontend", "lite",
                                        "--root", str(tmp_root))
            self.assertEqual(code, 1, f"violations not caught:\n{out}")
            self.assertRegex(
                out, r"src/trace/campus_generator\.cpp:\d+: \[determinism\]"
                     r" ambient nondeterminism `std::rand`")
            self.assertRegex(
                out, r"src/metrics/metrics\.cpp:\d+: \[policy\] "
                     r"det-lint suppression without a reason")


class SuppressionTest(unittest.TestCase):
    def test_det_lint_marker_suppresses(self):
        src = (FIXTURES / "bad_alias_iteration.cpp").read_text()
        src = src.replace(
            "for (const auto& kv : names) {  // LINE: unordered iteration",
            "// det-lint: ok(fixture: order-insensitive sum)\n"
            "    for (const auto& kv : names) {")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "suppressed.cpp"
            path.write_text(src)
            code, out, err = run_analyzer("--frontend", "lite",
                                          "--root", str(ROOT), str(path))
            self.assertEqual(code, 0, f"stdout:\n{out}\nstderr:\n{err}")


@unittest.skipUnless(clang_available(), "clang.cindex not importable")
class FrontendEquivalenceTest(unittest.TestCase):
    """Both frontends must report the same (file, line, check) facts on
    the fixtures (messages may differ in type spelling)."""

    def _facts(self, out: str) -> set[tuple[str, str]]:
        facts = set()
        for line in out.splitlines():
            m = re.match(r"(.+:\d+): \[([\w-]+)\]", line)
            if m:
                facts.add((m.group(1), m.group(2)))
        return facts

    def test_fixtures_agree(self):
        for name in ("bad_determinism.cpp", "bad_alias_iteration.cpp",
                     "bad_ckpt.cpp", "bad_suppression.cpp", "clean.cpp"):
            path = FIXTURES / name
            _, out_l, _ = run_analyzer("--frontend", "lite",
                                       "--root", str(ROOT), str(path))
            _, out_c, _ = run_analyzer("--frontend", "clang",
                                       "--root", str(ROOT), str(path))
            self.assertEqual(self._facts(out_l), self._facts(out_c),
                             f"frontends disagree on {name}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
