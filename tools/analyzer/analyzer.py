#!/usr/bin/env python3
"""Semantic analyzer driver (docs/static-analysis.md).

Runs the AST-level determinism and checkpoint-coverage checks and the
repo-policy check over every source under src/ (or over explicitly
listed files, which are then treated as replay-critical — that is how
the seeded-violation fixtures are driven).

Frontends:
  * clang — libclang via python3-clang (`clang.cindex`), driven off the
    build's compile_commands.json.  The reference frontend; used in CI.
  * lite  — built-in parser, no dependencies beyond Python.  Used
    wherever libclang is not installed (the default container has GCC
    only).
  * auto (default) — clang when importable, else lite.

Exit codes: 0 clean, 1 findings, 2 bad invocation / frontend failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import config as cfg  # noqa: E402
from checks import CHECKS, Options, run_checks  # noqa: E402

SOURCE_SUFFIXES = (".hpp", ".h", ".cpp", ".cc", ".cxx")


def discover_sources(root: Path) -> list[Path]:
    base = root / cfg.SOURCE_DIR
    if not base.is_dir():
        return []
    return [p for p in sorted(base.rglob("*"))
            if p.suffix in SOURCE_SUFFIXES and p.is_file()]


def clang_available() -> bool:
    try:
        import clang.cindex  # noqa: F401
        return True
    except Exception:
        return False


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="analyzer", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*",
                    help="explicit files to analyze (treated as "
                         "replay-critical); default: every source "
                         "under --root's src/")
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parents[2],
                    help="repository root (default: two levels up)")
    ap.add_argument("-p", "--compile-commands", type=Path, default=None,
                    help="build dir containing compile_commands.json "
                         "(clang frontend only)")
    ap.add_argument("--checks", default=None,
                    help="comma-separated subset of: "
                         + ",".join(CHECKS))
    ap.add_argument("--frontend", choices=("auto", "clang", "lite"),
                    default="auto")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress the summary line")
    args = ap.parse_args(argv)

    root = args.root.resolve()
    which = None
    if args.checks:
        which = [c.strip() for c in args.checks.split(",") if c.strip()]
        unknown = [c for c in which if c not in CHECKS]
        if unknown:
            print(f"analyzer: unknown checks: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    opts = Options()
    if args.files:
        files = []
        for f in args.files:
            p = Path(f).resolve()
            if not p.is_file():
                print(f"analyzer: no such file: {f}", file=sys.stderr)
                return 2
            files.append(p)
            rel = p.relative_to(root).as_posix() if p.is_relative_to(root) \
                else p.as_posix()
            opts.forced_critical.add(rel)
    else:
        files = discover_sources(root)
        opts.repo_head = True
        if not files:
            print(f"analyzer: no sources under {root}", file=sys.stderr)
            return 2

    frontend = args.frontend
    if frontend == "auto":
        frontend = "clang" if clang_available() else "lite"
    if frontend == "clang" and not clang_available():
        print("analyzer: clang frontend requested but clang.cindex is "
              "not importable (install python3-clang + libclang)",
              file=sys.stderr)
        return 2

    if frontend == "clang":
        import frontend_clang
        model = frontend_clang.build_model(root, files,
                                           args.compile_commands)
    else:
        import frontend_lite
        model = frontend_lite.build_model(root, files)

    findings = run_checks(model, opts, which)
    for f in findings:
        print(f)
    if not args.quiet:
        print(f"analyzer[{frontend}]: {len(model.files)} files, "
              f"{len(model.classes)} classes, {len(model.methods)} "
              f"method bodies; {len(findings)} finding(s)",
              file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
