#!/usr/bin/env python3
"""Repo-specific determinism lint for the DTN-FLOW simulator.

The replay engine guarantees bit-identical results for a given (trace,
router, seed) triple — test_determinism.cpp pins golden digests to that
contract.  Two bug classes silently break it without any compiler
diagnostic, so this lint polices them statically:

1. **Unordered-container iteration in replay-critical code**
   (src/core, src/sim, src/routing, src/net).  std::unordered_map/set
   iteration order depends on libstdc++ version, hash seeding and
   insertion history; iterating one inside the replay path reorders
   router decisions and flips the golden digests.  Lookups
   (find/count/operator[]) are fine — only iteration is flagged
   (range-for over the container, or .begin()/.cbegin()/.rbegin()).

2. **Ambient nondeterminism anywhere in src/** outside src/util/rng.*:
   rand()/srand(), time(), std::random_device, the std::chrono clocks,
   gettimeofday, getpid.  All randomness must flow through dtn::Rng so
   a run is a pure function of its seed; all timestamps must be
   simulation time.

3. **Test-only convenience overloads called from src/** — currently
   the allocating MarkovPredictor::next_distribution() spelling, whose
   per-call vector would put an allocation inside the prediction hot
   path; replay code must use the scratch-buffer overload.

Suppressing a finding: append `// det-lint: ok(<reason>)` to the line.
A suppression without a reason is itself a finding.

Exit status: 0 clean, 1 findings, 2 bad invocation.

Usage:
    scripts/determinism_lint.py [--root REPO_ROOT] [-v]
"""
from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Directories whose code runs inside the deterministic replay loop:
# iteration-order hazards are findings here.  src/util is included for
# the helpers the replay loop itself runs on (FlatMatrix tables, the
# seeded RNG streams), which are part of the bit-identical contract.
REPLAY_CRITICAL_DIRS = ("src/core", "src/sim", "src/routing", "src/net",
                        "src/persist", "src/util")
# Ambient-nondeterminism calls are findings everywhere under src/ except
# the one sanctioned wrapper.
SOURCE_DIR = "src"
RNG_ALLOWLIST = ("src/util/rng.hpp", "src/util/rng.cpp")
# Files whose replay-critical coverage is load-bearing: the golden
# determinism tests assume the lint sees these (the fault injector owns
# RNG streams whose draw order is part of the bit-identical contract).
# Moving or renaming one must keep it inside a replay-critical
# directory and update this list — a silent drop is a lint error.
REQUIRED_COVERED_FILES = (
    "src/sim/fault_injector.hpp",
    "src/sim/fault_injector.cpp",
    # The checkpoint layer serializes RNG streams and the event queue;
    # iteration-order or wall-clock nondeterminism here breaks the
    # bit-identical resume contract (docs/checkpointing.md).
    "src/persist/serializer.hpp",
    "src/persist/serializer.cpp",
    "src/persist/checkpoint.hpp",
    "src/persist/checkpoint.cpp",
    "src/persist/flat_io.hpp",
    # The bounded bundle store picks eviction victims and orders its
    # dedup/spill structures; any iteration-order nondeterminism here
    # changes which bundles survive overload (docs/bounded-store.md).
    "src/net/bundle_store.hpp",
    "src/net/bundle_store.cpp",
)

SUPPRESS_RE = re.compile(r"//\s*det-lint:\s*ok\(([^)]*)\)")
SUPPRESS_BARE_RE = re.compile(r"//\s*det-lint:\s*ok(?!\()")

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b")

# Type-alias declarations, tracked so members declared through an alias
# chain (`using NameTable = NameMap; NameTable table_;`) are still
# recognized as unordered containers.
ALIAS_USING_RE = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+);")
ALIAS_TYPEDEF_RE = re.compile(r"\btypedef\s+([^;]+?)\s+(\w+)\s*;")
TYPE_HEAD_RE = re.compile(r"^(?:const\s+)?([\w:]+)")

# Ambient nondeterminism, with negative lookbehind so member accesses
# (ev.time), qualified names (x::time) and identifiers ending in the
# word (run_time() etc.) do not match.
AMBIENT_PATTERNS = (
    (re.compile(r"(?<![\w.:>])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"(?<![\w.:>])time\s*\(\s*(?:NULL|nullptr|0|&)"), "time()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
     "std::chrono wall clock"),
    (re.compile(r"(?<![\w.:>])(?:gettimeofday|getpid)\s*\("),
     "gettimeofday()/getpid()"),
)

# Test-only APIs: convenience spellings whose use in src/ would
# reintroduce a hot-path hazard the production spelling was built to
# avoid.  Matched on member-call syntax only (`.name()` / `->name()`),
# so the declaration and definition of the overload do not trip it.
TEST_ONLY_CALLS = (
    (re.compile(r"(?:\.|->)\s*next_distribution\s*\(\s*\)"),
     "allocating MarkovPredictor::next_distribution() overload is "
     "test-only — replay code must pass a reused scratch buffer"),
)


def strip_comments_and_strings(line: str) -> str:
    """Blank out string/char literals and // comments so patterns do not
    match inside documentation or log text (the suppression marker is
    read from the raw line before this runs)."""
    out = []
    i, n = 0, len(line)
    in_str: str | None = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
            out.append(" ")
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(" ")
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest of line is a comment
        out.append(c)
        i += 1
    return "".join(out)


def find_unordered_names(text: str) -> set[str]:
    """Names of variables/members declared as unordered containers.

    Pragmatic single-pass parse: from each `unordered_*` keyword, walk
    the balanced <...> template argument list, then capture the
    declared identifier after it.  Aliases are handled separately
    (find_alias_edges / unordered_alias_names); constructs neither pass
    can see — `auto&` bindings, members of other objects — are the
    semantic analyzer's job (tools/analyzer, docs/static-analysis.md)."""
    names: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(text):
        i = text.find("<", m.end())
        if i == -1 or text[m.end():i].strip():
            continue
        depth, j = 0, i
        while j < len(text):
            if text[j] == "<":
                depth += 1
            elif text[j] == ">":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if j >= len(text):
            continue
        decl = re.match(r"\s*[&*]?\s*(\w+)\s*[;={(,)]", text[j + 1:j + 256])
        if decl:
            names.add(decl.group(1))
    return names


def find_alias_edges(text: str) -> dict[str, str]:
    """Alias name -> target type text, for every using/typedef."""
    edges: dict[str, str] = {}
    for m in ALIAS_USING_RE.finditer(text):
        edges[m.group(1)] = m.group(2).strip()
    for m in ALIAS_TYPEDEF_RE.finditer(text):
        edges[m.group(2)] = m.group(1).strip()
    return edges


def unordered_alias_names(edges: dict[str, str]) -> set[str]:
    """Alias names whose (transitive) target *is* an unordered container
    — matched on the type head, so a std::vector<NameMap> alias does not
    count (iterating the vector is deterministic)."""
    unordered: set[str] = set()
    for name, target in edges.items():
        head = TYPE_HEAD_RE.match(target)
        if head and UNORDERED_DECL_RE.fullmatch(
                head.group(1).split("::")[-1]):
            unordered.add(name)
    changed = True
    while changed:
        changed = False
        for name, target in edges.items():
            if name in unordered:
                continue
            head = TYPE_HEAD_RE.match(target)
            if head and head.group(1).split("::")[-1] in unordered:
                unordered.add(name)
                changed = True
    return unordered


def find_alias_typed_names(text: str, aliases: set[str]) -> set[str]:
    """Names of variables/members declared with an unordered alias type
    (`NameTable table_;`)."""
    names: set[str] = set()
    for alias in aliases:
        for m in re.finditer(r"\b" + re.escape(alias) +
                             r"\b\s*[&*]?\s*(\w+)\s*[;={(,]", text):
            names.add(m.group(1))
    return names


class Finding:
    def __init__(self, path: Path, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line_no}: {self.message}"


def lint_file(path: Path, rel: str, unordered_names: set[str],
              findings: list[Finding]) -> None:
    text = path.read_text(encoding="utf-8", errors="replace")
    critical = rel.startswith(REPLAY_CRITICAL_DIRS)
    rng_exempt = rel in RNG_ALLOWLIST

    iter_patterns = []
    if critical:
        for name in unordered_names:
            esc = re.escape(name)
            iter_patterns.append((
                re.compile(r"for\s*\([^;)]*:\s*[\w.\->]*\b" + esc + r"\s*\)"),
                f"range-for over unordered container '{name}' "
                "(iteration order is not deterministic)"))
            iter_patterns.append((
                re.compile(r"\b" + esc + r"\s*\.\s*c?r?begin\s*\("),
                f"iterator walk of unordered container '{name}' "
                "(iteration order is not deterministic)"))

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if SUPPRESS_BARE_RE.search(raw) and not SUPPRESS_RE.search(raw):
            findings.append(Finding(
                path, line_no,
                "det-lint suppression without a reason — use "
                "'// det-lint: ok(<reason>)'"))
            continue
        suppressed = SUPPRESS_RE.search(raw) is not None
        line = strip_comments_and_strings(raw)

        hits = []
        for pat, what in iter_patterns:
            if pat.search(line):
                hits.append(what)
        if not rng_exempt:
            for pat, what in AMBIENT_PATTERNS:
                if pat.search(line):
                    hits.append(f"{what} outside src/util/rng.* — route "
                                "through dtn::Rng / simulation time")
        for pat, what in TEST_ONLY_CALLS:
            if pat.search(line):
                hits.append(what)
        if suppressed and hits:
            continue  # explicitly waived, reason recorded inline
        for what in hits:
            findings.append(Finding(path, line_no, what))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, default=Path(__file__).parent.parent,
                    help="repository root (default: the checkout containing "
                         "this script)")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args()

    src = args.root / SOURCE_DIR
    if not src.is_dir():
        print(f"determinism_lint: no such directory: {src}", file=sys.stderr)
        return 2

    files = sorted(p for p in src.rglob("*")
                   if p.suffix in (".hpp", ".cpp", ".h", ".cc"))
    if not files:
        print(f"determinism_lint: no sources under {src}", file=sys.stderr)
        return 2

    rels = {p.relative_to(args.root).as_posix() for p in files}
    for req in REQUIRED_COVERED_FILES:
        if req not in rels:
            print(f"determinism_lint: required replay-critical file "
                  f"missing: {req} (moved without updating "
                  "REQUIRED_COVERED_FILES?)", file=sys.stderr)
            return 2
        if not req.startswith(REPLAY_CRITICAL_DIRS):
            print(f"determinism_lint: {req} is listed as required but "
                  "lies outside the replay-critical directories",
                  file=sys.stderr)
            return 2

    # Pass 1: every unordered container declared anywhere under src/
    # (headers declare the members the .cpp files iterate), including
    # declarations through using/typedef alias chains.
    unordered_names: set[str] = set()
    alias_edges: dict[str, str] = {}
    texts: dict[Path, str] = {}
    for path in files:
        texts[path] = path.read_text(encoding="utf-8", errors="replace")
        unordered_names |= find_unordered_names(texts[path])
        alias_edges.update(find_alias_edges(texts[path]))
    aliases = unordered_alias_names(alias_edges)
    for text in texts.values():
        unordered_names |= find_alias_typed_names(text, aliases)
    if args.verbose:
        print(f"unordered containers declared: "
              f"{', '.join(sorted(unordered_names)) or '(none)'}")
        print(f"unordered aliases tracked: "
              f"{', '.join(sorted(aliases)) or '(none)'}")

    # Pass 2: hazards.
    findings: list[Finding] = []
    for path in files:
        rel = path.relative_to(args.root).as_posix()
        lint_file(path, rel, unordered_names, findings)

    if findings:
        print(f"determinism_lint: {len(findings)} finding(s):",
              file=sys.stderr)
        for f in findings:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"determinism_lint: OK ({len(files)} files, "
          f"{len(unordered_names)} unordered container(s) tracked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
