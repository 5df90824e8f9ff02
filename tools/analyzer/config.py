"""Repo policy for the semantic analyzer (docs/static-analysis.md).

Kept in one place so the CLI, the checks and the tests agree on what is
replay-critical and which ambient calls are banned.  `scripts/determinism_lint.py` keeps its own copy of
the directory policy (it is the fast regex pre-check and must stay
dependency-free); the analyzer's ctest registration runs both, so a
drift between the two fails the suite rather than silently narrowing
coverage.
"""
from __future__ import annotations

# Directories whose code runs inside the deterministic replay loop
# (mirrors scripts/determinism_lint.py REPLAY_CRITICAL_DIRS).
REPLAY_CRITICAL_DIRS = (
    "src/core",
    "src/sim",
    "src/routing",
    "src/net",
    "src/persist",
    "src/util",
)

# The one sanctioned randomness wrapper: ambient calls inside it are fine.
RNG_ALLOWLIST = ("src/util/rng.hpp", "src/util/rng.cpp")

# Unordered-container heads whose iteration order is not deterministic.
UNORDERED_CONTAINERS = (
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
)

# Ambient-nondeterminism callees, by (suffix-matched) name.  A call
# whose resolved callee ends in one of these taints the caller; the
# taint propagates up the repo call graph (that is the "callee-resolved"
# upgrade over the regex lint, which only sees the literal call site).
AMBIENT_CALLEES = (
    "rand",
    "srand",
    "random_device",  # constructor call of std::random_device
    "system_clock::now",
    "steady_clock::now",
    "high_resolution_clock::now",
    "gettimeofday",
    "getpid",
)
# `time(...)` needs its own rule: the bare name collides with members
# and locals everywhere, so only an explicit global/std call counts.
AMBIENT_TIME_CALLEES = ("::time", "std::time")

# Method-name pairs that form a checkpoint surface.  A class providing
# both halves of a pair gets checkpoint-coverage enforcement: every
# non-static data member must be referenced in both bodies (closed over
# same-class calls) or carry DTN_CKPT_SKIP("reason").
CHECKPOINT_PAIRS = (
    ("checkpoint_save", "checkpoint_load"),
    ("save", "load"),
)

# Suppression markers, shared with the regex lint.
SUPPRESS_MARKERS = ("det-lint",)
