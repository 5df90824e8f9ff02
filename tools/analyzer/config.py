"""Repo policy for the semantic analyzer (docs/static-analysis.md).

Kept in one place so the CLI, the checks and the tests agree on what is
replay-critical, which files must stay covered, and which ambient
calls are banned.
"""
from __future__ import annotations

# Every source under this directory is analyzed.  Ambient
# nondeterminism and reasonless suppression markers are findings
# anywhere in it (the trace generators and the replay cursor feed the
# golden digests too).
SOURCE_DIR = "src"

# Directories whose code runs inside the deterministic replay loop:
# unordered-container iteration and checkpoint coverage are checked
# here.  src/util is included for the helpers the replay loop itself
# runs on (FlatMatrix tables, the seeded RNG streams).
REPLAY_CRITICAL_DIRS = (
    "src/core",
    "src/sim",
    "src/routing",
    "src/net",
    "src/persist",
    "src/util",
)

# Files whose replay-critical coverage is load-bearing: moving or
# renaming one must keep it inside a replay-critical directory and
# update this list, or the `policy` check fails.
REQUIRED_COVERED_FILES = (
    # The fault injector owns RNG streams whose draw order is part of
    # the bit-identical contract.
    "src/sim/fault_injector.hpp",
    "src/sim/fault_injector.cpp",
    # The checkpoint layer serializes RNG streams and the event queue
    # (docs/checkpointing.md).
    "src/persist/serializer.hpp",
    "src/persist/serializer.cpp",
    "src/persist/checkpoint.hpp",
    "src/persist/checkpoint.cpp",
    # The bounded bundle store picks eviction victims and orders its
    # dedup set (docs/bounded-store.md).
    "src/net/bundle_store.hpp",
    "src/net/bundle_store.cpp",
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
# upgrade over a literal call-site match).
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

# Suppression markers: `// det-lint: ok(reason)`.  The reason is
# mandatory; a marker without one is itself a finding.
SUPPRESS_MARKERS = ("det-lint",)
