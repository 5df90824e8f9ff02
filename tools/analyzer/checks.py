"""The three check families (docs/static-analysis.md).

Each check consumes only the semantic `Model`, so its behaviour is
identical whichever frontend produced the facts.  Every function takes
the model plus an `Options` describing which files are replay-critical
for this run (fixture files passed explicitly on the command line are
forced replay-critical so seeded violations fire without living under
src/).  Ambient calls are findings anywhere under src/;
unordered iteration and checkpoint coverage only in the replay-critical
directories.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import config as cfg
from model import Finding, Method, Model


@dataclass
class Options:
    # Files forced replay-critical regardless of directory (fixtures).
    forced_critical: set[str] = field(default_factory=set)
    # The run covers the discovered repo head, not explicit files.
    repo_head: bool = False


def _under(path: str, d: str) -> bool:
    return path.startswith(d + "/") or path == d


def is_replay_critical(path: str, opts: Options) -> bool:
    if path in opts.forced_critical:
        return True
    if path in cfg.RNG_ALLOWLIST:
        return False
    return any(_under(path, d) for d in cfg.REPLAY_CRITICAL_DIRS)


def is_checked_source(path: str, opts: Options) -> bool:
    """Where the src/-wide rule (ambient calls) applies."""
    if path in opts.forced_critical:
        return True
    return path not in cfg.RNG_ALLOWLIST and _under(path, cfg.SOURCE_DIR)


def _suppressed(model: Model, marker: str, file: str, line: int) -> bool:
    """A marker on the finding's line or the line above suppresses it."""
    return model.suppressed(marker, file, line) or \
        model.suppressed(marker, file, line - 1)


def _resolve_callee(model: Model, method: Method, callee: str) -> str | None:
    """Map a call-site spelling to a model method qualname (or None)."""
    if callee.startswith("<expr>."):
        return None
    simple = callee.split("::")[-1]
    if method.cls:
        q = method.cls + "::" + simple
        if q in model.methods:
            return q
    if callee in model.methods:
        return callee
    cands = [q for q in model.methods
             if q.split("::")[-1] == simple
             and (callee == simple or q.endswith("::" + callee))]
    return cands[0] if len(cands) == 1 else None


# -- determinism ------------------------------------------------------

def _unordered(container_type: str) -> str | None:
    for head in cfg.UNORDERED_CONTAINERS:
        if head in container_type:
            return head
    return None


def check_determinism(model: Model, opts: Options) -> list[Finding]:
    findings: list[Finding] = []

    # Taint: methods that reach ambient nondeterminism, transitively.
    # The sanctioned RNG wrapper is neither a source nor a carrier.
    def exempt(m: Method) -> bool:
        return m.file in cfg.RNG_ALLOWLIST

    tainted: dict[str, str] = {}  # qualname -> reason chain root
    for q, m in model.methods.items():
        if exempt(m):
            continue
        live = [c for c in m.ambient_calls
                if not _suppressed(model, "det-lint", m.file, c.line)]
        if live:
            tainted[q] = live[0].callee
    changed = True
    while changed:
        changed = False
        for q, m in model.methods.items():
            if q in tainted or exempt(m):
                continue
            for call in m.calls:
                target = _resolve_callee(model, m, call.callee)
                if target and target in tainted and target != q:
                    tainted[q] = f"{target} -> {tainted[target]}"
                    changed = True
                    break

    for q, m in model.methods.items():
        if not is_checked_source(m.file, opts):
            continue
        # Unordered-container iteration, type-resolved, in replay-critical
        # code only.
        critical = is_replay_critical(m.file, opts)
        for it in m.iterations if critical else []:
            head = _unordered(it.container_type)
            if head is None:
                continue
            if _suppressed(model, "det-lint", m.file, it.line):
                continue
            findings.append(Finding(
                m.file, it.line, "determinism",
                f"{it.form} over {head} `{it.expr}` in {q} "
                f"(resolved type: {it.container_type.strip()}); iteration "
                f"order is unspecified — use an ordered container or "
                f"sorted snapshot, or annotate `// det-lint: ok(reason)`"))
        # Direct ambient calls.
        for call in m.ambient_calls:
            if _suppressed(model, "det-lint", m.file, call.line):
                continue
            findings.append(Finding(
                m.file, call.line, "determinism",
                f"ambient nondeterminism `{call.callee}` in {q}; replay "
                f"must be a pure function of (trace, router, seed) — "
                f"route randomness through util::Rng"))
        # Calls that transitively reach ambient nondeterminism.
        for call in m.calls:
            target = _resolve_callee(model, m, call.callee)
            if not target or target not in tainted or target == q:
                continue
            if _suppressed(model, "det-lint", m.file, call.line):
                continue
            findings.append(Finding(
                m.file, call.line, "determinism",
                f"{q} calls {target}, which reaches ambient "
                f"nondeterminism ({tainted[target]})"))
    return findings


# -- checkpoint coverage ----------------------------------------------

def _class_closure(model: Model, entry: Method) -> list[Method]:
    """Entry method plus every same-class method reachable from it."""
    seen = {entry.qualname}
    order = [entry]
    stack = [entry]
    while stack:
        m = stack.pop()
        for call in m.calls:
            target = _resolve_callee(model, m, call.callee)
            if not target or target in seen:
                continue
            tm = model.methods[target]
            if tm.cls != entry.cls:
                continue
            seen.add(target)
            order.append(tm)
            stack.append(tm)
    return order


def _referenced_closure(model: Model, method: Method) -> set[str]:
    """Members referenced by `method` or by same-class methods it
    (transitively) calls."""
    refs: set[str] = set()
    for m in _class_closure(model, method):
        refs |= m.members_referenced()
    return refs


def check_ckpt_coverage(model: Model, opts: Options) -> list[Finding]:
    findings: list[Finding] = []
    for cls_name, ci in model.classes.items():
        if not is_replay_critical(ci.file, opts):
            continue
        pair = None
        for save_name, load_name in cfg.CHECKPOINT_PAIRS:
            save_q = cls_name + "::" + save_name
            load_q = cls_name + "::" + load_name
            if save_q in model.methods and load_q in model.methods:
                pair = (model.methods[save_q], model.methods[load_q])
                break
        if pair is None:
            continue
        save_m, load_m = pair
        save_refs = _referenced_closure(model, save_m)
        load_refs = _referenced_closure(model, load_m)
        for mem in ci.members:
            if mem.is_static:
                continue
            if mem.annotation("ckpt_skip"):
                continue
            missing = []
            if mem.name not in save_refs:
                missing.append(save_m.name)
            if mem.name not in load_refs:
                missing.append(load_m.name)
            if missing:
                findings.append(Finding(
                    ci.file, mem.line, "ckpt-coverage",
                    f"member `{mem.name}` of {cls_name} is not referenced "
                    f"in {' or '.join(missing)}; serialize it or annotate "
                    f'DTN_CKPT_SKIP("reason") — unserialized state breaks '
                    f"bit-identical resume"))
    return findings


# -- repo policy ------------------------------------------------------

def check_policy(model: Model, opts: Options) -> list[Finding]:
    findings: list[Finding] = []
    # Coverage that must not silently narrow: only a run over the repo
    # head (not over explicit files) can tell a file went missing.
    if opts.repo_head:
        for req in cfg.REQUIRED_COVERED_FILES:
            if req not in model.files or not is_replay_critical(req, opts):
                findings.append(Finding(
                    req, 1, "policy",
                    "required replay-critical file is not analyzed as "
                    "replay-critical: moved or renamed without updating "
                    "REQUIRED_COVERED_FILES, or its directory left "
                    "REPLAY_CRITICAL_DIRS?"))
    for file, per_marker in model.bare_suppressions.items():
        for marker, lines in per_marker.items():
            findings.extend(Finding(
                file, line, "policy",
                f"{marker} suppression without a reason; use "
                f"`// {marker}: ok(<reason>)`") for line in sorted(lines))
    return findings


CHECKS = {
    "determinism": check_determinism,
    "ckpt-coverage": check_ckpt_coverage,
    "policy": check_policy,
}


def run_checks(model: Model, opts: Options,
               which: list[str] | None = None) -> list[Finding]:
    findings: list[Finding] = []
    for name in (which or list(CHECKS)):
        findings.extend(CHECKS[name](model, opts))
    findings.sort(key=lambda f: (f.file, f.line, f.check))
    return findings
