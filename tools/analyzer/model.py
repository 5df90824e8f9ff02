"""Semantic model shared by the analyzer's frontends and checks.

Both frontends (`frontend_clang` on libclang, `frontend_lite` on the
built-in parser) lower C++ translation units into this one structure;
the check families in `checks.py` consume only this model, so a check
behaves identically whichever frontend produced the facts.

The model is member/method-granular, which is exactly the resolution
the two check families need:

* determinism  — per-method iteration sites with the *canonical*
  (alias-expanded) type of the iterated container, plus call sites;
* checkpoint-coverage — per-class member lists, member annotations and
  per-method member reference sets (closed over same-class calls).
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Annotation:
    """One DTN_* source annotation attached to a data member."""

    kind: str  # 'ckpt_skip'
    reason: str = ""


@dataclass
class Member:
    """One non-static data member of a class."""

    name: str
    type_text: str  # declared spelling, e.g. 'TransitionMap'
    canonical_type: str  # alias-expanded spelling
    line: int
    annotations: list[Annotation] = field(default_factory=list)
    is_static: bool = False

    def annotation(self, kind: str) -> Annotation | None:
        for a in self.annotations:
            if a.kind == kind:
                return a
        return None


@dataclass
class MemberAccess:
    """A reference to a member of the enclosing class inside a method."""

    member: str
    line: int


@dataclass
class Call:
    """A call site.  `callee` is a best-effort name: bare ('helper'),
    qualified ('dtn::core::DtnFlowRouter::helper'), or a receiver form
    ('<expr>.method') when the receiver is not `this`."""

    callee: str
    line: int


@dataclass
class IterationSite:
    """A range-for over (or iterator walk of) some container expression."""

    expr: str  # source spelling of the iterated expression
    container_type: str  # canonical type, '' when unresolvable
    line: int
    form: str  # 'range-for' | 'begin-walk'


@dataclass
class Method:
    """A function or method body we extracted facts from."""

    name: str
    qualname: str  # 'dtn::core::DtnFlowRouter::on_arrival' or free fn
    cls: str | None  # qualified class name, None for free functions
    file: str
    line: int
    accesses: list[MemberAccess] = field(default_factory=list)
    calls: list[Call] = field(default_factory=list)
    iterations: list[IterationSite] = field(default_factory=list)
    ambient_calls: list[Call] = field(default_factory=list)

    def members_referenced(self) -> set[str]:
        return {a.member for a in self.accesses}


@dataclass
class ClassInfo:
    """One class/struct definition."""

    name: str  # qualified, e.g. 'dtn::core::DtnFlowRouter'
    file: str
    line: int
    members: list[Member] = field(default_factory=list)

    def member(self, name: str) -> Member | None:
        for m in self.members:
            if m.name == name:
                return m
        return None


@dataclass
class Model:
    """Everything the checks consume, for one analysis run."""

    # Qualified class name -> definition.
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    # Method qualname -> body facts.  Free functions use their
    # (namespace-qualified) name.
    methods: dict[str, Method] = field(default_factory=dict)
    # Alias name (qualified and bare forms) -> target type text.
    aliases: dict[str, str] = field(default_factory=dict)
    # Repo-relative paths of every file the model covers.
    files: list[str] = field(default_factory=list)
    # file -> {line} carrying a suppression marker, keyed by marker kind
    # ('det-lint').
    suppressions: dict[str, dict[str, set[int]]] = field(default_factory=dict)
    # Same shape: markers missing their mandatory reason.
    bare_suppressions: dict[str, dict[str, set[int]]] = field(
        default_factory=dict)

    def class_methods(self, cls: str) -> list[Method]:
        return [m for m in self.methods.values() if m.cls == cls]

    def suppressed(self, marker: str, file: str, line: int) -> bool:
        return line in self.suppressions.get(file, {}).get(marker, set())


@dataclass
class Finding:
    """One analyzer finding (file:line: [check] message)."""

    file: str
    line: int
    check: str  # 'determinism' | 'ckpt-coverage' | 'policy'
    message: str

    def __str__(self) -> str:
        return f"{self.file}:{self.line}: [{self.check}] {self.message}"
