"""libclang frontend: lowers translation units into the analyzer model
via `clang.cindex` (python3-clang + libclang, pinned in CI).

This is the reference frontend — types come from the compiler, so
`auto`, typedef chains, member aliases and template arguments are
resolved exactly.  It is only imported when `clang.cindex` is
importable; the container default toolchain (GCC only) uses
`frontend_lite` instead.  Both lower into the same `Model`, and the
checks consume only the model, so findings are comparable across
frontends (test_analyzer has an equivalence test that runs when clang
is available).
"""
from __future__ import annotations

import re
from pathlib import Path

from model import (Annotation, Call, ClassInfo, IterationSite, Member,
                   MemberAccess, Method, Model)
import config as cfg
import frontend_lite  # the text scan (scan_text) is shared

DEFAULT_ARGS = ["-x", "c++", "-std=c++20"]


def _cindex():
    import clang.cindex as ci
    return ci


def _qualified_name(cursor) -> str:
    ci = _cindex()
    parts = []
    c = cursor
    while c is not None and c.kind != ci.CursorKind.TRANSLATION_UNIT:
        if c.spelling:
            parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


def _compile_args(root: Path, path: Path, build_dir: Path | None) -> list:
    if build_dir is not None:
        ci = _cindex()
        try:
            db = ci.CompilationDatabase.fromDirectory(str(build_dir))
            cmds = db.getCompileCommands(str(path))
            if cmds:
                args = list(cmds[0].arguments)[1:]
                out = []
                skip = False
                for a in args:
                    if skip:
                        skip = False
                        continue
                    if a in ("-c", str(path)):
                        continue
                    if a == "-o":
                        skip = True
                        continue
                    out.append(a)
                return out
        except Exception:
            pass
    return DEFAULT_ARGS + ["-I", str(root / "src")]


def _annotations_of(cursor) -> list[Annotation]:
    ci = _cindex()
    out = []
    for ch in cursor.get_children():
        if ch.kind == ci.CursorKind.ANNOTATE_ATTR:
            text = ch.spelling or ""
            if text.startswith("dtn::ckpt_skip="):
                out.append(Annotation("ckpt_skip",
                                      text[len("dtn::ckpt_skip="):]))
    return out


def _extent_text(cursor) -> str:
    toks = [t.spelling for t in cursor.get_tokens()]
    return " ".join(toks[:12])


class TUWalker:
    def __init__(self, model: Model, rel_of: dict[str, str]):
        self.ci = _cindex()
        self.model = model
        self.rel_of = rel_of  # absolute path -> repo-relative path

    def rel(self, cursor) -> str | None:
        loc = cursor.location
        if loc.file is None:
            return None
        return self.rel_of.get(str(Path(str(loc.file)).resolve()))

    def walk(self, tu) -> None:
        self._visit_children(tu.cursor)

    def _visit_children(self, cursor) -> None:
        ci = self.ci
        for ch in cursor.get_children():
            rel = self.rel(ch)
            if rel is None:
                continue
            k = ch.kind
            if k in (ci.CursorKind.NAMESPACE,
                     ci.CursorKind.LINKAGE_SPEC,
                     ci.CursorKind.UNEXPOSED_DECL):
                self._visit_children(ch)
            elif k in (ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL,
                       ci.CursorKind.CLASS_TEMPLATE):
                if ch.is_definition():
                    self._class(ch, rel)
            elif k in (ci.CursorKind.TYPE_ALIAS_DECL,
                       ci.CursorKind.TYPEDEF_DECL):
                self._alias(ch)
            elif k in (ci.CursorKind.CXX_METHOD, ci.CursorKind.CONSTRUCTOR,
                       ci.CursorKind.DESTRUCTOR, ci.CursorKind.FUNCTION_DECL,
                       ci.CursorKind.FUNCTION_TEMPLATE):
                self._function(ch, rel)

    def _alias(self, cursor) -> None:
        try:
            target = cursor.underlying_typedef_type.spelling
        except Exception:
            return
        self.model.aliases[cursor.spelling] = target
        self.model.aliases[_qualified_name(cursor)] = target

    def _class(self, cursor, rel: str) -> None:
        ci = self.ci
        qual = _qualified_name(cursor)
        info = self.model.classes.setdefault(
            qual, ClassInfo(name=qual, file=rel,
                            line=cursor.location.line))
        for ch in cursor.get_children():
            k = ch.kind
            if k == ci.CursorKind.FIELD_DECL:
                if info.member(ch.spelling) is None:
                    info.members.append(Member(
                        name=ch.spelling,
                        type_text=ch.type.spelling,
                        canonical_type=ch.type.get_canonical().spelling,
                        line=ch.location.line,
                        annotations=_annotations_of(ch),
                        is_static=False))
            elif k == ci.CursorKind.VAR_DECL:
                # static data member
                if info.member(ch.spelling) is None:
                    info.members.append(Member(
                        name=ch.spelling,
                        type_text=ch.type.spelling,
                        canonical_type=ch.type.get_canonical().spelling,
                        line=ch.location.line,
                        annotations=_annotations_of(ch),
                        is_static=True))
            elif k in (ci.CursorKind.CXX_METHOD, ci.CursorKind.CONSTRUCTOR,
                       ci.CursorKind.DESTRUCTOR,
                       ci.CursorKind.FUNCTION_TEMPLATE):
                rets = getattr(info, "method_returns", None)
                if rets is None:
                    rets = {}
                    info.method_returns = rets  # type: ignore[attr-defined]
                try:
                    rets.setdefault(ch.spelling, ch.result_type.spelling)
                except Exception:
                    pass
                if ch.is_definition():
                    self._function(ch, self.rel(ch) or rel)
            elif k in (ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL):
                if ch.is_definition():
                    self._class(ch, self.rel(ch) or rel)
            elif k in (ci.CursorKind.TYPE_ALIAS_DECL,
                       ci.CursorKind.TYPEDEF_DECL):
                self._alias(ch)

    def _function(self, cursor, rel: str) -> None:
        ci = self.ci
        if not cursor.is_definition():
            return
        parent = cursor.semantic_parent
        cls = None
        if parent is not None and parent.kind in (
                ci.CursorKind.CLASS_DECL, ci.CursorKind.STRUCT_DECL,
                ci.CursorKind.CLASS_TEMPLATE):
            cls = _qualified_name(parent)
        qual = _qualified_name(cursor)
        method = Method(name=cursor.spelling, qualname=qual, cls=cls,
                        file=rel, line=cursor.location.line)
        body = None
        for ch in cursor.get_children():
            if ch.kind == ci.CursorKind.COMPOUND_STMT:
                body = ch
        if body is not None:
            self._body(body, method)
        if qual in self.model.methods:
            prev = self.model.methods[qual]
            prev.accesses += method.accesses
            prev.calls += method.calls
            prev.iterations += method.iterations
            prev.ambient_calls += method.ambient_calls
        else:
            self.model.methods[qual] = method

    # -- body walk ----------------------------------------------------

    def _body(self, node, method: Method) -> None:
        ci = self.ci
        k = node.kind
        if k == ci.CursorKind.CXX_FOR_RANGE_STMT:
            children = list(node.get_children())
            range_expr = None
            for ch in children:
                if ch.kind.is_expression():
                    range_expr = ch
                    break
            if range_expr is not None:
                ctype = range_expr.type.get_canonical().spelling
                method.iterations.append(IterationSite(
                    expr=_extent_text(range_expr), container_type=ctype,
                    line=node.location.line, form="range-for"))
            for ch in children:
                self._body(ch, method)
            return
        if k == ci.CursorKind.CALL_EXPR:
            self._call(node, method)
            ref = node.referenced
            if ref is not None and ref.kind == ci.CursorKind.CXX_METHOD:
                if ref.spelling in ("begin", "cbegin", "rbegin", "crbegin"):
                    children = list(node.get_children())
                    if children:
                        recv = children[0]
                        method.iterations.append(IterationSite(
                            expr=_extent_text(recv),
                            container_type=recv.type.get_canonical().spelling,
                            line=node.location.line, form="begin-walk"))
            for ch in node.get_children():
                self._body(ch, method)
            return
        if k == ci.CursorKind.MEMBER_REF_EXPR:
            ref = node.referenced
            if ref is not None and ref.kind == ci.CursorKind.FIELD_DECL \
                    and method.cls is not None:
                owner = _qualified_name(ref.semantic_parent)
                if owner == method.cls:
                    method.accesses.append(MemberAccess(
                        member=ref.spelling, line=node.location.line))
            for ch in node.get_children():
                self._body(ch, method)
            return
        if k == ci.CursorKind.DECL_REF_EXPR:
            ref = node.referenced
            if ref is not None and ref.spelling == "random_device":
                method.ambient_calls.append(Call(
                    callee="std::random_device", line=node.location.line))
        for ch in node.get_children():
            self._body(ch, method)

    def _call(self, node, method: Method) -> None:
        ref = node.referenced
        if ref is None:
            name = node.spelling or ""
            if name:
                method.calls.append(Call(callee=name,
                                         line=node.location.line))
            return
        qual = _qualified_name(ref)
        line = node.location.line
        method.calls.append(Call(callee=qual, line=line))
        for pat in cfg.AMBIENT_CALLEES:
            if qual == pat or qual.endswith("::" + pat) or \
                    qual == pat.split("::")[-1]:
                method.ambient_calls.append(Call(callee=qual, line=line))
                return
        if qual in ("time", "std::time") or qual.endswith("::time") and \
                "chrono" not in qual:
            parent = ref.semantic_parent
            ci = self.ci
            if parent is None or parent.kind in (
                    ci.CursorKind.TRANSLATION_UNIT, ci.CursorKind.NAMESPACE):
                method.ambient_calls.append(Call(callee="time", line=line))


def build_model(root: Path, files: list[Path],
                build_dir: Path | None = None) -> Model:
    ci = _cindex()
    model = Model()
    rel_of: dict[str, str] = {}
    for p in files:
        rel = p.relative_to(root).as_posix() if p.is_relative_to(root) \
            else p.as_posix()
        rel_of[str(p.resolve())] = rel
        model.files.append(rel)
        frontend_lite.scan_text(
            model, rel, p.read_text(encoding="utf-8", errors="replace"))
    index = ci.Index.create()
    walker = TUWalker(model, rel_of)
    for p in files:
        args = _compile_args(root, p, build_dir)
        try:
            tu = index.parse(str(p), args=args)
        except Exception as exc:  # noqa: BLE001
            print(f"frontend_clang: failed to parse {p}: {exc}")
            continue
        walker.walk(tu)
    # Canonical member types come from clang already; normalize spacing
    # so the unordered-container substring test matches both frontends.
    for info in model.classes.values():
        for mem in info.members:
            mem.canonical_type = re.sub(r"\s+", " ", mem.canonical_type)
    return model
