"""Built-in fallback frontend: lowers C++ sources into the analyzer
model without libclang.

`frontend_clang` is the reference frontend (exact types from the
compiler); this one exists so the analyzer runs everywhere the repo
builds — the container toolchain ships GCC only.  It is a deliberately
scoped mini-frontend, tuned for this codebase's idiom:

* comments/strings/preprocessor lines are blanked (offsets preserved);
* namespaces, classes/structs (nested included), alias declarations
  (`using X = ...;` / `typedef`), data members with their DTN_*
  annotations, and method bodies (inline and out-of-line
  `Cls::method(...) { ... }`) are structurally parsed;
* inside bodies it extracts range-for / `.begin()` iteration sites with
  the iterated expression's type *resolved* through locals, parameters,
  members, method return types and alias chains — this is what lets the
  determinism check see through `auto`, typedefs and member aliases a
  literal pattern match cannot;
* member references are recorded per method (for checkpoint
  coverage);
* call sites are recorded for the taint/reachability closures;
* suppression markers are read from the text (`scan_text`, shared
  with the clang frontend).

Unresolvable constructs degrade to "unknown type" — the
analyzer never guesses a finding it cannot ground, so lite-mode
precision errs toward false negatives, with the seeded-violation
fixtures pinning the cases that must not regress.
"""
from __future__ import annotations

import re
from pathlib import Path

from model import (Annotation, Call, ClassInfo, IterationSite, Member,
                   MemberAccess, Method, Model)
import config as cfg

KEYWORDS = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "catch", "do",
    "else", "new", "delete", "throw", "case", "default", "goto",
    "static_assert", "alignof", "decltype", "co_await", "co_return",
    "co_yield", "noexcept", "assert",
})

TYPE_PREFIX_KEYWORDS = frozenset({
    "const", "constexpr", "consteval", "constinit", "static", "inline",
    "virtual", "explicit", "mutable", "volatile", "typename", "friend",
    "extern", "register", "thread_local", "unsigned", "signed", "struct",
    "class", "enum",
})

# `ok` with its optional `(reason)`; a missing or blank reason is bare.
SUPPRESS_RES = {
    marker: re.compile(r"//\s*" + re.escape(marker) +
                       r":\s*ok(?:\(([^)]*)\))?")
    for marker in cfg.SUPPRESS_MARKERS
}

TOKEN_RE = re.compile(r"[A-Za-z_]\w*|::|<=>|<<=|>>=|->\*?|\+\+|--|&&|\|\|"
                      r"|[+\-*/%&|^!=<>]=|<<|>>|::|[0-9][\w.+-]*|\S")

CONTROL_NAMES = frozenset({"if", "for", "while", "switch", "catch",
                           "sizeof", "return", "DTN_ASSERT", "assert",
                           "static_cast", "dynamic_cast", "const_cast",
                           "reinterpret_cast", "alignas", "decltype",
                           "defined", "alignof", "noexcept"})


def clean_source(raw: str) -> str:
    """Blank comments, string/char literal contents, preprocessor lines
    and bracket attributes, preserving every offset and newline."""
    out = list(raw)
    n = len(raw)
    i = 0
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = raw[i]
        if state is None:
            if c == "/" and i + 1 < n:
                if raw[i + 1] == "/":
                    state = "line"
                    out[i] = out[i + 1] = " "
                    i += 2
                    continue
                if raw[i + 1] == "*":
                    state = "block"
                    out[i] = out[i + 1] = " "
                    i += 2
                    continue
            if c in "\"'":
                state = c
                i += 1
                continue
            i += 1
        elif state == "line":
            if c == "\n":
                state = None
            else:
                out[i] = " "
            i += 1
        elif state == "block":
            if c == "*" and i + 1 < n and raw[i + 1] == "/":
                out[i] = out[i + 1] = " "
                state = None
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        else:  # inside a string/char literal
            if c == "\\" and i + 1 < n:
                out[i] = " "
                if raw[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == state:
                state = None
            elif c != "\n":
                out[i] = " "
            i += 1
    text = "".join(out)
    # Preprocessor lines (with continuations) blanked wholesale.
    lines = text.split("\n")
    in_pp = False
    for k, line in enumerate(lines):
        stripped = line.lstrip()
        if in_pp or stripped.startswith("#"):
            in_pp = line.rstrip().endswith("\\")
            lines[k] = " " * len(line)
    text = "\n".join(lines)
    # Bracket attributes and GNU attributes are noise to the grammar.
    text = re.sub(r"\[\[[^\]]*\]\]", lambda m: " " * len(m.group(0)), text)
    text = re.sub(r"__attribute__\s*\(\((?:[^()]|\([^()]*\))*\)\)",
                  lambda m: " " * len(m.group(0)), text)
    text = re.sub(r"\balignas\s*\([^)]*\)",
                  lambda m: " " * len(m.group(0)), text)
    return text


class Tok:
    __slots__ = ("text", "pos")

    def __init__(self, text: str, pos: int):
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"Tok({self.text!r}@{self.pos})"


def tokenize(clean: str) -> list[Tok]:
    return [Tok(m.group(0), m.start()) for m in TOKEN_RE.finditer(clean)]


class FileParser:
    """Parses one already-cleaned translation unit into the model."""

    def __init__(self, relpath: str, raw: str, clean: str, model: Model):
        self.rel = relpath
        self.raw = raw
        self.clean = clean
        self.model = model
        self.toks = tokenize(clean)
        self.line_starts = self._line_starts(raw)

    @staticmethod
    def _line_starts(raw: str) -> list[int]:
        starts = [0]
        for m in re.finditer(r"\n", raw):
            starts.append(m.end())
        return starts

    def line_of(self, pos: int) -> int:
        lo, hi = 0, len(self.line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.line_starts[mid] <= pos:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1

    # -- token navigation --------------------------------------------

    def match_balanced(self, i: int, open_t: str, close_t: str) -> int:
        """Index just past the token closing the group opened at i."""
        depth = 0
        n = len(self.toks)
        while i < n:
            t = self.toks[i].text
            if t == open_t:
                depth += 1
            elif t == close_t:
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return n

    def skip_template_args(self, i: int) -> int:
        """From a '<' token, index past its matching '>' (tracks nested
        angles and parens; '>>' closes two levels)."""
        depth = 0
        n = len(self.toks)
        while i < n:
            t = self.toks[i].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif t == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
            elif t == "(":
                i = self.match_balanced(i, "(", ")")
                continue
            i += 1
        return n

    # -- parsing -----------------------------------------------------

    def parse(self) -> None:
        self._parse_scope(0, len(self.toks), [], None)

    def _statement_end(self, i: int) -> int:
        """Index past the ';' ending the statement starting at i,
        skipping balanced braces/parens/brackets."""
        n = len(self.toks)
        while i < n:
            t = self.toks[i].text
            if t == ";":
                return i + 1
            if t == "{":
                i = self.match_balanced(i, "{", "}")
                # `struct X { ... } name;` continues; `void f() { ... }`
                # ends here.  Caller-specific; a following ';' is eaten.
                if i < n and self.toks[i].text == ";":
                    return i + 1
                return i
            if t == "(":
                i = self.match_balanced(i, "(", ")")
                continue
            if t == "[":
                i = self.match_balanced(i, "[", "]")
                continue
            i += 1
        return n

    def _parse_scope(self, i: int, end: int, ns: list[str],
                     cls: ClassInfo | None) -> None:
        while i < end:
            t = self.toks[i].text
            if t == ";":
                i += 1
            elif t == "namespace":
                i = self._parse_namespace(i, ns)
            elif t in ("class", "struct") and self._is_class_def(i):
                i = self._parse_class(i, ns, cls)
            elif t == "enum":
                i = self._statement_end(i)
            elif t == "using":
                i = self._parse_using(i, ns, cls)
            elif t == "typedef":
                i = self._parse_typedef(i, ns, cls)
            elif t == "template":
                j = i + 1
                if j < end and self.toks[j].text == "<":
                    j = self.skip_template_args(j)
                i = j
            elif t in ("public", "private", "protected"):
                i += 2 if i + 1 < end and self.toks[i + 1].text == ":" else 1
            elif t == "friend":
                i = self._statement_end(i)
            elif t == "static_assert":
                i = self._statement_end(i)
            elif t == "extern":
                i += 1
            else:
                i = self._parse_decl(i, end, ns, cls)

    def _parse_namespace(self, i: int, ns: list[str]) -> int:
        j = i + 1
        names: list[str] = []
        while j < len(self.toks) and re.match(r"[A-Za-z_]", self.toks[j].text):
            names.append(self.toks[j].text)
            j += 1
            if j < len(self.toks) and self.toks[j].text == "::":
                j += 1
            else:
                break
        if j < len(self.toks) and self.toks[j].text == "{":
            close = self.match_balanced(j, "{", "}")
            self._parse_scope(j + 1, close - 1, ns + names, None)
            return close
        return self._statement_end(i)  # `namespace x = y;` etc.

    def _is_class_def(self, i: int) -> bool:
        """class/struct keyword introduces a definition (not an
        elaborated type or forward declaration)."""
        j = i + 1
        n = len(self.toks)
        # skip name tokens / final / base clause up to '{' or ';' or
        # something that rules a definition out.
        depth = 0
        while j < n:
            t = self.toks[j].text
            if t == "<":
                j = self.skip_template_args(j)
                continue
            if t == "{" and depth == 0:
                return True
            if t in (";", "=", ")", ",") and depth == 0:
                return False
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
            j += 1
        return False

    def _parse_class(self, i: int, ns: list[str],
                     outer: ClassInfo | None) -> int:
        j = i + 1
        name = None
        while j < len(self.toks):
            t = self.toks[j].text
            if re.match(r"[A-Za-z_]\w*$", t) and t != "final":
                name = t
                j += 1
                continue
            break
        # skip base clause up to '{'
        while j < len(self.toks) and self.toks[j].text != "{":
            if self.toks[j].text == "<":
                j = self.skip_template_args(j)
                continue
            j += 1
        if j >= len(self.toks):
            return len(self.toks)
        close = self.match_balanced(j, "{", "}")
        if name is None:
            name = f"<anon@{self.line_of(self.toks[i].pos)}>"
        outer_prefix = (outer.name + "::") if outer else "::".join(ns) + (
            "::" if ns else "")
        qual = outer_prefix + name
        info = self.model.classes.setdefault(
            qual, ClassInfo(name=qual, file=self.rel,
                            line=self.line_of(self.toks[i].pos)))
        self._parse_scope(j + 1, close - 1, ns, info)
        # `};` or `} var;`
        k = close
        while k < len(self.toks) and self.toks[k].text != ";":
            k += 1
        return k + 1

    def _alias_register(self, name: str, target: str, ns: list[str],
                        cls: ClassInfo | None) -> None:
        self.model.aliases[name] = target
        if cls is not None:
            self.model.aliases[cls.name + "::" + name] = target
        elif ns:
            self.model.aliases["::".join(ns) + "::" + name] = target

    def _parse_using(self, i: int, ns: list[str],
                     cls: ClassInfo | None) -> int:
        end = self._statement_end(i)
        toks = self.toks[i + 1:end - 1]
        texts = [t.text for t in toks]
        if "=" in texts:
            eq = texts.index("=")
            name = texts[eq - 1] if eq >= 1 else None
            target = self._spell(toks[eq + 1:])
            if name:
                self._alias_register(name, target, ns, cls)
        return end

    def _parse_typedef(self, i: int, ns: list[str],
                       cls: ClassInfo | None) -> int:
        end = self._statement_end(i)
        toks = self.toks[i + 1:end - 1]
        if len(toks) >= 2 and re.match(r"[A-Za-z_]\w*$", toks[-1].text):
            self._alias_register(toks[-1].text, self._spell(toks[:-1]),
                                 ns, cls)
        return end

    @staticmethod
    def _spell(toks: list[Tok]) -> str:
        out: list[str] = []
        for t in toks:
            if out and re.match(r"\w", t.text) and re.match(r"\w", out[-1][-1]):
                out.append(" ")
            out.append(t.text)
        return "".join(out)

    def _parse_decl(self, i: int, end: int, ns: list[str],
                    cls: ClassInfo | None) -> int:
        """A member/variable declaration, a method declaration, or a
        function definition."""
        annotations: list[Annotation] = []
        start = i
        # Leading annotation macros.
        while i < end:
            t = self.toks[i].text
            if t == "DTN_CKPT_SKIP":
                j = i + 1
                reason = ""
                if j < end and self.toks[j].text == "(":
                    close = self.match_balanced(j, "(", ")")
                    lo = self.toks[j].pos + 1
                    hi = self.toks[close - 1].pos
                    reason = self.raw[lo:hi].strip().strip('"')
                    j = close
                annotations.append(Annotation("ckpt_skip", reason))
                i = j
            else:
                break
        if i >= end:
            return end
        is_static = False
        head_start = i
        # Scan forward for the declarator: an identifier chain followed
        # by '(' means function; '=' / '{' / ';' / '[' first means data.
        j = i
        last_ident_chain: list[int] = []
        paren_at = None
        while j < end:
            t = self.toks[j].text
            if t == "static":
                is_static = True
                j += 1
                continue
            if t == "<":
                j = self.skip_template_args(j)
                continue
            if t == "operator":
                # Function for sure: name is operator + symbols.
                k = j + 1
                while k < end and self.toks[k].text != "(":
                    k += 1
                last_ident_chain = list(range(j, k))
                paren_at = k if k < end else None
                break
            if re.match(r"[A-Za-z_~]\w*$", t):
                # Start of an identifier chain (id :: id :: id).
                chain = [j]
                k = j + 1
                while k + 1 < end and self.toks[k].text == "::" and \
                        re.match(r"[A-Za-z_~]", self.toks[k + 1].text):
                    chain += [k, k + 1]
                    k += 2
                if k < end and self.toks[k].text == "<":
                    k2 = self.skip_template_args(k)
                    # template-id: could still be a type; only treat as
                    # declarator if '(' follows (e.g. none here).
                    j = k2
                    last_ident_chain = chain
                    continue
                if k < end and self.toks[k].text == "(":
                    last_ident_chain = chain
                    paren_at = k
                    break
                last_ident_chain = chain
                j = k
                continue
            if t in ("=", "{", ";", "["):
                break
            j += 1
        if paren_at is not None:
            return self._parse_function(start, paren_at, last_ident_chain,
                                        ns, cls, head_start)
        # Data member / variable.
        stmt_end = self._statement_end(start)
        if cls is not None and last_ident_chain:
            name_tok = self.toks[last_ident_chain[-1]]
            name = name_tok.text
            if re.match(r"[A-Za-z_]\w*$", name) and name not in KEYWORDS:
                type_toks = self.toks[head_start:last_ident_chain[0]]
                type_text = self._spell(
                    [t for t in type_toks
                     if t.text not in ("static", "mutable", "constexpr",
                                       "inline")])
                if type_text.strip():
                    member = Member(
                        name=name,
                        type_text=type_text,
                        canonical_type="",  # filled by finalize pass
                        line=self.line_of(name_tok.pos),
                        annotations=annotations,
                        is_static=is_static,
                    )
                    if cls.member(name) is None:
                        cls.members.append(member)
        return stmt_end

    # -- functions ---------------------------------------------------

    def _parse_function(self, start: int, paren_at: int,
                        name_chain: list[int], ns: list[str],
                        cls: ClassInfo | None, head_start: int) -> int:
        n = len(self.toks)
        params_end = self.match_balanced(paren_at, "(", ")")
        # Trailing specifiers.
        j = params_end
        while j < n:
            t = self.toks[j].text
            if t == "const":
                j += 1
            elif t in ("noexcept", "override", "final", "&", "&&",
                       "mutable", "constexpr"):
                j += 1
                if j < n and self.toks[j].text == "(":
                    j = self.match_balanced(j, "(", ")")
            elif t == "->":
                j += 1
                while j < n and self.toks[j].text not in ("{", ";", "="):
                    if self.toks[j].text == "<":
                        j = self.skip_template_args(j)
                    else:
                        j += 1
            elif t == "requires":
                while j < n and self.toks[j].text not in ("{", ";"):
                    j += 1
            else:
                break
        name_toks = self.toks[name_chain[0]:name_chain[-1] + 1] \
            if name_chain else []
        name_text = self._spell(name_toks)
        simple = name_text.split("::")[-1].strip()
        ret_toks = self.toks[head_start:name_chain[0]] if name_chain else []
        ret_text = self._spell(
            [t for t in ret_toks
             if t.text not in ("virtual", "static", "inline", "constexpr",
                               "friend", "explicit")])
        # Resolve the owning class.
        owner: ClassInfo | None = cls
        if "::" in name_text:
            qual_prefix = "::".join(name_text.split("::")[:-1])
            owner = self._lookup_class(qual_prefix, ns)
        if j < n and self.toks[j].text == "=":
            # = default / = delete / = 0
            return self._statement_end(start)
        if j < n and self.toks[j].text == ";":
            if owner is not None and simple and ret_text.strip():
                self._register_return(owner, simple, ret_text)
            return j + 1
        # Ctor init list.
        if j < n and self.toks[j].text == ":":
            j += 1
            while j < n and self.toks[j].text != "{":
                t = self.toks[j].text
                if t == "(":
                    j = self.match_balanced(j, "(", ")")
                elif t == "{":
                    break
                elif t == "<":
                    j = self.skip_template_args(j)
                else:
                    j += 1
                # An initializer's braces: `member{...}` — consume and
                # continue past commas.
                if j < n and self.toks[j].text == "{" and \
                        j + 1 < n and self._init_brace(j):
                    j = self.match_balanced(j, "{", "}")
        if j >= n or self.toks[j].text != "{":
            return self._statement_end(start)
        body_end = self.match_balanced(j, "{", "}")
        if owner is not None and simple and ret_text.strip():
            self._register_return(owner, simple, ret_text)
        self._extract_body(simple, name_text, owner, ns,
                           paren_at, params_end, j, body_end)
        return body_end

    def _init_brace(self, j: int) -> bool:
        """Is the '{' at j a member-initializer brace (followed, after
        matching, by ',' or '{')?"""
        close = self.match_balanced(j, "{", "}")
        return close < len(self.toks) and \
            self.toks[close].text in (",", "{")

    def _register_return(self, owner: ClassInfo, name: str,
                         ret: str) -> None:
        if not hasattr(owner, "method_returns"):
            owner.method_returns = {}  # type: ignore[attr-defined]
        owner.method_returns.setdefault(name, ret)  # type: ignore

    def _lookup_class(self, qual: str, ns: list[str]) -> ClassInfo | None:
        candidates = [qual]
        for k in range(len(ns), 0, -1):
            candidates.append("::".join(ns[:k]) + "::" + qual)
        for c in candidates:
            if c in self.model.classes:
                return self.model.classes[c]
        # suffix match (unique)
        matches = [ci for name, ci in self.model.classes.items()
                   if name.endswith("::" + qual) or name == qual]
        return matches[0] if len(matches) == 1 else None

    # -- body fact extraction ----------------------------------------

    def _extract_body(self, simple: str, name_text: str,
                      owner: ClassInfo | None, ns: list[str],
                      paren_at: int, params_end: int,
                      body_open: int, body_end: int) -> None:
        body_lo = self.toks[body_open].pos
        body_hi = self.toks[body_end - 1].pos if body_end - 1 < len(self.toks) \
            else len(self.clean)
        body = self.clean[body_lo:body_hi]
        params_text = self.clean[self.toks[paren_at].pos + 1:
                                 self.toks[params_end - 1].pos]
        qual = (owner.name + "::" + simple) if owner else \
            ("::".join(ns) + "::" + simple if ns else simple)
        method = Method(name=simple, qualname=qual,
                        cls=owner.name if owner else None,
                        file=self.rel, line=self.line_of(body_lo))
        extractor = BodyExtractor(self, method, owner, params_text,
                                  body, body_lo)
        extractor.run()
        # Overload bodies merge: keep the union of facts so coverage
        # closures see every spelling.
        if qual in self.model.methods:
            prev = self.model.methods[qual]
            prev.accesses += method.accesses
            prev.calls += method.calls
            prev.iterations += method.iterations
            prev.ambient_calls += method.ambient_calls
        else:
            self.model.methods[qual] = method


RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
CALL_RE = re.compile(r"(?<![\w.>])((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)"
                     r"\s*\(")
MEMBER_CALL_RE = re.compile(r"(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")
OWN_RECEIVER_RE = re.compile(
    r"(?:\bthis|\bconst_cast\s*<[^<>()]*>\s*\(\s*this\s*\))$")
BEGIN_WALK_RE = re.compile(
    r"((?:[A-Za-z_]\w*(?:\[[^\[\]]*\])?\s*(?:\.|->)\s*)*"
    r"[A-Za-z_]\w*(?:\[[^\[\]]*\])?(?:\s*\(\s*\))?)\s*"
    r"\.\s*((?:c|r|cr)?begin)\s*\(")
LOCAL_DECL_RE_TMPL = (
    r"(?:^|[;{{}}(])\s*(const\s+)?([A-Za-z_][\w:]*(?:\s*<[^;{{}}]*?>)?)"
    r"\s*([&*]*)\s+{name}\s*(=|\{{|\(|;|:|,|\))")


class BodyExtractor:
    """Regex/scan-based fact extraction from one method body."""

    def __init__(self, fp: FileParser, method: Method,
                 owner: ClassInfo | None, params_text: str,
                 body: str, body_base: int):
        self.fp = fp
        self.m = method
        self.owner = owner
        self.body = body
        self.base = body_base
        self.params = self._parse_params(params_text)

    @staticmethod
    def _parse_params(text: str) -> dict[str, str]:
        params: dict[str, str] = {}
        depth = 0
        part = []
        parts: list[str] = []
        for c in text:
            if c in "<([":
                depth += 1
            elif c in ">)]":
                depth -= 1
            if c == "," and depth == 0:
                parts.append("".join(part))
                part = []
            else:
                part.append(c)
        parts.append("".join(part))
        for p in parts:
            p = p.split("=")[0].strip()
            mm = re.match(r"(.+?)\s*[&*]*\s*([A-Za-z_]\w*)$", p, re.S)
            if mm:
                params[mm.group(2)] = mm.group(1).strip()
        return params

    def line(self, off: int) -> int:
        return self.fp.line_of(self.base + off)

    def run(self) -> None:
        self._find_range_fors()
        self._find_begin_walks()
        self._find_calls()
        self._find_member_accesses()

    # -- type resolution ---------------------------------------------

    def canonical(self, type_text: str) -> str:
        return canonicalize(type_text, self.fp.model,
                            self.owner.name if self.owner else None)

    def resolve_ident(self, name: str, before: int) -> str:
        """Type of identifier `name` visible at body offset `before`."""
        if name == "this" and self.owner:
            return self.owner.name
        # Local declaration (last one before the use site).
        rx = re.compile(LOCAL_DECL_RE_TMPL.format(name=re.escape(name)))
        best = None
        for mm in rx.finditer(self.body[:before]):
            best = mm
        if best:
            type_head = best.group(2).strip()
            if type_head == "auto":
                # auto x = expr / auto& x = expr: resolve the initializer.
                if best.group(4) == "=":
                    init_start = best.end()
                    init = self.body[init_start:]
                    stop = len(init)
                    for k, c in enumerate(init):
                        if c in ";,{":
                            stop = k
                            break
                    return self.resolve_expr(init[:stop].strip(), init_start)
                return ""
            if type_head not in TYPE_PREFIX_KEYWORDS and \
                    type_head not in KEYWORDS:
                return type_head
        if name in self.params:
            return self.params[name]
        if self.owner:
            mem = self.owner.member(name)
            if mem:
                return mem.type_text
        return ""

    def resolve_expr(self, expr: str, at: int) -> str:
        """Best-effort type of an expression (for iteration sites)."""
        expr = expr.strip()
        while expr.startswith(("*", "&", "(")) and expr:
            if expr.startswith("(") and expr.endswith(")"):
                expr = expr[1:-1].strip()
            else:
                expr = expr[1:].strip()
        # Split the access chain at top-level . and ->
        segs: list[tuple[str, str]] = []  # (op, segment)
        depth = 0
        cur = []
        op = ""
        i = 0
        while i < len(expr):
            c = expr[i]
            if c in "<([":
                depth += 1
            elif c in ">)]":
                depth -= 1
            if depth == 0 and c == "." and not (
                    i + 1 < len(expr) and expr[i + 1].isdigit()):
                segs.append((op, "".join(cur).strip()))
                cur = []
                op = "."
                i += 1
                continue
            if depth == 0 and expr[i:i + 2] == "->":
                segs.append((op, "".join(cur).strip()))
                cur = []
                op = "->"
                i += 2
                continue
            cur.append(c)
            i += 1
        segs.append((op, "".join(cur).strip()))
        cur_type = ""
        for idx, (sop, seg) in enumerate(segs):
            if not seg:
                return ""
            called = seg.endswith(")")
            name = re.match(r"[A-Za-z_][\w:]*", seg)
            if not name:
                return ""
            nm = name.group(0).split("::")[-1]
            if idx == 0 and not called:
                cur_type = self.resolve_ident(nm, at)
            else:
                base_cls = self._class_of(cur_type, sop) if idx else None
                if idx == 0:
                    # free/own-class call: return type
                    base_cls = self.owner
                if base_cls is None:
                    return ""
                if called:
                    rets = getattr(base_cls, "method_returns", {})
                    cur_type = rets.get(nm, "")
                else:
                    mem = base_cls.member(nm)
                    cur_type = mem.type_text if mem else ""
            if not cur_type:
                return ""
            # Indexing: unwrap element type.
            rest = seg[len(name.group(0)):]
            while "[" in rest:
                cur_type = element_type(self.canonical(cur_type)) or ""
                rest = rest[rest.index("]") + 1:] if "]" in rest else ""
                if not cur_type:
                    return ""
        return cur_type

    def _class_of(self, type_text: str, op: str) -> ClassInfo | None:
        canon = self.canonical(type_text)
        if op == "->":
            inner = smart_pointee(canon)
            if inner:
                canon = inner
        head = type_head(canon)
        if not head:
            return None
        return self.fp._lookup_class(head, [])

    # -- extraction passes -------------------------------------------

    def _find_range_fors(self) -> None:
        for mm in RANGE_FOR_RE.finditer(self.body):
            open_p = mm.end() - 1
            close = self._balanced(open_p)
            if close is None:
                continue
            inner = self.body[open_p + 1:close]
            colon = self._top_level_colon(inner)
            if colon is None:
                continue
            range_expr = inner[colon + 1:].strip()
            at = open_p + 1 + colon + 1
            ctype = self.canonical(self.resolve_expr(range_expr, at))
            self.m.iterations.append(IterationSite(
                expr=range_expr, container_type=ctype,
                line=self.line(mm.start()), form="range-for"))

    def _find_begin_walks(self) -> None:
        for mm in BEGIN_WALK_RE.finditer(self.body):
            recv = mm.group(1)
            ctype = self.canonical(self.resolve_expr(recv, mm.start()))
            self.m.iterations.append(IterationSite(
                expr=recv, container_type=ctype,
                line=self.line(mm.start()), form="begin-walk"))

    def _balanced(self, open_off: int) -> int | None:
        depth = 0
        for k in range(open_off, len(self.body)):
            c = self.body[k]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    return k
        return None

    @staticmethod
    def _top_level_colon(inner: str) -> int | None:
        depth = 0
        k = 0
        while k < len(inner):
            c = inner[k]
            if c in "<([{":
                depth += 1
            elif c in ">)]}":
                depth -= 1
            elif c == ":" and depth == 0:
                if inner[k - 1:k] == ":" or inner[k + 1:k + 2] == ":":
                    k += 2
                    continue
                if ";" in inner[:k]:
                    return None  # classic for with ternary etc.
                return k
            k += 1
        return None

    def _find_calls(self) -> None:
        for mm in CALL_RE.finditer(self.body):
            name = re.sub(r"\s+", "", mm.group(1))
            simple = name.split("::")[-1]
            if simple in CONTROL_NAMES or simple in KEYWORDS:
                continue
            line = self.line(mm.start())
            self.m.calls.append(Call(callee=name, line=line))
            self._note_ambient(name, mm.end(), line)
        for mm in MEMBER_CALL_RE.finditer(self.body):
            # `this->foo(` counts as an unqualified own call, and so does
            # `const_cast<T*>(this)->foo(` (a const method forwarding to
            # a non-const one, as save() does to fields()).
            before = self.body[:mm.start()].rstrip()
            if OWN_RECEIVER_RE.search(before):
                self.m.calls.append(Call(callee=mm.group(1),
                                         line=self.line(mm.start())))
            else:
                self.m.calls.append(Call(callee="<expr>." + mm.group(1),
                                         line=self.line(mm.start())))
        # std::random_device is ambient even as a bare constructor/type.
        for mm in re.finditer(r"\brandom_device\b", self.body):
            self.m.ambient_calls.append(Call(
                callee="std::random_device", line=self.line(mm.start())))

    def _note_ambient(self, name: str, args_at: int, line: int) -> None:
        plain = name.lstrip(":")
        for pat in cfg.AMBIENT_CALLEES:
            psimple = pat.split("::")[-1]
            if plain == pat or plain.endswith("::" + pat) or plain == psimple \
                    or plain.endswith("::" + psimple) and "::" in pat:
                if psimple == "random_device":
                    continue  # handled as a type use
                self.m.ambient_calls.append(Call(callee=plain, line=line))
                return
        if plain == "time" or name in cfg.AMBIENT_TIME_CALLEES or \
                plain.endswith("::time"):
            args = self.body[args_at:args_at + 24].lstrip()
            if name.startswith("::") or name.startswith("std::") or \
                    args.startswith(("NULL", "nullptr", "0", "&")):
                self.m.ambient_calls.append(Call(callee="time", line=line))

    def _find_member_accesses(self) -> None:
        if self.owner is None:
            return
        for mem in self.owner.members:
            rx = re.compile(r"\b" + re.escape(mem.name) + r"\b")
            for mm in rx.finditer(self.body):
                pre = self.body[:mm.start()].rstrip()
                if pre.endswith((".", "->", "::")) and \
                        not pre.endswith("this->"):
                    continue
                self.m.accesses.append(MemberAccess(
                    member=mem.name, line=self.line(mm.start())))


# -- type helpers ------------------------------------------------------

def type_head(type_text: str) -> str:
    """Leading (possibly qualified) identifier of a type spelling,
    without template arguments: 'std::vector<int>&' -> 'std::vector'."""
    t = type_text.strip()
    mm = re.match(r"(?:const\s+|volatile\s+)*((?:[A-Za-z_]\w*\s*::\s*)*"
                  r"[A-Za-z_]\w*)", t)
    return re.sub(r"\s+", "", mm.group(1)) if mm else ""


def template_args(type_text: str) -> list[str]:
    t = type_text.strip()
    lo = t.find("<")
    if lo < 0:
        return []
    depth = 0
    args: list[str] = []
    cur: list[str] = []
    for c in t[lo:]:
        if c == "<":
            depth += 1
            if depth == 1:
                continue
        elif c == ">":
            depth -= 1
            if depth == 0:
                break
        if c == "," and depth == 1:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    if cur:
        args.append("".join(cur).strip())
    return args


SMART_HEADS = ("std::optional", "optional", "std::unique_ptr", "unique_ptr",
               "std::shared_ptr", "shared_ptr")
SEQ_HEADS = ("std::vector", "vector", "std::array", "array", "std::span",
             "span", "std::deque", "deque")


def smart_pointee(canon: str) -> str | None:
    if type_head(canon) in SMART_HEADS:
        args = template_args(canon)
        return args[0] if args else None
    return None


def element_type(canon: str) -> str | None:
    if type_head(canon) in SEQ_HEADS:
        args = template_args(canon)
        return args[0] if args else None
    return None


def canonicalize(type_text: str, model: Model, cls: str | None) -> str:
    """Expand alias identifiers (transitively, bounded) so 'unordered'
    detection sees through typedef chains."""
    if not type_text:
        return ""
    text = type_text
    for _ in range(8):
        replaced = False

        def sub(mm: re.Match) -> str:
            nonlocal replaced
            name = re.sub(r"\s+", "", mm.group(0))
            candidates = [name]
            if cls:
                candidates.insert(0, cls + "::" + name)
                # enclosing namespaces of the class
                parts = cls.split("::")
                for k in range(len(parts) - 1, 0, -1):
                    candidates.append("::".join(parts[:k]) + "::" + name)
            for c in candidates:
                if c in model.aliases and model.aliases[c] != name:
                    replaced = True
                    return model.aliases[c]
            return mm.group(0)

        new = re.sub(r"(?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*", sub, text)
        if not replaced or new == text:
            text = new
            break
        text = new
    return text


def finalize(model: Model) -> None:
    """Post-pass: canonicalize member types."""
    for ci in model.classes.values():
        for mem in ci.members:
            mem.canonical_type = canonicalize(mem.type_text, model,
                                              ci.name)


def scan_text(model: Model, rel: str, raw: str) -> None:
    """Record the facts read from the text rather than the syntax tree:
    suppression markers, with or without their reason.  Both frontends
    call this, so the checks see identical sets."""
    for line_no, line in enumerate(raw.split("\n"), start=1):
        for marker, rx in SUPPRESS_RES.items():
            m = rx.search(line)
            if m is None:
                continue
            facts = model.suppressions if (m.group(1) or "").strip() \
                else model.bare_suppressions
            facts.setdefault(rel, {}).setdefault(marker, set()).add(line_no)


def build_model(root: Path, files: list[Path]) -> Model:
    """Parse `files` (paths under `root`) into one Model."""
    model = Model()
    parsers = []
    for path in files:
        raw = path.read_text(encoding="utf-8", errors="replace")
        clean = clean_source(raw)
        rel = path.relative_to(root).as_posix() if path.is_relative_to(root) \
            else path.as_posix()
        model.files.append(rel)
        scan_text(model, rel, raw)
        parsers.append(FileParser(rel, raw, clean, model))
    # Two passes: headers first so out-of-line bodies in .cpp files can
    # resolve their owning classes (and second pass re-runs everything
    # now that every class is known).
    for fp in parsers:
        fp.parse()
    model.methods.clear()
    for fp in parsers:
        fp.parse()
    finalize(model)
    return model
