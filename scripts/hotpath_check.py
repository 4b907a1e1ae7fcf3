#!/usr/bin/env python3
"""Static hot-path contract analyzer (driven by scripts/lint.sh and CI).

Verifies the KGE_HOT_NOALLOC contract (src/util/hotpath.h): starting from
every annotated hot-path root, the transitive call graph must not reach

  * an allocation          operator new/delete, malloc-family calls,
                           allocating STL container methods (push_back,
                           resize, insert, ...), container constructions,
                           make_unique/make_shared, std::function,
                           KGE_LOG (each line builds an ostringstream);
  * a throwing construct   `throw`, std::*::at();
  * a nondeterminism source clocks (time/clock_gettime/::now), rand,
                           std::random_device, getenv, or any use of an
                           unordered container (iteration order varies
                           across libraries and runs).

Roots are marked with the KGE_HOT_NOALLOC macro. A root that is a class
method propagates to every same-named method in the tree, so overrides of
an annotated virtual (e.g. a new model's ScoreAll) are checked
automatically without annotating them.

Escape hatch, mirroring repo_lint: a finding is suppressed by a trailing
comment on the offending line or the line immediately above it:

    buf.resize(n);  // kge-hotpath: allow(cold-start high-water growth)

Suppressions must carry a reason and are counted in the report so the
allowlist stays auditable.

Frontends
---------
  textual (default)  A self-contained lexer over the sources: tracks
                     namespace/class scopes, function definitions and
                     declarations, call sites, constructor calls, and the
                     banned constructs above. Needs no compiler, so it
                     runs identically on every machine and is the CI
                     gate. Virtual calls are over-approximated by method
                     name (a member call x->F() edges to every definition
                     of F), which is exactly the conservatism the
                     contract wants.
  clang              Parses `clang++ -Xclang -ast-dump=json` output for
                     every TU in compile_commands.json and builds the
                     graph from real AST call/new/throw nodes. Higher
                     precision (no false edges from name collisions) but
                     requires clang and is slow on large TUs; CI runs it
                     as a cross-check when clang is installed. Roots are
                     still located by the annotation macro in the source
                     text, so both frontends agree on the root set.

Exit status: 0 clean, 1 findings, 2 usage/infrastructure error.

Usage:
  scripts/hotpath_check.py                         # analyze src/ (textual)
  scripts/hotpath_check.py --report graph.json     # + machine-readable report
  scripts/hotpath_check.py --frontend=clang -p build
  scripts/hotpath_check.py fixture.cc [...]        # explicit file list
  scripts/hotpath_check.py --list-roots            # debug: print root set
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ANNOTATION = "KGE_HOT_NOALLOC"
ALLOW_RE = re.compile(r"//\s*kge-hotpath:\s*allow\(([^)]+)\)")

# ---------------------------------------------------------------------------
# Banned / safe construct tables (shared by both frontends)
# ---------------------------------------------------------------------------

# Free calls that allocate.
BAD_ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "free", "aligned_alloc", "posix_memalign",
    "strdup", "strndup",
    "make_unique", "make_shared", "make_pair",  # make_pair of owning types
    "to_string", "stoi", "stol", "stod", "stof",
    "stable_sort", "stable_partition", "inplace_merge",
    # Constructor calls of allocating types (detected as `Type name(...)`).
    "vector", "string", "basic_string", "deque", "list", "map", "set",
    "multimap", "multiset", "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset", "function",
    "stringstream", "ostringstream", "istringstream",
}
# make_pair of trivial types does not allocate, but it never appears on a
# hot path here; keeping it banned is cheap and conservative.

# Member calls that (may) allocate.
BAD_ALLOC_MEMBERS = {
    "push_back", "emplace_back", "push_front", "emplace_front",
    "resize", "reserve", "insert", "emplace", "try_emplace",
    "insert_or_assign", "assign", "append", "substr", "str",
    "shrink_to_fit", "push", "pop",
}

# Macros that expand to allocating code.
BAD_MACROS = {
    "KGE_LOG": ("alloc", "KGE_LOG builds an ostringstream per line"),
}

# Nondeterminism sources (free or member calls).
BAD_NONDET_CALLS = {
    "time", "clock", "clock_gettime", "gettimeofday", "now",
    "rand", "srand", "random", "random_device", "getenv",
    "system_clock", "steady_clock", "high_resolution_clock",
}

# Unordered-container identifiers: any appearance inside a hot function is
# flagged (iteration order is the hazard and is invisible syntactically).
BAD_NONDET_TYPES = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}

# Throwing constructs beyond the `throw` keyword itself.
BAD_THROW_MEMBERS = {"at"}

# Lowercase std-style names never resolved against repo functions: the
# repo's own functions are CamelCase, so skipping these avoids bogus edges
# from e.g. `.size()` into an unrelated `size` while losing nothing.
SAFE_CALLS = {
    "size", "data", "begin", "end", "cbegin", "cend", "rbegin", "rend",
    "empty", "front", "back", "first", "last", "subspan", "span", "get",
    "clear", "find", "contains", "count", "value", "has_value", "length",
    "min", "max", "abs", "fabs", "sqrt", "cbrt", "exp", "log", "log2",
    "log1p", "expm1", "pow", "fmod", "fma", "floor", "ceil", "round",
    "trunc", "lround", "copysign", "isnan", "isinf", "isfinite", "signbit",
    "tanh", "sinh", "cosh", "sin", "cos", "tan", "atan", "atan2", "asin",
    "acos", "clamp", "swap", "move", "forward", "exchange", "as_const",
    "fill", "fill_n", "copy", "copy_n", "transform", "accumulate",
    "inner_product", "iota", "sort", "partial_sort", "nth_element",
    "binary_search", "lower_bound", "upper_bound", "equal_range", "unique",
    "distance", "advance", "next", "prev", "all_of", "any_of", "none_of",
    "memcpy", "memmove", "memset", "memcmp", "strlen", "strcmp", "strncmp",
    "load", "store", "fetch_add", "fetch_sub", "compare_exchange_weak",
    "compare_exchange_strong", "test_and_set", "notify_one", "notify_all",
    "numeric_limits", "declval", "tie", "tuple_size", "index",
}

KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "break", "continue", "return", "goto", "sizeof", "alignof", "alignas",
    "new", "delete", "throw", "try", "catch", "static_assert", "decltype",
    "typeid", "noexcept", "asm", "using", "typedef", "template", "typename",
    "class", "struct", "enum", "union", "namespace", "public", "private",
    "protected", "virtual", "override", "final", "const", "constexpr",
    "consteval", "constinit", "static", "inline", "extern", "friend",
    "explicit", "operator", "this", "nullptr", "true", "false", "auto",
    "void", "bool", "char", "int", "short", "long", "float", "double",
    "unsigned", "signed", "mutable", "volatile", "register", "thread_local",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "co_await", "co_return", "co_yield", "requires", "concept", "and",
    "or", "not", "xor", "compl", "bitand", "bitor",
}

ALL_CAPS_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


# ---------------------------------------------------------------------------
# Shared model
# ---------------------------------------------------------------------------

class Event:
    __slots__ = ("kind", "detail", "line", "allow")

    def __init__(self, kind, detail, line, allow):
        self.kind = kind        # "alloc" | "throw" | "nondet"
        self.detail = detail
        self.line = line
        self.allow = allow      # suppression reason or None


class Call:
    __slots__ = ("name", "qual", "line", "is_member")

    def __init__(self, name, qual, line, is_member):
        self.name = name        # last component
        self.qual = qual        # tuple of qualifier components (may be empty)
        self.line = line
        self.is_member = is_member


class Function:
    __slots__ = ("qname", "file", "line", "is_root", "is_method", "calls",
                 "events")

    def __init__(self, qname, file, line, is_method):
        self.qname = qname
        self.file = file
        self.line = line
        self.is_root = False
        self.is_method = is_method
        self.calls = []
        self.events = []

    @property
    def last(self):
        return self.qname.rsplit("::", 1)[-1]


# ---------------------------------------------------------------------------
# Textual frontend
# ---------------------------------------------------------------------------

# Multi-character punctuation we must keep intact for parsing.
_PUNCT2 = {"::", "->", "<<", ">>", "==", "!=", "<=", ">=", "&&", "||",
           "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--"}

_TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"                     # identifier
    r"|\d[\w.+-]*"                      # number (incl. 1e-3, 0x1f)
    r"|::|->|<<|>>|==|!=|<=|>=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|\+\+|--"
    r"|[{}()\[\];,:<>=!&|^~*/+\-.%?]")


def _strip_comments_strings(text, allows):
    """Returns `text` with comments, string and char literals blanked
    (newlines preserved), recording `// kge-hotpath: allow(...)` reasons
    into `allows` keyed by 1-based line number."""
    out = []
    i, n = 0, len(text)
    line = 1
    state = None  # None | "line" | "block" | '"' | "'" | "raw"
    raw_delim = ""
    while i < n:
        c = text[i]
        if c == "\n":
            if state == "line":
                state = None
            out.append("\n")
            line += 1
            i += 1
            continue
        if state == "line":
            i += 1
            continue
        if state == "block":
            if c == "*" and i + 1 < n and text[i + 1] == "/":
                state = None
                i += 2
            else:
                i += 1
            continue
        if state in ('"', "'"):
            if c == "\\":
                i += 2
                continue
            if c == state:
                state = None
            i += 1
            continue
        if state == "raw":
            end = ')' + raw_delim + '"'
            if text.startswith(end, i):
                state = None
                i += len(end)
            else:
                if c == "\n":
                    line += 1
                    out.append("\n")
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            m = ALLOW_RE.match(text[i:text.find("\n", i) if
                               text.find("\n", i) >= 0 else n])
            if m:
                allows[line] = m.group(1).strip()
            state = "line"
            i += 2
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            state = "block"
            i += 2
            continue
        if c == 'R' and text.startswith('R"', i):
            m = re.match(r'R"([^(\s"\\]{0,16})\(', text[i:])
            if m:
                raw_delim = m.group(1)
                state = "raw"
                i += len(m.group(0))
                continue
        if c in "\"'":
            state = c
            out.append(" ")
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


def _strip_preprocessor(text):
    """Blanks preprocessor directives (including backslash continuations),
    preserving line structure."""
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        stripped = lines[i].lstrip()
        if stripped.startswith("#"):
            while lines[i].rstrip().endswith("\\") and i + 1 < len(lines):
                lines[i] = ""
                i += 1
            lines[i] = ""
        i += 1
    return "\n".join(lines)


def _tokenize(text):
    """Yields (value, line) tokens."""
    tokens = []
    line = 1
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        tokens.append((m.group(0), line))
    return tokens


class _TextualParser:
    """Parses one file into Function records."""

    def __init__(self, path, rel, class_names):
        self.path = path
        self.rel = rel
        self.functions = []
        self.declared_roots = []   # qualified names annotated on decls
        self.class_names = class_names
        self.allows = {}

    def parse(self):
        with open(self.path, encoding="utf-8") as f:
            text = f.read()
        text = _strip_comments_strings(text, self.allows)
        text = _strip_preprocessor(text)
        toks = _tokenize(text)
        self._parse_scope(toks, 0, len(toks), [])
        return self

    # -- scope / statement structure ---------------------------------------

    def _match_brace(self, toks, i, end):
        """toks[i] == '{'; returns index just past the matching '}'."""
        depth = 0
        while i < end:
            v = toks[i][0]
            if v == "{":
                depth += 1
            elif v == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return end

    def _parse_scope(self, toks, i, end, scopes):
        pending = []  # (value, line) of current statement head
        while i < end:
            v, line = toks[i]
            if v == ";":
                self._finish_declaration(pending, scopes)
                pending = []
                i += 1
            elif v == "}":
                return i + 1
            elif v == "{":
                i = self._dispatch_brace(toks, i, end, pending, scopes)
                pending = []
            else:
                # Access specifiers at class scope end with ':' — drop them
                # so they never pollute the statement head.
                if (v in ("public", "private", "protected") and i + 1 < end
                        and toks[i + 1][0] == ":"):
                    i += 2
                    continue
                pending.append((v, line))
                i += 1
        self._finish_declaration(pending, scopes)
        return end

    def _dispatch_brace(self, toks, i, end, pending, scopes):
        vals = [p[0] for p in pending]
        if "namespace" in vals:
            k = vals.index("namespace")
            name_parts = []
            for v in vals[k + 1:]:
                if v == "::" or IDENT_RE.fullmatch(v):
                    if v != "::":
                        name_parts.append(v)
                else:
                    break
            name = "::".join(name_parts)  # "" for anonymous namespaces
            close = self._match_brace(toks, i, end)
            self._parse_scope(toks, i + 1, close - 1,
                              scopes + ([("namespace", name)] if name
                                        else []))
            return close
        if self._is_function_header(vals):
            fn = self._begin_function(pending, scopes)
            close = self._match_brace(toks, i, end)
            self._scan_body(toks, i + 1, close - 1, fn)
            self.functions.append(fn)
            return close
        for key in ("class", "struct", "union"):
            if key in vals:
                k = vals.index(key)
                name = None
                for v in vals[k + 1:]:
                    if IDENT_RE.fullmatch(v) and v not in ("final",
                                                           "alignas"):
                        name = v
                        break
                close = self._match_brace(toks, i, end)
                if name:
                    self.class_names.add(name)
                    self._parse_scope(toks, i + 1, close - 1,
                                      scopes + [("class", name)])
                return close
        # enum bodies, aggregate initializers, extern "C", unknown: skip.
        if not vals or vals == ["extern"]:
            close = self._match_brace(toks, i, end)
            self._parse_scope(toks, i + 1, close - 1, scopes)
            return close
        return self._match_brace(toks, i, end)

    def _is_function_header(self, vals):
        if not vals or vals[0] in ("using", "typedef", "enum"):
            return False
        try:
            k = vals.index("(")
        except ValueError:
            return False
        if k == 0:
            return False
        prev = vals[k - 1]
        if not IDENT_RE.fullmatch(prev) or prev in KEYWORDS:
            # operator overloads: `operator` + symbol tokens before '('.
            if "operator" in vals[:k]:
                return True
            return False
        # Reject control-flow-looking heads and macro invocations at scope.
        if prev in ("if", "for", "while", "switch", "catch"):
            return False
        return True

    def _header_name(self, vals):
        """Qualified-name chain of the function named in a header/decl."""
        k = vals.index("(")
        if (not IDENT_RE.fullmatch(vals[k - 1]) or vals[k - 1] in KEYWORDS) \
                and "operator" in vals[:k]:
            # operator<<, operator(), operator[] ...
            j = vals.index("operator")
            name = "operator" + "".join(vals[j + 1:k])
            chain = [name]
            j -= 1
        else:
            chain = [vals[k - 1]]
            j = k - 2
        while j >= 1 and vals[j] == "::" and IDENT_RE.fullmatch(vals[j - 1]):
            chain.insert(0, vals[j - 1])
            j -= 2
        return chain

    def _qualify(self, chain, scopes):
        parts = [name for _, name in scopes if name]
        return "::".join(parts + chain)

    def _begin_function(self, pending, scopes):
        vals = [p[0] for p in pending]
        chain = self._header_name(vals)
        qname = self._qualify(chain, scopes)
        is_method = (any(kind == "class" for kind, _ in scopes)
                     or len(chain) > 1 and chain[-2] in self.class_names)
        fn = Function(qname, self.rel, pending[0][1], is_method)
        if ANNOTATION in vals:
            fn.is_root = True
        # Unordered containers in the signature matter too: iterating an
        # unordered parameter is the classic nondeterminism hazard.
        for v, line in pending:
            if v in BAD_NONDET_TYPES:
                fn.events.append(Event(
                    "nondet", f"{v} (unordered iteration order)", line,
                    self._allow_for(line)))
        return fn

    def _finish_declaration(self, pending, scopes):
        """A statement ending in ';' — record annotated declarations as
        roots (the definition may live in another file)."""
        vals = [p[0] for p in pending]
        if ANNOTATION not in vals or not self._is_function_header(vals):
            return
        chain = self._header_name(vals)
        qname = self._qualify(chain, scopes)
        is_method = (any(kind == "class" for kind, _ in scopes)
                     or len(chain) > 1 and chain[-2] in self.class_names)
        self.declared_roots.append((qname, is_method))

    # -- body scanning ------------------------------------------------------

    def _allow_for(self, line):
        return self.allows.get(line) or self.allows.get(line - 1)

    def _scan_body(self, toks, i, end, fn):
        while i < end:
            v, line = toks[i]
            if v == "new":
                fn.events.append(Event("alloc", "operator new", line,
                                       self._allow_for(line)))
                i += 1
                continue
            if v == "delete":
                fn.events.append(Event("alloc", "operator delete", line,
                                       self._allow_for(line)))
                i += 1
                continue
            if v == "throw":
                fn.events.append(Event("throw", "throw expression", line,
                                       self._allow_for(line)))
                i += 1
                continue
            if v in BAD_NONDET_TYPES:
                fn.events.append(Event(
                    "nondet", f"{v} (unordered iteration order)", line,
                    self._allow_for(line)))
                i += 1
                continue
            if not IDENT_RE.fullmatch(v) or v in KEYWORDS:
                i += 1
                continue
            # Identifier: is it called? Allow `Name(`, `Name<...>(`.
            j = i + 1
            if j < end and toks[j][0] == "<":
                j2 = self._match_angles(toks, j, end)
                if j2 is not None and j2 < end and toks[j2][0] == "(":
                    j = j2
            if j >= end or toks[j][0] != "(":
                i += 1
                continue
            self._record_call(toks, i, fn, line)
            i += 1

    def _match_angles(self, toks, i, end):
        """toks[i] == '<'; best-effort balanced match. Returns index past
        matching '>' or None if this is not a template argument list."""
        depth = 0
        steps = 0
        while i < end and steps < 64:
            v = toks[i][0]
            if v == "<":
                depth += 1
            elif v == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif v == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
            elif v in (";", "{", "}", "&&", "||") or v in _PUNCT2 - {"::"}:
                return None
            i += 1
            steps += 1
        return None

    def _record_call(self, toks, i, fn, line):
        name = toks[i][0]
        if ALL_CAPS_RE.match(name):
            bad = BAD_MACROS.get(name)
            if bad:
                fn.events.append(Event(bad[0], bad[1] + f" ({name})", line,
                                       self._allow_for(line)))
            return
        # Preceding context.
        prev = toks[i - 1][0] if i > 0 else ""
        qual = []
        k = i
        while k >= 2 and toks[k - 1][0] == "::" and \
                IDENT_RE.fullmatch(toks[k - 2][0]):
            qual.insert(0, toks[k - 2][0])
            k -= 2
        is_member = k > 0 and toks[k - 1][0] in (".", "->")
        # `Type name(...)`: a constructor call of `Type`.
        if not qual and not is_member and i > 0 and (
                IDENT_RE.fullmatch(prev) and prev not in KEYWORDS
                or prev == ">"):
            ctor = None
            if prev == ">":
                # Scan back over template args to the template head.
                depth = 0
                k2 = i - 1
                while k2 >= 0:
                    v2 = toks[k2][0]
                    if v2 == ">":
                        depth += 1
                    elif v2 == ">>":
                        depth += 2
                    elif v2 == "<":
                        depth -= 1
                        if depth == 0:
                            if k2 >= 1 and IDENT_RE.fullmatch(toks[k2 - 1][0]):
                                ctor = toks[k2 - 1][0]
                            break
                    k2 -= 1
                    if i - k2 > 64:
                        break
            elif not ALL_CAPS_RE.match(prev):
                ctor = prev
            if ctor and ctor not in KEYWORDS:
                if ctor in BAD_ALLOC_CALLS:
                    fn.events.append(Event(
                        "alloc", f"construction of std::{ctor}", line,
                        self._allow_for(line)))
                    return
                if ctor in BAD_NONDET_CALLS:
                    fn.events.append(Event("nondet", f"{ctor}()", line,
                                           self._allow_for(line)))
                    return
                fn.calls.append(Call(ctor, (), line, False))
                # Fall through: `name` itself is a variable, not a call.
                return
        # Banned constructs.
        if is_member and name in BAD_ALLOC_MEMBERS:
            fn.events.append(Event("alloc", f".{name}()", line,
                                   self._allow_for(line)))
            return
        if is_member and name in BAD_THROW_MEMBERS:
            fn.events.append(Event("throw", f".{name}() throws on bad index",
                                   line, self._allow_for(line)))
            return
        if name in BAD_ALLOC_CALLS:
            fn.events.append(Event("alloc", f"{name}()", line,
                                   self._allow_for(line)))
            return
        if name in BAD_NONDET_CALLS:
            fn.events.append(Event("nondet", f"{name}()", line,
                                   self._allow_for(line)))
            return
        if name in SAFE_CALLS:
            return
        fn.calls.append(Call(name, tuple(qual), line, is_member))


def textual_frontend(files):
    """Parses all files; returns (functions, declared_roots, class_names)."""
    class_names = set()
    parsers = []
    # Two passes so `Class::Method` definitions in .cc files can consult
    # class names discovered in headers parsed later in the list.
    for path in files:
        rel = os.path.relpath(path, REPO_ROOT)
        parsers.append(_TextualParser(path, rel, class_names).parse())
    functions = []
    declared_roots = []
    for p in parsers:
        functions.extend(p.functions)
        declared_roots.extend(p.declared_roots)
    # Re-derive is_method for definitions whose class was parsed later.
    for fn in functions:
        if not fn.is_method:
            parts = fn.qname.split("::")
            if len(parts) >= 2 and parts[-2] in class_names:
                fn.is_method = True
    return functions, declared_roots


# ---------------------------------------------------------------------------
# Clang AST frontend
# ---------------------------------------------------------------------------

def _clang_collect_allows(path, allows_by_file):
    allows = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, 1):
                m = ALLOW_RE.search(raw)
                if m:
                    allows[lineno] = m.group(1).strip()
    except OSError:
        pass
    allows_by_file[path] = allows
    return allows


class _ClangWalker:
    """Walks one TU's -ast-dump=json tree into Function records."""

    def __init__(self, tu_file, functions):
        self.tu_file = tu_file
        self.functions = functions
        self.ctx = []            # qualified-name context
        self.cur_file = tu_file  # clang omits unchanged loc fields
        self.cur_line = 0
        self.allows_by_file = {}

    def _update_loc(self, node):
        loc = node.get("loc") or {}
        if "spellingLoc" in loc:
            loc = loc["spellingLoc"]
        if "file" in loc:
            self.cur_file = loc["file"]
        if "line" in loc:
            self.cur_line = loc["line"]

    def _allow_for(self, file, line):
        allows = self.allows_by_file.get(file)
        if allows is None:
            allows = _clang_collect_allows(file, self.allows_by_file)
        return allows.get(line) or allows.get(line - 1)

    def _in_repo(self, file):
        return os.path.abspath(file).startswith(REPO_ROOT + os.sep)

    def walk(self, node, fn=None):
        if not isinstance(node, dict):
            return
        kind = node.get("kind", "")
        self._update_loc(node)
        file, line = self.cur_file, self.cur_line

        if kind in ("NamespaceDecl", "CXXRecordDecl", "ClassTemplateDecl"):
            name = node.get("name")
            self.ctx.append(name or "")
            for child in node.get("inner", []) or []:
                self.walk(child, fn)
            self.ctx.pop()
            return

        if kind in ("FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
                    "CXXDestructorDecl", "CXXConversionDecl",
                    "FunctionTemplateDecl"):
            has_body = any(isinstance(c, dict) and
                           c.get("kind") == "CompoundStmt"
                           for c in node.get("inner", []) or [])
            if has_body and self._in_repo(file):
                qname = "::".join([c for c in self.ctx if c] +
                                  [node.get("name", "?")])
                new_fn = Function(qname, os.path.relpath(file, REPO_ROOT),
                                  line, kind != "FunctionDecl")
                self.functions.append(new_fn)
                for child in node.get("inner", []) or []:
                    self.walk(child, new_fn)
            else:
                for child in node.get("inner", []) or []:
                    self.walk(child, fn)
            return

        if fn is not None and self._in_repo(file):
            allow = None

            def note(kind2, detail):
                fn.events.append(Event(kind2, detail, line,
                                       self._allow_for(file, line)))

            if kind == "CXXNewExpr":
                note("alloc", "operator new")
            elif kind == "CXXDeleteExpr":
                note("alloc", "operator delete")
            elif kind == "CXXThrowExpr":
                note("throw", "throw expression")
            elif kind in ("CallExpr", "CXXMemberCallExpr",
                          "CXXOperatorCallExpr", "CXXConstructExpr"):
                callee = self._callee_name(node)
                if callee:
                    is_member = kind == "CXXMemberCallExpr"
                    if is_member and callee in BAD_ALLOC_MEMBERS:
                        note("alloc", f".{callee}()")
                    elif is_member and callee in BAD_THROW_MEMBERS:
                        note("throw", f".{callee}() throws on bad index")
                    elif callee in BAD_ALLOC_CALLS:
                        note("alloc", f"{callee}()")
                    elif callee in BAD_NONDET_CALLS:
                        note("nondet", f"{callee}()")
                    elif callee not in SAFE_CALLS:
                        fn.calls.append(Call(callee, (), line, is_member))
            elif kind in ("VarDecl", "FieldDecl"):
                qual_type = (node.get("type") or {}).get("qualType", "")
                for t in BAD_NONDET_TYPES:
                    if t in qual_type:
                        note("nondet", f"{t} (unordered iteration order)")
                        break

        for child in node.get("inner", []) or []:
            self.walk(child, fn)

    def _callee_name(self, node):
        # The callee is the first inner expression; find the referenced
        # declaration name inside it.
        inner = node.get("inner", []) or []
        if not inner:
            return None
        def find_ref(n, depth=0):
            if not isinstance(n, dict) or depth > 6:
                return None
            ref = n.get("referencedDecl") or n.get("referencedMemberDecl")
            if isinstance(ref, dict) and ref.get("name"):
                return ref["name"]
            if n.get("kind") in ("DeclRefExpr", "MemberExpr") and \
                    n.get("name"):
                return n.get("name")
            for c in n.get("inner", []) or []:
                got = find_ref(c, depth + 1)
                if got:
                    return got
            return None
        return find_ref(inner[0])


def clang_frontend(compile_commands_path, files_filter):
    clang = shutil.which("clang++") or shutil.which("clang")
    if clang is None:
        raise RuntimeError("clang++ not found in PATH "
                           "(required by --frontend=clang)")
    try:
        with open(compile_commands_path, encoding="utf-8") as f:
            entries = json.load(f)
    except OSError as e:
        raise RuntimeError(f"cannot read {compile_commands_path}: {e}")
    functions = []
    seen = set()
    for entry in entries:
        src = os.path.normpath(os.path.join(entry["directory"],
                                            entry["file"]))
        if src in seen or not src.startswith(
                os.path.join(REPO_ROOT, "src") + os.sep):
            continue
        if files_filter and src not in files_filter:
            continue
        seen.add(src)
        args = entry.get("arguments")
        if args is None:
            args = entry["command"].split()
        # Keep -I/-D/-std flags; drop compile/output directives.
        flags = []
        skip_next = False
        for a in args[1:]:
            if skip_next:
                skip_next = False
                continue
            if a in ("-c", src) or a.endswith(".o"):
                continue
            if a == "-o":
                skip_next = True
                continue
            flags.append(a)
        cmd = [clang, *flags, "-fsyntax-only", "-Xclang", "-ast-dump=json",
               src]
        proc = subprocess.run(cmd, cwd=entry["directory"],
                              capture_output=True, text=True)
        if proc.returncode != 0 or not proc.stdout:
            sys.stderr.write(f"hotpath_check: clang failed on {src}:\n"
                             f"{proc.stderr[:2000]}\n")
            raise RuntimeError("clang frontend failed")
        walker = _ClangWalker(src, functions)
        walker.walk(json.loads(proc.stdout))
    return functions


# ---------------------------------------------------------------------------
# Core: root propagation, reachability, reporting
# ---------------------------------------------------------------------------

def analyze(functions, declared_roots):
    by_last = {}
    by_qname = {}
    for fn in functions:
        by_last.setdefault(fn.last, []).append(fn)
        by_qname.setdefault(fn.qname, []).append(fn)

    # Seed roots: annotated definitions + definitions matching annotated
    # declarations (by qualified-name suffix).
    root_names = set()
    method_root_lasts = set()
    for fn in functions:
        if fn.is_root:
            root_names.add(fn.qname)
            if fn.is_method:
                method_root_lasts.add(fn.last)
    for qname, is_method in declared_roots:
        root_names.add(qname)
        if is_method:
            method_root_lasts.add(qname.rsplit("::", 1)[-1])
        for fn in functions:
            if fn.qname == qname or fn.qname.endswith("::" + qname):
                fn.is_root = True

    # Virtual-override propagation: a method root extends to every
    # same-named method (conservative: covers overrides without relying
    # on hierarchy reconstruction).
    for fn in functions:
        if fn.is_method and fn.last in method_root_lasts:
            fn.is_root = True

    roots = [fn for fn in functions if fn.is_root]

    # Resolve call edges.
    def resolve(call):
        if call.qual:
            suffix = "::".join(call.qual + (call.name,))
            exact = []
            for qname, fns in by_qname.items():
                if qname == suffix or qname.endswith("::" + suffix):
                    exact.extend(fns)
            if exact:
                return exact
            # Qualified into an external namespace (std:: etc.): ignore.
            return []
        return by_last.get(call.name, [])

    edges = {}
    for fn in functions:
        targets = []
        for call in fn.calls:
            for target in resolve(call):
                if target is not fn:
                    targets.append((target, call))
        edges[id(fn)] = targets

    # BFS from every root, tracking one witness path per function.
    reachable = {}
    for root in roots:
        stack = [(root, None)]
        while stack:
            fn, parent = stack.pop()
            if id(fn) in reachable:
                continue
            reachable[id(fn)] = (fn, parent, root)
            for target, _ in edges[id(fn)]:
                if id(target) not in reachable:
                    stack.append((target, id(fn)))

    findings = []
    suppressions = []
    seen_events = set()
    for fid, (fn, _, root) in reachable.items():
        for ev in fn.events:
            key = (fn.file, ev.line, ev.kind, ev.detail)
            if key in seen_events:
                continue
            seen_events.add(key)
            path = []
            cursor = fid
            while cursor is not None:
                cfn, parent, _ = reachable[cursor]
                path.append(cfn.qname)
                cursor = parent
            path.reverse()
            record = {
                "file": fn.file, "line": ev.line, "kind": ev.kind,
                "detail": ev.detail, "function": fn.qname,
                "root": root.qname, "path": path,
            }
            if ev.allow:
                record["allow"] = ev.allow
                suppressions.append(record)
            else:
                findings.append(record)

    edge_count = sum(len(t) for t in edges.values())
    return {
        "roots": sorted({fn.qname for fn in roots}),
        "num_functions": len(functions),
        "num_edges": edge_count,
        "num_reachable": len(reachable),
        "findings": sorted(findings,
                           key=lambda r: (r["file"], r["line"])),
        "suppressions": sorted(suppressions,
                               key=lambda r: (r["file"], r["line"])),
    }


def default_files():
    files = []
    for dirpath, _, names in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in sorted(names):
            if name.endswith((".cc", ".h")):
                files.append(os.path.join(dirpath, name))
    return sorted(files)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("paths", nargs="*",
                    help="files to analyze (default: src/)")
    ap.add_argument("--frontend", choices=["textual", "clang"],
                    default="textual")
    ap.add_argument("-p", "--build-dir", default="build",
                    help="build dir holding compile_commands.json "
                         "(clang frontend)")
    ap.add_argument("--report", help="write a JSON call-graph report here")
    ap.add_argument("--list-roots", action="store_true")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args()

    files = [os.path.abspath(p) for p in args.paths] or default_files()
    for f in files:
        if not os.path.isfile(f):
            sys.stderr.write(f"hotpath_check: no such file: {f}\n")
            return 2

    try:
        if args.frontend == "clang":
            cc = os.path.join(args.build_dir, "compile_commands.json")
            if not os.path.isabs(cc):
                cc = os.path.join(REPO_ROOT, cc)
            functions = clang_frontend(cc, set(files) if args.paths
                                       else None)
            # Roots come from the annotation macro in the sources either
            # way, so both frontends agree on the root set: textual
            # declarations AND definitions both seed the root list here.
            tex_functions, declared_roots = textual_frontend(files)
            declared_roots = list(declared_roots) + [
                (fn.qname, fn.is_method) for fn in tex_functions
                if fn.is_root]
        else:
            functions, declared_roots = textual_frontend(files)
    except RuntimeError as e:
        sys.stderr.write(f"hotpath_check: {e}\n")
        return 2

    result = analyze(functions, declared_roots)

    if args.list_roots:
        for r in result["roots"]:
            print(r)

    for rec in result["findings"]:
        print(f"{rec['file']}:{rec['line']}: [{rec['kind']}] "
              f"{rec['detail']} reachable from hot root {rec['root']}")
        print("    path: " + " -> ".join(rec["path"]))
    if args.verbose:
        for rec in result["suppressions"]:
            print(f"{rec['file']}:{rec['line']}: suppressed [{rec['kind']}] "
                  f"{rec['detail']}: allow({rec['allow']})")

    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=2, sort_keys=True)
            f.write("\n")

    sys.stderr.write(
        f"hotpath_check[{args.frontend}]: {result['num_functions']} "
        f"functions, {result['num_edges']} edges, "
        f"{len(result['roots'])} roots, {result['num_reachable']} "
        f"reachable, {len(result['findings'])} finding(s), "
        f"{len(result['suppressions'])} suppression(s): "
        f"{'FAILED' if result['findings'] else 'OK'}\n")
    return 1 if result["findings"] else 0


if __name__ == "__main__":
    sys.exit(main())
