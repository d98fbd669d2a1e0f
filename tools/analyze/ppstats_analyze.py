#!/usr/bin/env python3
"""ppstats_analyze: cross-TU domain analyzer for the ppstats tree.

Run from anywhere:

    python3 tools/analyze/ppstats_analyze.py [--root <repo>] [-p build]
    python3 tools/analyze/ppstats_analyze.py --self-test

Where tools/lint/ppstats_lint.py checks single lines, this tool builds a
whole-program model — every function definition, call site, lock scope,
and assignment across src/ and tools/ — inlines the call graph across
translation units, and enforces three domain invariants that no
single-TU gate (clang-tidy, -Wthread-safety) can see:

  lock-order         Every MutexLock scope (plus PPSTATS_REQUIRES
                     implied whole-function holds) contributes edges to
                     a global lock-acquisition-order graph: holding A
                     while acquiring B — directly or through any chain
                     of calls — adds A -> B. A cycle in that graph is a
                     potential deadlock and fails the run unless an
                     edge on it is listed in the whitelist file with a
                     reason.

  reactor-blocking   Lambdas handed to Reactor::Post / Reactor::Add /
                     Reactor::ArmTimer / TimerWheel::Arm run on a
                     reactor shard thread; everything reachable from
                     them in the call graph must never block. The
                     denylist: CondVar::Wait/WaitFor/WaitUntil,
                     sleep/usleep/nanosleep/sleep_for/sleep_until,
                     poll/select/epoll_wait outside the Reactor itself,
                     blocking Channel::Send/Receive, ThreadPool::Run
                     (a barrier), and unbounded ThreadPool::Submit.
                     Work explicitly dispatched to the pool (Submit
                     lambdas) escapes shard context and is not
                     traversed.

  secret-taint       Taint seeds at Paillier/Damgard-Jurik private-key
                     accessors (lambda/mu/hp/hq/p/q on key-like
                     receivers), blinding-seed identifiers
                     (blind_seed / shard_blind), and zero-share PRF
                     outputs (DeriveZeroShare); propagates through
                     assignments, call arguments, member fields, and
                     returns; and fails if a tainted value reaches a
                     logging, metrics/span, exporter, or printf-family
                     sink. Decryption results are declassified — the
                     client printing its own decrypted answer is the
                     protocol working, not a leak — and the key_io
                     serialization layer is the sanctioned place for
                     key material to be written.

Parsing: the analyzer reads the TU list from compile_commands.json when
-p/--build-dir is given (the same database clang tools use), otherwise
it scans src/ and tools/. Two frontends produce the same per-file
summaries:

  * clang — libclang via the python `clang.cindex` bindings, when
    importable (apt: python3-clang). Highest fidelity.
  * text  — a built-in tokenizer/scope-tracker with no dependencies.
    This is the frontend CI pins (deterministic everywhere, including
    containers without libclang); its approximations are listed in
    docs/STATIC_ANALYSIS.md.

Suppress a finding with a trailing or preceding-line comment that names
the pass AND carries a justification:

    // ppstats-analyze: allow(reactor-blocking): enqueue is lock-brief;
    // unbounded mode is an explicit operator opt-out of backpressure.

A suppression without a justification does not suppress, and one naming
an unknown pass is itself an error. Lock-order cycles are instead
whitelisted edge-by-edge in tools/analyze/lock_order_whitelist.txt.

Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

import argparse
import hashlib
import json
import pathlib
import re
import sys

PASSES = ("lock-order", "reactor-blocking", "secret-taint")

SOURCE_DIRS = ("src", "tools")
CHECKED_SUFFIXES = {".cc", ".cpp", ".h"}
EXCLUDED_PARTS = {"fixtures"}  # tools/analyze/fixtures are test inputs

ALLOW_RE = re.compile(
    r"//\s*ppstats-analyze:\s*allow\(([a-z-]+)\)\s*(?::\s*(.*))?$")
ALLOW_ANY_RE = re.compile(r"//\s*ppstats-analyze:")


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Shared model: what a frontend must produce per file.
# ---------------------------------------------------------------------------


class Call:
    """One call site inside a function body."""

    __slots__ = ("name", "receiver", "args", "line", "held", "lambdas")

    def __init__(self, name, receiver, args, line, held, lambdas):
        self.name = name          # callee base name, e.g. "Post"
        self.receiver = receiver  # receiver chain text, "" for free calls
        self.args = args          # list of argument text strings
        self.line = line
        self.held = held          # tuple of mutex ids held at the call
        self.lambdas = lambdas    # qnames of lambda literals in the args


class Func:
    """One function/method/lambda definition."""

    def __init__(self, qname, cls, file, line):
        self.qname = qname        # "Class::Name" / "Name" / ".../<lambda@N>"
        self.cls = cls            # enclosing class name or ""
        self.file = file
        self.line = line
        self.requires = []        # raw PPSTATS_REQUIRES expressions
        self.acquisitions = []    # [(mutex_id, line, held_before)]
        self.calls = []           # [Call]
        self.assignments = []     # [(lhs_chain, rhs_idents, line)]
        self.returns = []         # [set(idents)]
        self.streams = []         # [(sink_name, idents, line)]
        self.role = None          # None | "reactor" | "pool" | "thread"
        self.parent = None        # enclosing function qname for lambdas

    def base(self):
        return self.qname.rsplit("::", 1)[-1]


class FileSummary:
    def __init__(self, path):
        self.path = path          # repo-relative posix path
        self.functions = []       # [Func]
        self.fields = {}          # class -> {field: type_name}
        self.suppressions = {}    # line -> [(pass, justification)]
        self.roles = {}           # lambda qname -> entry role


class Finding:
    def __init__(self, pass_name, file, line, message, trace=None):
        self.pass_name = pass_name
        self.file = file
        self.line = line
        self.message = message
        self.trace = trace or []

    def as_json(self):
        out = {"pass": self.pass_name, "file": self.file, "line": self.line,
               "message": self.message}
        if self.trace:
            out["trace"] = self.trace
        return out

    def render(self):
        text = f"{self.file}:{self.line}: [{self.pass_name}] {self.message}"
        for step in self.trace:
            text += f"\n    {step}"
        return text


# ---------------------------------------------------------------------------
# Text frontend: comment/string scrubber, tokenizer, scope tracker.
# ---------------------------------------------------------------------------

TOKEN_RE = re.compile(r"""
    (?P<id>[A-Za-z_]\w*)
  | (?P<num>\.?\d[\w.]*)
  | (?P<op>->|::|<<|>>|<=|>=|==|!=|&&|\|\||[-+*/%&|^!~<>=?:;,.(){}\[\]])
""", re.VERBOSE)

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "new",
    "delete", "case", "default", "do", "else", "break", "continue", "goto",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast", "throw",
    "co_return", "co_await", "co_yield", "catch", "decltype", "typeid",
    "static_assert", "noexcept", "alignas", "using", "typedef", "template",
    "typename", "operator", "public", "private", "protected", "friend",
    "namespace", "assert",
}

TYPEISH = {
    "const", "constexpr", "static", "inline", "virtual", "explicit",
    "mutable", "volatile", "unsigned", "signed", "long", "short", "auto",
    "void", "bool", "char", "int", "float", "double", "struct", "class",
    "enum", "register", "thread_local", "extern", "size_t", "uint8_t",
    "uint16_t", "uint32_t", "uint64_t", "int8_t", "int16_t", "int32_t",
    "int64_t",
}

# Namespace/container/wrapper names skipped when digging the user type
# out of a declared type ("std::vector<std::unique_ptr<TaskQueue>>").
WRAPPERS = {
    "std", "ppstats", "obs", "chrono", "vector", "unique_ptr", "shared_ptr",
    "weak_ptr", "deque", "map", "unordered_map", "set", "unordered_set",
    "list", "optional", "pair", "atomic", "array", "function", "queue",
    "span", "tuple", "basic_string", "string", "string_view", "Result",
}

FUNC_QUALIFIERS = {"const", "noexcept", "override", "final", "mutable",
                   "try"}


def scrub(text):
    """Blanks comments and string/char literals (newlines preserved)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c == '"':
            if i > 0 and text[i - 1] == "R":  # raw string literal
                m = re.match(r'"([^(]{0,16})\(', text[i:i + 20])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i)
                    j = n if j < 0 else j + len(close)
                    out.append(re.sub(r"[^\n]", " ", text[i:j]))
                    i = j
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append('""' + " " * (j - i - 2))
            i = j
        elif c == "'" and not (i > 0 and (text[i - 1].isalnum() or
                                          text[i - 1] == "_")):
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append("''" + " " * (j - i - 2))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_suppressions(raw_text):
    """Maps line -> [(pass, justification)], raising on malformed ones.
    A suppression covers its own line and the first non-comment line
    after it, so a justification may continue over several // lines."""
    supp = {}
    lines = raw_text.splitlines()
    for num, line in enumerate(lines, 1):
        if not ALLOW_ANY_RE.search(line):
            continue
        m = ALLOW_RE.search(line.rstrip())
        if not m:
            raise ConfigError(
                f"line {num}: malformed ppstats-analyze comment; expected "
                "// ppstats-analyze: allow(<pass>): <justification>")
        pass_name, justification = m.group(1), (m.group(2) or "").strip()
        if pass_name not in PASSES:
            raise ConfigError(
                f"line {num}: unknown pass '{pass_name}' in suppression "
                f"(known: {', '.join(PASSES)})")
        supp.setdefault(num, []).append((pass_name, justification))
        target = num + 1
        while target <= len(lines) and \
                (not lines[target - 1].strip() or
                 lines[target - 1].strip().startswith("//")):
            target += 1
        if target != num:
            supp.setdefault(target, []).append((pass_name, justification))
    return supp


def tokenize(scrubbed):
    """Returns [(kind, text, line)]; '>>' split so template closers nest."""
    tokens = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(scrubbed):
        line += scrubbed.count("\n", pos, m.start())
        pos = m.start()
        kind = m.lastgroup
        text = m.group()
        if text == ">>":
            tokens.append(("op", ">", line))
            tokens.append(("op", ">", line))
        else:
            tokens.append((kind, text, line))
    return tokens


def match_forward(tokens, i, open_tok, close_tok):
    """Index just past the token closing the group opened at tokens[i].
    Returns None when the group never closes (heuristic misfire)."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i][1]
        if t == open_tok:
            depth += 1
        elif t == close_tok:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return None


def match_back(tokens, close_idx, open_tok, close_tok):
    depth = 0
    j = close_idx
    while j >= 0:
        t = tokens[j][1]
        if t == close_tok:
            depth += 1
        elif t == open_tok:
            depth -= 1
            if depth == 0:
                return j
        j -= 1
    return None


class TextFrontend:
    """Summarizes one file from tokens alone. Known approximations
    (documented in docs/STATIC_ANALYSIS.md, pinned by --self-test):
    name-based call resolution narrowed by member-field types, lock
    identities merged to `*::field` when the owner type is unknown, and
    lambdas modelled as synthetic functions entered only through their
    registration role."""

    name = "text"

    REGISTRARS_REACTOR = {"Post", "ArmTimer", "Add", "Arm"}
    REGISTRARS_POOL = {"Submit", "Run"}

    def __init__(self):
        self.field_index = {}  # class -> {field: type} across files

    def summarize(self, rel_path, raw_text):
        summary = FileSummary(rel_path)
        summary.suppressions = collect_suppressions(raw_text)
        tokens = tokenize(scrub(raw_text))
        self._collect_fields(tokens, summary)
        self._collect_functions(tokens, summary)
        return summary

    # -- class field index -------------------------------------------------

    def _collect_fields(self, tokens, summary):
        """Records `Type name;` member declarations per class (used to
        resolve `obj->mu` to `Class::mu` and receiver types)."""
        i, n = 0, len(tokens)
        while i < n:
            text = tokens[i][1]
            if text in ("class", "struct") and i + 1 < n and \
                    tokens[i + 1][0] == "id" and \
                    (i == 0 or tokens[i - 1][1] != "enum"):
                j = i + 2
                while j < n and tokens[j][1] not in ("{", ";"):
                    if tokens[j][1] == "<":
                        j = match_forward(tokens, j, "<", ">") or (j + 1)
                    else:
                        j += 1
                if j < n and tokens[j][1] == "{":
                    self._scan_class_body(tokens, j, tokens[i + 1][1],
                                          summary)
            i += 1

    def _scan_class_body(self, tokens, open_idx, cls, summary):
        fields = summary.fields.setdefault(cls, {})
        merged = self.field_index.setdefault(cls, {})
        close = match_forward(tokens, open_idx, "{", "}")
        end = (close or len(tokens) + 1) - 1
        i = open_idx + 1
        while i < end:
            text = tokens[i][1]
            if text == "{":  # inline method body / nested class: skip
                i = match_forward(tokens, i, "{", "}") or end
                continue
            if text == ";":
                i += 1
                continue
            j = i
            while j < end and tokens[j][1] not in (";", "{"):
                if tokens[j][1] == "(":
                    j = match_forward(tokens, j, "(", ")") or end
                elif tokens[j][1] == "<":
                    j = match_forward(tokens, j, "<", ">") or (j + 1)
                else:
                    j += 1
            self._record_field(tokens[i:j], fields, merged)
            if j < end and tokens[j][1] == "{":
                i = match_forward(tokens, j, "{", "}") or end
            else:
                i = j + 1

    @staticmethod
    def _record_field(stmt, fields, merged):
        """`std::vector<std::unique_ptr<TaskQueue>> queues_;` ->
        fields['queues_'] = 'TaskQueue'."""
        cut = len(stmt)
        for k, t in enumerate(stmt):
            if t[1] == "=" or t[1].startswith("PPSTATS_"):
                cut = k
                break
        head = stmt[:cut]
        if any(t[1] == "(" for t in head):
            return  # method declaration
        head_ids = [t[1] for t in head if t[0] == "id"]
        if len(head_ids) < 2:
            return
        name = head_ids[-1]
        type_ids = [t for t in head_ids[:-1]
                    if t not in WRAPPERS and t not in TYPEISH]
        if type_ids and (name[:1].islower() or name.endswith("_")):
            fields[name] = type_ids[-1]
            merged[name] = type_ids[-1]

    # -- function extraction ----------------------------------------------

    def _collect_functions(self, tokens, summary):
        """Walks the token stream; classifies every top-level '{' by
        lookback into namespace / class / function-body, and parses
        function bodies (which consumes them)."""
        i, n = 0, len(tokens)
        scope = []    # (kind 'ns'|'class', name)
        pending = []  # mirror for '}' handling
        while i < n:
            text = tokens[i][1]
            if text == "{":
                kind, name, header = self._classify_brace(tokens, i)
                if kind == "func":
                    qname, requires, def_line = header
                    cls = next((nm for k, nm in reversed(scope)
                                if k == "class"), "")
                    if "::" in qname:
                        cls = qname.rsplit("::", 2)[-2]
                    elif cls:
                        qname = f"{cls}::{qname}"
                    func = Func(qname, cls, summary.path, def_line)
                    func.requires = requires
                    end = match_forward(tokens, i, "{", "}") or n
                    self._parse_body(tokens, i + 1, end - 1, func, summary)
                    summary.functions.append(func)
                    i = end
                    continue
                if kind in ("ns", "class"):
                    scope.append((kind, name))
                    pending.append(kind)
                else:
                    pending.append("block")
            elif text == "}":
                if pending and pending[-1] in ("ns", "class"):
                    scope.pop()
                if pending:
                    pending.pop()
            i += 1

    def _classify_brace(self, tokens, i):
        j = i - 1
        if j >= 0 and tokens[j][1] == "namespace":
            return "ns", "", None
        if j >= 1 and tokens[j][0] == "id" and \
                tokens[j - 1][1] == "namespace":
            return "ns", tokens[j][1], None
        # class/struct X [: bases] {  — scan back bounded, stopping at
        # statement boundaries.
        k = j
        for _ in range(40):
            if k < 0:
                break
            t = tokens[k][1]
            if t in (";", "}", "{", ")"):
                break
            if t in ("class", "struct") and k + 1 <= j and \
                    tokens[k + 1][0] == "id":
                if k >= 1 and tokens[k - 1][1] == "enum":
                    break
                return "class", tokens[k + 1][1], None
            k -= 1
        header = self._match_function_header(tokens, i)
        if header is not None:
            return "func", None, header
        return "block", None, None

    def _match_function_header(self, tokens, brace_idx):
        """Looks back from a '{' for `name(params) quals [: init-list]`.
        Returns (qname, requires, line) or None."""
        requires = []
        j = brace_idx - 1
        for _ in range(400):
            if j < 0:
                return None
            t = tokens[j][1]
            if t == ")":
                start = match_back(tokens, j, "(", ")")
                if start is None:
                    return None
                head = tokens[start - 1] if start >= 1 else None
                if head is None or head[0] != "id":
                    return None
                name = head[1]
                if name == "PPSTATS_REQUIRES":
                    requires.extend(self._group_args(tokens, start, j))
                    j = start - 2
                    continue
                if name.startswith("PPSTATS_") or name in FUNC_QUALIFIERS:
                    j = start - 2
                    continue
                if name in KEYWORDS or name in TYPEISH:
                    return None
                qname, line, chain_start = self._read_qualified_name(
                    tokens, start - 1)
                if qname is None:
                    return None
                # Member-init-list entry (`: a_(1), b_(2) {`)? Then the
                # chain is preceded by ',' or ':' — keep scanning back
                # for the real parameter list.
                before = tokens[chain_start - 1][1] if chain_start >= 1 \
                    else ";"
                if before in (",", ":"):
                    j = chain_start - 1
                    continue
                return (qname, requires, line)
            if t in FUNC_QUALIFIERS or t in ("->", "&", "*", ">", "<",
                                             "::", ","):
                j -= 1
                continue
            if tokens[j][0] in ("id", "num"):  # trailing return type
                j -= 1
                continue
            return None
        return None

    @staticmethod
    def _group_args(tokens, open_idx, close_idx):
        args = []
        cur = []
        depth = 0
        for k in range(open_idx + 1, close_idx):
            t = tokens[k][1]
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            if t == "," and depth == 0:
                args.append("".join(cur))
                cur = []
            else:
                cur.append(t)
        if cur:
            args.append("".join(cur))
        return [a for a in args if a]

    @staticmethod
    def _read_qualified_name(tokens, idx):
        """Reads `A::B::Name` ending at tokens[idx]; returns
        (qname, line, chain_start_index)."""
        if idx < 0 or tokens[idx][0] != "id":
            return None, 0, idx
        parts = [tokens[idx][1]]
        line = tokens[idx][2]
        j = idx - 1
        while j >= 1 and tokens[j][1] == "::" and tokens[j - 1][0] == "id":
            parts.insert(0, tokens[j - 1][1])
            line = tokens[j - 1][2]
            j -= 2
        start = j + 1
        if j >= 0 and tokens[j][1] == "~":
            parts[-1] = "~" + parts[-1]
            start = j
        return "::".join(parts), line, start

    # -- body parsing ------------------------------------------------------

    def _parse_body(self, tokens, start, end, func, summary):
        """Parses tokens[start:end] as the body of `func`. Nested lambda
        literals become synthetic functions appended to the summary."""
        held = []           # [(mutex_id, depth)]
        local_types = {}    # var -> type name
        depth = 0
        whole = [self._mutex_id(r, func, local_types) for r in func.requires]
        stmt = []           # flat idents/ops of the current statement
        stmt_lambdas = []
        stmt_line = [0]

        def flush():
            if stmt:
                self._analyze_statement(stmt, stmt_line[0], func)
            stmt.clear()
            stmt_lambdas.clear()

        i = start
        while i < end:
            kind, text, line = tokens[i]
            if not stmt:
                stmt_line[0] = line
            if text == "{":
                depth += 1
                flush()
                i += 1
                continue
            if text == "}":
                depth -= 1
                flush()
                while held and held[-1][1] > depth:
                    held.pop()
                i += 1
                continue
            if text == ";":
                flush()
                i += 1
                continue
            if text == "[" and self._lambda_position(tokens, i):
                nxt = self._try_lambda(tokens, i, end, func, summary)
                if nxt is not None:
                    lam_qname, nxt_i = nxt
                    stmt.append(("id", f"<{lam_qname}>", line))
                    stmt_lambdas.append(lam_qname)
                    i = nxt_i
                    continue
            if kind == "id" and text not in KEYWORDS:
                decl = self._try_declaration(tokens, i, end)
                if decl is not None:
                    type_name, var_name, open_paren, nxt_i = decl
                    if type_name == "MutexLock":
                        expr = ""
                        if open_paren is not None:
                            close = match_forward(tokens, open_paren,
                                                  "(", ")")
                            if close is not None:
                                expr = "".join(
                                    t[1] for t in
                                    tokens[open_paren + 1:close - 1])
                        mid = self._mutex_id(expr, func, local_types)
                        func.acquisitions.append(
                            (mid, line,
                             tuple(whole + [h for h, _ in held])))
                        held.append((mid, depth))
                        i = nxt_i
                        continue
                    if type_name not in TYPEISH:
                        local_types[var_name] = type_name
                    # fall through: the declaration tokens still feed
                    # the statement (initializer idents matter to taint)
                if i + 1 < end and tokens[i + 1][1] == "(" and \
                        (i == start or tokens[i - 1][0] != "id"):
                    held_now = tuple(whole + [h for h, _ in held])
                    nxt_i = self._scan_call(tokens, i, end, func, summary,
                                            local_types, held_now, stmt,
                                            stmt_lambdas)
                    if nxt_i is not None:
                        i = nxt_i
                        continue
            stmt.append((kind, text, line))
            i += 1
        flush()
        self._bind_var_lambdas(func, summary)

    def _try_lambda(self, tokens, i, end, func, summary):
        """tokens[i] is '[' in expression position. If a lambda literal
        follows, parse its body as a synthetic function and return
        (qname, index past body), else None."""
        close = match_forward(tokens, i, "[", "]")
        if close is None or close >= end:
            return None
        j = close
        if tokens[j][1] == "(":
            j = match_forward(tokens, j, "(", ")")
            if j is None:
                return None
        while j < end and (tokens[j][1] in ("mutable", "noexcept", "->",
                                            "&", "*", "::", "<", ">") or
                           tokens[j][0] == "id"):
            j += 1
        if j >= end or tokens[j][1] != "{":
            return None
        body_end = match_forward(tokens, j, "{", "}")
        if body_end is None:
            return None
        lam = Func(f"{func.qname}::<lambda@{tokens[i][2]}>", func.cls,
                   func.file, tokens[i][2])
        lam.parent = func.qname
        self._parse_body(tokens, j + 1, body_end - 1, lam, summary)
        summary.functions.append(lam)
        return lam.qname, body_end

    def _scan_call(self, tokens, i, end, func, summary, local_types,
                   held_now, stmt, stmt_lambdas):
        """tokens[i] is a callee id, tokens[i+1] == '('. Records the
        Call (recursing into nested calls/lambdas in its arguments) and
        returns the index past the closing ')'."""
        close = match_forward(tokens, i + 1, "(", ")")
        if close is None or close > end + 1:
            return None
        receiver = self._receiver_chain(tokens, i)
        args, lambdas = self._scan_args(tokens, i + 1, close - 1, func,
                                        summary, local_types, held_now,
                                        stmt, stmt_lambdas)
        call = Call(tokens[i][1], receiver, args, tokens[i][2], held_now,
                    lambdas)
        func.calls.append(call)
        self._maybe_assign_role(call, summary)
        stmt.append(("id", tokens[i][1], tokens[i][2]))
        return close

    def _scan_args(self, tokens, open_idx, close_idx, func, summary,
                   local_types, held_now, stmt, stmt_lambdas):
        """Splits top-level args of the group tokens[open_idx..close_idx],
        recording nested calls and parsing lambda literal arguments."""
        args = []
        lambdas = []
        cur = []
        depth = 0
        k = open_idx + 1
        while k < close_idx:
            kind, text, line = tokens[k]
            if text == "[" and self._lambda_position(tokens, k):
                nxt = self._try_lambda(tokens, k, close_idx, func, summary)
                if nxt is not None:
                    lam_qname, nxt_k = nxt
                    lambdas.append(lam_qname)
                    stmt_lambdas.append(lam_qname)
                    cur.append(f"<{lam_qname}>")
                    stmt.append(("id", f"<{lam_qname}>", line))
                    k = nxt_k
                    continue
            if kind == "id" and text not in KEYWORDS and \
                    k + 1 < close_idx and tokens[k + 1][1] == "(" and \
                    tokens[k - 1][0] != "id":
                nxt_k = self._scan_call(tokens, k, close_idx, func, summary,
                                        local_types, held_now, stmt,
                                        stmt_lambdas)
                if nxt_k is not None:
                    cur.append(text)
                    cur.append("()")
                    k = nxt_k
                    continue
            if text in ("(", "[", "{"):
                depth += 1
            elif text in (")", "]", "}"):
                depth -= 1
            if text == "," and depth == 0:
                args.append("".join(cur))
                cur = []
            else:
                cur.append(text)
                if kind == "id":
                    stmt.append((kind, text, line))
            k += 1
        if cur:
            args.append("".join(cur))
        return [a for a in args if a], lambdas

    def _try_declaration(self, tokens, i, end):
        """Matches `[ns::]Type[<...>][&*]* name [=(;{]` at i. Returns
        (type_name, var_name, ctor_open_paren_or_None, next_index)."""
        type_ids = [tokens[i][1]]
        j = i + 1
        for _ in range(30):
            if j >= end:
                return None
            t = tokens[j][1]
            if t == "::" and j + 1 < end and tokens[j + 1][0] == "id":
                type_ids.append(tokens[j + 1][1])
                j += 2
            elif t == "<":
                close = match_forward(tokens, j, "<", ">")
                if close is None or close > end:
                    return None
                type_ids.extend(x[1] for x in tokens[j + 1:close - 1]
                                if x[0] == "id")
                j = close
            elif t in ("&", "*"):
                j += 1
            else:
                break
        if j >= end or tokens[j][0] != "id" or j == i:
            return None
        var_name = tokens[j][1]
        k = j + 1
        user_types = [t for t in type_ids
                      if t not in WRAPPERS and t not in TYPEISH]
        type_name = user_types[-1] if user_types else type_ids[-1]
        if "MutexLock" in type_ids:
            type_name = "MutexLock"
        if k < end and tokens[k][1] == "(":
            close = match_forward(tokens, k, "(", ")")
            if close is None:
                return None
            return (type_name, var_name, k, close)
        if k < end and tokens[k][1] in ("=", ";", "{"):
            return (type_name, var_name, None, j + 1)
        return None

    @staticmethod
    def _lambda_position(tokens, i):
        if i == 0:
            return True
        prev = tokens[i - 1][1]
        return prev in ("(", ",", "=", "{", "return", ";", "<<", "&&",
                        "||", "?", ":", "}")

    @staticmethod
    def _receiver_chain(tokens, i):
        """Receiver text left of the callee at tokens[i], e.g.
        `shards_[shard].reactor->Post(` -> 'shards_[].reactor'."""
        parts = []
        j = i - 1
        expecting_sep = True
        while j >= 0:
            t = tokens[j][1]
            if expecting_sep:
                if t in (".", "->", "::"):
                    parts.append(t)
                    expecting_sep = False
                    j -= 1
                else:
                    break
            else:
                if t == "]":
                    k = match_back(tokens, j, "[", "]")
                    if k is None:
                        break
                    parts.append("[]")
                    j = k - 1
                elif t == ")":
                    k = match_back(tokens, j, "(", ")")
                    if k is None:
                        break
                    parts.append("()")
                    j = k - 1
                elif tokens[j][0] == "id":
                    parts.append(t)
                    expecting_sep = True
                    j -= 1
                else:
                    break
        while parts and parts[-1] in (".", "->", "::"):
            parts.pop()
        return "".join(reversed(parts))

    def _maybe_assign_role(self, call, summary):
        if not call.lambdas:
            return
        role = None
        recv = call.receiver.lower()
        if call.name in self.REGISTRARS_REACTOR and \
                ("reactor" in recv or "wheel" in recv):
            role = "reactor"
        elif call.name in self.REGISTRARS_POOL and \
                ("pool" in recv or "threadpool" in recv):
            role = "pool"
        elif call.name == "thread" and "std" in recv:
            role = "thread"
        if role is None:
            return
        for qname in call.lambdas:
            summary.roles.setdefault(qname, role)

    def _bind_var_lambdas(self, func, summary):
        """`auto task = [..]{..}; pool.Submit(task);` — map the variable
        to the lambda and assign the role at the registration site."""
        bindings = {}
        for lhs, rhs_idents, _line in func.assignments:
            for ident in rhs_idents:
                if ident.startswith("<") and "<lambda@" in ident:
                    bindings[lhs.split(".")[0]] = ident.strip("<>")
        if not bindings:
            return
        for call in func.calls:
            hit = [bindings[a.strip("&*")] for a in call.args
                   if a.strip("&*") in bindings]
            if hit:
                proxy = Call(call.name, call.receiver, call.args, call.line,
                             call.held, hit)
                self._maybe_assign_role(proxy, summary)

    def _mutex_id(self, expr, func, local_types):
        """Resolves a lock expression to a stable identity."""
        expr = expr.replace("this->", "").replace("&", "").strip()
        m = re.match(r"^([A-Za-z_]\w*)(?:\[[^]]*\])?(?:->|\.)"
                     r"([A-Za-z_]\w*)$", expr)
        if m:
            base, field = m.group(1), m.group(2)
            base_type = local_types.get(base)
            if base_type is None and func.cls:
                base_type = self.field_index.get(func.cls, {}).get(base)
            if base_type:
                return f"{base_type}::{field}"
            return f"*::{field}"
        if re.match(r"^[A-Za-z_]\w*$", expr):
            owner = func.cls if func.cls else f"<{func.file}>"
            return f"{owner}::{expr}"
        tail = re.findall(r"[A-Za-z_]\w*", expr)
        return f"*::{tail[-1]}" if tail else (expr or "*::?")

    def _analyze_statement(self, stmt, line, func):
        idents = [t[1] for t in stmt if t[0] == "id"]
        if not idents:
            return
        if stmt[0][1] == "return":
            func.returns.append(set(idents[1:]))
            return
        depth = 0
        for k, t in enumerate(stmt):
            if t[1] in ("(", "[", "{"):
                depth += 1
            elif t[1] in (")", "]", "}"):
                depth -= 1
            elif t[1] in ("=", "+=", "|=") and depth == 0 and k > 0:
                lhs_chain = self._lhs_chain(stmt[:k])
                rhs_ids = [x[1] for x in stmt[k + 1:] if x[0] == "id"]
                if lhs_chain:
                    func.assignments.append((lhs_chain, rhs_ids, line))
                break
        ops = {t[1] for t in stmt if t[0] == "op"}
        if "<<" in ops:
            for sink in ("cout", "cerr", "clog"):
                if sink in idents:
                    func.streams.append((f"std::{sink}", set(idents), line))
                    break

    @staticmethod
    def _lhs_chain(tokens_before_eq):
        parts = []
        for t in tokens_before_eq:
            if t[0] == "id" and t[1] not in TYPEISH and t[1] not in KEYWORDS:
                parts.append(t[1])
            elif t[1] in (".", "->"):
                parts.append(".")
        chain = "".join(parts).strip(".")
        return chain.rsplit(",", 1)[-1]


# ---------------------------------------------------------------------------
# Clang frontend (optional, higher fidelity on declarations). Used when
# `clang.cindex` is importable; any per-file failure falls back to text.
# ---------------------------------------------------------------------------


class ClangFrontend:
    name = "clang"

    def __init__(self, build_dir):
        import clang.cindex as cindex  # gated: raises when unavailable
        self.cindex = cindex
        self.index = cindex.Index.create()
        self.db = None
        if build_dir and (pathlib.Path(build_dir) /
                          "compile_commands.json").exists():
            self.db = cindex.CompilationDatabase.fromDirectory(
                str(build_dir))
        self.text = TextFrontend()

    def summarize(self, rel_path, raw_text, abs_path=None):
        """Parses with libclang to validate the TU, then reuses the text
        summarizer for the model — libclang's AST confirms the file is
        well-formed C++ and supplies compile flags, while the summary
        stays identical across frontends (one set of pass semantics)."""
        if abs_path is not None and self.db is not None:
            try:
                cmds = self.db.getCompileCommands(str(abs_path))
                if cmds:
                    args = [a for a in list(cmds[0].arguments)[1:]
                            if a not in ("-c", "-o", str(abs_path))]
                    self.index.parse(str(abs_path), args=args)
            except Exception:
                pass  # diagnostics-only step; the model below still builds
        return self.text.summarize(rel_path, raw_text)


# ---------------------------------------------------------------------------
# Whole-program index.
# ---------------------------------------------------------------------------


class Program:
    def __init__(self, summaries):
        self.summaries = summaries
        self.functions = {}        # qname -> Func
        self.by_base = {}          # base name -> [Func]
        self.fields = {}           # class -> {field: type}
        self.suppressions = {}     # (file, line) -> [(pass, justification)]
        for s in summaries:
            for f in s.functions:
                self.functions[f.qname] = f
                self.by_base.setdefault(f.base(), []).append(f)
            for cls, fields in s.fields.items():
                self.fields.setdefault(cls, {}).update(fields)
            for line, entries in s.suppressions.items():
                self.suppressions[(s.path, line)] = entries
        for s in summaries:
            for qname, role in s.roles.items():
                if qname in self.functions and \
                        self.functions[qname].role is None:
                    self.functions[qname].role = role

    def resolve(self, call, caller):
        """Candidate definitions for a call site: name-based, narrowed
        to one class when the receiver is a member field whose type the
        field index knows."""
        cands = self.by_base.get(call.name, [])
        if not cands or len(cands) == 1:
            return cands
        recv = call.receiver
        if not recv or recv == "this":
            # Receiver-less call: C++ name lookup finds a member of the
            # caller's own class before any other function.
            own = [f for f in cands if f.cls == caller.cls and caller.cls]
            if own:
                return own
        if recv:
            base = recv.split(".")[0].split("->")[0].split("[")[0]
            recv_type = self.fields.get(caller.cls, {}).get(base)
            if recv_type is None and base and base[0].isupper():
                recv_type = base  # static call Class::Name(...)
            if recv_type:
                narrowed = [f for f in cands if f.cls == recv_type]
                if narrowed:
                    return narrowed
        return cands

    def suppressed(self, pass_name, file, line):
        for probe in (line, line - 1):
            for p, justification in self.suppressions.get((file, probe), []):
                if p == pass_name and justification:
                    return True
        return False


def filter_suppressed(findings, program):
    return [f for f in findings
            if not program.suppressed(f.pass_name, f.file, f.line)]


# ---------------------------------------------------------------------------
# Pass 1: lock-order.
# ---------------------------------------------------------------------------


def transitive_acquisitions(program, func, memo, stack):
    """All mutexes acquired by `func` or anything it calls, with one
    example site per mutex."""
    if func.qname in memo:
        return memo[func.qname]
    if func.qname in stack:
        return {}
    stack.add(func.qname)
    acq = {}
    for mid, line, _held in func.acquisitions:
        acq.setdefault(mid, (func.file, line))
    for call in func.calls:
        for callee in program.resolve(call, func):
            if "<lambda@" in callee.qname:
                continue  # lambdas run via their registration, not here
            for mid, site in transitive_acquisitions(
                    program, callee, memo, stack).items():
                acq.setdefault(mid, site)
    stack.discard(func.qname)
    memo[func.qname] = acq
    return acq


def build_lock_edges(program):
    """(A, B) -> (file, line, how) for every 'acquire B while holding A'."""
    edges = {}
    memo = {}
    for func in program.functions.values():
        for mid, line, held in func.acquisitions:
            for h in held:
                if h != mid:
                    edges.setdefault(
                        (h, mid),
                        (func.file, line,
                         f"{func.qname} acquires {mid} while holding {h}"))
        for call in func.calls:
            if not call.held:
                continue
            for callee in program.resolve(call, func):
                if "<lambda@" in callee.qname:
                    continue
                acq = transitive_acquisitions(program, callee, memo, set())
                for mid, site in acq.items():
                    for h in call.held:
                        if h == mid:
                            continue
                        edges.setdefault(
                            (h, mid),
                            (site[0], site[1],
                             f"{func.qname} calls {callee.qname} which "
                             f"acquires {mid} while {h} is held"))
    return edges


def find_cycles(edges):
    """Returns cycles as node lists [a, b, ..., a], deduped by node set."""
    graph = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
    cycles = []
    seen = set()
    for (a, b) in sorted(edges):
        prev = {b: None}
        queue = [b]
        while queue:
            node = queue.pop(0)
            if node == a:
                break
            for nxt in sorted(graph.get(node, ())):
                if nxt not in prev:
                    prev[nxt] = node
                    queue.append(nxt)
        if a not in prev:
            continue
        path = [a]
        while path[-1] != b:
            path.append(prev[path[-1]])
        path.reverse()  # b ... a
        cycle = [a] + path  # a -> b -> ... -> a
        key = frozenset(cycle)
        if key not in seen:
            seen.add(key)
            cycles.append(cycle)
    return cycles


def pass_lock_order(program, whitelist):
    findings = []
    edges = build_lock_edges(program)
    # Direct recursive acquisition (same resolved mutex locked twice in
    # nested scopes of one function) — only for precisely-resolved ids;
    # merged `*::field` identities may be two different objects.
    for func in program.functions.values():
        for mid, line, held in func.acquisitions:
            if mid in held and not mid.startswith("*::"):
                findings.append(Finding(
                    "lock-order", func.file, line,
                    f"recursive acquisition of non-recursive mutex {mid} "
                    f"in {func.qname}"))
    live = {e: site for e, site in edges.items() if e not in whitelist}
    for cycle in find_cycles(live):
        trace = []
        for x, y in zip(cycle, cycle[1:]):
            file, line, how = live.get((x, y),
                                       edges.get((x, y), ("?", 0, "?")))
            trace.append(f"{x} -> {y}  ({file}:{line}: {how})")
        file, line, _how = live[(cycle[0], cycle[1])]
        findings.append(Finding(
            "lock-order", file, line,
            "lock-order cycle: " + " -> ".join(cycle), trace))
    return findings


def load_whitelist(path):
    """Lines: `A -> B  reason text`; '#' comments. A missing reason is a
    configuration error, mirroring the suppression rule."""
    whitelist = {}
    if path is None or not path.exists():
        return whitelist
    for num, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^(\S+)\s*->\s*(\S+)\s+(\S.*)$", line)
        if not m:
            raise ConfigError(
                f"{path.name}:{num}: expected "
                "'<mutexA> -> <mutexB> <reason>'")
        whitelist[(m.group(1), m.group(2))] = m.group(3)
    return whitelist


# ---------------------------------------------------------------------------
# Pass 2: reactor-blocking.
# ---------------------------------------------------------------------------

BLOCKING_WAITS = {"Wait", "WaitFor", "WaitUntil"}
BLOCKING_SLEEPS = {"sleep", "usleep", "nanosleep", "sleep_for",
                   "sleep_until"}
BLOCKING_POLLS = {"poll", "ppoll", "select", "epoll_wait"}
RAW_SYSCALLS = {"read", "write", "recv", "send", "accept", "connect"}


def classify_blocking(call, func, strict):
    """A description if this call is a denylisted blocking operation in
    reactor context, else None."""
    name = call.name
    recv = call.receiver.lower()
    if name in BLOCKING_WAITS and func.cls != "CondVar":
        return f"condition-variable {name}() blocks the shard"
    if name in BLOCKING_SLEEPS:
        return f"{name}() sleeps on the event-loop thread"
    if name in BLOCKING_POLLS and func.cls not in ("Reactor", "TimerWheel"):
        return f"blocking {name}() outside the Reactor backend"
    if name == "Run" and ("pool" in recv or "threadpool" in recv):
        return "ThreadPool::Run() is a barrier; it blocks until the " \
               "batch drains"
    if name == "Submit" and ("pool" in recv or "threadpool" in recv):
        return "unbounded ThreadPool::Submit() from a shard (bound the " \
               "backlog the shard can build and cite the bound in an " \
               "allow comment)"
    if name in ("Receive", "ReceiveFrame"):
        return "blocking Channel::Receive() on the event-loop thread"
    if name == "Send" and ("channel" in recv or "chan" in recv or
                           "conn" in recv):
        return "blocking Channel::Send() on the event-loop thread"
    if strict and name in RAW_SYSCALLS and call.receiver == "":
        return f"raw ::{name}() syscall in reactor context (verify the " \
               "fd is non-blocking)"
    return None


def pass_reactor_blocking(program, strict=False):
    findings = []
    roots = [f for f in program.functions.values() if f.role == "reactor"]
    for root in roots:
        stack = [(root, (root.qname,))]
        visited = {root.qname}
        while stack:
            func, path = stack.pop()
            for call in func.calls:
                desc = classify_blocking(call, func, strict)
                if desc is not None:
                    findings.append(Finding(
                        "reactor-blocking", func.file, call.line,
                        f"{desc} — reachable from reactor callback "
                        f"registered at {root.file}:{root.line}",
                        [" -> ".join(path + (call.name + "()",))]))
                for callee in program.resolve(call, func):
                    if callee.role in ("pool", "thread"):
                        continue  # explicitly dispatched off the shard
                    if "<lambda@" in callee.qname and \
                            callee.role != "reactor":
                        continue  # runs wherever it was registered
                    if callee.qname not in visited:
                        visited.add(callee.qname)
                        stack.append((callee, path + (callee.qname,)))
    unique = {}
    for f in findings:
        key = (f.file, f.line, f.message.split(" — reachable")[0])
        unique.setdefault(key, f)
    return list(unique.values())


# ---------------------------------------------------------------------------
# Pass 3: secret-taint.
# ---------------------------------------------------------------------------

SECRET_METHODS = {"lambda", "hp", "hq", "p_squared", "q_squared"}
SECRET_PQ = {"p", "q", "mu"}  # secret only on key-like receivers
SECRET_RECEIVER_RE = re.compile(r"priv|key|sk_|secret", re.IGNORECASE)
SECRET_SOURCES = {"DeriveZeroShare"}
SECRET_NAME_RE = re.compile(r"blind_?seed|shard_?blind", re.IGNORECASE)
DECLASSIFIERS = {"Decrypt", "DecryptRaw", "DecryptCrt", "size", "empty",
                 "ok", "status", "bit_length", "BitLength", "message"}
# The key serialization layer is where key material is supposed to be
# written; calls into it are not leaks.
CRYPTO_OK_CALLS = {"SerializePrivateKey", "DeserializePrivateKey",
                   "WritePrivateKey", "ReadPrivateKey", "WriteBigInt",
                   "ReadBigInt", "FromPrimes", "DeriveZeroShare",
                   "FromHex", "FromBytes", "FromDecimal"}
PRINTF_FAMILY = {"printf", "fprintf", "snprintf", "vfprintf", "puts",
                 "fputs"}
OBS_SINK_METHODS = {"Increment", "Add", "Set", "Observe", "Record"}
EXPORTER_SINKS = {"StatsToJson", "StatsToText", "TraceToJsonl",
                  "WriteFileAtomic"}


def secret_call_names(func):
    """Names of calls in `func` whose result is secret at the source."""
    names = set()
    for call in func.calls:
        if call.name in SECRET_METHODS or call.name in SECRET_SOURCES:
            names.add(call.name)
        elif call.name in SECRET_PQ and \
                SECRET_RECEIVER_RE.search(call.receiver or ""):
            names.add(call.name)
    return names


def local_taint(func, tainted_params, tainted_fields, tainted_returns):
    """Fixpoint over this function's assignments. Returns the set of
    tainted identifiers (locals + secret call names)."""
    tainted = set(tainted_params.get(func.qname, ()))
    hot_calls = secret_call_names(func)
    hot_calls |= {c.name for c in func.calls if c.name in tainted_returns}

    def is_hot(ident):
        return (ident in tainted or ident in hot_calls or
                ident in tainted_fields or SECRET_NAME_RE.search(ident))

    for _ in range(4):
        changed = False
        for lhs, rhs, _line in func.assignments:
            if any(is_hot(r) for r in rhs):
                base = lhs.split(".")[0]
                if "." in lhs:
                    field = lhs.rsplit(".", 1)[-1]
                    if field not in tainted_fields and \
                            not field.startswith("<"):
                        tainted_fields.add(field)
                        changed = True
                if base and base not in tainted and \
                        not base.startswith("<"):
                    tainted.add(base)
                    changed = True
        if not changed:
            break
    return tainted | hot_calls


def pass_secret_taint(program):
    findings = []
    tainted_params = {}   # callee qname -> set of positional indexes? names
    tainted_fields = set()
    tainted_returns = set()

    # Interprocedural fixpoint: returns and arguments carry taint.
    for _ in range(4):
        changed = False
        for func in program.functions.values():
            hot = local_taint(func, tainted_params, tainted_fields,
                              tainted_returns)
            for ret_idents in func.returns:
                if any(i in hot or SECRET_NAME_RE.search(i)
                       for i in ret_idents):
                    base = func.base()
                    if base not in DECLASSIFIERS and \
                            base not in tainted_returns and \
                            "<lambda@" not in base:
                        tainted_returns.add(base)
                        changed = True
        if not changed:
            break

    def arg_idents(call):
        ids = set()
        for arg in call.args:
            ids |= set(re.findall(r"[A-Za-z_]\w*", arg))
        return ids

    for func in program.functions.values():
        hot = local_taint(func, tainted_params, tainted_fields,
                          tainted_returns)

        def hot_in(idents):
            bad = sorted(i for i in idents
                         if i in hot or SECRET_NAME_RE.search(i))
            return bad

        for sink_name, idents, line in func.streams:
            bad = hot_in(idents)
            if bad:
                findings.append(Finding(
                    "secret-taint", func.file, line,
                    f"secret-derived value '{bad[0]}' reaches log sink "
                    f"{sink_name} in {func.qname}"))
        for call in func.calls:
            if call.name in CRYPTO_OK_CALLS or call.name in DECLASSIFIERS:
                continue
            bad = hot_in(arg_idents(call))
            if not bad:
                continue
            if call.name in PRINTF_FAMILY:
                findings.append(Finding(
                    "secret-taint", func.file, call.line,
                    f"secret-derived value '{bad[0]}' passed to "
                    f"{call.name}() in {func.qname}"))
            elif call.name in OBS_SINK_METHODS and \
                    ("metric" in call.receiver.lower() or
                     "counter" in call.receiver.lower() or
                     "gauge" in call.receiver.lower() or
                     "hist" in call.receiver.lower() or
                     call.receiver.endswith("_")):
                findings.append(Finding(
                    "secret-taint", func.file, call.line,
                    f"secret-derived value '{bad[0]}' recorded into "
                    f"metrics via {call.name}() in {func.qname}"))
            elif call.name in EXPORTER_SINKS:
                findings.append(Finding(
                    "secret-taint", func.file, call.line,
                    f"secret-derived value '{bad[0]}' serialized by "
                    f"exporter {call.name}() in {func.qname}"))
            elif call.name == "ObsSpan":
                findings.append(Finding(
                    "secret-taint", func.file, call.line,
                    f"secret-derived value '{bad[0]}' attached to an "
                    f"ObsSpan in {func.qname}"))
    return findings


# ---------------------------------------------------------------------------
# Driver: file discovery, caching, reporting, self-test.
# ---------------------------------------------------------------------------


def discover_files(root, build_dir, explicit_paths):
    if explicit_paths:
        resolved = []
        for p in explicit_paths:
            path = pathlib.Path(p)
            if not path.is_absolute() and not path.exists():
                path = root / path  # relative args resolve against --root
            if not path.exists():
                raise ConfigError(f"no such file: {p}")
            resolved.append(path.resolve())
        return resolved
    files = []
    seen = set()
    db = None
    if build_dir is not None:
        db_path = pathlib.Path(build_dir) / "compile_commands.json"
        if db_path.exists():
            db = json.loads(db_path.read_text())
    if db:
        for entry in db:
            p = pathlib.Path(entry["directory"], entry["file"]).resolve()
            try:
                rel = p.relative_to(root)
            except ValueError:
                continue
            if rel.parts[0] not in SOURCE_DIRS or \
                    set(rel.parts) & EXCLUDED_PARTS:
                continue
            if p not in seen:
                seen.add(p)
                files.append(p)
    for d in SOURCE_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            # With a compilation database only headers are added here
            # (headers are not TUs but carry annotations and inline
            # methods); without one, everything is scanned.
            if p.suffix not in CHECKED_SUFFIXES:
                continue
            if db and p.suffix != ".h":
                continue
            if set(p.relative_to(root).parts) & EXCLUDED_PARTS:
                continue
            if p not in seen:
                seen.add(p)
                files.append(p)
    return files


CACHE_VERSION = "1"


def summarize_files(files, root, frontend, cache_dir):
    """Per-file summaries, cached by content hash (ccache-style stamp
    files: an unchanged file loads its stamp, a changed one re-parses)."""
    import pickle
    summaries = []
    tool_hash = hashlib.sha256(
        pathlib.Path(__file__).read_bytes()).hexdigest()[:16]
    for path in files:
        raw = path.read_text(encoding="utf-8", errors="replace")
        try:
            rel = str(path.relative_to(root))
        except ValueError:
            rel = str(path)
        stamp = None
        if cache_dir is not None:
            digest = hashlib.sha256(
                (CACHE_VERSION + tool_hash + frontend.name + rel +
                 raw).encode()).hexdigest()
            stamp = cache_dir / f"{digest}.summary"
            if stamp.exists():
                try:
                    cached = pickle.loads(stamp.read_bytes())
                    if cached.path == rel:
                        summaries.append(cached)
                        continue
                except Exception:
                    pass
        try:
            if isinstance(frontend, ClangFrontend):
                summary = frontend.summarize(rel, raw, abs_path=path)
            else:
                summary = frontend.summarize(rel, raw)
        except ConfigError as err:
            raise ConfigError(f"{rel}: {err}") from None
        summaries.append(summary)
        if stamp is not None:
            try:
                stamp.write_bytes(pickle.dumps(summary))
            except OSError:
                pass
    return summaries


def run_passes(summaries, selected, whitelist, strict):
    program = Program(summaries)
    findings = []
    if "lock-order" in selected:
        findings.extend(pass_lock_order(program, whitelist))
    if "reactor-blocking" in selected:
        findings.extend(pass_reactor_blocking(program, strict))
    if "secret-taint" in selected:
        findings.extend(pass_secret_taint(program))
    findings = filter_suppressed(findings, program)
    findings.sort(key=lambda f: (f.pass_name, f.file, f.line))
    return findings, program


def self_test():
    """Runs every pass against the seeded fixtures and asserts each
    deliberate violation is detected, the suppression syntax
    round-trips, and malformed configuration is rejected."""
    fixture_dir = pathlib.Path(__file__).resolve().parent / "fixtures"
    failures = []

    def check(name, ok, detail=""):
        print(f"self-test: {name:<46} {'ok' if ok else 'FAIL'}"
              f"{'  ' + detail if detail else ''}")
        if not ok:
            failures.append(name)

    def run_on(names, passes, whitelist=None):
        fe = TextFrontend()
        summaries = [fe.summarize(n, (fixture_dir / n).read_text())
                     for n in names]
        return run_passes(summaries, passes, whitelist or {}, strict=False)

    findings, _ = run_on(["deadlock_a.cc", "deadlock_b.cc"], {"lock-order"})
    check("lock-order detects seeded cross-TU cycle",
          any("cycle" in f.message for f in findings),
          f"{len(findings)} finding(s)")

    findings, _ = run_on(["blocking_shard.cc"], {"reactor-blocking"})
    check("reactor-blocking detects sleep in shard callback",
          any("sleep" in f.message for f in findings),
          f"{len(findings)} finding(s)")
    check("reactor-blocking spares pool-dispatched work",
          not any("PoolSideFold" in " ".join(f.trace) for f in findings))

    findings, _ = run_on(["secret_leak.cc"], {"secret-taint"})
    check("secret-taint detects key-to-log leak",
          any("log sink" in f.message for f in findings),
          f"{len(findings)} finding(s)")

    findings, _ = run_on(["suppressed_ok.cc"], set(PASSES))
    check("justified suppression silences the finding", not findings,
          "; ".join(f.message for f in findings))

    try:
        run_on(["bad_suppression.cc"], {"secret-taint"})
        check("unknown pass in allow() is rejected", False)
    except ConfigError as err:
        check("unknown pass in allow() is rejected", True, str(err))

    findings, _ = run_on(["unjustified_suppression.cc"], {"secret-taint"})
    check("allow() without justification keeps the finding",
          bool(findings))

    try:
        load_whitelist(fixture_dir / "bad_whitelist.txt")
        check("whitelist entry without reason is rejected", False)
    except ConfigError as err:
        check("whitelist entry without reason is rejected", True, str(err))

    wl = load_whitelist(fixture_dir / "fixture_whitelist.txt")
    findings, _ = run_on(["deadlock_a.cc", "deadlock_b.cc"],
                         {"lock-order"}, wl)
    check("whitelisted edge breaks the cycle",
          not any("cycle" in f.message for f in findings))

    print()
    if failures:
        print(f"self-test: {len(failures)} FAILURE(S): "
              f"{', '.join(failures)}")
        return 1
    print("self-test: all checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        prog="ppstats_analyze",
        description="cross-TU lock-order / reactor-blocking / "
                    "secret-taint analyzer (see module docstring)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this "
                             "file)")
    parser.add_argument("-p", "--build-dir", default=None,
                        help="build dir containing compile_commands.json")
    parser.add_argument("--passes", default=",".join(PASSES),
                        help=f"comma list from: {', '.join(PASSES)}")
    parser.add_argument("--frontend", default="auto",
                        choices=("auto", "text", "clang"))
    parser.add_argument("--json", default=None,
                        help="write machine-readable findings JSON here")
    parser.add_argument("--cache-dir", default=None,
                        help="stamp-file cache for per-file summaries")
    parser.add_argument("--whitelist", default=None,
                        help="lock-order whitelist (default: "
                             "tools/analyze/lock_order_whitelist.txt)")
    parser.add_argument("--strict-syscalls", action="store_true",
                        help="also flag raw read/write/recv/send/accept "
                             "in reactor context")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded fixture self-test and exit")
    parser.add_argument("paths", nargs="*",
                        help="restrict to these files (default: src+tools)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root).resolve() if args.root else \
        pathlib.Path(__file__).resolve().parents[2]

    selected = set()
    for name in args.passes.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in PASSES:
            print(f"ppstats_analyze: unknown pass '{name}'",
                  file=sys.stderr)
            return 2
        selected.add(name)

    frontend = None
    if args.frontend in ("auto", "clang"):
        try:
            frontend = ClangFrontend(args.build_dir)
        except Exception as err:
            if args.frontend == "clang":
                print(f"ppstats_analyze: clang frontend unavailable: {err}",
                      file=sys.stderr)
                return 2
    if frontend is None:
        frontend = TextFrontend()

    whitelist_path = pathlib.Path(args.whitelist) if args.whitelist else \
        pathlib.Path(__file__).resolve().parent / "lock_order_whitelist.txt"
    try:
        whitelist = load_whitelist(whitelist_path)
    except ConfigError as err:
        print(f"ppstats_analyze: {err}", file=sys.stderr)
        return 2

    cache_dir = None
    if args.cache_dir:
        cache_dir = pathlib.Path(args.cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)

    files = discover_files(root, args.build_dir, args.paths)
    try:
        summaries = summarize_files(files, root, frontend, cache_dir)
        findings, _program = run_passes(summaries, selected, whitelist,
                                        args.strict_syscalls)
    except ConfigError as err:
        print(f"ppstats_analyze: {err}", file=sys.stderr)
        return 2

    if args.json:
        payload = {
            "tool": "ppstats_analyze",
            "frontend": frontend.name,
            "files": len(files),
            "passes": sorted(selected),
            "findings": [f.as_json() for f in findings],
        }
        pathlib.Path(args.json).write_text(json.dumps(payload, indent=2) +
                                           "\n")

    for f in findings:
        print(f.render())
    if findings:
        print(f"\nppstats_analyze: {len(findings)} finding(s) over "
              f"{len(files)} files [{frontend.name} frontend]",
              file=sys.stderr)
        return 1
    print(f"ppstats_analyze: OK ({len(files)} files, "
          f"passes: {', '.join(sorted(selected))}, "
          f"{frontend.name} frontend)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
