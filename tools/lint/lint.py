#!/usr/bin/env python3
"""Project lint: repo-specific invariants clang-tidy can't express.

Rules (see DESIGN.md "Static analysis & lock discipline"):

  raw-mutex       No std::mutex / std::lock_guard / std::unique_lock /
                  std::scoped_lock / std::condition_variable / shared or
                  recursive mutexes outside src/util/. All locking goes
                  through util::Mutex / util::MutexLock / util::CondVar
                  so it carries thread-safety annotations.
  void-suppress   No `(void)expr;` discards anywhere. A dropped Status /
                  Result is acknowledged with .IgnoreError(); an unused
                  parameter is named [[maybe_unused]].
  nondeterminism  No wall-clock / RNG calls in src/ outside
                  src/util/rng.* and src/util/date.*. Query results and
                  index layout must be a function of the input alone.
  engine-term-copy
                  No Dictionary::Decode result bound to a by-value
                  std::string (or auto) in src/engine/. Decoded terms
                  are views of the Dictionary's stable copy (a const
                  std::string& or a std::string_view), so the result
                  tail copies no term per row (DESIGN.md §13).
  nodiscard-meta  src/util/status.h keeps Status and Result<T> marked
                  [[nodiscard]] (the compiler enforces "no Status
                  constructed and dropped" from there).
  ignore-error-justify
                  Every .IgnoreError() call site carries a justification
                  comment — `// status-ignored: <why>` on the same line
                  or the line above. rdftx-analyzer's status-propagation
                  check recognizes the same convention.
  conformance-pairing
                  Every tests/conformance/cases/*.rq query ships with
                  exactly one paired .expected or .error file (and no
                  expectation file is an orphan), so the conformance
                  suite can never silently skip a query.

Each directory under tools/lint/fixtures/ is a miniature source root
for the textual rules: a line marked `// expect: <rule>` must draw that
finding and every other line none. The fixtures run with every lint
run, and a mismatch is a finding, so a rule cannot silently stop firing.

The textual layer always runs and needs only Python. When clang-query
and a compile_commands.json are available (the CI lint job; any local
clang install), the AST rules in tools/lint/rules/*.qry run as well and
catch spellings the regexes can't (aliases, macro expansion, a Status
temporary discarded through a cast).

With --analyzer BIN (or --analyzer auto), the rdftx-analyzer LibTooling
binary (tools/analyzer/, built by the `analyzer` preset when Clang dev
libraries are present) additionally runs over the compile database and
its findings — lock-order, epoch-lifetime, durability, status,
result-unwrap, interval-soundness and decode-overflow diagnostics —
are merged into the lint report. --check=<name>
(repeatable or comma-separated) narrows the analyzer to the named
checks; the textual rules still run. The analyzer keeps a persisted
summary cache next to the compile database so repeat runs reparse only
changed translation units (--analyzer-cache PATH overrides the
location, --analyzer-cache none disables it). Compile-database entries
whose source files no longer exist (a stale compile_commands.json) are
skipped with a notice instead of failing the run; regenerate the
database with cmake to re-cover them.

Usage:
  tools/lint/lint.py [--root DIR] [--compile-commands build/compile_commands.json]
                     [--clang-query BIN] [--require-clang-query]
                     [--analyzer BIN|auto] [--require-analyzer]
                     [--check NAME[,NAME...]] [--analyzer-cache PATH|none]
                     [--json]

Exit status: 0 = clean, 1 = findings, 2 = configuration error (a
requested tool is unavailable, or the analyzer itself failed to parse —
the analyzer binary uses the same 0/1/2 convention). --json writes one
machine-readable JSON object to stdout (notices go to stderr) with the
same exit-status contract.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

SOURCE_DIRS = ["src", "tests", "bench", "fuzz", "examples"]
SOURCE_EXT = {".cc", ".cpp", ".h", ".hpp"}

# ---------------------------------------------------------------------------
# Textual rules
# ---------------------------------------------------------------------------

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b")

# `(void)` followed by something discardable; `(void*)`, `(void) {`
# (function signatures) and `f(void)` never match.
VOID_SUPPRESS_RE = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_(]")

NONDETERMINISM_RE = re.compile(
    r"(system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b"
    r"|\bstd::random_device\b"
    r"|\bstd::mt19937(_64)?\b"
    r"|\bstd::minstd_rand0?\b"
    r"|\b(srand|rand|rand_r|drand48|lrand48|random)\s*\("
    r"|\b(time|gettimeofday|clock_gettime|localtime|gmtime)\s*\(")

# A decoded term copied into a std::string (or an auto, which deduces
# one) declared on the line: `std::string s = dict.Decode(id);`,
# `std::string s(d->Decode(id))`, `auto s = dict.Decode(id)`, or a
# `std::string(dict.Decode(id))` temporary. References and string_views
# do not match; SafeDecode is not Decode.
ENGINE_TERM_COPY_RE = re.compile(
    r"(?:\bstd::string\s+\w+\s*[=({]|\bauto\s+\w+\s*=|\bstd::string\s*[({])"
    r"[^;]*\bDecode\s*\(")

STRING_OR_CHAR_RE = re.compile(
    r'"(?:\\.|[^"\\])*"' r"|'(?:\\.|[^'\\])*'")
LINE_COMMENT_RE = re.compile(r"//[^\n]*")
BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving newlines
    so reported line numbers stay true."""

    def blank(m):
        return re.sub(r"[^\n]", " ", m.group(0))

    text = BLOCK_COMMENT_RE.sub(blank, text)
    text = LINE_COMMENT_RE.sub(blank, text)
    text = STRING_OR_CHAR_RE.sub(blank, text)
    return text


def is_under(path, prefix):
    return path == prefix or path.startswith(prefix + os.sep)


def rule_applies(rule, rel):
    rel = rel.replace(os.sep, "/")
    if rule == "raw-mutex":
        # Everywhere except the annotated wrappers' own home.
        return not rel.startswith("src/util/")
    if rule == "void-suppress":
        return True
    if rule == "nondeterminism":
        # Library code only; tests and benches legitimately read clocks.
        if not rel.startswith("src/"):
            return False
        return not re.match(r"src/util/(rng|date)\.(h|cc)$", rel)
    if rule == "engine-term-copy":
        return rel.startswith("src/engine/")
    raise ValueError(rule)


def textual_findings(root):
    findings = []
    files = []
    for d in SOURCE_DIRS:
        top = os.path.join(root, d)
        for dirpath, _, names in os.walk(top):
            for name in sorted(names):
                if os.path.splitext(name)[1] in SOURCE_EXT:
                    files.append(os.path.join(dirpath, name))
    for path in sorted(files):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        for lineno, line in enumerate(text.splitlines(), start=1):
            for rule, regex in (
                ("raw-mutex", RAW_MUTEX_RE),
                ("void-suppress", VOID_SUPPRESS_RE),
                ("nondeterminism", NONDETERMINISM_RE),
                ("engine-term-copy", ENGINE_TERM_COPY_RE),
            ):
                if rule_applies(rule, rel) and regex.search(line):
                    findings.append(
                        f"{rel}:{lineno}: [{rule}] {line.strip()}")
    return findings


FIXTURE_EXPECT_RE = re.compile(r"//\s*expect:\s*([\w-]+)")
FINDING_RE = re.compile(
    r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[\w-]+)\]")


def fixture_findings(root):
    """Runs the textual rules over each tools/lint/fixtures/<name>/ root
    and reports every line whose findings differ from its `// expect:`
    marks."""
    findings = []
    fixtures = os.path.join(root, "tools", "lint", "fixtures")
    if not os.path.isdir(fixtures):
        return findings
    for name in sorted(os.listdir(fixtures)):
        fixture = os.path.join(fixtures, name)
        if not os.path.isdir(fixture):
            continue
        want = set()
        for dirpath, _, names in os.walk(fixture):
            for fname in sorted(names):
                path = os.path.join(dirpath, fname)
                rel = os.path.relpath(path, fixture)
                with open(path, encoding="utf-8", errors="replace") as f:
                    for lineno, line in enumerate(f, start=1):
                        for m in FIXTURE_EXPECT_RE.finditer(line):
                            want.add((rel, lineno, m.group(1)))
        got = set()
        for finding in textual_findings(fixture):
            m = FINDING_RE.match(finding)
            got.add((m.group("path"), int(m.group("line")), m.group("rule")))
        prefix = os.path.relpath(fixture, root).replace(os.sep, "/")
        for rel, lineno, rule in sorted(want - got):
            findings.append(f"{prefix}/{rel}:{lineno}: [lint-fixture] "
                            f"expected a [{rule}] finding, got none")
        for rel, lineno, rule in sorted(got - want):
            findings.append(f"{prefix}/{rel}:{lineno}: [lint-fixture] "
                            f"unexpected [{rule}] finding")
    return findings


IGNORE_ERROR_RE = re.compile(r"\.\s*IgnoreError\s*\(")
STATUS_IGNORED_COMMENT_RE = re.compile(r"//.*status-ignored:")


def ignore_error_findings(root):
    """IgnoreError() without a `// status-ignored: <why>` justification
    on the same line or the line above. Works on raw text (the comments
    are the point). Skips src/util/status.h, where IgnoreError itself is
    declared."""
    findings = []
    for d in SOURCE_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, d)):
            for name in sorted(names):
                if os.path.splitext(name)[1] not in SOURCE_EXT:
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                if rel == "src/util/status.h":
                    continue
                with open(path, encoding="utf-8", errors="replace") as f:
                    lines = f.read().splitlines()
                for lineno, line in enumerate(lines, start=1):
                    if not IGNORE_ERROR_RE.search(line):
                        continue
                    prev = lines[lineno - 2] if lineno >= 2 else ""
                    if STATUS_IGNORED_COMMENT_RE.search(line) or \
                            STATUS_IGNORED_COMMENT_RE.search(prev):
                        continue
                    findings.append(
                        f"{rel}:{lineno}: [ignore-error-justify] IgnoreError() "
                        "without a '// status-ignored: <why>' comment on this "
                        "or the preceding line")
    return findings


def nodiscard_meta_findings(root):
    findings = []
    status_h = os.path.join(root, "src", "util", "status.h")
    try:
        with open(status_h, encoding="utf-8") as f:
            text = f.read()
    except OSError:
        return [f"src/util/status.h: [nodiscard-meta] file missing"]
    for decl in (r"class\s*\[\[nodiscard\]\]\s*Status",
                 r"class\s*\[\[nodiscard\]\]\s*Result"):
        if not re.search(decl, text):
            findings.append(
                "src/util/status.h: [nodiscard-meta] expected declaration "
                f"matching /{decl}/ — Status and Result must stay "
                "[[nodiscard]]")
    return findings


def conformance_pairing_findings(root):
    """Every tests/conformance/cases/<name>.rq must pair with exactly one
    of <name>.expected or <name>.error, and no expectation file may be an
    orphan. The conformance runner enforces the same rule at runtime;
    lint catches it before a test run."""
    findings = []
    cases = os.path.join(root, "tests", "conformance", "cases")
    if not os.path.isdir(cases):
        return findings
    names = sorted(os.listdir(cases))
    stems = {}
    for name in names:
        stem, ext = os.path.splitext(name)
        if ext in (".rq", ".expected", ".error"):
            stems.setdefault(stem, set()).add(ext)
        else:
            findings.append(
                f"tests/conformance/cases/{name}: [conformance-pairing] "
                "unexpected file; only .rq/.expected/.error belong here")
    for stem, exts in sorted(stems.items()):
        if ".rq" not in exts:
            findings.append(
                f"tests/conformance/cases/{stem}: [conformance-pairing] "
                "expectation file without a .rq query")
        elif ".expected" in exts and ".error" in exts:
            findings.append(
                f"tests/conformance/cases/{stem}.rq: [conformance-pairing] "
                "has both .expected and .error; keep exactly one")
        elif ".expected" not in exts and ".error" not in exts:
            findings.append(
                f"tests/conformance/cases/{stem}.rq: [conformance-pairing] "
                "query without a paired .expected or .error file")
    return findings


# ---------------------------------------------------------------------------
# clang-query AST rules
# ---------------------------------------------------------------------------

MATCH_COUNT_RE = re.compile(r"^(\d+) match(?:es)?\.$", re.MULTILINE)

CLANG_QUERY_CANDIDATES = ("clang-query", "clang-query-18", "clang-query-17",
                          "clang-query-16", "clang-query-15",
                          "clang-query-14")

# Memoized probe results: explicit-binary-or-"" -> (path, version) with
# path None when unavailable. Probing runs the binary, so repeated lint
# invocations (check-lint + check-analyzer in one build) only pay once.
_CLANG_QUERY_CACHE = {}


def resolve_clang_query(explicit=None):
    """Resolves the clang-query binary to use and its version string.
    Returns (path, version); path is None when no usable binary exists.
    Results are cached per `explicit` value."""
    key = explicit or ""
    if key in _CLANG_QUERY_CACHE:
        return _CLANG_QUERY_CACHE[key]
    candidates = (explicit,) if explicit else CLANG_QUERY_CANDIDATES
    resolved = (None, None)
    for cand in candidates:
        path = shutil.which(cand)
        if path is None:
            continue
        try:
            proc = subprocess.run([path, "--version"], capture_output=True,
                                  text=True, timeout=30)
            version = (proc.stdout or proc.stderr).strip().splitlines()
            resolved = (path, version[0] if version else "(unknown version)")
        except (OSError, subprocess.TimeoutExpired) as e:
            resolved = (path, f"(--version failed: {e})")
        break
    _CLANG_QUERY_CACHE[key] = resolved
    return resolved


def describe_clang_query_probe(explicit=None):
    """Human-readable account of what resolve_clang_query probed, for
    --require-clang-query failures."""
    path, version = resolve_clang_query(explicit)
    if path is None:
        probed = explicit or ", ".join(CLANG_QUERY_CANDIDATES)
        return f"no clang-query on PATH (probed: {probed})"
    return f"resolved clang-query: {path} [{version}]"


def src_translation_units(root, compile_commands):
    with open(compile_commands, encoding="utf-8") as f:
        db = json.load(f)
    return sorted({
        os.path.normpath(os.path.join(e.get("directory", ""), e["file"]))
        for e in db
        if is_under(os.path.normpath(
            os.path.join(e.get("directory", ""), e["file"])),
            os.path.join(root, "src"))
    })


def clang_query_findings(root, clang_query, compile_commands):
    build_dir = os.path.dirname(os.path.abspath(compile_commands))
    tus = src_translation_units(root, compile_commands)
    if not tus:
        return ["[clang-query] no src/ translation units in "
                f"{compile_commands}"]
    rules_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "rules")
    findings = []
    for qry in sorted(os.listdir(rules_dir)):
        if not qry.endswith(".qry"):
            continue
        cmd = [clang_query, "-p", build_dir,
               "-f", os.path.join(rules_dir, qry)] + tus
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            findings.append(
                f"[clang-query] {qry} failed to run:\n{proc.stderr.strip()}")
            continue
        total = sum(int(n) for n in MATCH_COUNT_RE.findall(proc.stdout))
        if total > 0:
            # Echo the match locations (lines like "path:line:col: note").
            locs = [ln for ln in proc.stdout.splitlines()
                    if re.match(r".+\.(cc|h):\d+:\d+", ln)]
            findings.append(f"[clang-query] {qry}: {total} match(es)")
            findings.extend("  " + ln for ln in locs[:50])
    return findings


# ---------------------------------------------------------------------------
# rdftx-analyzer (tools/analyzer LibTooling binary)
# ---------------------------------------------------------------------------

# Mirrors MakeAllChecks() in tools/analyzer/analyzer_util.cc; the
# analyzer itself also rejects unknown names (exit 2), this just fails
# faster with a friendlier message.
KNOWN_ANALYZER_CHECKS = {
    "lock-order", "epoch-lifetime", "durability", "status",
    "result-unwrap", "interval-soundness", "decode-overflow",
}

ANALYZER_BUILD_PATHS = (
    "build-analyzer/tools/analyzer/rdftx-analyzer",
    "build-lint/tools/analyzer/rdftx-analyzer",
    "build/tools/analyzer/rdftx-analyzer",
)


def resolve_analyzer(root, spec):
    """Resolves --analyzer: an explicit path, or 'auto' (PATH, then the
    conventional build directories). Returns None when unavailable."""
    if spec is None:
        return None
    if spec != "auto":
        return spec if os.path.exists(spec) else None
    found = shutil.which("rdftx-analyzer")
    if found:
        return found
    for rel in ANALYZER_BUILD_PATHS:
        cand = os.path.join(root, rel)
        if os.path.exists(cand):
            return cand
    return None


def analyzer_findings(root, analyzer, compile_commands, checks=None,
                      cache="auto", note=print):
    """Runs rdftx-analyzer over every src/ translation unit in the
    compile database and merges its diagnostics into the findings.

    Entries whose source file no longer exists (the database is stale —
    a file was renamed or deleted since cmake last ran) are skipped
    with a notice rather than handed to the analyzer, where they would
    turn into a hard parse error."""
    build_dir = os.path.dirname(os.path.abspath(compile_commands))
    tus = src_translation_units(root, compile_commands)
    if not tus:
        return ["[analyzer] no src/ translation units in "
                f"{compile_commands}"]
    stale = [t for t in tus if not os.path.exists(t)]
    if stale:
        note(f"lint: compile database is stale — {len(stale)} entr"
             f"{'y' if len(stale) == 1 else 'ies'} with no source file "
             "skipped (re-run cmake to refresh compile_commands.json)")
        tus = [t for t in tus if os.path.exists(t)]
    if not tus:
        note("lint: compile database is entirely stale; analyzer checks "
             "skipped (re-run cmake to refresh compile_commands.json)")
        return []
    cmd = [analyzer, "-p", build_dir, "--src-root", root]
    for name in checks or []:
        cmd.append("--check=" + name)
    if cache == "auto":
        cache = os.path.join(build_dir, "rdftx-analyzer-summaries.cache")
    if cache and cache != "none":
        cmd.append("--summary-cache=" + cache)
    cmd += tus
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as e:
        return [f"[analyzer] cannot run {analyzer}: {e}"]
    if proc.returncode == 0:
        return []
    if proc.returncode != 1:
        return [f"[analyzer] {analyzer} exited {proc.returncode}:\n"
                f"{proc.stderr.strip()}"]
    return ["[analyzer] " + ln for ln in proc.stdout.splitlines()
            if ln.strip()]


# Finding lines mostly follow "<file>:<line>[:<col>]: [<rule>] <msg>";
# --json parses that shape and falls back to the raw text otherwise.
FINDING_SHAPE_RE = re.compile(
    r"^(?:\[analyzer\] )?(?P<file>[^:\s][^:]*):(?P<line>\d+)"
    r"(?::(?P<col>\d+))?: \[(?P<rule>[a-z-]+)\] (?P<msg>.*)$")


def finding_to_json(text):
    m = FINDING_SHAPE_RE.match(text)
    if m is None:
        return {"raw": text}
    obj = {
        "file": m.group("file"),
        "line": int(m.group("line")),
        "rule": m.group("rule"),
        "message": m.group("msg"),
        "raw": text,
    }
    if m.group("col") is not None:
        obj["col"] = int(m.group("col"))
    if text.startswith("[analyzer] "):
        obj["source"] = "analyzer"
    return obj


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels above this script)")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json for the AST rules")
    ap.add_argument("--clang-query", default=None,
                    help="clang-query binary (default: search PATH)")
    ap.add_argument("--require-clang-query", action="store_true",
                    help="fail instead of skipping when clang-query or the "
                         "compile database is unavailable (CI mode)")
    ap.add_argument("--analyzer", default=None, metavar="BIN",
                    help="also run the rdftx-analyzer LibTooling binary "
                         "(path, or 'auto' to search PATH and the "
                         "conventional build dirs) and merge its findings")
    ap.add_argument("--require-analyzer", action="store_true",
                    help="fail instead of skipping when rdftx-analyzer or "
                         "the compile database is unavailable (CI mode)")
    ap.add_argument("--check", action="append", default=None, metavar="NAME",
                    help="narrow the analyzer to the named check "
                         "(repeatable or comma-separated); one of: "
                         + ", ".join(sorted(KNOWN_ANALYZER_CHECKS)))
    ap.add_argument("--analyzer-cache", default="auto", metavar="PATH",
                    help="analyzer summary-cache file ('auto': next to the "
                         "compile database; 'none': disable)")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as one JSON object on stdout "
                         "(notices move to stderr); exit status unchanged")
    args = ap.parse_args()

    def note(msg):
        print(msg, file=sys.stderr if args.json else sys.stdout)

    checks = []
    for spec in args.check or []:
        checks += [c for c in spec.split(",") if c]
    unknown = sorted(set(checks) - KNOWN_ANALYZER_CHECKS)
    if unknown:
        print("lint: unknown --check name(s): " + ", ".join(unknown)
              + " (known: " + ", ".join(sorted(KNOWN_ANALYZER_CHECKS)) + ")",
              file=sys.stderr)
        return 2

    root = args.root or os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))

    findings = textual_findings(root)
    findings += nodiscard_meta_findings(root)
    findings += ignore_error_findings(root)
    findings += conformance_pairing_findings(root)
    findings += fixture_findings(root)

    have_db = args.compile_commands and os.path.exists(args.compile_commands)
    clang_query, _ = resolve_clang_query(args.clang_query)
    if clang_query and have_db:
        findings += clang_query_findings(root, clang_query,
                                         args.compile_commands)
    elif args.require_clang_query:
        reasons = [describe_clang_query_probe(args.clang_query)]
        if not have_db:
            reasons.append("compile database unavailable: "
                           f"{args.compile_commands or '(not specified)'}")
        print("lint: --require-clang-query was passed but the AST rules "
              "cannot run:\n  " + "\n  ".join(reasons), file=sys.stderr)
        return 2
    else:
        note("lint: clang-query or compile database unavailable; "
             "AST rules skipped (textual rules still enforced)")

    analyzer = resolve_analyzer(root, args.analyzer or
                                ("auto" if args.require_analyzer else None))
    if analyzer and have_db:
        findings += analyzer_findings(root, analyzer, args.compile_commands,
                                      checks=checks,
                                      cache=args.analyzer_cache, note=note)
    elif args.require_analyzer:
        reasons = []
        if not analyzer:
            reasons.append("rdftx-analyzer not found (searched PATH and "
                           + ", ".join(ANALYZER_BUILD_PATHS) + ")"
                           if (args.analyzer in (None, "auto"))
                           else f"rdftx-analyzer not found at {args.analyzer}")
        if not have_db:
            reasons.append("compile database unavailable: "
                           f"{args.compile_commands or '(not specified)'}")
        print("lint: --require-analyzer was passed but rdftx-analyzer "
              "cannot run:\n  " + "\n  ".join(reasons), file=sys.stderr)
        return 2
    elif args.analyzer:
        note("lint: rdftx-analyzer or compile database unavailable; "
             "analyzer checks skipped")

    if args.json:
        print(json.dumps({
            "status": "findings" if findings else "clean",
            "count": len(findings),
            "findings": [finding_to_json(f) for f in findings],
        }, indent=2))
        return 1 if findings else 0
    if findings:
        print(f"lint: {len(findings)} finding(s):")
        for f in findings:
            print("  " + f)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
