// rdftx-analyzer: project-specific Clang LibTooling checks for the
// protocol rules the concurrency, durability and decode machinery rely
// on (DESIGN.md §12). Runs over compile_commands.json (or single
// fixtures with --testing) and prints one diagnostic per line:
//
//   <file>:<line>:<col>: [<check>] <message>
//
// Exit status: 0 clean, 1 findings, 2 tool/parse error.
//
// The driver owns the interprocedural plumbing; the checks themselves
// live in checks/check_*.cc behind the Check interface (analyzer.h):
//
//   1. per TU: a shared pre-pass records the USR call graph and a base
//      summary for every function body in scope, then each enabled
//      check's RunOnTu adds local findings, summary facts and
//      call-site obligations to the TuRecord.
//   2. globally: the TuRecords (freshly parsed or replayed from the
//      summary cache) merge into a GlobalContext; after its fixpoints
//      (may-acquire closure, sync-reachability, unwrap forwarding)
//      each check's RunGlobal resolves the obligations.
//
// --summary-cache=<file> persists the TuRecords; a repeat run reparses
// only translation units whose main file, compile command or the
// header tree changed (invalidation rules: summaries.h / DESIGN.md
// §12.4). Global findings are recomputed every run. --check=<name>
// (repeatable / comma-separated) narrows the run to named checks; a
// cached record is only replayed if it was produced with at least the
// requested checks.
//
// Checks: lock-order, epoch-lifetime, durability, status,
// result-unwrap, interval-soundness, decode-overflow.
// Suppression: `// rdftx-analyzer: allow(<check>)` on the finding's
// line or the line above (status also honours `// status-ignored:`).

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "clang/AST/ASTConsumer.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/RecursiveASTVisitor.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Frontend/CompilerInstance.h"
#include "clang/Frontend/FrontendAction.h"
#include "clang/Tooling/ArgumentsAdjusters.h"
#include "clang/Tooling/CommonOptionsParser.h"
#include "clang/Tooling/Tooling.h"
#include "llvm/Support/CommandLine.h"
#include "llvm/Support/FileSystem.h"
#include "llvm/Support/Path.h"
#include "llvm/Support/raw_ostream.h"

#include "tools/analyzer/analyzer.h"
#include "tools/analyzer/callgraph.h"
#include "tools/analyzer/summaries.h"

using namespace clang;
namespace ct = clang::tooling;

namespace rdftx_analyzer {
namespace {

llvm::cl::OptionCategory kCategory("rdftx-analyzer options");
llvm::cl::opt<std::string> kSrcRoot(
    "src-root",
    llvm::cl::desc("repository root; checks scope to <root>/src/..."),
    llvm::cl::init(""), llvm::cl::cat(kCategory));
llvm::cl::opt<bool> kTesting(
    "testing",
    llvm::cl::desc("fixture mode: every main-file decl is in scope for "
                   "every check and paths print as basenames"),
    llvm::cl::init(false), llvm::cl::cat(kCategory));
llvm::cl::list<std::string> kChecks(
    "check",
    llvm::cl::desc("run only the named check (repeatable, "
                   "comma-separated)"),
    llvm::cl::ZeroOrMore, llvm::cl::CommaSeparated, llvm::cl::cat(kCategory));
llvm::cl::opt<std::string> kSummaryCache(
    "summary-cache",
    llvm::cl::desc("persisted TuRecord cache; repeat runs reparse only "
                   "changed translation units"),
    llvm::cl::init(""), llvm::cl::cat(kCategory));

std::vector<std::unique_ptr<Check>> g_checks;

// Records under construction this run, keyed by the absolute source
// path the tool was invoked with; g_by_path additionally maps the
// SourceManager's idea of the main file back to the same record.
std::map<std::string, TuRecord> g_records;
std::map<std::string, TuRecord*> g_by_path;

// ---------------------------------------------------------------------------
// Shared pre-pass: call graph edges + base summaries
// ---------------------------------------------------------------------------

// Every direct call inside `fn`'s body (lambda bodies attribute to the
// enclosing function — a lambda's operator() is not a node the
// summaries key on) becomes a call-graph edge, and every in-scope body
// gets its base summary so the annotation bits (SYNCS_ON_ALL_PATHS,
// UNWRAPS_RESULT_ARGS, TRUSTED_DECODE) are visible globally even when
// no check adds facts of its own.
class PrePass : public RecursiveASTVisitor<PrePass> {
 public:
  explicit PrePass(TuContext& tu) : tu_(tu) {}

  void Run(ASTContext& ctx) { TraverseDecl(ctx.getTranslationUnitDecl()); }

  bool VisitFunctionDecl(FunctionDecl* fn) {
    if (!fn->doesThisDeclarationHaveABody() || fn->getBody() == nullptr) {
      return true;
    }
    if (!tu_.InScope(fn->getBeginLoc())) return true;
    tu_.SummaryFor(fn);
    const std::string caller = UsrOf(fn);
    if (!caller.empty()) CollectCalls(fn->getBody(), caller);
    return true;
  }

 private:
  void CollectCalls(const Stmt* s, const std::string& caller) {
    if (s == nullptr) return;
    if (const auto* call = dyn_cast<CallExpr>(s)) {
      if (const FunctionDecl* callee = call->getDirectCallee()) {
        tu_.record().calls.AddEdge(caller, UsrOf(callee));
      }
    }
    for (const Stmt* c : s->children()) CollectCalls(c, caller);
  }

  TuContext& tu_;
};

// ---------------------------------------------------------------------------
// Frontend action
// ---------------------------------------------------------------------------

TuRecord* RecordForMainFile(SourceManager& sm) {
  const FileEntry* fe = sm.getFileEntryForID(sm.getMainFileID());
  if (fe != nullptr) {
    const std::string real = fe->tryGetRealPathName().str();
    auto it = g_by_path.find(real);
    if (it != g_by_path.end()) return it->second;
    const std::string name = fe->getName().str();
    it = g_by_path.find(name);
    if (it != g_by_path.end()) return it->second;
  }
  // Unregistered (shouldn't happen through main()): contribute anyway.
  const std::string key =
      fe != nullptr ? fe->getName().str() : std::string("<unknown>");
  TuRecord* rec = &g_records[key];
  rec->tu_file = key;
  g_by_path[key] = rec;
  return rec;
}

class AnalyzerConsumer : public ASTConsumer {
 public:
  void HandleTranslationUnit(ASTContext& ctx) override {
    TuRecord* rec = RecordForMainFile(ctx.getSourceManager());
    TuContext tu(ctx, *rec);
    PrePass(tu).Run(ctx);
    for (const std::unique_ptr<Check>& check : g_checks) {
      if (!CheckEnabled(check->name())) continue;
      check->RunOnTu(tu);
      rec->checks_run.push_back(check->name().str());
    }
  }
};

class AnalyzerAction : public ASTFrontendAction {
 public:
  std::unique_ptr<ASTConsumer> CreateASTConsumer(CompilerInstance&,
                                                 llvm::StringRef) override {
    return std::make_unique<AnalyzerConsumer>();
  }
};

// ---------------------------------------------------------------------------
// Cache decisions
// ---------------------------------------------------------------------------

bool SupersetOfEnabled(const std::vector<std::string>& ran) {
  for (const std::unique_ptr<Check>& check : g_checks) {
    if (!CheckEnabled(check->name())) continue;
    if (std::find(ran.begin(), ran.end(), check->name().str()) == ran.end()) {
      return false;
    }
  }
  return true;
}

std::string AbsolutePath(const std::string& path) {
  llvm::SmallString<256> abs(path);
  llvm::sys::fs::make_absolute(abs);
  llvm::sys::path::remove_dots(abs, /*remove_dot_dot=*/true);
  return std::string(abs.str());
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

int Main(int argc, const char** argv) {
  auto options = ct::CommonOptionsParser::create(argc, argv, kCategory);
  if (!options) {
    llvm::errs() << llvm::toString(options.takeError()) << "\n";
    return 2;
  }

  g_options.src_root = kSrcRoot;
  g_options.testing = kTesting;
  // Fixture runs are single independent TUs; caching them would only
  // let one fixture's record shadow another's.
  g_options.summary_cache = kTesting ? "" : kSummaryCache.getValue();
  g_checks = MakeAllChecks();
  for (const std::string& name : kChecks) {
    bool known = false;
    for (const std::unique_ptr<Check>& check : g_checks) {
      known = known || check->name() == name;
    }
    if (!known) {
      llvm::errs() << "rdftx-analyzer: unknown check '" << name << "'\n";
      return 2;
    }
    g_options.checks.insert(name);
  }

  SummaryCache cache;
  const uint64_t header_stamp =
      g_options.testing ? 0 : HeaderTreeStamp(g_options.src_root);
  bool have_cache = false;
  if (!g_options.summary_cache.empty()) {
    have_cache = cache.Load(g_options.summary_cache) &&
                 cache.header_stamp == header_stamp;
  }

  // Partition the requested TUs into replayable and stale.
  std::vector<std::string> stale;
  for (const std::string& path : options->getSourcePathList()) {
    const std::string abs = AbsolutePath(path);
    uint64_t mtime = 0, size = 0;
    const bool stamped = FileStamp(abs, &mtime, &size);
    uint64_t cmd_hash = 0;
    for (const ct::CompileCommand& cc :
         options->getCompilations().getCompileCommands(abs)) {
      cmd_hash = HashCommand(cc.CommandLine);
      break;
    }
    if (have_cache && stamped) {
      auto it = cache.tus.find(abs);
      if (it != cache.tus.end() && it->second.mtime == mtime &&
          it->second.size == size && it->second.cmd_hash == cmd_hash &&
          SupersetOfEnabled(it->second.checks_run)) {
        continue;  // replayed straight from the cache
      }
    }
    TuRecord* rec = &g_records[abs];
    rec->tu_file = abs;
    rec->mtime = mtime;
    rec->size = size;
    rec->cmd_hash = cmd_hash;
    g_by_path[abs] = rec;
    stale.push_back(path);
  }

  int rc = 0;
  if (!stale.empty()) {
    ct::ClangTool tool(options->getCompilations(), stale);
    // The compile database is produced by whatever compiler configured
    // the build; silence its warning flags so only analyzer findings
    // surface.
    tool.appendArgumentsAdjuster(ct::getInsertArgumentAdjuster(
        {"-Wno-everything", "-Wno-unknown-warning-option"},
        ct::ArgumentInsertPosition::END));
    rc = tool.run(ct::newFrontendActionFactory<AnalyzerAction>().get());
  }

  // Merge: freshly parsed records win over their cached predecessors;
  // every record (fresh or replayed) contributes its local findings
  // and its summaries/obligations to the global phase.
  GlobalContext global;
  std::vector<Finding> findings;
  std::set<std::string> seen;
  auto take = [&](const TuRecord& rec) {
    global.AddRecord(rec);
    for (const Finding& f : rec.local_findings) {
      if (!CheckEnabled(f.check)) continue;
      if (seen.insert(f.Key()).second) findings.push_back(f);
    }
  };
  if (have_cache) {
    for (const auto& [file, rec] : cache.tus) {
      if (g_records.count(file) == 0) take(rec);
    }
  }
  for (const auto& [file, rec] : g_records) take(rec);

  global.Finalize();
  for (const std::unique_ptr<Check>& check : g_checks) {
    if (!CheckEnabled(check->name())) continue;
    check->RunGlobal(global);
  }
  for (const Finding& f : global.GlobalFindings()) {
    if (!CheckEnabled(f.check)) continue;
    if (seen.insert(f.Key()).second) findings.push_back(f);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.col, a.check, a.msg) <
                     std::tie(b.file, b.line, b.col, b.check, b.msg);
            });
  for (const Finding& f : findings) {
    llvm::outs() << f.file << ":" << f.line << ":" << f.col << ": ["
                 << f.check << "] " << f.msg << "\n";
  }

  // Parse failures poison the records of this run; keep the cache as
  // it was rather than persist half-analyzed TUs.
  if (!g_options.summary_cache.empty() && rc == 0) {
    cache.header_stamp = header_stamp;
    for (const auto& [file, rec] : g_records) cache.tus[file] = rec;
    cache.Save(g_options.summary_cache);
  }

  if (rc != 0) return 2;
  return findings.empty() ? 0 : 1;
}

}  // namespace
}  // namespace rdftx_analyzer

int main(int argc, const char** argv) {
  return rdftx_analyzer::Main(argc, argv);
}
