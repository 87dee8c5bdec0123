// Shared infrastructure of rdftx-analyzer (DESIGN.md §12): options,
// findings, the per-TU context every check runs against, and the small
// AST taxonomy helpers (which records are util::Mutex, rdftx::Result,
// ...) the checks share.
//
// The analyzer is split into one translation unit per check
// (checks/check_*.cc), each implementing the Check interface below.
// A check runs in two phases:
//
//   RunOnTu     once per parsed translation unit. Emits *local*
//               findings (fully decidable inside the TU) and records
//               function summaries / call-site obligations into the
//               TU's TuRecord for the global phase.
//   RunGlobal   once at the end, over the merged summaries of every
//               TU (parsed this run or replayed from the summary
//               cache). Resolves obligations interprocedurally.
//
// Everything a global phase needs from a TU must live in the TuRecord:
// by the time RunGlobal executes the ASTs are gone (or, on a warm
// cache, were never parsed at all).
#ifndef RDFTX_TOOLS_ANALYZER_ANALYZER_H_
#define RDFTX_TOOLS_ANALYZER_ANALYZER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "clang/AST/ASTContext.h"
#include "clang/AST/Decl.h"
#include "clang/AST/DeclCXX.h"
#include "clang/AST/Expr.h"
#include "clang/AST/ExprCXX.h"
#include "clang/Basic/SourceManager.h"
#include "llvm/ADT/StringRef.h"

namespace rdftx_analyzer {

struct TuRecord;
struct FunctionSummary;
class GlobalContext;

// ---------------------------------------------------------------------------
// Options (set once by main(), read-only everywhere else)
// ---------------------------------------------------------------------------

struct Options {
  std::string src_root;           // repository root; scope is <root>/src/
  bool testing = false;           // fixture mode: main file is the scope
  std::set<std::string> checks;   // empty = every check
  std::string summary_cache;      // path of the persisted cache ("" = off)
};

extern Options g_options;

/// True when `name` passes the --check filter (always true when the
/// filter is empty).
bool CheckEnabled(llvm::StringRef name);

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

struct Finding {
  std::string file;   // display path (repo-relative, basename in --testing)
  unsigned line = 0;
  unsigned col = 0;
  std::string check;
  std::string msg;

  std::string Key() const {
    return file + ":" + std::to_string(line) + ":" + check + ":" + msg;
  }
};

// ---------------------------------------------------------------------------
// Per-TU context
// ---------------------------------------------------------------------------

/// Wraps one parsed translation unit: the ASTContext plus the location,
/// scoping, suppression and emission helpers every check shares, and
/// the TuRecord the checks write summaries and obligations into.
class TuContext {
 public:
  TuContext(clang::ASTContext& ast, TuRecord& record);

  clang::ASTContext& ast() { return ast_; }
  clang::SourceManager& sm() { return sm_; }
  TuRecord& record() { return record_; }

  /// Expansion location of `loc` as (absolute file, line, col).
  bool Locate(clang::SourceLocation loc, std::string* file, unsigned* line,
              unsigned* col);

  /// True when `loc` is inside the checked surface: the main file in
  /// --testing mode, else any file under <src-root>/src/.
  bool InScope(clang::SourceLocation loc);

  /// InScope and additionally inside one of the directory fragments
  /// (e.g. {"/src/storage/", "/src/core/"}). --testing keeps everything.
  bool InDirScope(clang::SourceLocation loc,
                  const std::vector<std::string>& fragments);

  /// `// rdftx-analyzer: allow(<check>)` on the line or the line above
  /// (the status check also honours `// status-ignored:`).
  bool Suppressed(clang::SourceLocation loc, const std::string& check,
                  const std::string& file, unsigned line);

  /// Repo-relative path (basename in --testing mode).
  std::string DisplayPath(const std::string& file);

  /// Emits a local finding unless suppressed; it is recorded in the
  /// TuRecord (and thereby the summary cache).
  void Emit(clang::SourceLocation loc, const std::string& check,
            const std::string& msg);

  /// Locates + suppression-checks a future (global-phase) diagnostic
  /// site. Returns false when the location is invalid.
  bool Describe(clang::SourceLocation loc, const std::string& check,
                std::string* display_file, unsigned* line, unsigned* col,
                bool* suppressed);

  /// The TuRecord's summary for `fn` (keyed by USR), created on first
  /// use with usr/name/file/line and the annotation bits filled in.
  /// Checks then extend it with their own facts. Returns null for
  /// declarations without a USR. The pointer is stable for the
  /// lifetime of the TuContext.
  FunctionSummary* SummaryFor(const clang::FunctionDecl* fn);

 private:
  const std::vector<std::string>& FileLines(clang::FileID fid,
                                            const std::string& path);

  clang::ASTContext& ast_;
  clang::SourceManager& sm_;
  TuRecord& record_;
  std::map<std::string, std::vector<std::string>> file_lines_;
  std::map<std::string, FunctionSummary*> summary_index_;  // by USR
};

// ---------------------------------------------------------------------------
// AST taxonomy helpers
// ---------------------------------------------------------------------------

std::string Lower(std::string s);

const clang::CXXRecordDecl* RecordOf(clang::QualType t);
bool InNamespace(const clang::Decl* d, llvm::StringRef ns);

bool IsUtilMutexRecord(const clang::CXXRecordDecl* rec);
bool IsUtilMutex(clang::QualType t);
bool IsMutexGuard(clang::QualType t);

/// Epoch-lifetime target classes; `fieldRule` narrows to the transient
/// chunk-owning classes (a long-lived TemporalGraph* field is a
/// legitimate non-owning handle).
bool IsEpochClass(const clang::CXXRecordDecl* rec, bool fieldRule);

bool IsStatusOrResult(clang::QualType t);
bool IsResultType(clang::QualType t);

/// `&mu_` / `mu_` / `obj.mu_` down to the declared mutex member/var.
const clang::ValueDecl* ResolveMutexRef(const clang::Expr* e);

/// Peels the by-value argument wrapping (copy/move CXXConstructExpr,
/// MaterializeTemporaryExpr, CXXBindTemporaryExpr, implicit casts) off
/// `e` so call-argument checks see the expression the caller wrote: a
/// DeclRef lvalue for `f(status)`, the producing call for `f(Make())`.
const clang::Expr* StripValuePass(const clang::Expr* e);

/// Decl carries __attribute__((annotate("<tag>"))).
bool HasAnnotation(const clang::Decl* d, llvm::StringRef tag);

/// Canonical declaration's qualified name (display use).
std::string QualifiedName(const clang::NamedDecl* d);

// ---------------------------------------------------------------------------
// Check interface + registry
// ---------------------------------------------------------------------------

class Check {
 public:
  virtual ~Check() = default;
  virtual llvm::StringRef name() const = 0;
  virtual void RunOnTu(TuContext& tu) = 0;
  virtual void RunGlobal(GlobalContext& g) { (void)g; }
};

/// All checks, in diagnostic-documentation order.
std::vector<std::unique_ptr<Check>> MakeAllChecks();

/// The individual factories (defined in checks/check_*.cc).
std::unique_ptr<Check> MakeLockOrderCheck();
std::unique_ptr<Check> MakeEpochLifetimeCheck();
std::unique_ptr<Check> MakeDurabilityCheck();
std::unique_ptr<Check> MakeStatusCheck();
std::unique_ptr<Check> MakeResultUnwrapCheck();
std::unique_ptr<Check> MakeIntervalSoundnessCheck();
std::unique_ptr<Check> MakeDecodeOverflowCheck();

}  // namespace rdftx_analyzer

#endif  // RDFTX_TOOLS_ANALYZER_ANALYZER_H_
