#include "tools/analyzer/analyzer.h"

#include <cctype>

#include "clang/AST/Attr.h"
#include "llvm/Support/Path.h"
#include "tools/analyzer/callgraph.h"
#include "tools/analyzer/summaries.h"

namespace rdftx_analyzer {

using namespace clang;

Options g_options;

bool CheckEnabled(llvm::StringRef name) {
  return g_options.checks.empty() ||
         g_options.checks.count(name.str()) != 0;
}

// ---------------------------------------------------------------------------
// TuContext
// ---------------------------------------------------------------------------

TuContext::TuContext(ASTContext& ast, TuRecord& record)
    : ast_(ast), sm_(ast.getSourceManager()), record_(record) {}

bool TuContext::Locate(SourceLocation loc, std::string* file, unsigned* line,
                       unsigned* col) {
  if (loc.isInvalid()) return false;
  SourceLocation exp = sm_.getExpansionLoc(loc);
  PresumedLoc p = sm_.getPresumedLoc(exp);
  if (p.isInvalid()) return false;
  *file = p.getFilename();
  *line = p.getLine();
  *col = p.getColumn();
  return true;
}

bool TuContext::InScope(SourceLocation loc) {
  if (loc.isInvalid()) return false;
  SourceLocation exp = sm_.getExpansionLoc(loc);
  if (g_options.testing) return sm_.isInMainFile(exp);
  if (g_options.src_root.empty()) return false;
  std::string file;
  unsigned line, col;
  if (!Locate(loc, &file, &line, &col)) return false;
  std::string prefix = g_options.src_root + "/src/";
  return file.compare(0, prefix.size(), prefix) == 0;
}

bool TuContext::InDirScope(SourceLocation loc,
                           const std::vector<std::string>& fragments) {
  if (!InScope(loc)) return false;
  if (g_options.testing) return true;
  std::string file;
  unsigned line, col;
  if (!Locate(loc, &file, &line, &col)) return false;
  for (const std::string& frag : fragments) {
    if (file.find(frag) != std::string::npos) return true;
  }
  return false;
}

const std::vector<std::string>& TuContext::FileLines(FileID fid,
                                                     const std::string& path) {
  auto it = file_lines_.find(path);
  if (it != file_lines_.end()) return it->second;
  std::vector<std::string> lines;
  llvm::StringRef buf = sm_.getBufferData(fid);
  while (!buf.empty()) {
    auto split = buf.split('\n');
    lines.push_back(split.first.str());
    buf = split.second;
  }
  return file_lines_.emplace(path, std::move(lines)).first->second;
}

static bool LineHas(const std::vector<std::string>& lines, unsigned line1,
                    const std::string& needle) {
  if (line1 == 0 || line1 > lines.size()) return false;
  return lines[line1 - 1].find(needle) != std::string::npos;
}

bool TuContext::Suppressed(SourceLocation loc, const std::string& check,
                           const std::string& file, unsigned line) {
  FileID fid = sm_.getFileID(sm_.getExpansionLoc(loc));
  const auto& lines = FileLines(fid, file);
  const std::string allow = "rdftx-analyzer: allow(" + check + ")";
  if (LineHas(lines, line, allow) || LineHas(lines, line - 1, allow)) {
    return true;
  }
  if (check == "status") {
    if (LineHas(lines, line, "status-ignored:") ||
        LineHas(lines, line - 1, "status-ignored:")) {
      return true;
    }
  }
  return false;
}

std::string TuContext::DisplayPath(const std::string& file) {
  if (g_options.testing) return llvm::sys::path::filename(file).str();
  const std::string& root = g_options.src_root;
  if (!root.empty() && file.compare(0, root.size() + 1, root + "/") == 0) {
    return file.substr(root.size() + 1);
  }
  return file;
}

void TuContext::Emit(SourceLocation loc, const std::string& check,
                     const std::string& msg) {
  std::string file;
  unsigned line, col;
  if (!Locate(loc, &file, &line, &col)) return;
  if (Suppressed(loc, check, file, line)) return;
  record_.local_findings.push_back(
      Finding{DisplayPath(file), line, col, check, msg});
}

bool TuContext::Describe(SourceLocation loc, const std::string& check,
                         std::string* display_file, unsigned* line,
                         unsigned* col, bool* suppressed) {
  std::string file;
  if (!Locate(loc, &file, line, col)) return false;
  *suppressed = Suppressed(loc, check, file, *line);
  *display_file = DisplayPath(file);
  return true;
}

FunctionSummary* TuContext::SummaryFor(const FunctionDecl* fn) {
  if (fn == nullptr) return nullptr;
  const std::string usr = UsrOf(fn);
  if (usr.empty()) return nullptr;
  auto it = summary_index_.find(usr);
  if (it != summary_index_.end()) return it->second;
  record_.summaries.emplace_back();
  FunctionSummary* s = &record_.summaries.back();
  s->usr = usr;
  s->name = QualifiedName(fn);
  std::string file;
  unsigned line = 0, col = 0;
  if (Locate(fn->getLocation(), &file, &line, &col)) {
    s->file = DisplayPath(file);
    s->line = line;
  }
  s->annotated_syncs = HasAnnotation(fn, "rdftx::syncs_on_all_paths");
  s->annotated_unwraps = HasAnnotation(fn, "rdftx::unwraps_result_args");
  s->trusted_decode = HasAnnotation(fn, "rdftx::trusted_decode");
  summary_index_.emplace(usr, s);
  return s;
}

// ---------------------------------------------------------------------------
// AST taxonomy helpers
// ---------------------------------------------------------------------------

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

const CXXRecordDecl* RecordOf(QualType t) {
  return t.getNonReferenceType()
      .getCanonicalType()
      .getTypePtr()
      ->getAsCXXRecordDecl();
}

bool InNamespace(const Decl* d, llvm::StringRef ns) {
  for (const DeclContext* dc = d->getDeclContext(); dc != nullptr;
       dc = dc->getParent()) {
    if (const auto* n = dyn_cast<NamespaceDecl>(dc)) {
      if (n->getName() == ns) return true;
    }
  }
  return false;
}

bool IsUtilMutexRecord(const CXXRecordDecl* rec) {
  return rec != nullptr && rec->getName() == "Mutex" &&
         InNamespace(rec, "util");
}

bool IsUtilMutex(QualType t) { return IsUtilMutexRecord(RecordOf(t)); }

bool IsMutexGuard(QualType t) {
  const CXXRecordDecl* rec = RecordOf(t);
  return rec != nullptr && rec->getName() == "MutexLock" &&
         InNamespace(rec, "util");
}

bool IsEpochClass(const CXXRecordDecl* rec, bool fieldRule) {
  if (rec == nullptr) return false;
  llvm::StringRef n = rec->getName();
  if (n == "Epoch" || n == "DeltaChunk") return true;
  return !fieldRule && n == "TemporalGraph";
}

bool IsStatusOrResult(QualType t) {
  const CXXRecordDecl* rec = RecordOf(t);
  if (rec == nullptr) return false;
  llvm::StringRef n = rec->getName();
  if (n != "Status" && n != "Result") return false;
  return InNamespace(rec, "rdftx");
}

bool IsResultType(QualType t) {
  const CXXRecordDecl* rec = RecordOf(t);
  return rec != nullptr && rec->getName() == "Result" &&
         InNamespace(rec, "rdftx");
}

const ValueDecl* ResolveMutexRef(const Expr* e) {
  if (e == nullptr) return nullptr;
  e = e->IgnoreParenImpCasts();
  if (const auto* uo = dyn_cast<UnaryOperator>(e)) {
    if (uo->getOpcode() == UO_AddrOf) {
      e = uo->getSubExpr()->IgnoreParenImpCasts();
    }
  }
  if (const auto* me = dyn_cast<MemberExpr>(e)) return me->getMemberDecl();
  if (const auto* dre = dyn_cast<DeclRefExpr>(e)) return dre->getDecl();
  return nullptr;
}

const Expr* StripValuePass(const Expr* e) {
  e = e->IgnoreParenImpCasts();
  while (true) {
    if (const auto* mt = dyn_cast<MaterializeTemporaryExpr>(e)) {
      e = mt->getSubExpr()->IgnoreParenImpCasts();
      continue;
    }
    if (const auto* bt = dyn_cast<CXXBindTemporaryExpr>(e)) {
      e = bt->getSubExpr()->IgnoreParenImpCasts();
      continue;
    }
    if (const auto* ce = dyn_cast<CXXConstructExpr>(e)) {
      const CXXConstructorDecl* ctor = ce->getConstructor();
      if (ce->getNumArgs() >= 1 && ctor != nullptr &&
          (ctor->isCopyConstructor() || ctor->isMoveConstructor())) {
        e = ce->getArg(0)->IgnoreParenImpCasts();
        continue;
      }
    }
    return e;
  }
}

bool HasAnnotation(const Decl* d, llvm::StringRef tag) {
  if (d == nullptr) return false;
  for (const auto* attr : d->specific_attrs<AnnotateAttr>()) {
    if (attr->getAnnotation() == tag) return true;
  }
  return false;
}

std::string QualifiedName(const NamedDecl* d) {
  return d->getQualifiedNameAsString();
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

std::vector<std::unique_ptr<Check>> MakeAllChecks() {
  std::vector<std::unique_ptr<Check>> checks;
  checks.push_back(MakeLockOrderCheck());
  checks.push_back(MakeEpochLifetimeCheck());
  checks.push_back(MakeDurabilityCheck());
  checks.push_back(MakeStatusCheck());
  checks.push_back(MakeResultUnwrapCheck());
  checks.push_back(MakeIntervalSoundnessCheck());
  checks.push_back(MakeDecodeOverflowCheck());
  return checks;
}

}  // namespace rdftx_analyzer
