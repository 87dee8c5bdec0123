// Data-driven SPARQL-T conformance harness.
//
// Each case is a `cases/<name>.rq` query file paired with either
// `cases/<name>.expected` (tab-separated bindings, header line first) or
// `cases/<name>.error` (a substring the Status message must contain,
// typically including the `line:column` position). Directives in the
// query's leading comments select the dataset and comparison mode:
//
//   # data: <file>   dataset under data/ (default: default.ttn)
//   # ordered        compare rows in order (for ORDER BY cases);
//                    without it rows are compared as a set
//
// Every case runs on two stores: the NaiveStore oracle and the
// TemporalGraph. With RDFTX_CONFORMANCE_REGEN=1 the NaiveStore run
// rewrites the .expected files and the TemporalGraph run still compares
// against the fresh output, so a regeneration run remains a real
// cross-check.
//
// Dataset files (`data/*.ttn`) are line based:
//
//   # now: 2016-03-15
//   subject predicate object 2008-06-16 2013-09-30
//   subject predicate object 2013-09-30 now
//
// Intervals are half-open [start, end); `now` means an open-ended run.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/naive_store.h"
#include "dict/dictionary.h"
#include "engine/executor.h"
#include "rdf/temporal_graph.h"
#include "util/date.h"

namespace rdftx::conformance {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string Trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r' ||
                        s.back() == ' ' || s.back() == '\t')) {
    s.pop_back();
  }
  size_t i = 0;
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r')) {
    ++i;
  }
  return s.substr(i);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(line);
  }
  return lines;
}

/// A dataset loaded into both store implementations over one dictionary.
struct Dataset {
  Dictionary dict;
  TemporalGraph graph;
  NaiveStore naive;
  Chronon now = 0;
};

Chronon ParseBoundary(const std::string& text, const fs::path& file,
                      size_t line_no) {
  if (text == "now") return kChrononNow;
  auto c = ParseChronon(text);
  EXPECT_TRUE(c.ok()) << file << ":" << line_no << ": bad date '" << text
                      << "': " << c.status().ToString();
  return c.ok() ? *c : 0;
}

std::shared_ptr<Dataset> LoadDataset(const fs::path& path) {
  auto ds = std::make_shared<Dataset>();
  std::vector<TemporalTriple> triples;
  size_t line_no = 0;
  for (const std::string& raw : SplitLines(ReadFile(path))) {
    ++line_no;
    std::string line = Trim(raw);
    if (line.empty()) continue;
    if (line[0] == '#') {
      const std::string kNow = "# now:";
      if (line.rfind(kNow, 0) == 0) {
        ds->now = ParseBoundary(Trim(line.substr(kNow.size())), path, line_no);
      }
      continue;
    }
    std::istringstream in(line);
    std::string s, p, o, start, end, extra;
    in >> s >> p >> o >> start >> end;
    EXPECT_FALSE(end.empty()) << path << ":" << line_no
                              << ": want 's p o start end', got '" << line
                              << "'";
    EXPECT_FALSE(in >> extra) << path << ":" << line_no
                              << ": trailing tokens in '" << line << "'";
    TemporalTriple t;
    t.triple.s = ds->dict.Intern(s);
    t.triple.p = ds->dict.Intern(p);
    t.triple.o = ds->dict.Intern(o);
    t.iv.start = ParseBoundary(start, path, line_no);
    t.iv.end = ParseBoundary(end, path, line_no);
    triples.push_back(t);
  }
  EXPECT_TRUE(ds->graph.Load(triples).ok());
  EXPECT_TRUE(ds->naive.Load(triples).ok());
  return ds;
}

/// Datasets are immutable after load; share one instance per file.
std::shared_ptr<Dataset> GetDataset(const fs::path& path) {
  static auto* cache = new std::map<std::string, std::shared_ptr<Dataset>>();
  auto& slot = (*cache)[path.string()];
  if (!slot) slot = LoadDataset(path);
  return slot;
}

struct Config {
  const char* name;
  bool naive;
};

constexpr Config kConfigs[] = {
    {"Naive", true},
    {"Graph", false},
};

/// Naive is the oracle configuration regeneration writes from.
constexpr size_t kOracleConfig = 0;

struct Case {
  std::string name;
  fs::path rq;
  fs::path expected;  // empty when `error` is set
  fs::path error;
};

struct Directives {
  std::string data = "default.ttn";
  bool ordered = false;
};

Directives ParseDirectives(const std::string& query, const fs::path& file) {
  Directives d;
  for (const std::string& raw : SplitLines(query)) {
    std::string line = Trim(raw);
    if (line.empty()) continue;
    if (line[0] != '#') break;  // directives live in the leading comments
    const std::string kData = "# data:";
    if (line.rfind(kData, 0) == 0) {
      d.data = Trim(line.substr(kData.size()));
      EXPECT_FALSE(d.data.empty()) << file << ": empty '# data:' directive";
    } else if (line == "# ordered") {
      d.ordered = true;
    }
  }
  return d;
}

std::vector<std::string> RenderResult(const engine::ResultSet& result) {
  std::vector<std::string> lines;
  std::string header;
  for (size_t i = 0; i < result.columns.size(); ++i) {
    if (i) header += '\t';
    header += result.columns[i];
  }
  lines.push_back(header);
  for (const auto& row : result.rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) line += '\t';
      line += row[i].ToString();
    }
    lines.push_back(line);
  }
  return lines;
}

class ConformanceTest : public ::testing::Test {
 public:
  ConformanceTest(Case c, size_t config) : case_(std::move(c)),
                                           config_(config) {}

  void TestBody() override {
    const Config& cfg = kConfigs[config_];
    std::string query = ReadFile(case_.rq);
    Directives d = ParseDirectives(query, case_.rq);
    std::shared_ptr<Dataset> ds =
        GetDataset(case_.rq.parent_path().parent_path() / "data" / d.data);
    if (::testing::Test::HasFailure()) return;

    engine::EngineOptions options;
    options.now = ds->now;
    const TemporalStore* store =
        cfg.naive ? static_cast<const TemporalStore*>(&ds->naive) : &ds->graph;
    engine::QueryEngine eng(store, &ds->dict, options);
    Result<engine::ResultSet> result = eng.Execute(query);

    if (!case_.error.empty()) {
      ASSERT_FALSE(result.ok())
          << case_.name << ": expected an error, got " << result->rows.size()
          << " rows";
      std::string want = Trim(ReadFile(case_.error));
      ASSERT_FALSE(want.empty()) << case_.error << " is empty";
      std::string got = result.status().ToString();
      EXPECT_NE(got.find(want), std::string::npos)
          << case_.name << ": error message\n  '" << got
          << "'\ndoes not contain\n  '" << want << "'";
      return;
    }

    ASSERT_TRUE(result.ok()) << case_.name << ": "
                             << result.status().ToString();
    std::vector<std::string> actual = RenderResult(*result);

    if (config_ == kOracleConfig &&
        std::getenv("RDFTX_CONFORMANCE_REGEN") != nullptr) {
      std::ofstream out(case_.expected, std::ios::binary | std::ios::trunc);
      for (const std::string& line : actual) out << line << '\n';
    }

    std::vector<std::string> expected = SplitLines(ReadFile(case_.expected));
    while (!expected.empty() && Trim(expected.back()).empty()) {
      expected.pop_back();
    }
    ASSERT_FALSE(expected.empty()) << case_.expected << " has no header line";
    ASSERT_FALSE(actual.empty());
    EXPECT_EQ(expected[0], actual[0]) << case_.name << ": column header";
    std::vector<std::string> want_rows(expected.begin() + 1, expected.end());
    std::vector<std::string> got_rows(actual.begin() + 1, actual.end());
    if (!d.ordered) {
      std::sort(want_rows.begin(), want_rows.end());
      std::sort(got_rows.begin(), got_rows.end());
    }
    EXPECT_EQ(want_rows, got_rows) << case_.name << " under " << cfg.name;
  }

 private:
  Case case_;
  size_t config_;
};

std::string SanitizeName(const std::string& name) {
  std::string out;
  for (char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

/// Finds cases/*.rq, enforces the pairing rule (every query has exactly
/// one of .expected/.error; no orphan expectation files), and registers
/// one gtest per case per configuration.
int RegisterAll(const fs::path& dir) {
  const fs::path cases = dir / "cases";
  if (!fs::is_directory(cases)) {
    ADD_FAILURE() << "conformance case directory missing: " << cases;
    return 0;
  }
  std::vector<Case> found;
  std::vector<std::string> problems;
  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator(cases)) {
    entries.push_back(entry.path());
  }
  std::sort(entries.begin(), entries.end());
  for (const fs::path& path : entries) {
    if (path.extension() == ".rq") {
      Case c;
      c.name = path.stem().string();
      c.rq = path;
      fs::path expected = path, error = path;
      expected.replace_extension(".expected");
      error.replace_extension(".error");
      const bool has_expected = fs::exists(expected);
      const bool has_error = fs::exists(error);
      if (has_expected == has_error) {
        problems.push_back(path.filename().string() +
                           (has_expected ? " has both .expected and .error"
                                         : " has no .expected or .error "
                                           "pair"));
        continue;
      }
      if (has_expected) {
        c.expected = expected;
      } else {
        c.error = error;
      }
      found.push_back(c);
    } else if (path.extension() == ".expected" ||
               path.extension() == ".error") {
      fs::path rq = path;
      rq.replace_extension(".rq");
      if (!fs::exists(rq)) {
        problems.push_back(path.filename().string() + " has no .rq query");
      }
    } else {
      problems.push_back(path.filename().string() +
                         ": unexpected file in cases/");
    }
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "conformance pairing error: %s\n", p.c_str());
  }
  if (!problems.empty()) return 0;
  for (const Case& c : found) {
    for (size_t i = 0; i < std::size(kConfigs); ++i) {
      Case copy = c;
      ::testing::RegisterTest(
          "Conformance", (SanitizeName(c.name) + "/" + kConfigs[i].name).c_str(),
          nullptr, nullptr, c.rq.string().c_str(), 1,
          [copy, i]() -> ::testing::Test* {
            return new ConformanceTest(copy, i);
          });
    }
  }
  return static_cast<int>(found.size());
}

}  // namespace
}  // namespace rdftx::conformance

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  const char* env = std::getenv("RDFTX_CONFORMANCE_DIR");
  std::filesystem::path dir = env != nullptr ? env : RDFTX_CONFORMANCE_DIR;
  int cases = rdftx::conformance::RegisterAll(dir);
  if (cases == 0) {
    std::fprintf(stderr, "no conformance cases registered under %s\n",
                 dir.string().c_str());
    return 1;
  }
  std::fprintf(stderr, "registered %d conformance cases x %zu configurations\n",
               cases, std::size(rdftx::conformance::kConfigs));
  return RUN_ALL_TESTS();
}
