// parpp_lint — house-invariant checks the compiler cannot express.
//
// Usage: parpp_lint <repo-root>
//
// Four rule families over src/, tests/, bench/, examples/ and tools/:
//
//  1. Layering. The storage and math layers (core/, la/, tensor/, data/,
//     util/) must never reference the simulator (mpsim) or call
//     collectives: the parallel layer depends on them, never the reverse.
//     This is what keeps the kernels testable without a communicator and
//     the future MPI backend a drop-in swap.
//
//  2. Allocation discipline. Hot-loop files (the MTTKRP/MTTV/GEMM kernels)
//     must stay allocation-free in steady state: no naked new/malloc and
//     no std::vector growth. Audited cold paths opt out with a
//     `// parpp-lint: allow(alloc)` on the same or preceding line.
//
//  3. Tagged collectives. Every mpsim::Comm collective call-site outside
//     the simulator itself must pass PARPP_COMM_TAG(...) — the macro, not
//     a hand-rolled CommTag — so the matching verifier can attribute a
//     mismatched rendezvous to exact source lines on every rank.
//
//  4. Hygiene. No tabs, no trailing whitespace, no CRLF, a final newline,
//     lines at most 90 columns.
//
// Plain C++ with no third-party dependencies so it builds and runs
// anywhere the library does; registered as a ctest, enforced in CI.
// Comments and string literals are stripped before token checks, so prose
// never trips a rule (and this file can lint itself).

#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

constexpr std::size_t kMaxLine = 90;

struct Finding {
  std::string file;
  std::size_t line;
  std::string rule;
  std::string message;
};

std::vector<Finding> g_findings;

void report(const fs::path& file, std::size_t line, const std::string& rule,
            const std::string& message) {
  g_findings.push_back({file.generic_string(), line, rule, message});
}

/// Replaces comments and string/char literals with spaces (newlines kept),
/// so token scans see code only and line numbers stay valid.
std::string strip_comments_and_strings(const std::string& text) {
  std::string out(text.size(), ' ');
  enum class St { kCode, kLine, kBlock, kStr, kChr };
  St st = St::kCode;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char n = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') out[i] = '\n';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLine;
        } else if (c == '/' && n == '*') {
          st = St::kBlock;
          ++i;
        } else if (c == '"') {
          st = St::kStr;
        } else if (c == '\'') {
          st = St::kChr;
        } else {
          out[i] = c;
        }
        break;
      case St::kLine:
        if (c == '\n') st = St::kCode;
        break;
      case St::kBlock:
        if (c == '*' && n == '/') {
          st = St::kCode;
          ++i;
        }
        break;
      case St::kStr:
        if (c == '\\') {
          ++i;
          if (i < text.size() && text[i] == '\n') out[i] = '\n';
        } else if (c == '"') {
          st = St::kCode;
        }
        break;
      case St::kChr:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

std::size_t line_of_offset(const std::string& text, std::size_t off) {
  std::size_t line = 1;
  for (std::size_t i = 0; i < off && i < text.size(); ++i)
    if (text[i] == '\n') ++line;
  return line;
}

bool identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `token` occurs at `pos` with identifier boundaries.
bool word_at(const std::string& s, std::size_t pos, const std::string& token) {
  if (s.compare(pos, token.size(), token) != 0) return false;
  if (pos > 0 && identifier_char(s[pos - 1])) return false;
  const std::size_t end = pos + token.size();
  if (end < s.size() && identifier_char(s[end])) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Rule 4: hygiene (raw text).

void check_hygiene(const fs::path& file, const std::string& raw) {
  if (raw.find('\r') != std::string::npos)
    report(file, 1, "hygiene", "CRLF line endings (use LF)");
  if (!raw.empty() && raw.back() != '\n')
    report(file, line_of_offset(raw, raw.size()), "hygiene",
           "missing final newline");
  const auto lines = split_lines(raw);
  for (std::size_t i = 0; i + 1 <= lines.size(); ++i) {
    const std::string& ln = lines[i];
    if (i + 1 == lines.size() && ln.empty()) break;  // after final newline
    if (ln.find('\t') != std::string::npos)
      report(file, i + 1, "hygiene", "tab character (use spaces)");
    if (!ln.empty() &&
        (ln.back() == ' ' || (ln.size() > 1 && ln.back() == '\r' &&
                              ln[ln.size() - 2] == ' ')))
      report(file, i + 1, "hygiene", "trailing whitespace");
    if (ln.size() > kMaxLine)
      report(file, i + 1, "hygiene",
             "line exceeds " + std::to_string(kMaxLine) + " columns (" +
                 std::to_string(ln.size()) + ")");
  }
}

// ---------------------------------------------------------------------------
// Rule 1: layering (stripped text).

bool in_dir(const std::string& rel, const std::string& dir) {
  return rel.rfind(dir, 0) == 0;
}

void check_layering(const fs::path& file, const std::string& rel,
                    const std::string& stripped) {
  static const std::vector<std::string> kLowerLayers = {
      "src/parpp/core/", "src/parpp/la/", "src/parpp/tensor/",
      "src/parpp/data/", "src/parpp/util/"};
  bool lower = false;
  for (const auto& d : kLowerLayers) lower = lower || in_dir(rel, d);
  if (!lower) return;
  for (std::size_t pos = 0; (pos = stripped.find("mpsim", pos)) !=
                            std::string::npos;
       ++pos) {
    if (!word_at(stripped, pos, "mpsim")) continue;
    report(file, line_of_offset(stripped, pos), "layering",
           "storage/math layers must not reference mpsim (collectives "
           "belong to dist/ and par/)");
  }
}

// ---------------------------------------------------------------------------
// Rule 2: allocation discipline in hot kernels (stripped text, raw lines
// for the allow(alloc) escape).

bool allow_alloc(const std::vector<std::string>& raw_lines, std::size_t line) {
  const std::string kEscape = "parpp-lint: allow(alloc)";
  for (std::size_t l = line; l >= 1 && l + 1 >= line; --l) {
    if (l - 1 < raw_lines.size() &&
        raw_lines[l - 1].find(kEscape) != std::string::npos)
      return true;
    if (l == 1) break;
  }
  return false;
}

void check_alloc(const fs::path& file, const std::string& rel,
                 const std::string& stripped,
                 const std::vector<std::string>& raw_lines) {
  static const std::vector<std::string> kHotFiles = {
      "src/parpp/tensor/mttkrp_sparse.cpp",
      "src/parpp/tensor/mttkrp_fused.cpp",
      "src/parpp/tensor/mttv.cpp",
      "src/parpp/la/gemm.cpp",
  };
  bool hot = false;
  for (const auto& f : kHotFiles) hot = hot || rel == f;
  if (!hot) return;

  static const std::vector<std::string> kWordTokens = {"new", "malloc"};
  static const std::vector<std::string> kGrowthCalls = {
      "push_back", "emplace_back", "resize", "reserve"};

  for (std::size_t i = 0; i < stripped.size(); ++i) {
    for (const auto& t : kWordTokens) {
      if (!word_at(stripped, i, t)) continue;
      const std::size_t line = line_of_offset(stripped, i);
      if (!allow_alloc(raw_lines, line))
        report(file, line, "alloc",
               "naked '" + t + "' in a hot-loop file (lease from "
               "KernelWorkspace, or annotate an audited cold path)");
    }
    for (const auto& t : kGrowthCalls) {
      if (i == 0 || !word_at(stripped, i, t)) continue;
      const char prev = stripped[i - 1];
      if (prev != '.' && prev != '>') continue;  // .call( or ->call(
      std::size_t j = i + t.size();
      while (j < stripped.size() && stripped[j] == ' ') ++j;
      if (j >= stripped.size() || stripped[j] != '(') continue;
      const std::size_t line = line_of_offset(stripped, i);
      if (!allow_alloc(raw_lines, line))
        report(file, line, "alloc",
               "container growth ('" + t + "') in a hot-loop file "
               "(preallocate, or annotate an audited cold path)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule 3: tagged collectives (stripped text; macro names survive stripping
// because they are code, not strings).

void check_tags(const fs::path& file, const std::string& rel,
                const std::string& stripped) {
  if (in_dir(rel, "src/parpp/mpsim/")) return;  // the implementation layer
  // `shrink` is not a data collective, but its closing rendezvous on the
  // rebuilt communicator goes through the verifier, so call sites must
  // carry a tag like any other collective.
  static const std::vector<std::string> kCollectives = {
      "allreduce_sum", "allgather", "reduce_scatter_sum",
      "bcast",         "alltoall",  "barrier",
      "shrink"};
  for (std::size_t i = 1; i < stripped.size(); ++i) {
    for (const auto& name : kCollectives) {
      if (!word_at(stripped, i, name)) continue;
      const char prev = stripped[i - 1];
      if (prev != '.' && prev != '>') continue;  // member call only
      std::size_t j = i + name.size();
      while (j < stripped.size() && std::isspace(
                 static_cast<unsigned char>(stripped[j])))
        ++j;
      if (j >= stripped.size() || stripped[j] != '(') continue;
      // Walk the balanced argument list and demand the tag macro inside.
      int depth = 0;
      std::size_t k = j;
      for (; k < stripped.size(); ++k) {
        if (stripped[k] == '(') ++depth;
        if (stripped[k] == ')' && --depth == 0) break;
      }
      const std::string args = stripped.substr(j, k - j + 1);
      if (args.find("PARPP_COMM_TAG") == std::string::npos)
        report(file, line_of_offset(stripped, i), "comm-tag",
               "collective '" + name + "' without PARPP_COMM_TAG "
               "(the verifier needs the call site)");
    }
  }
  // Hand-rolled tags defeat the point of the macro (file/line capture).
  for (std::size_t pos = 0;
       (pos = stripped.find("CommTag", pos)) != std::string::npos; ++pos) {
    if (!word_at(stripped, pos, "CommTag")) continue;
    std::size_t j = pos + 7;
    while (j < stripped.size() &&
           std::isspace(static_cast<unsigned char>(stripped[j])))
      ++j;
    if (j < stripped.size() && stripped[j] == '{')
      report(file, line_of_offset(stripped, pos), "comm-tag",
             "hand-rolled CommTag{...} (use PARPP_COMM_TAG so the call "
             "site is captured)");
  }
}

// ---------------------------------------------------------------------------

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: parpp_lint <repo-root>\n";
    return 2;
  }
  const fs::path root = argv[1];
  const std::vector<std::string> kDirs = {"src", "tests", "bench",
                                          "examples", "tools"};
  std::size_t files = 0;
  for (const auto& dir : kDirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !lintable(entry.path())) continue;
      ++files;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      const std::string raw = ss.str();
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      const std::string stripped = strip_comments_and_strings(raw);
      const std::vector<std::string> raw_lines = split_lines(raw);
      check_hygiene(entry.path(), raw);
      check_layering(entry.path(), rel, stripped);
      check_alloc(entry.path(), rel, stripped, raw_lines);
      check_tags(entry.path(), rel, stripped);
    }
  }
  for (const auto& f : g_findings)
    std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  if (!g_findings.empty()) {
    std::cerr << g_findings.size() << " finding(s) in " << files
              << " file(s)\n";
    return 1;
  }
  std::cout << "parpp_lint: " << files << " files clean\n";
  return 0;
}
