/// \file drhw_lint.cpp
/// Determinism linter for the drhw source tree.
///
/// Every guarantee this repository makes — golden Table 1 / Fig 6 pins,
/// 1-vs-8-thread campaign bit-identity, pinned report digests — rests on
/// the simulated timeline never observing anything nondeterministic: no
/// hash-table iteration order, no wall clock, no address-space layout.
/// The tier-1 tests catch a violation only after it drifts a pinned number;
/// this linter catches the hazard *pattern* at review time instead.
///
/// Rules (see rule_specs[] for the one-line summaries):
///  * unordered-iteration  Range-for or begin()-iteration over a variable
///                         declared as a std::unordered_* container. Hash
///                         iteration order is implementation-defined, so any
///                         escaping order is a bit-identity hazard. Lookups
///                         (find/count/try_emplace) are fine and not flagged.
///  * wall-clock           std::chrono clocks, time()/clock()/gettimeofday,
///                         std::random_device, rand()/srand() outside the
///                         sanctioned files (util/time.hpp, util/rng.hpp).
///                         Simulated time comes from the event loop; entropy
///                         comes from seeded drhw::Rng streams.
///  * pointer-order        Ordering comparisons on pointer values
///                         (std::less<T*>, smart_ptr.get() < ..., casts to
///                         uintptr_t). Allocation addresses differ run to
///                         run, so any pointer-keyed order escapes into
///                         results nondeterministically.
///  * uninit-member        A scalar data member declared without an
///                         initializer inside a class/struct body. Reading
///                         one before every constructor path stores to it is
///                         undefined behaviour — and a classic source of
///                         run-to-run divergence.
///
/// Suppressions (a reason is mandatory; bare allow() is itself a finding);
/// the rule name is one of the identifiers above:
///   code;  // drhw-lint: allow(wall-clock: reason)     same or next line
///   // drhw-lint: allow-file(wall-clock: reason)       whole file
///
/// Self-test fixtures mark every expected finding with
///   code;  // drhw-lint: expect(wall-clock)
/// and `drhw_lint --self-test <fixture...>` fails on any mismatch in either
/// direction, so the fixture suite pins both detection and suppression.
///
/// Exit codes: 0 clean, 1 findings (or self-test mismatch), 2 usage error.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct RuleSpec {
  const char* name;
  const char* summary;
};

constexpr RuleSpec rule_specs[] = {
    {"unordered-iteration",
     "iteration over a std::unordered_* container (order is "
     "implementation-defined)"},
    {"wall-clock",
     "wall-clock / ambient-entropy source outside util/time + util/rng"},
    {"pointer-order",
     "ordering comparison on pointer values (address-space dependent)"},
    {"uninit-member",
     "scalar data member declared without an initializer"},
    {"bad-suppression",
     "malformed drhw-lint directive (unknown rule or missing reason)"},
};

bool is_known_rule(const std::string& rule) {
  for (const RuleSpec& spec : rule_specs)
    if (rule == spec.name) return true;
  return false;
}

struct Finding {
  std::string file;
  long line = 0;
  std::string rule;
  std::string message;
};

struct Suppression {
  std::string file;
  long line = 0;
  std::string rule;
  std::string reason;
  bool whole_file = false;
};

struct Expectation {
  long line = 0;
  std::string rule;
};

/// One source line split into analyzable code and directive-bearing comment.
struct SplitLine {
  std::string code;     ///< comments stripped, string/char literals blanked
  std::string comment;  ///< concatenated comment text of the line
};

/// Strips comments and blanks literals so hazard regexes never match inside
/// either. Tracks /* */ state across lines via `in_block`.
SplitLine split_line(const std::string& raw, bool& in_block) {
  SplitLine out;
  std::string& code = out.code;
  code.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (in_block) {
      if (raw[i] == '*' && i + 1 < raw.size() && raw[i + 1] == '/') {
        in_block = false;
        ++i;
      } else {
        out.comment.push_back(raw[i]);
      }
      continue;
    }
    const char c = raw[i];
    if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '/') {
      out.comment.append(raw.substr(i + 2));
      break;
    }
    if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '*') {
      in_block = true;
      ++i;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      code.push_back(quote);
      ++i;
      while (i < raw.size()) {
        if (raw[i] == '\\' && i + 1 < raw.size()) {
          i += 2;
          continue;
        }
        if (raw[i] == quote) break;
        ++i;
      }
      code.push_back(quote);
      continue;
    }
    code.push_back(c);
  }
  return out;
}

/// Parses every `drhw-lint: <verb>(<body>)` directive in a comment.
struct Directive {
  std::string verb;  ///< allow | allow-file | expect
  std::string body;  ///< rule[: reason]
};

std::vector<Directive> parse_directives(const std::string& comment) {
  std::vector<Directive> out;
  static const std::regex re(R"(drhw-lint:\s*([a-z-]+)\s*\(([^)]*)\))");
  auto begin = std::sregex_iterator(comment.begin(), comment.end(), re);
  for (auto it = begin; it != std::sregex_iterator(); ++it)
    out.push_back({(*it)[1].str(), (*it)[2].str()});
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

/// The per-file analysis pass.
class FileLinter {
 public:
  FileLinter(std::string path, std::vector<std::string> lines)
      : path_(std::move(path)), lines_(std::move(lines)) {}

  void run() {
    split_all();
    collect_directives();
    collect_unordered_names();
    for (std::size_t i = 0; i < split_.size(); ++i) {
      const long line = static_cast<long>(i) + 1;
      const std::string& code = split_[i].code;
      if (code.empty()) {
        track_scopes(code);
        continue;
      }
      check_unordered_iteration(line, code);
      check_wall_clock(line, code);
      check_pointer_order(line, code);
      check_uninit_member(line, code);
      track_scopes(code);
    }
    check_expectations();
  }

  const std::vector<Finding>& findings() const { return findings_; }
  const std::vector<Suppression>& suppressions() const { return used_; }
  const std::vector<Expectation>& expectations() const { return expect_; }
  /// Self-test: expectations that no finding matched.
  const std::vector<Expectation>& unmet() const { return unmet_; }

 private:
  /// Is this one of the sanctioned time/entropy homes?
  bool sanctioned_source() const {
    return path_.size() >= 12 &&
           (ends_with(path_, "util/time.hpp") ||
            ends_with(path_, "util/rng.hpp"));
  }

  static bool ends_with(const std::string& s, const std::string& tail) {
    return s.size() >= tail.size() &&
           s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
  }

  void split_all() {
    split_.reserve(lines_.size());
    bool in_block = false;
    for (const std::string& raw : lines_)
      split_.push_back(split_line(raw, in_block));
  }

  void collect_directives() {
    for (std::size_t i = 0; i < split_.size(); ++i) {
      const long line = static_cast<long>(i) + 1;
      for (const Directive& d : parse_directives(split_[i].comment)) {
        if (d.verb == "expect") {
          const std::string rule = trim(d.body);
          if (!is_known_rule(rule)) {
            emit(line, "bad-suppression",
                 "expect() names unknown rule '" + rule + "'");
            continue;
          }
          // A full-line comment expects the finding on the next code line.
          const long at = split_[i].code.find_first_not_of(" \t") ==
                                  std::string::npos
                              ? line + 1
                              : line;
          expect_.push_back({at, rule});
          continue;
        }
        if (d.verb != "allow" && d.verb != "allow-file") {
          emit(line, "bad-suppression",
               "unknown drhw-lint directive '" + d.verb + "'");
          continue;
        }
        const std::size_t colon = d.body.find(':');
        const std::string rule = trim(d.body.substr(0, colon));
        const std::string reason =
            colon == std::string::npos ? "" : trim(d.body.substr(colon + 1));
        if (!is_known_rule(rule)) {
          emit(line, "bad-suppression",
               d.verb + "() names unknown rule '" + rule + "'");
          continue;
        }
        if (reason.empty()) {
          emit(line, "bad-suppression",
               d.verb + "(" + rule + ") needs a ': reason'");
          continue;
        }
        Suppression s{path_, line, rule, reason, d.verb == "allow-file"};
        declared_.push_back(s);
      }
    }
  }

  /// Gathers every identifier declared as an unordered container anywhere in
  /// the file (members may be declared after their uses in a class body).
  void collect_unordered_names() {
    static const std::regex decl(
        R"((?:std::)?unordered_(?:map|set|multimap|multiset))"
        R"(\s*<[^;{}()]*>\s+([A-Za-z_]\w*)\s*[;{=(])");
    for (const SplitLine& sl : split_) {
      auto begin =
          std::sregex_iterator(sl.code.begin(), sl.code.end(), decl);
      for (auto it = begin; it != std::sregex_iterator(); ++it)
        unordered_names_.insert((*it)[1].str());
    }
  }

  void check_unordered_iteration(long line, const std::string& code) {
    // Range-for over a known unordered name: `for (... : name)` — possibly
    // with a member access prefix (this->name) or trailing parens stripped.
    static const std::regex range_for(
        R"(for\s*\([^;)]*:\s*(?:this->)?([A-Za-z_]\w*)\s*\))");
    std::smatch m;
    std::string rest = code;
    while (std::regex_search(rest, m, range_for)) {
      if (unordered_names_.count(m[1].str()) > 0)
        emit(line, "unordered-iteration",
             "range-for over unordered container '" + m[1].str() +
                 "' — iteration order is implementation-defined");
      rest = m.suffix();
    }
    // Explicit iterator walk: `name.begin()` / `name.cbegin()` feeding a
    // loop or algorithm on this line.
    static const std::regex iter_walk(R"(([A-Za-z_]\w*)\.c?begin\s*\()");
    rest = code;
    while (std::regex_search(rest, m, iter_walk)) {
      if (unordered_names_.count(m[1].str()) > 0)
        emit(line, "unordered-iteration",
             "iterator walk over unordered container '" + m[1].str() +
                 "' — iteration order is implementation-defined");
      rest = m.suffix();
    }
  }

  void check_wall_clock(long line, const std::string& code) {
    if (sanctioned_source()) return;
    static const std::regex hazards[] = {
        std::regex(
            R"(std::chrono::)"
            R"((?:system_clock|steady_clock|high_resolution_clock))"),
        std::regex(R"(\brandom_device\b)"),
        std::regex(R"(\bsrand\s*\()"),
        std::regex(R"((?:^|[^:\w.])rand\s*\(\s*\))"),
        std::regex(R"(\bgettimeofday\b)"),
        std::regex(R"((?:^|[^:\w.])clock\s*\(\s*\))"),
        std::regex(R"((?:^|[^:\w.])time\s*\(\s*(?:NULL|nullptr|0)?\s*\))"),
    };
    for (const std::regex& re : hazards)
      if (std::regex_search(code, re)) {
        emit(line, "wall-clock",
             "wall-clock / ambient-entropy source outside util/time + "
             "util/rng — simulated state must not observe it");
        return;  // one finding per line is enough
      }
  }

  void check_pointer_order(long line, const std::string& code) {
    static const std::regex hazards[] = {
        std::regex(R"(std::less\s*<[^<>;]*\*\s*>)"),
        std::regex(R"(reinterpret_cast\s*<\s*(?:std::)?u?intptr_t)"),
        std::regex(R"(\.get\(\)\s*[<>]=?[^<>])"),
        std::regex(R"([^<>\-][<>]=?\s*[A-Za-z_]\w*(?:\.|->)get\(\))"),
    };
    for (const std::regex& re : hazards)
      if (std::regex_search(code, re)) {
        emit(line, "pointer-order",
             "ordering comparison on pointer values — allocation addresses "
             "differ run to run");
        return;
      }
  }

  void check_uninit_member(long line, const std::string& code) {
    if (scopes_.empty() || !scopes_.back().is_record) return;
    static const std::regex member(
        R"(^\s*(?:mutable\s+)?((?:unsigned\s+|signed\s+)?)"
        R"((?:int|long|long\s+long|short|char|bool|float|double)|)"
        R"(std::size_t|size_t|std::ptrdiff_t|)"
        R"(std::u?int(?:8|16|32|64)_t|u?int(?:8|16|32|64)_t|)"
        R"(time_us|ConfigId|SubtaskId|PhysTileId|TaskId))"
        R"(\s+([A-Za-z_]\w*)\s*;\s*$)");
    std::smatch m;
    if (!std::regex_match(code, m, member)) return;
    emit(line, "uninit-member",
         "scalar member '" + m[2].str() +
             "' has no initializer — give it one at the declaration");
  }

  /// Brace-depth scope tracking so member smells fire only directly inside
  /// class/struct bodies (not in functions, enums or initializer lists).
  struct Scope {
    bool is_record = false;
  };

  void track_scopes(const std::string& code) {
    static const std::regex record_head(
        R"((?:^|[\s;{}])(?:class|struct)\s+[A-Za-z_]\w*)");
    static const std::regex enum_head(R"((?:^|[\s;{}])enum\b)");
    if (std::regex_search(code, enum_head)) pending_enum_ = true;
    if (std::regex_search(code, record_head) &&
        code.find(';') == std::string::npos)
      pending_record_ = true;
    for (const char c : code) {
      if (c == '{') {
        Scope s;
        s.is_record = pending_record_ && !pending_enum_;
        scopes_.push_back(s);
        pending_record_ = false;
        pending_enum_ = false;
      } else if (c == '}') {
        if (!scopes_.empty()) scopes_.pop_back();
      } else if (c == ';') {
        // `class X;` forward declarations never open a body.
        pending_record_ = false;
        pending_enum_ = false;
      }
    }
  }

  /// Records a finding unless a matching allow()/allow-file() covers it.
  void emit(long line, const std::string& rule, const std::string& message) {
    for (const Suppression& s : declared_) {
      if (s.rule != rule) continue;
      if (!s.whole_file && s.line != line && s.line != line - 1) continue;
      if (rule == "bad-suppression") continue;  // not suppressible
      used_.push_back(s);
      suppressed_.push_back({line, rule});
      return;
    }
    findings_.push_back({path_, line, rule, message});
  }

  /// Self-test bookkeeping: match expectations against what actually fired
  /// (findings and suppressed findings both count as "the rule fired").
  void check_expectations() {
    std::multiset<std::pair<long, std::string>> fired;
    for (const Finding& f : findings_) fired.insert({f.line, f.rule});
    for (const auto& [line, rule] : suppressed_) fired.insert({line, rule});
    for (const Expectation& e : expect_) {
      const auto it = fired.find({e.line, e.rule});
      if (it != fired.end())
        fired.erase(it);
      else
        unmet_.push_back(e);
    }
  }

  std::string path_;
  std::vector<std::string> lines_;
  std::vector<SplitLine> split_;
  std::set<std::string> unordered_names_;
  std::vector<Suppression> declared_;
  std::vector<Suppression> used_;
  std::vector<std::pair<long, std::string>> suppressed_;
  std::vector<Finding> findings_;
  std::vector<Expectation> expect_;
  std::vector<Expectation> unmet_;
  std::vector<Scope> scopes_;
  bool pending_record_ = false;
  bool pending_enum_ = false;
};

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

std::vector<std::string> read_lines(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

void write_json_report(const std::string& path,
                       const std::vector<Finding>& findings,
                       const std::vector<Suppression>& suppressions,
                       std::size_t files_scanned) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\n  \"schema\": \"drhw-lint-v1\",\n";
  out << "  \"files_scanned\": " << files_scanned << ",\n";
  out << "  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i ? "," : "") << "\n    {\"file\": \"" << json_escape(f.file)
        << "\", \"line\": " << f.line << ", \"rule\": \"" << f.rule
        << "\", \"message\": \"" << json_escape(f.message) << "\"}";
  }
  out << (findings.empty() ? "" : "\n  ") << "],\n";
  out << "  \"suppressions\": [";
  for (std::size_t i = 0; i < suppressions.size(); ++i) {
    const Suppression& s = suppressions[i];
    out << (i ? "," : "") << "\n    {\"file\": \"" << json_escape(s.file)
        << "\", \"line\": " << s.line << ", \"rule\": \"" << s.rule
        << "\", \"reason\": \"" << json_escape(s.reason) << "\"}";
  }
  out << (suppressions.empty() ? "" : "\n  ") << "]\n}\n";
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] <file-or-directory>...\n"
      << "  --json <file>          write a machine-readable findings report\n"
      << "  --max-suppressions <n> fail when more than n suppressions are "
         "used\n"
      << "  --self-test            treat inputs as fixtures annotated with\n"
      << "                         'drhw-lint: expect(<rule>)' markers\n"
      << "  --list-rules           print the rule set and exit\n"
      << "  --quiet                findings only, no summary\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  std::string json_path;
  long max_suppressions = -1;
  bool self_test = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--max-suppressions" && i + 1 < argc) {
      max_suppressions = std::atol(argv[++i]);
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-rules") {
      for (const RuleSpec& spec : rule_specs)
        std::cout << spec.name << "  —  " << spec.summary << "\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown option '" << arg << "'\n";
      return usage(argv[0]);
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) return usage(argv[0]);

  std::vector<fs::path> files;
  for (const fs::path& root : roots) {
    if (fs::is_directory(root)) {
      for (const auto& entry : fs::recursive_directory_iterator(root))
        if (entry.is_regular_file() && lintable(entry.path()))
          files.push_back(entry.path());
    } else if (fs::is_regular_file(root)) {
      files.push_back(root);
    } else {
      std::cerr << "no such file or directory: " << root.string() << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  std::vector<Suppression> suppressions;
  long unmet_expectations = 0;
  long expectations = 0;
  for (const fs::path& file : files) {
    FileLinter linter(file.generic_string(), read_lines(file));
    linter.run();
    if (self_test) {
      expectations += static_cast<long>(linter.expectations().size());
      for (const Expectation& e : linter.unmet()) {
        std::cerr << file.generic_string() << ":" << e.line
                  << ": self-test: expected a '" << e.rule
                  << "' finding here, none fired\n";
        ++unmet_expectations;
      }
      // In self-test mode an expected finding is correct behaviour; only
      // findings *without* an expect marker are failures.
      for (const Finding& f : linter.findings()) {
        const auto& exp = linter.expectations();
        const bool expected =
            std::any_of(exp.begin(), exp.end(), [&](const Expectation& e) {
              return e.line == f.line && e.rule == f.rule;
            });
        if (!expected) findings.push_back(f);
      }
    } else {
      findings.insert(findings.end(), linter.findings().begin(),
                      linter.findings().end());
    }
    suppressions.insert(suppressions.end(), linter.suppressions().begin(),
                        linter.suppressions().end());
  }

  for (const Finding& f : findings)
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";

  if (!json_path.empty())
    write_json_report(json_path, findings, suppressions, files.size());

  const bool over_budget =
      max_suppressions >= 0 &&
      static_cast<long>(suppressions.size()) > max_suppressions;
  if (!quiet) {
    std::cout << files.size() << " files, " << findings.size()
              << " finding(s), " << suppressions.size()
              << " suppression(s) used";
    if (self_test)
      std::cout << ", " << expectations << " expectation(s), "
                << unmet_expectations << " unmet";
    std::cout << "\n";
    if (over_budget)
      std::cout << "suppression budget exceeded: " << suppressions.size()
                << " > " << max_suppressions << "\n";
  }
  return (findings.empty() && unmet_expectations == 0 && !over_budget) ? 0
                                                                       : 1;
}
