// strip_lint: token-level static analysis for determinism hygiene.
//
//   strip_lint [--root=DIR] [--allowlist=FILE] [--json=FILE]
//              [--strict] [--list-rules] [FILE...]
//
// Scans src/ tools/ bench/ examples/ under --root (default: the
// current directory) — or just the FILEs given — with the rule set in
// src/check/lint/rules.h. Replaces the grep heuristics that used to
// live in scripts/lint_determinism.sh: comments and string literals
// are lexed away before matching, so a banned name in a doc comment
// no longer counts, and AST-lite rules (unordered iteration,
// RandomStream copies, float ==) work where grep cannot.
//
// Findings print as `file:line:col: severity: message [rule]` with a
// fix hint; --json additionally writes a machine-readable
// `strip.lint/v1` document (atomically, for CI artifact upload).
//
// The allowlist (default: <root>/scripts/determinism_allowlist.txt)
// uses `<path-substring>:<rule-id> -- <justification>` lines; entries
// without a justification are a hard error, and entries that matched
// nothing are reported as dead (fatal under --strict, so CI keeps the
// list tight).
//
// Exit codes: 0 clean, 1 findings (or dead entries with --strict),
// 2 usage or I/O error.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "base/atomic_io.h"
#include "base/json_writer.h"
#include "check/lint/rules.h"

namespace {

namespace fs = std::filesystem;
using strip::check::lint::AllowEntry;
using strip::check::lint::Allowlist;
using strip::check::lint::ApplyAllowlist;
using strip::check::lint::Finding;
using strip::check::lint::LintOptions;
using strip::check::lint::LintSource;
using strip::check::lint::ParseAllowlist;
using strip::check::lint::RuleInfo;
using strip::check::lint::Rules;
using strip::check::lint::SeverityName;

[[noreturn]] void Fail(const std::string& message) {
  std::cerr << "strip_lint: " << message << "\n";
  std::exit(2);
}

bool FlagValue(const std::string& arg, const char* name,
               std::string* value) {
  const std::string prefix = std::string(name) + "=";
  if (arg.compare(0, prefix.size(), prefix) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

std::optional<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool HasSourceExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp";
}

// The directories the grep lint scanned; src/ additionally gets the
// src-only rules (float-eq, wallclock-include).
constexpr const char* kScanDirs[] = {"src", "tools", "bench", "examples"};

std::string RenderJson(const std::vector<Finding>& findings,
                       const std::vector<const AllowEntry*>& dead,
                       std::size_t files_scanned,
                       std::size_t allowlisted) {
  using Layout = strip::base::JsonWriter::Layout;
  std::ostringstream out;
  strip::base::JsonWriter json(out);
  json.BeginObject();
  json.Key("schema").String("strip.lint/v1");
  json.Key("files_scanned").Number(files_scanned);
  json.Key("allowlisted").Number(allowlisted);
  json.Key("findings").BeginArray();
  for (const Finding& f : findings) {
    json.BeginObject(Layout::kInline);
    json.Key("file").String(f.file);
    json.Key("line").Number(f.line);
    json.Key("col").Number(f.col);
    json.Key("rule").String(f.rule);
    json.Key("severity").String(SeverityName(f.severity));
    json.Key("message").String(f.message);
    json.Key("fix_hint").String(f.fix_hint);
    json.EndObject();
  }
  json.EndArray();
  json.Key("dead_allowlist_entries").BeginArray();
  for (const AllowEntry* entry : dead) {
    json.BeginObject(Layout::kInline);
    json.Key("path").String(entry->path);
    json.Key("rule").String(entry->rule);
    json.Key("line").Number(entry->line);
    json.EndObject();
  }
  json.EndArray();
  json.Key("ok").Bool(findings.empty() && dead.empty());
  json.EndObject();
  out << "\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string allowlist_path;
  std::string json_path;
  bool strict = false;
  std::vector<std::string> explicit_files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (FlagValue(arg, "--root", &value)) {
      root = value;
    } else if (FlagValue(arg, "--allowlist", &value)) {
      allowlist_path = value;
    } else if (FlagValue(arg, "--json", &value)) {
      json_path = value;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--list-rules") {
      for (const RuleInfo& rule : Rules()) {
        std::cout << rule.id << "  [" << SeverityName(rule.severity)
                  << "]  " << rule.summary << "\n";
      }
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      Fail("unknown flag '" + arg + "' (see --list-rules, --root, "
           "--allowlist, --json, --strict)");
    } else {
      explicit_files.push_back(arg);
    }
  }

  const fs::path root_path(root);
  if (allowlist_path.empty()) {
    const fs::path candidate =
        root_path / "scripts" / "determinism_allowlist.txt";
    if (fs::exists(candidate)) allowlist_path = candidate.string();
  }

  Allowlist allowlist;
  if (!allowlist_path.empty()) {
    const auto text = ReadFile(allowlist_path);
    if (!text.has_value()) Fail("cannot read allowlist " + allowlist_path);
    const std::string error = ParseAllowlist(*text, &allowlist);
    if (!error.empty()) Fail(allowlist_path + ": " + error);
  }

  // Build the file list, sorted for deterministic output.
  std::vector<fs::path> files;
  if (!explicit_files.empty()) {
    for (const std::string& file : explicit_files) files.emplace_back(file);
  } else {
    for (const char* dir : kScanDirs) {
      const fs::path base = root_path / dir;
      if (!fs::exists(base)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        if (entry.is_regular_file() && HasSourceExtension(entry.path())) {
          files.push_back(entry.path());
        }
      }
    }
  }
  std::sort(files.begin(), files.end());

  std::size_t raw_findings = 0;
  std::vector<Finding> findings;
  for (const fs::path& file : files) {
    const auto source = ReadFile(file);
    if (!source.has_value()) Fail("cannot read " + file.string());
    // Report paths relative to the root so allowlist entries and CI
    // output are machine-independent.
    std::string display = fs::relative(file, root_path).string();
    if (display.rfind("..", 0) == 0) display = file.string();

    LintOptions options;
    options.in_src_tree = display.rfind("src/", 0) == 0;
    // A .cc's unordered members are usually declared in its header:
    // feed the companion so loops over members are caught.
    if (file.extension() == ".cc" || file.extension() == ".cpp") {
      fs::path header = file;
      header.replace_extension(".h");
      if (const auto companion = ReadFile(header); companion.has_value()) {
        options.companion_sources.push_back(*companion);
      }
    }
    std::vector<Finding> file_findings =
        LintSource(display, *source, options);
    raw_findings += file_findings.size();
    std::vector<Finding> kept =
        ApplyAllowlist(std::move(file_findings), &allowlist);
    findings.insert(findings.end(),
                    std::make_move_iterator(kept.begin()),
                    std::make_move_iterator(kept.end()));
  }

  std::vector<const AllowEntry*> dead;
  // Dead-entry detection only makes sense on a full-tree scan; a
  // file-subset invocation legitimately misses most entries.
  if (explicit_files.empty()) {
    for (const AllowEntry& entry : allowlist.entries) {
      if (!entry.used) dead.push_back(&entry);
    }
  }

  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ":" << f.col << ": "
              << SeverityName(f.severity) << ": " << f.message << " ["
              << f.rule << "]\n    hint: " << f.fix_hint << "\n";
  }
  for (const AllowEntry* entry : dead) {
    std::cout << allowlist_path << ":" << entry->line
              << ": dead allowlist entry '" << entry->path << ":"
              << entry->rule << "' matched nothing — delete it\n";
  }

  const std::size_t allowlisted = raw_findings - findings.size();
  if (!json_path.empty()) {
    const std::string doc =
        RenderJson(findings, dead, files.size(), allowlisted);
    if (const auto error = strip::base::WriteFileAtomic(json_path, doc);
        error.has_value()) {
      Fail("cannot write " + json_path + ": " + *error);
    }
  }

  const bool failed = !findings.empty() || (strict && !dead.empty());
  if (failed) {
    std::cout << "strip_lint: FAILED (" << findings.size() << " finding"
              << (findings.size() == 1 ? "" : "s");
    if (!dead.empty()) {
      std::cout << ", " << dead.size() << " dead allowlist entr"
                << (dead.size() == 1 ? "y" : "ies");
    }
    std::cout << "; " << files.size() << " files scanned, " << allowlisted
              << " allowlisted)\n";
    return 1;
  }
  std::cout << "strip_lint: OK (" << files.size() << " files scanned, "
            << allowlisted << " allowlisted";
  if (!dead.empty()) {
    std::cout << ", " << dead.size() << " dead allowlist entries";
  }
  std::cout << ")\n";
  return 0;
}
