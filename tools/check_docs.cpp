// Docs-vs-binaries consistency checker (the `docs-check` CTest entry).
//
//   check_docs --readme README.md --bin-dir build
//
// Parses the README's consolidated CLI flag reference — the markdown
// table between the `<!-- flag-reference:begin -->` and
// `<!-- flag-reference:end -->` markers — and cross-checks it against
// the flags every bench/example binary actually accepts (read from each
// binary's `--help`, which prints the util::Cli known-flag list one per
// line). Both directions are enforced, so the README cannot document a
// flag a binary dropped, and a binary cannot grow a flag the README
// does not document:
//
//   1. every (flag, binary) pair in the table is accepted by that
//      binary's --help;
//   2. every flag in every binary's --help is documented in the table
//      for that binary.
//
// Table schema: `| `--flag ...` | binaries | description |` where the
// binaries cell is either the word `all` (every checked binary) or a
// comma-separated list of backticked binary names. Checked binaries are
// discovered from --bin-dir: bench/bench_* plus examples/quickstart.
//
// Exit code 0 when consistent; 1 with a per-violation diagnostic.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace fs = std::filesystem;

namespace {

int failures = 0;

void violation(const std::string& msg) {
  std::fprintf(stderr, "check_docs: FAIL: %s\n", msg.c_str());
  ++failures;
}

[[noreturn]] void fatal(const std::string& msg) {
  std::fprintf(stderr, "check_docs: ERROR: %s\n", msg.c_str());
  std::exit(1);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fatal("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Flags a binary accepts, parsed from its `--help` output (lines of the
/// form "  --name").
std::set<std::string> help_flags(const fs::path& binary) {
  const std::string cmd = binary.string() + " --help 2>/dev/null";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) fatal("cannot run " + cmd);
  std::string output;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output.append(buf, got);
  }
  const int rc = pclose(pipe);
  if (rc != 0) fatal(binary.string() + " --help exited with status " +
                     std::to_string(rc));
  std::set<std::string> flags;
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    const auto dashes = line.find("--");
    if (dashes == std::string::npos ||
        line.find_first_not_of(" \t") != dashes) {
      continue;
    }
    std::string name = line.substr(dashes + 2);
    const auto end = name.find_first_of(" \t\r");
    if (end != std::string::npos) name.resize(end);
    if (!name.empty()) flags.insert(name);
  }
  if (flags.empty()) fatal(binary.string() + " --help listed no flags");
  return flags;
}

/// Split one markdown table row into trimmed cell strings.
std::vector<std::string> table_cells(const std::string& line) {
  std::vector<std::string> cells;
  std::string cur;
  // Skip the leading '|'; a trailing '|' just yields an empty last cell.
  for (std::size_t i = line.find('|') + 1; i < line.size(); ++i) {
    if (line[i] == '|') {
      cells.push_back(cur);
      cur.clear();
    } else {
      cur += line[i];
    }
  }
  for (std::string& c : cells) {
    const auto b = c.find_first_not_of(" \t");
    const auto e = c.find_last_not_of(" \t");
    c = b == std::string::npos ? "" : c.substr(b, e - b + 1);
  }
  return cells;
}

/// Every backtick-quoted span in `cell`.
std::vector<std::string> backticked(const std::string& cell) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = cell.find('`', pos)) != std::string::npos) {
    const auto end = cell.find('`', pos + 1);
    if (end == std::string::npos) break;
    out.push_back(cell.substr(pos + 1, end - pos - 1));
    pos = end + 1;
  }
  return out;
}

/// Flag name from a cell like "`--check-hazards [MODE]`": the token after
/// "--" inside the first backtick span, cut at space/'='.
std::string cell_flag(const std::string& cell) {
  for (const std::string& span : backticked(cell)) {
    const auto dashes = span.find("--");
    if (dashes != 0) continue;
    std::string name = span.substr(2);
    const auto end = name.find_first_of(" =[");
    if (end != std::string::npos) name.resize(end);
    return name;
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  const tridsolve::util::Cli cli(argc, argv, {"readme", "bin-dir"});
  const std::string readme_path = cli.get_string("readme", "README.md");
  const std::string bin_dir = cli.get_string("bin-dir", ".");

  // ---- Discover the checked binaries and their accepted flags ----------
  std::map<std::string, std::set<std::string>> accepted;  // name -> flags
  const fs::path bench_dir = fs::path(bin_dir) / "bench";
  if (!fs::is_directory(bench_dir)) fatal(bench_dir.string() + " not found");
  for (const auto& entry : fs::directory_iterator(bench_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("bench_", 0) != 0) continue;
    if (!fs::is_regular_file(entry.path()) ||
        (fs::status(entry.path()).permissions() & fs::perms::owner_exec) ==
            fs::perms::none) {
      continue;
    }
    accepted[name] = help_flags(entry.path());
  }
  const fs::path quickstart = fs::path(bin_dir) / "examples" / "quickstart";
  if (!fs::exists(quickstart)) fatal(quickstart.string() + " not found");
  accepted["quickstart"] = help_flags(quickstart);
  if (accepted.size() < 2) fatal("no bench binaries found in " +
                                 bench_dir.string());

  // ---- Parse the README flag-reference table ---------------------------
  const std::string readme = read_file(readme_path);
  const std::string begin_marker = "<!-- flag-reference:begin -->";
  const std::string end_marker = "<!-- flag-reference:end -->";
  const auto begin = readme.find(begin_marker);
  const auto end = readme.find(end_marker);
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    fatal(readme_path + ": flag-reference markers missing or out of order");
  }

  // flag -> set of binaries the README documents it for
  std::map<std::string, std::set<std::string>> documented;
  std::istringstream section(
      readme.substr(begin + begin_marker.size(), end - begin));
  std::string line;
  while (std::getline(section, line)) {
    if (line.find('|') == std::string::npos) continue;
    const auto cells = table_cells(line);
    if (cells.size() < 2) continue;
    const std::string flag = cell_flag(cells[0]);
    if (flag.empty()) continue;  // header / separator rows
    std::set<std::string>& bins = documented[flag];
    if (cells[1].find("all") != std::string::npos &&
        backticked(cells[1]).empty()) {
      for (const auto& [name, _] : accepted) bins.insert(name);
    } else {
      for (const std::string& name : backticked(cells[1])) {
        if (!accepted.count(name)) {
          violation(readme_path + ": flag --" + flag +
                    " names unknown binary `" + name + "`");
          continue;
        }
        bins.insert(name);
      }
    }
  }
  if (documented.empty()) fatal(readme_path + ": flag-reference table empty");

  // ---- Direction 1: documented flags must be accepted ------------------
  for (const auto& [flag, bins] : documented) {
    for (const std::string& bin : bins) {
      if (!accepted.at(bin).count(flag)) {
        violation("README documents --" + flag + " for " + bin +
                  ", but `" + bin + " --help` does not list it");
      }
    }
  }

  // ---- Direction 2: accepted flags must be documented ------------------
  for (const auto& [bin, flags] : accepted) {
    for (const std::string& flag : flags) {
      const auto it = documented.find(flag);
      if (it == documented.end() || !it->second.count(bin)) {
        violation(bin + " accepts --" + flag +
                  ", but the README flag reference does not document it for"
                  " that binary");
      }
    }
  }

  if (failures > 0) {
    std::fprintf(stderr, "check_docs: %d violation(s)\n", failures);
    return 1;
  }
  std::size_t pairs = 0;
  for (const auto& [_, bins] : documented) pairs += bins.size();
  std::printf("check_docs: OK (%zu binaries, %zu documented flags, %zu"
              " flag/binary pairs)\n",
              accepted.size(), documented.size(), pairs);
  return 0;
}
