#include "util/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace tridsolve::util {

Cli::Cli(int argc, const char* const* argv,
         std::vector<std::string> known_flags) {
  auto is_known = [&known_flags](const std::string& name) {
    return std::find(known_flags.begin(), known_flags.end(), name) !=
           known_flags.end();
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + arg +
                                  "' (flags are --name value)");
    }
    arg.erase(0, 2);
    if (arg == "help") {
      // One flag per line, sorted: tools/check_docs parses this output to
      // cross-check the README flag reference, so keep the format stable.
      std::vector<std::string> sorted = known_flags;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      std::printf("usage: %s [--flag[=value]]...\nflags:\n",
                  argc > 0 ? argv[0] : "prog");
      for (const std::string& f : sorted) std::printf("  --%s\n", f.c_str());
      std::exit(0);
    }
    std::string name;
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      name = arg;
      // `--flag value` form: consume the next token unless it is a flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";  // boolean switch
      }
    }
    if (!is_known(name))
      throw std::invalid_argument("unknown flag: --" + name);
    flags_[name] = std::move(value);
  }
}

bool Cli::has(const std::string& name) const { return flags_.count(name) > 0; }

std::optional<std::string> Cli::get(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const auto v = get(name);
  return v ? std::stoll(*v) : fallback;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  return v ? std::stod(*v) : fallback;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (*v == "on" || *v == "true" || *v == "yes" || *v == "1") return true;
  if (*v == "off" || *v == "false" || *v == "no" || *v == "0") return false;
  throw std::invalid_argument("--" + name +
                              " expects on/off, true/false, yes/no or 1/0, got '" +
                              *v + "'");
}

std::vector<std::string> with_obs_flags(std::vector<std::string> flags) {
  for (const char* name :
       {"json", "trace-json", "metrics-json", "spans-json", "sim-threads",
        "instrument", "vector", "check-hazards", "fault-seed", "fault-rate",
        "fault-kinds", "deadline-us", "max-retries", "plan-file"}) {
    if (std::find(flags.begin(), flags.end(), name) == flags.end()) {
      flags.emplace_back(name);
    }
  }
  return flags;
}

}  // namespace tridsolve::util
