#include "common/argparse.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace clash {

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string ArgParser::get(const std::string& name,
                           const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string ArgParser::repro(
    std::initializer_list<std::pair<const char*, std::string>> flags) const {
  std::string out = program_;
  for (const auto& [name, value] : flags) {
    out += " --";
    out += name;
    out += "=";
    out += value;
  }
  return out;
}

bool write_json_artifact(const ArgParser& args, const std::string& json) {
  const std::string path = args.get("json", "");
  if (path.empty()) return true;  // artifact not requested
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  return true;
}

}  // namespace clash
