#include "fingerprint.hpp"

#include <fstream>
#include <sstream>
#include <thread>

#include "simrt/simd.hpp"

namespace portabench::tune {

std::string cpu_model_from_cpuinfo(const std::string& cpuinfo_text) {
  std::istringstream in(cpuinfo_text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    // Trim the key; cpuinfo pads with tabs/spaces before the colon.
    while (!key.empty() && (key.back() == ' ' || key.back() == '\t')) key.pop_back();
    if (key != "model name") continue;
    std::size_t start = colon + 1;
    while (start < line.size() && (line[start] == ' ' || line[start] == '\t')) ++start;
    std::string value = line.substr(start);
    while (!value.empty() && (value.back() == ' ' || value.back() == '\r')) value.pop_back();
    if (!value.empty()) return value;
  }
  return "unknown-cpu";
}

namespace {

MachineFingerprint read_fingerprint() {
  MachineFingerprint fp;
  std::ifstream in("/proc/cpuinfo");
  if (in) {
    std::ostringstream text;
    text << in.rdbuf();
    fp.cpu_model = cpu_model_from_cpuinfo(text.str());
  } else {
    fp.cpu_model = "unknown-cpu";
  }
  fp.cores = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  fp.simd_tier = std::string(simrt::simd_tier_name(simrt::simd_dispatch_tier()));
  return fp;
}

}  // namespace

const MachineFingerprint& local_fingerprint() {
  static const MachineFingerprint fp = read_fingerprint();
  return fp;
}

std::string fingerprint_key(const MachineFingerprint& fp) {
  return fp.cpu_model + "|" + std::to_string(fp.cores) + "|" + fp.simd_tier;
}

std::uint64_t fingerprint_hash(const MachineFingerprint& fp) {
  // FNV-1a, 64-bit: stable across builds and platforms (the hash is
  // persisted in bench artifacts, so it must not depend on std::hash).
  const std::string key = fingerprint_key(fp);
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace portabench::tune
