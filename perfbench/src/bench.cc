#include "bench.h"

#include <sys/resource.h>

#include <cstdio>
#include <iostream>

#include "exp/json.h"
#include "exp/runner.h"

namespace perfbench {

std::string Metrics::json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(buf, sizeof buf, "%.17g", e.value);
    if (i != 0) out += ", ";
    out += stbpu::exp::json_quote(e.name) + ": {\"value\": " + buf +
           ", \"unit\": " + stbpu::exp::json_quote(e.unit) + "}";
  }
  return out + "}";
}

std::string Metrics::table() const {
  std::string out;
  char buf[160];
  for (const Entry& e : entries_) {
    std::snprintf(buf, sizeof buf, "  %-48s %.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    out += buf;
  }
  return out;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

bool OutputCheck::check(const std::string& op, const std::string& digest) {
  ++attempted_;
  const auto [first, inserted] = first_seen_.emplace(op, digest);
  std::string expected;
  if (have_reference_) {
    const auto it = reference_.find(op);
    if (it == reference_.end()) {
      ++failed_;
      std::cerr << "perfbench: no reference digest for operation '" << op << "'\n";
      return false;
    }
    expected = it->second;
  } else {
    expected = first->second;
  }
  if (digest == expected) return true;
  ++failed_;
  std::cerr << "perfbench: output of '" << op << "' is " << digest << ", expected "
            << expected << (inserted ? "" : " (repetition)") << "\n";
  return false;
}

void OutputCheck::fail(const std::string& op, const std::string& why) {
  ++attempted_;
  ++failed_;
  std::cerr << "perfbench: operation '" << op << "' failed: " << why << "\n";
}

bool load_reference(const std::string& path, const std::string& workload,
                    std::uint64_t seed, std::map<std::string, std::string>& out,
                    bool& found, std::string& err) {
  found = false;
  std::string text;
  if (!stbpu::exp::read_file(path, text)) {
    err = "cannot read " + path;
    return false;
  }
  stbpu::exp::JsonValue doc;
  if (!stbpu::exp::json_parse(text, doc, err)) {
    err = path + ": " + err;
    return false;
  }
  const stbpu::exp::JsonValue* per_seed = doc.find(workload);
  if (per_seed == nullptr) return true;
  const stbpu::exp::JsonValue* digests = per_seed->find(std::to_string(seed));
  if (digests == nullptr) return true;
  if (!digests->is_object()) {
    err = path + ": digests of " + workload + " seed " + std::to_string(seed) +
          " are not an object";
    return false;
  }
  for (const auto& [op, v] : digests->members()) {
    if (!v.is_string()) {
      err = path + ": digest of '" + op + "' is not a string";
      return false;
    }
    out[op] = v.text();
  }
  found = true;
  return true;
}

double ReferenceKernel::run() {
  constexpr unsigned kIterations = 3'000'000;
  const std::uint64_t mask = table_.size() - 1;
  std::uint64_t x = 0x2545F4914F6CDD1DULL, acc = 0;
  const Clock::time_point t0 = Clock::now();
  for (unsigned i = 0; i < kIterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t idx = (x >> 37) & mask;
    table_[idx] += x;
    acc ^= table_[(idx * 7 + 3) & mask] + (acc << 1);
  }
  const double s = seconds_between(t0, Clock::now());
  sink_ += acc;
  return s;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
