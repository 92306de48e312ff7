// Shared helpers for the per-figure/table benchmark binaries. Each binary
// prints its paper anchor (figure/table number), the rows/series the paper
// reports, and the machine scale-down it applies. RAY_BENCH_QUICK=1 shrinks
// everything further for smoke runs.
//
// Besides the console output, benches emit a machine-readable
// BENCH_<name>.json (host, throughput, latency percentiles, config) via
// BenchJson, written to RAY_BENCH_JSON_DIR (default: current directory) so CI
// and before/after comparisons can diff runs without scraping stdout.
#ifndef RAY_BENCH_BENCH_UTIL_H_
#define RAY_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ray {
namespace bench {

inline bool QuickMode() {
  const char* v = std::getenv("RAY_BENCH_QUICK");
  return v != nullptr && v[0] == '1';
}

inline void Banner(const std::string& anchor, const std::string& what, const std::string& scaling) {
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", anchor.c_str(), what.c_str());
  std::printf("scale-down: %s\n", scaling.c_str());
  std::printf("==================================================================\n");
}

inline std::string HumanBytes(size_t bytes) {
  char buf[32];
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.0fGB", static_cast<double>(bytes) / (1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.0fMB", static_cast<double>(bytes) / (1ull << 20));
  } else if (bytes >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.0fKB", static_cast<double>(bytes) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%zuB", bytes);
  }
  return buf;
}

// Accumulates one bench run and writes it as BENCH_<name>.json. Supports
// scalar fields (numbers / strings) and flat arrays of numeric rows; that is
// enough for every bench's (config, throughput, percentiles) shape.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  BenchJson& Set(const std::string& key, double value) {
    scalars_.emplace_back(key, Number(value));
    return *this;
  }
  BenchJson& Set(const std::string& key, const std::string& value) {
    scalars_.emplace_back(key, Quote(value));
    return *this;
  }

  // Appends {"field": value, ...} to the array `array_name`.
  BenchJson& AddRow(const std::string& array_name,
                    std::initializer_list<std::pair<const char*, double>> fields) {
    std::string row = "{";
    bool first = true;
    for (const auto& [k, v] : fields) {
      if (!first) {
        row += ", ";
      }
      first = false;
      row += Quote(k) + ": " + Number(v);
    }
    row += "}";
    auto it = std::find_if(arrays_.begin(), arrays_.end(),
                           [&](const auto& a) { return a.first == array_name; });
    if (it == arrays_.end()) {
      arrays_.emplace_back(array_name, std::vector<std::string>{std::move(row)});
    } else {
      it->second.push_back(std::move(row));
    }
    return *this;
  }

  std::string Path() const {
    const char* dir = std::getenv("RAY_BENCH_JSON_DIR");
    std::string prefix = (dir != nullptr && dir[0] != '\0') ? std::string(dir) + "/" : "";
    return prefix + "BENCH_" + name_ + ".json";
  }

  void Write() const {
    std::string out = "{\n";
    out += "  " + Quote("bench") + ": " + Quote(name_);
    out += ",\n  " + Quote("host") + ": " + HostJson();
    for (const auto& [k, v] : scalars_) {
      out += ",\n  " + Quote(k) + ": " + v;
    }
    for (const auto& [name, rows] : arrays_) {
      out += ",\n  " + Quote(name) + ": [\n";
      for (size_t i = 0; i < rows.size(); ++i) {
        out += "    " + rows[i] + (i + 1 < rows.size() ? ",\n" : "\n");
      }
      out += "  ]";
    }
    out += "\n}\n";
    std::string path = Path();
    if (FILE* f = std::fopen(path.c_str(), "w")) {
      std::fwrite(out.data(), 1, out.size(), f);
      std::fclose(f);
      std::printf("[bench json: %s]\n", path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
    }
  }

 private:
  // Where the numbers came from, with the fields perfbench prints on its
  // `# host` line. The commit is the HEAD of the source checkout's own .git
  // at run time, not that of a repository it may sit inside.
  static std::string HostJson() {
    std::string commit = "unknown";
    if (FILE* git = popen("git --git-dir='" RAY_SOURCE_DIR "/.git' rev-parse --short HEAD 2>/dev/null",
                          "r")) {
      char hash[64];
      if (std::fscanf(git, "%63s", hash) == 1) {
        commit = hash;
      }
      pclose(git);
    }
    return "{" + Quote("cores") + ": " + Number(std::thread::hardware_concurrency()) + ", " +
           Quote("build_type") + ": " + Quote(RAY_BUILD_TYPE) + ", " + Quote("compiler") + ": " +
           Quote(__VERSION__) + ", " + Quote("commit") + ": " + Quote(commit) + "}";
  }
  static std::string Number(double v) {
    if (!std::isfinite(v)) {
      return "null";
    }
    char buf[32];
    if (v == static_cast<double>(static_cast<long long>(v)) && std::fabs(v) < 1e15) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof(buf), "%.6g", v);
    }
    return buf;
  }
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += c;
    }
    out += "\"";
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> scalars_;
  std::vector<std::pair<std::string, std::vector<std::string>>> arrays_;
};

}  // namespace bench
}  // namespace ray

#endif  // RAY_BENCH_BENCH_UTIL_H_
