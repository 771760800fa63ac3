// Standalone benchmark program. One invocation measures one workload:
//
//   blaze_benchmark --workload W --seed N --seconds S --trace 0|1
//                   [--smoke] [--out DIR] [--git-sha SHA]
//
// It prints every metric by name with its unit, writes the same numbers with
// their quartiles and a machine fingerprint to DIR/results/, and prints the
// result as one JSON object on the last line of stdout. --trace 1 reports the
// per-layer metrics instead of the end-to-end ones and writes a Chrome trace
// of its last traced round to DIR/traces/. README.md describes the workloads
// and the metrics.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/bench.h"
#include "src/common/json.h"
#include "src/common/stopwatch.h"
#include "src/common/trace.h"

extern char** environ;

namespace blaze::bench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  bool rss_child = false;  // internal: run one round for the peak-RSS parent
  size_t variant = 0;      // internal: the input variant an RSS child runs
  std::string out = "build-bench";
  std::string git_sha = "unknown";
};

constexpr int kMinRounds = 3;
constexpr int kRssChildren = 3;

bool ParseArgs(int argc, char** argv, Options* opt, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    }
    if (key == "--smoke" || key == "--rss-child") {
      (key == "--smoke" ? opt->smoke : opt->rss_child) = true;
      continue;
    }
    if (eq == std::string::npos) {
      if (i + 1 >= argc) {
        *error = key + " needs a value";
        return false;
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      opt->trace = value == "1";
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
    } else if (key == "--out") {
      opt->out = value;
    } else if (key == "--git-sha") {
      opt->git_sha = value;
    } else if (key == "--variant") {
      opt->variant = std::strtoull(value.c_str(), &end, 10);
    } else {
      *error = "unknown flag " + key;
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      *error = "bad number for " + key + ": " + value;
      return false;
    }
  }
  const std::vector<std::string> names = WorkloadNames();
  if (std::find(names.begin(), names.end(), opt->workload) == names.end()) {
    *error = "--workload must be one of pr-blaze, pr-lru, kmeans-blaze, serve-mix";
    return false;
  }
  if (!(opt->seconds > 0.0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

// BLAZE_WORKERS, BLAZE_TELEMETRY_*, BLAZE_TRACE and the BLAZE_BENCH_* knobs
// all change what the engine does; the benchmark always measures the
// engine's defaults.
void ClearEngineEnvironment() {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("BLAZE_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) {
    unsetenv(name.c_str());
  }
}

std::string Number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quoted(const std::string& s) { return "\"" + json::Escape(s) + "\""; }

// Peak resident set, in MB, of a child process that runs one round of the
// workload on input `variant`. Called before this process does any work: a
// child's ru_maxrss starts from the resident set its parent had at fork.
double ChildPeakRssMb(const Options& opt, size_t variant) {
  const char* self = "/proc/self/exe";
  const std::string seed = std::to_string(opt.seed);
  const std::string variant_arg = std::to_string(variant);
  std::vector<const char*> args = {self,   "--rss-child", "--workload", opt.workload.c_str(),
                                   "--seed", seed.c_str(), "--variant", variant_arg.c_str()};
  if (opt.smoke) {
    args.push_back("--smoke");
  }
  args.push_back(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pid == 0) {
    dup2(STDERR_FILENO, STDOUT_FILENO);  // the parent owns stdout
    execv(self, const_cast<char* const*>(args.data()));
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

Metric Summarize(const char* name, const char* unit, double value,
                 const std::vector<double>& samples) {
  const auto [q1, q3] = Quartiles(samples);
  return {name, unit, value, q1, q3, samples.size(), ""};
}

struct Outcome {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int rounds = 0;
  int warmup = 0;
  std::string error;  // set when the measurement itself is invalid
};

void Count(const RoundResult& round, Outcome* out) {
  out->attempted += round.unit_ms.size();
  out->failed += round.failed;
}

// Rounds to run: at least kMinRounds, at least --seconds, and whole cycles
// over the workload's input variants.
bool MoreRounds(const Options& opt, const Workload& workload, int rounds,
                const Stopwatch& clock) {
  if (opt.smoke) {
    return rounds < 1;
  }
  const int variants = static_cast<int>(workload.variants());
  return rounds < std::max(kMinRounds, variants) || rounds % variants != 0 ||
         clock.ElapsedSeconds() < opt.seconds;
}

// End-to-end metrics: untimed reference and warm-up, then rounds back to
// back for the requested time.
Outcome MeasureEndToEnd(const Options& opt, Workload& workload) {
  Outcome out;
  std::vector<double> rss;
  for (int i = 0; i < (opt.smoke ? 1 : kRssChildren); ++i) {
    rss.push_back(ChildPeakRssMb(opt, i % workload.variants()));
    if (std::isnan(rss.back())) {
      out.error = "peak-RSS child process failed";
      return out;
    }
  }
  workload.PrepareReference();
  if (!opt.smoke) {
    Count(workload.RunRound(0, nullptr), &out);  // discarded warm-up
    out.warmup = 1;
  }

  std::vector<double> units;
  std::vector<double> setups;
  std::vector<double> round_rates;
  double total_units = 0.0;
  double total_work_s = 0.0;
  Stopwatch clock;
  while (MoreRounds(opt, workload, out.rounds, clock)) {
    const RoundResult round = workload.RunRound(out.rounds % workload.variants(), nullptr);
    Count(round, &out);
    ++out.rounds;
    units.insert(units.end(), round.unit_ms.begin(), round.unit_ms.end());
    setups.push_back(round.setup_ms / 1e3);
    const double work_s = round.work_ms / 1e3;
    round_rates.push_back(static_cast<double>(round.unit_ms.size()) / work_s);
    total_units += static_cast<double>(round.unit_ms.size());
    total_work_s += work_s;
  }

  out.metrics.push_back(Summarize("act_ms", "ms", Median(units), units));
  // A percentile of the samples has no quartiles of its own.
  const double tail = Percentile(units, workload.tail_quantile());
  out.metrics.push_back({"tail_ms", "ms", tail, tail, tail, units.size(), ""});
  out.metrics.push_back(
      Summarize("throughput_per_s", "1/s", total_units / total_work_s, round_rates));
  out.metrics.push_back(Summarize("peak_rss_mb", "MB", Median(rss), rss));
  out.metrics.push_back(Summarize("setup_s", "s", Median(setups), setups));
  return out;
}

// Per-layer metrics: traced and untraced rounds alternate after the warm-up,
// so the tracing overhead is measured under the same conditions.
Outcome MeasureLayers(const Options& opt, Workload& workload) {
  Outcome out;
  workload.PrepareReference();
  const RoundResult cold = workload.RunRound(0, nullptr);
  Count(cold, &out);
  out.warmup = 1;

  LayerTotals totals;
  std::vector<double> traced;
  std::vector<double> untraced;
  trace::Dump last;
  Stopwatch clock;
  for (int untraced_rounds = 0; MoreRounds(opt, workload, out.rounds, clock);) {
    if (untraced_rounds == out.rounds) {
      const RoundResult round =
          workload.RunRound(untraced_rounds++ % workload.variants(), nullptr);
      Count(round, &out);
      untraced.insert(untraced.end(), round.unit_ms.begin(), round.unit_ms.end());
      continue;
    }
    Probe probe;
    const RoundResult round = workload.RunRound(out.rounds % workload.variants(), &probe);
    Count(round, &out);
    ++out.rounds;
    traced.insert(traced.end(), round.unit_ms.begin(), round.unit_ms.end());
    last = trace::Drain();
    AccumulateRound(last, probe, round.unit_ms.size(), &totals);
    trace::Reset();
  }
  out.metrics = LayerMetrics(totals, Median(cold.unit_ms), traced, untraced);
  if (totals.dropped_events > 0) {
    out.error = "the flight recorder dropped " + std::to_string(totals.dropped_events) +
                " events; per-layer numbers are incomplete";
  }

  const std::filesystem::path dir = std::filesystem::path(opt.out) / "traces";
  std::filesystem::create_directories(dir);
  const std::string path =
      (dir / (opt.workload + "-seed" + std::to_string(opt.seed) + ".json")).string();
  if (!trace::WriteChromeTrace(last, path)) {
    out.error = "cannot write " + path;
  } else {
    std::fprintf(stderr, "chrome trace of the last traced round: %s\n", path.c_str());
  }
  return out;
}

std::string FingerprintJson(const Options& opt, const Outcome& out) {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << Quoted(std::string("gcc ") + __VERSION__)
     << ", \"build_type\": " << Quoted(BENCH_BUILD_TYPE)
     << ", \"git_sha\": " << Quoted(opt.git_sha) << ", \"seed\": " << opt.seed
     << ", \"seconds\": " << Number(opt.seconds) << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"smoke\": " << (opt.smoke ? "true" : "false") << ", \"rounds\": " << out.rounds
     << ", \"warmup\": " << out.warmup << "}";
  return os.str();
}

// "correct", "attempted", "failed" and "metrics" of the result object; with
// `detail`, each metric also carries its quartiles, n and any null reason.
std::string ResultFields(const Outcome& out, bool detail) {
  std::ostringstream os;
  os << "\"correct\": " << (out.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    os << (i == 0 ? "" : ", ") << Quoted(m.name) << ": {\"value\": " << Number(m.value)
       << ", \"unit\": " << Quoted(m.unit);
    if (detail) {
      os << ", \"q1\": " << Number(m.q1) << ", \"q3\": " << Number(m.q3) << ", \"n\": " << m.n;
      if (!m.note.empty()) {
        os << ", \"note\": " << Quoted(m.note);
      }
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

void WriteResultFile(const Options& opt, const Outcome& out) {
  const std::filesystem::path dir = std::filesystem::path(opt.out) / "results";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path =
      dir / (opt.workload + "-seed" + std::to_string(opt.seed) + "-trace" +
             (opt.trace ? "1" : "0") + (opt.smoke ? "-smoke" : "") + ".json");
  std::ofstream file(path, std::ios::trunc);
  file << "{\"workload\": " << Quoted(opt.workload)
       << ", \"fingerprint\": " << FingerprintJson(opt, out) << ", "
       << ResultFields(out, /*detail=*/true) << "}\n";
}

int Run(int argc, char** argv) {
  ClearEngineEnvironment();
  Options opt;
  std::string error;
  if (!ParseArgs(argc, argv, &opt, &error)) {
    std::fprintf(stderr, "blaze_benchmark: %s\n", error.c_str());
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(opt.workload, opt.seed, opt.smoke);
  if (opt.rss_child) {
    workload->RunRound(opt.variant % workload->variants(), nullptr);
    return 0;
  }

  std::printf("workload %s, seed %llu, %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "per-layer metrics (traced)" : "end-to-end metrics");
  std::fflush(stdout);
  const Outcome out = opt.trace ? MeasureLayers(opt, *workload)
                                : MeasureEndToEnd(opt, *workload);
  std::printf("fingerprint %s\n", FingerprintJson(opt, out).c_str());
  for (const Metric& m : out.metrics) {
    if (opt.trace) {
      std::printf("%-36s %14.6g %-6s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.note.empty() ? "" : "  null: ", m.note.c_str());
    } else {
      std::printf("%-36s %14.6g %-6s q1 %-12.6g q3 %-12.6g n %zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.q1, m.q3, m.n);
    }
  }
  if (opt.trace) {
    std::printf("per-layer values are per %s, over %zu traced %ss\n", workload->unit_name(),
                out.metrics.empty() ? size_t{0} : out.metrics[0].n, workload->unit_name());
  }
  std::printf("%llu of %llu %ss gave a wrong result\n",
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted), workload->unit_name());
  if (!out.error.empty()) {
    std::fprintf(stderr, "blaze_benchmark: %s\n", out.error.c_str());
    return 1;
  }
  WriteResultFile(opt, out);
  std::printf("{%s}\n", ResultFields(out, /*detail=*/false).c_str());
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace blaze::bench

int main(int argc, char** argv) { return blaze::bench::Run(argc, argv); }
