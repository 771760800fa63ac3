// Validates a flight-recorder export pair: the Chrome trace_event JSON and
// the cache-audit JSONL written next to it. Used by tools/ci.sh as a smoke
// check that instrumentation actually fires end-to-end.
//
//   trace_validate TRACE.json [TRACE2.json ...] [--audit FILE.jsonl]
//                  [--require-span NAME]... [--require-audit KIND]...
//                  [--require-overlap NAME ARG]... [--summary]
//
// Multiple trace files may be given (e.g. the exports of several runs);
// every file is validated and the --require-* checks apply to their union.
//
// --summary additionally prints, after validation, a per-(category, span)
// duration table — count, mean, p50/p95/p99, max — plus a rollup line per
// category, computed with the same log-bucketed LatencyHistogram (and its
// bucket-merge path) the live telemetry registry uses.
//
// Checks, in order:
//   - each trace file parses as JSON with a non-empty "traceEvents" array;
//   - every event has a name/ph, and spans (ph == "X") carry ts + dur;
//   - each --require-span NAME appears at least once as a complete span;
//   - each --require-overlap NAME ARG finds two complete spans named NAME
//     with *different* args.ARG values whose [ts, ts+dur] intervals
//     intersect — e.g. `--require-overlap job.run job` proves two distinct
//     jobs genuinely ran concurrently;
//   - every audit line parses as JSON with seq/ts_us/kind;
//   - each --require-audit KIND appears at least once.
// The audit path defaults to the first trace path with .json -> .audit.jsonl;
// with multiple trace files the audit check only runs when --audit or
// --require-audit is given explicitly.
// Exits 0 on success; prints the first failure and exits 1 otherwise.
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/metrics/histogram.h"

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "trace_validate: %s\n", message.c_str());
  return 1;
}

// One complete span instance relevant to a --require-overlap check.
struct SpanInstance {
  std::string arg_value;
  double ts = 0.0;
  double dur = 0.0;
};

std::string Stringify(const blaze::json::Value& value) {
  if (value.is_string()) {
    return value.as_string();
  }
  if (value.is_number()) {
    std::ostringstream ss;
    ss << value.as_number();
    return ss.str();
  }
  return "?";
}

// Validation accumulators shared across all input trace files.
struct TraceState {
  std::map<std::string, uint64_t> span_counts;
  std::map<size_t, std::vector<SpanInstance>> overlap_spans;  // overlap-req index
  // --summary accumulators: category -> span name -> duration histogram.
  std::map<std::string, std::map<std::string, blaze::LatencyHistogram>> span_hists;
  uint64_t num_events = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> trace_paths;
  std::string audit_path;
  std::vector<std::string> required_spans;
  std::vector<std::string> required_audits;
  std::vector<std::pair<std::string, std::string>> required_overlaps;  // (span, arg key)
  bool summary = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--audit" && i + 1 < argc) {
      audit_path = argv[++i];
    } else if (arg == "--require-span" && i + 1 < argc) {
      required_spans.push_back(argv[++i]);
    } else if (arg == "--require-audit" && i + 1 < argc) {
      required_audits.push_back(argv[++i]);
    } else if (arg == "--require-overlap" && i + 2 < argc) {
      const std::string span = argv[++i];
      required_overlaps.emplace_back(span, argv[++i]);
    } else if (arg == "--summary") {
      summary = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return Fail("unknown flag " + arg);
    } else {
      trace_paths.push_back(arg);
    }
  }
  if (trace_paths.empty()) {
    return Fail(
        "usage: trace_validate TRACE.json [TRACE2.json ...] [--audit FILE.jsonl] "
        "[--require-span NAME]... [--require-audit KIND]... "
        "[--require-overlap NAME ARG]... [--summary]");
  }
  const bool check_audit =
      trace_paths.size() == 1 || !audit_path.empty() || !required_audits.empty();
  if (audit_path.empty()) {
    const std::string& base = trace_paths.front();
    const size_t dot = base.rfind('.');
    audit_path = (dot == std::string::npos ? base : base.substr(0, dot)) + ".audit.jsonl";
  }

  // --- trace files ----------------------------------------------------------
  TraceState state;
  for (const std::string& trace_path : trace_paths) {
    std::string text;
    if (!ReadFile(trace_path, &text)) {
      return Fail("cannot read " + trace_path);
    }
    std::string error;
    const auto doc = blaze::json::Parse(text, &error);
    if (!doc) {
      return Fail(trace_path + ": " + error);
    }
    const blaze::json::Value* events = doc->Find("traceEvents");
    if (events == nullptr || !events->is_array()) {
      return Fail(trace_path + ": missing traceEvents array");
    }
    if (events->as_array().empty()) {
      return Fail(trace_path + ": traceEvents is empty");
    }
    for (const blaze::json::Value& event : events->as_array()) {
      if (!event.is_object()) {
        return Fail(trace_path + ": traceEvents entry is not an object");
      }
      const blaze::json::Value* name = event.Find("name");
      const blaze::json::Value* ph = event.Find("ph");
      if (name == nullptr || !name->is_string() || ph == nullptr || !ph->is_string()) {
        return Fail(trace_path + ": event without string name/ph");
      }
      if (ph->as_string() == "M") {
        continue;  // thread_name metadata
      }
      ++state.num_events;
      const blaze::json::Value* ts = event.Find("ts");
      if (ts == nullptr || !ts->is_number()) {
        return Fail(trace_path + ": event '" + name->as_string() + "' lacks numeric ts");
      }
      if (ph->as_string() == "X") {
        const blaze::json::Value* dur = event.Find("dur");
        if (dur == nullptr || !dur->is_number()) {
          return Fail(trace_path + ": span '" + name->as_string() + "' lacks numeric dur");
        }
        ++state.span_counts[name->as_string()];
        if (summary) {
          const blaze::json::Value* cat = event.Find("cat");
          const std::string category =
              cat != nullptr && cat->is_string() ? cat->as_string() : "(none)";
          // Chrome-trace ts/dur are microseconds; the histograms bin in ms.
          state.span_hists[category][name->as_string()].Record(dur->as_number() / 1000.0);
        }
        for (size_t req = 0; req < required_overlaps.size(); ++req) {
          if (required_overlaps[req].first != name->as_string()) {
            continue;
          }
          const blaze::json::Value* args = event.Find("args");
          const blaze::json::Value* key =
              args != nullptr && args->is_object() ? args->Find(required_overlaps[req].second)
                                                   : nullptr;
          if (key == nullptr) {
            return Fail(trace_path + ": span '" + name->as_string() + "' lacks args." +
                        required_overlaps[req].second);
          }
          state.overlap_spans[req].push_back(
              SpanInstance{Stringify(*key), ts->as_number(), dur->as_number()});
        }
      }
    }
  }
  for (const std::string& span : required_spans) {
    if (state.span_counts[span] == 0) {
      return Fail("no complete span named '" + span + "' in any input");
    }
  }
  for (size_t req = 0; req < required_overlaps.size(); ++req) {
    const auto& [span, arg_key] = required_overlaps[req];
    const std::vector<SpanInstance>& instances = state.overlap_spans[req];
    bool found = false;
    for (size_t i = 0; i < instances.size() && !found; ++i) {
      for (size_t j = i + 1; j < instances.size() && !found; ++j) {
        const SpanInstance& a = instances[i];
        const SpanInstance& b = instances[j];
        found = a.arg_value != b.arg_value && a.ts < b.ts + b.dur && b.ts < a.ts + a.dur;
      }
    }
    if (!found) {
      return Fail("no two overlapping '" + span + "' spans with distinct args." + arg_key +
                  " (" + std::to_string(instances.size()) + " instances)");
    }
  }

  // --- audit file -----------------------------------------------------------
  std::map<std::string, uint64_t> kind_counts;
  uint64_t num_records = 0;
  if (check_audit) {
    std::ifstream in(audit_path);
    if (!in && !required_audits.empty()) {
      return Fail("cannot read " + audit_path);
    }
    std::string line;
    size_t line_no = 0;
    std::string error;
    while (std::getline(in, line)) {
      ++line_no;
      if (line.empty()) {
        continue;
      }
      const auto record = blaze::json::Parse(line, &error);
      if (!record) {
        return Fail(audit_path + ":" + std::to_string(line_no) + ": " + error);
      }
      const blaze::json::Value* kind = record->Find("kind");
      if (!record->is_object() || kind == nullptr || !kind->is_string() ||
          record->Find("seq") == nullptr || record->Find("ts_us") == nullptr) {
        return Fail(audit_path + ":" + std::to_string(line_no) +
                    ": record lacks seq/ts_us/kind");
      }
      ++num_records;
      ++kind_counts[kind->as_string()];
    }
  }
  for (const std::string& kind : required_audits) {
    if (kind_counts[kind] == 0) {
      return Fail(audit_path + ": no audit record of kind '" + kind + "'");
    }
  }

  if (summary) {
    std::printf("%-10s %-22s %s\n", "category", "span", "durations");
    for (const auto& [category, names] : state.span_hists) {
      // Category rollup: bucket-merge every span histogram of the category —
      // the same mergeable-percentile path the telemetry registry snapshots
      // exercise, so this summary and /stats agree on the math.
      blaze::LatencyHistogram rollup;
      for (const auto& [name, hist] : names) {
        std::printf("%-10s %-22s %s\n", category.c_str(), name.c_str(),
                    hist.Snapshot().ToString().c_str());
        rollup.MergeFrom(hist);
      }
      if (names.size() > 1) {
        std::printf("%-10s %-22s %s\n", category.c_str(), "(all)",
                    rollup.Snapshot().ToString().c_str());
      }
    }
  }

  std::fprintf(stderr,
               "trace_validate: OK — %llu trace events (%zu span names), %llu audit records\n",
               static_cast<unsigned long long>(state.num_events), state.span_counts.size(),
               static_cast<unsigned long long>(num_records));
  return 0;
}
