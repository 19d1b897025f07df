//===- perfbench/src/main.cpp - The crd end-to-end benchmark ---------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage:
///   crd_perfbench --workload W --seed N --seconds S --trace 0|1
///                 --work-dir DIR [--crd PATH] [--git-rev REV]
///                 [--corrupt-reference] [--dump-input FILE]
///
/// Prints human-readable lines (each starting with "# "), a provenance
/// line, and as its last line one JSON object with the keys correct,
/// attempted, failed and metrics: the end-to-end metrics with --trace 0,
/// the per-layer metrics with --trace 1. perfbench/run.py builds this
/// binary and passes --work-dir and --crd.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "spec/Builtins.h"
#include "support/Metrics.h"
#include "translate/Translator.h"

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

using namespace perfbench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// Must match BENCHMARK.json's end_to_end list.
constexpr MetricSpec EndToEnd[] = {
    {"events_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Must match BENCHMARK.json's per_layer list.
constexpr MetricSpec PerLayer[] = {
    {"wire.decode_ns", "ns"},
    {"wire.decode_events_per_s", "1/s"},
    {"wire.bytes_per_event", "B"},
    {"wire.chunks", "count"},
    {"wire.memo_hits", "count"},
    {"wire.memo_bytes_saved", "B"},
    {"hb.sync_events", "count"},
    {"hb.sync_fraction", "ratio"},
    {"detect.self_ns", "ns"},
    {"detect.kernel_ns", "ns"},
    {"detect.kernel_share", "ratio"},
    {"detect.actions", "count"},
    {"detect.conflict_checks_per_action", "ratio"},
    {"detect.object_cache_hit_ratio", "ratio"},
    {"detect.lookahead_full_ratio", "ratio"},
    {"detect.active_points", "count"},
    {"detect.races", "count"},
    {"detect.races_per_kevent", "ratio"},
    {"detect.report_ns", "ns"},
    {"detect.report_ns_per_race", "ns"},
    {"detect.report_bytes", "B"},
    {"detect.allocs_per_event", "ratio"},
    {"detect.memo_summary_hits", "count"},
    {"detect.memo_fallbacks", "count"},
    {"detect.memo_replay_ratio", "ratio"},
    {"translate.spec_ms", "ms"},
    {"serve.turnaround_p50_ms", "ms"},
    {"serve.turnaround_p90_ms", "ms"},
    {"serve.reply_lag_p50_ms", "ms"},
    {"serve.reply_lag_p90_ms", "ms"},
    {"serve.send_blocked_ms", "ms"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.pump_ns", "ns"},
    {"serve.pump_rounds", "count"},
    {"serve.worker_busy_ratio", "ratio"},
    {"serve.buffered_bytes_max", "B"},
    {"serve.footprint_bytes_max", "B"},
    {"serve.bytes_out_per_race", "B"},
    {"run.unaccounted_share", "ratio"},
};

const char *const Workloads[] = {"h2-check", "racy-check", "repeat-memo",
                                 "serve-racy"};

int usage(const std::string &Why) {
  std::cerr << "crd_perfbench: " << Why
            << "\nusage: crd_perfbench --workload h2-check|racy-check|"
               "repeat-memo|serve-racy --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--crd PATH] [--git-rev REV] "
               "[--corrupt-reference] [--dump-input FILE]\n";
  return 2;
}

/// Why this binary must not produce numbers, or empty when it may.
std::string unfitBuild() {
  std::string Type = PERFBENCH_BUILD_TYPE;
  if (Type == "Debug" || Type.empty())
    return "a '" + Type + "' build";
#ifndef NDEBUG
  return "a build with assertions enabled";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "a sanitizer build";
#endif
  return "";
}

std::string number(double V) {
  std::ostringstream OS;
  OS.precision(17);
  OS << V;
  return OS.str();
}

/// The wire bytes a workload's program receives for \p Seed.
bool dumpInput(const std::string &Workload, uint64_t Seed,
               const std::string &Path) {
  crd::DiagnosticEngine Diags;
  auto Provider = crd::translateSpec(crd::dictionarySpec(), Diags);
  if (!Provider)
    return false;
  std::ofstream Out(Path, std::ios::binary);
  if (Workload == "serve-racy") {
    // The first session of the pool.
    Out << buildInput(Shape::Racy, serveSessionSeed(Seed, 0), *Provider,
                      RacyServeEventsPerThread)
               .Wire;
  } else {
    Shape S = Workload == "h2-check"     ? Shape::H2
              : Workload == "racy-check" ? Shape::Racy
                                         : Shape::Repeat;
    Out << buildInput(S, Seed, *Provider).Wire;
  }
  return static_cast<bool>(Out);
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opts;
  std::string GitRev = "unknown", DumpPath;
  bool HaveSeed = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : std::string();
    };
    if (A == "--workload")
      Opts.Workload = Value();
    else if (A == "--seed") {
      std::string V = Value();
      char *End = nullptr;
      Opts.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = !V.empty() && *End == '\0';
    } else if (A == "--seconds")
      Opts.Seconds = std::atof(Value().c_str());
    else if (A == "--trace") {
      std::string V = Value();
      HaveTrace = V == "0" || V == "1";
      Opts.Trace = V == "1";
    } else if (A == "--work-dir")
      Opts.WorkDir = Value();
    else if (A == "--crd")
      Opts.CrdPath = Value();
    else if (A == "--git-rev")
      GitRev = Value();
    else if (A == "--corrupt-reference")
      Opts.CorruptReference = true;
    else if (A == "--dump-input")
      DumpPath = Value();
    else
      return usage("unknown argument '" + A + "'");
  }
  bool Known = false;
  for (const char *W : Workloads)
    Known |= Opts.Workload == W;
  if (!Known)
    return usage("unknown workload '" + Opts.Workload + "'");
  if (!HaveSeed)
    return usage("--seed expects a non-negative integer");
  if (!DumpPath.empty())
    return dumpInput(Opts.Workload, Opts.Seed, DumpPath) ? 0 : 1;
  if (!HaveTrace || !(Opts.Seconds > 0) || Opts.WorkDir.empty())
    return usage("--trace 0|1, --seconds > 0 and --work-dir are required");
  if (std::string Why = unfitBuild(); !Why.empty()) {
    std::cerr << "crd_perfbench: refusing to measure " << Why
              << "; build with CMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  Result Res;
  if (Opts.Workload == "serve-racy")
    Res = runServeWorkload(Opts);
  else if (Opts.Workload == "h2-check")
    Res = runCheckWorkload(Opts, Shape::H2, crd::wire::MemoMode::Off);
  else if (Opts.Workload == "racy-check")
    Res = runCheckWorkload(Opts, Shape::Racy, crd::wire::MemoMode::Off);
  else
    Res = runCheckWorkload(Opts, Shape::Repeat, crd::wire::MemoMode::Full);

  std::map<std::string, double> Values(Res.Metrics.begin(), Res.Metrics.end());
  std::ostringstream Metrics;
  bool First = true, Measured = true;
  auto Emit = [&](const MetricSpec &M, double V) {
    if (!std::isfinite(V)) {
      Res.Notes.push_back(std::string("metric ") + M.Name + " is not finite");
      Measured = false;
      V = 0;
    }
    Metrics << (First ? "" : ", ") << "\"" << M.Name << "\": {\"value\": "
            << number(V) << ", \"unit\": \"" << M.Unit << "\"}";
    First = false;
  };
  if (Opts.Trace) {
    for (const MetricSpec &M : PerLayer) {
      bool Absent = std::string(M.Name) == "detect.kernel_ns" &&
                    !crd::metrics::Enabled;
      if (!Absent)
        Emit(M, Values.count(M.Name) ? Values[M.Name] : 0.0);
    }
  } else {
    for (const MetricSpec &M : EndToEnd) {
      auto It = Values.find(M.Name);
      if (It == Values.end() || !(It->second > 0)) {
        Res.Notes.push_back(std::string("metric ") + M.Name +
                            " was not measured");
        Measured = false;
      }
      Emit(M, It == Values.end() ? 0.0 : It->second);
    }
  }
  if (!Measured)
    ++Res.Failed, ++Res.Attempted;

  for (const std::string &N : Res.Notes)
    std::cout << "# " << N << "\n";
  std::cout << "{\"provenance\": {\"workload\": \"" << Opts.Workload
            << "\", \"seed\": " << Opts.Seed << ", \"trace\": " << Opts.Trace
            << ", \"nproc\": " << cpuCount()
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"crd_metrics\": "
            << (crd::metrics::Enabled ? "true" : "false")
            << ", \"simd\": " << (PERFBENCH_SIMD ? "true" : "false")
            << ", \"git_rev\": \"" << GitRev << "\"}}\n";
  std::cout << "{\"correct\": " << (Res.Failed == 0 ? "true" : "false")
            << ", \"attempted\": " << Res.Attempted
            << ", \"failed\": " << Res.Failed << ", \"metrics\": {"
            << Metrics.str() << "}}" << std::endl;
  return 0;
}
