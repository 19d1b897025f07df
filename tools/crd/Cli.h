//===- tools/crd/Cli.h - The unified crd command-line tool ------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Library entry points of the `crd` command-line driver, so the installed
/// binary and the example wrappers (examples/trace_analyzer) share one
/// implementation. Subcommands:
///
///   crd convert <in> <out>   text ↔ binary trace conversion (streaming)
///   crd check   [opts] <t>   run a detector over a trace, streamed
///   crd stats   <t>          chunk / size / compression-ratio report
///   crd bench   [opts] <t>   ingestion throughput: text vs binary
///   crd profile [opts] <t>   metrics snapshot (JSON) for a run
///   crd serve   [opts]       detection daemon over sockets, and its client
///   crd analyze <t> [spec]   the full offline report (trace_analyzer)
///
/// Exit codes: 0 = success / no findings, 1 = races, violations or
/// malformed input reported, 2 = usage or I/O error.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_TOOLS_CRD_CLI_H
#define CRD_TOOLS_CRD_CLI_H

#include <iosfwd>
#include <string>
#include <vector>

namespace crd {
namespace cli {

/// Exit codes shared by every subcommand.
inline constexpr int ExitClean = 0;    ///< Success / nothing found.
inline constexpr int ExitFindings = 1; ///< Races/violations or bad input.
inline constexpr int ExitUsage = 2;    ///< Usage or I/O error.

/// The `crd` driver: dispatches \p Args (without the program name) to a
/// subcommand. Output goes to \p Out, errors and usage to \p Err.
int crdMain(const std::vector<std::string> &Args, std::ostream &Out,
            std::ostream &Err);

/// argv-style convenience wrapper for main().
int crdMain(int Argc, const char *const *Argv, std::ostream &Out,
            std::ostream &Err);

/// The classic trace_analyzer entry: `<trace-file> [spec-file]` — the full
/// offline report (stats, RD2 races + triage summary, FastTrack races,
/// atomicity when the trace marks atomic blocks). Also reachable as
/// `crd analyze`. Accepts text and binary traces.
int runAnalyze(const std::vector<std::string> &Args, std::ostream &Out,
               std::ostream &Err);

} // namespace cli
} // namespace crd

#endif // CRD_TOOLS_CRD_CLI_H
