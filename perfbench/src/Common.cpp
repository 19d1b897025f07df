//===- perfbench/src/Common.cpp - Shared benchmark plumbing ----------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace perfbench;

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  return (V[(V.size() - 1) / 2] + V[V.size() / 2]) / 2;
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

unsigned perfbench::cpuCount() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return 1;
}

static std::string procPath(pid_t Pid, const char *File) {
  return Pid == 0 ? std::string("/proc/self/") + File
                  : "/proc/" + std::to_string(Pid) + "/" + File;
}

long perfbench::readStatusKb(pid_t Pid, const char *Field) {
  std::ifstream In(procPath(Pid, "status"));
  std::string Line;
  size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0 && Line.size() > Len &&
        Line[Len] == ':')
      return std::strtol(Line.c_str() + Len + 1, nullptr, 10);
  return -1;
}

bool perfbench::resetPeakRss(pid_t Pid) {
  // "5" resets the peak resident set size (proc(5), clear_refs).
  std::ofstream Out(procPath(Pid, "clear_refs"));
  Out << "5";
  Out.flush();
  return static_cast<bool>(Out);
}

bool perfbench::writeChromeTrace(const std::string &Path,
                                 const std::vector<SpanRow> &Rows) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  uint64_t Base = ~uint64_t(0);
  for (const SpanRow &R : Rows)
    Base = std::min(Base, R.StartNs);
  Out << "{\"traceEvents\":[";
  for (size_t I = 0; I != Rows.size(); ++I) {
    const SpanRow &R = Rows[I];
    if (I)
      Out << ",\n";
    std::ostringstream Ts;
    Ts.setf(std::ios::fixed);
    Ts.precision(3);
    Ts << "\"ts\":" << double(R.StartNs - Base) / 1000.0
       << ",\"dur\":" << double(R.EndNs - R.StartNs) / 1000.0;
    Out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << R.Id << ",\"name\":\""
        << R.Name << "\"," << Ts.str() << ",\"args\":{\"span\":" << I + 1
        << ",\"parent\":" << R.Parent << "}}";
  }
  Out << "]}\n";
  return static_cast<bool>(Out);
}
