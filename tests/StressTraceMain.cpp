//===- tests/StressTraceMain.cpp - Write the seeded stress trace ----------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `crd_stress_trace OUT THREADS EVENTS_PER_THREAD` writes the stress
/// trace of StressTrace.h, generated from StressSeed, to OUT as a binary
/// wire trace with chunk digests. Exit code 2 on a usage or I/O error.
///
//===----------------------------------------------------------------------===//

#include "StressTrace.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace {

/// Parses a decimal count in [1, Max], or returns 0.
uint64_t parseCount(const char *S, uint64_t Max) {
  char *End = nullptr;
  errno = 0;
  unsigned long long N = std::strtoull(S, &End, 10);
  if (*S < '0' || *S > '9' || *End != '\0' || errno != 0 || N > Max)
    return 0;
  return N;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 4) {
    std::cerr << "usage: crd_stress_trace OUT THREADS EVENTS_PER_THREAD\n";
    return 2;
  }
  // The trace is built in memory, about 120 bytes per event.
  uint64_t Threads = parseCount(Argv[2], 64);
  uint64_t Events = parseCount(Argv[3], 1000000);
  if (Threads == 0 || Events == 0) {
    std::cerr << "error: THREADS must be in [1, 64] and EVENTS_PER_THREAD "
                 "in [1, 1000000]\n";
    return 2;
  }
  std::string Bytes = crd::testgen::stressWire(
      crd::testgen::StressSeed, static_cast<unsigned>(Threads), Events);
  std::ofstream Out(Argv[1], std::ios::binary);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  Out.close();
  if (!Out) {
    std::cerr << "error: cannot write '" << Argv[1] << "'\n";
    return 2;
  }
  std::cout << "wrote " << Argv[1] << ": " << Threads * Events
            << " events, " << Bytes.size() << " bytes\n";
  return 0;
}
