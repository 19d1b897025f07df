//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pieces every workload shares: the clock, the byte digest race text is
/// checked with, an istream over in-memory wire bytes, percentiles, the
/// memory and allocation probes, and the result being assembled.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <streambuf>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPUs this process may run on (what `nproc` prints).
unsigned cpuCount();

/// Heap allocations made by this process so far (Alloc.cpp replaces the
/// global operator new of the benchmark binary only).
uint64_t allocCount();

/// A write-only streambuf that hashes every byte written and discards it.
/// The digest depends only on the byte sequence, never on how it was split
/// into writes, so `crd check`-style `OS << "race: " << R << '\n'` output
/// and race text unescaped from serve reply lines hash alike. Steady state
/// allocates nothing.
class DigestBuf : public std::streambuf {
public:
  DigestBuf() { setp(Buf, Buf + sizeof(Buf)); }

  /// Digest of every byte written since construction or reset().
  uint64_t digest() const {
    uint64_t Hash = H;
    size_t Pending = static_cast<size_t>(pptr() - pbase());
    size_t Words = Pending / 8;
    for (size_t I = 0; I != Words; ++I)
      Hash = mix(Hash, load(Buf + I * 8));
    if (size_t Tail = Pending % 8) {
      char Last[8] = {};
      std::memcpy(Last, Buf + Words * 8, Tail);
      Hash = mix(Hash, load(Last));
    }
    return mix(Hash, Total + Pending);
  }

  uint64_t bytes() const {
    return Total + static_cast<uint64_t>(pptr() - pbase());
  }

  void reset() {
    H = Seed;
    Total = 0;
    setp(Buf, Buf + sizeof(Buf));
  }

protected:
  int_type overflow(int_type C) override {
    absorb();
    if (!traits_type::eq_int_type(C, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(C);
      pbump(1);
    }
    return traits_type::not_eof(C);
  }

private:
  static constexpr uint64_t Seed = 0x243f6a8885a308d3ull;

  static uint64_t load(const char *P) {
    uint64_t W;
    std::memcpy(&W, P, 8);
    return W;
  }
  static uint64_t mix(uint64_t Hash, uint64_t W) {
    Hash = (Hash ^ W) * 0x9e3779b97f4a7c15ull;
    return Hash ^ (Hash >> 29);
  }

  /// Hashes the full buffer (its size is a multiple of 8, so word
  /// boundaries always sit at the same stream offsets).
  void absorb() {
    for (size_t I = 0; I != sizeof(Buf) / 8; ++I)
      H = mix(H, load(Buf + I * 8));
    Total += sizeof(Buf);
    setp(Buf, Buf + sizeof(Buf));
  }

  alignas(8) char Buf[4096];
  uint64_t H = Seed;
  uint64_t Total = 0;
};

/// Read-only streambuf over bytes owned elsewhere: the wire input is handed
/// to the decoder without a copy.
class MemBuf : public std::streambuf {
public:
  explicit MemBuf(const std::string &Bytes) {
    char *P = const_cast<char *>(Bytes.data());
    setg(P, P, P + Bytes.size());
  }
};

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> V);

/// Nearest-rank percentile \p P in [0, 100]; 0 when empty.
double percentile(std::vector<double> V, double P);

/// VmRSS / VmHWM of \p Pid (0 = this process) in KiB, or -1 if unreadable.
long readStatusKb(pid_t Pid, const char *Field);

/// Restarts the peak-RSS watermark (VmHWM) of \p Pid at its current RSS.
bool resetPeakRss(pid_t Pid);

/// Measures the resident growth of \p Pid from the moment start() resets
/// its watermark: the working set a run adds above the post-setup level.
class RssProbe {
public:
  void start(pid_t P) {
    Pid = P;
    Ok = resetPeakRss(Pid);
    BaseKb = readStatusKb(Pid, "VmRSS");
  }
  /// Growth in MiB, or -1 when the probe could not be armed or read.
  double growthMb() const {
    long Hwm = readStatusKb(Pid, "VmHWM");
    if (!Ok || Hwm < 0 || BaseKb < 0)
      return -1.0;
    return static_cast<double>(Hwm - BaseKb) / 1024.0;
  }

private:
  pid_t Pid = 0;
  bool Ok = false;
  long BaseKb = -1;
};

/// What a workload run reports: the correctness tally, the end-to-end
/// metrics of the untraced run or the per-layer metrics of the traced one
/// (units come from the metric table in main.cpp; a per-layer metric a
/// workload does not exercise is left out and reads 0), and human-readable
/// lines printed before the result.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::pair<std::string, double>> Metrics;
  std::vector<std::string> Notes;

  void add(std::string Name, double Value) {
    Metrics.emplace_back(std::move(Name), Value);
  }
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Scratch directory inside the checkout (sockets, daemon trace files,
  /// the traced run's Chrome trace).
  std::string WorkDir;
  /// The `crd` executable the serve workload starts as its daemon.
  std::string CrdPath;
  /// Test hook: flip every reference digest so each check must fail.
  bool CorruptReference = false;
};

/// Chrome-trace "X" event rows, assembled by the traced runs.
struct SpanRow {
  std::string Name;
  uint64_t Id = 0;     ///< Run or session id; spans of one share it.
  uint64_t Parent = 0; ///< Parent span's row index + 1; 0 = root.
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

/// Writes \p Rows as a Chrome-trace JSON document to \p Path (one tid per
/// id). Returns false on I/O failure.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<SpanRow> &Rows);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
