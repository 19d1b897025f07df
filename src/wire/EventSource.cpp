//===- wire/EventSource.cpp - Pull-based event streams -----------------------===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//

#include "wire/EventSource.h"

#include "trace/TraceIO.h"
#include "wire/WireFormat.h"

using namespace crd;
using namespace crd::wire;

EventSource::~EventSource() = default;

bool TextStreamSource::next(Event &E) {
  if (Failed)
    return false;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (auto Parsed = parseTraceLine(Line, LineNo, Diags)) {
      E = std::move(*Parsed);
      return true;
    }
    if (Diags.hasErrors()) {
      Failed = true;
      return false;
    }
    // Blank or comment line: keep going.
  }
  return false;
}

bool BinaryStreamSource::next(Event &E) {
  if (Unread.next(E))
    return true;
  Buffered.clear();
  Unread = EventBatch::Cursor(Buffered);
  return Reader.nextBatch(Buffered, PullBatchEvents) != 0 && Unread.next(E);
}

namespace {

/// Owns the file stream alongside the wrapped source.
template <typename SourceT> class FileSource : public EventSource {
public:
  FileSource(std::ifstream In, DiagnosticEngine &Diags)
      : In(std::move(In)), Source(this->In, Diags) {}

  bool next(Event &E) override { return Source.next(E); }
  size_t nextBatch(EventBatch &B, size_t MaxEvents) override {
    return Source.nextBatch(B, MaxEvents);
  }
  bool failed() const override { return Source.failed(); }
  const WireReader *wireReader() const override { return Source.wireReader(); }
  WireReader *memoReader() override { return Source.memoReader(); }

private:
  std::ifstream In;
  SourceT Source;
};

} // namespace

bool wire::isWireFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  char Head[4] = {};
  In.read(Head, 4);
  return In.gcount() == 4 && Head[0] == Magic[0] && Head[1] == Magic[1] &&
         Head[2] == Magic[2] && Head[3] == Magic[3];
}

std::unique_ptr<EventSource> wire::openEventSource(const std::string &Path,
                                                   DiagnosticEngine &Diags) {
  std::ifstream Probe(Path, std::ios::binary);
  if (!Probe) {
    Diags.error({}, "cannot open trace file '" + Path + "'");
    return nullptr;
  }
  char Head[4] = {};
  Probe.read(Head, 4);
  bool Binary = Probe.gcount() == 4 && Head[0] == Magic[0] &&
                Head[1] == Magic[1] && Head[2] == Magic[2] &&
                Head[3] == Magic[3];
  Probe.close();

  std::ifstream In(Path, Binary ? std::ios::binary : std::ios::in);
  if (!In) {
    Diags.error({}, "cannot open trace file '" + Path + "'");
    return nullptr;
  }
  if (Binary)
    return std::make_unique<FileSource<BinaryStreamSource>>(std::move(In),
                                                            Diags);
  return std::make_unique<FileSource<TextStreamSource>>(std::move(In), Diags);
}
