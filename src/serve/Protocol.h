//===- serve/Protocol.h - Detection daemon wire protocol --------*- C++ -*-===//
//
// Part of the CRD project (PLDI 2014 "Commutativity Race Detection" repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `crd serve` client/server protocol (docs/serve.md). A connection
/// opens with one newline-terminated text handshake naming the protocol
/// version and the session's detector configuration (or requesting a
/// status snapshot), then switches to binary envelope frames:
///
///   frame := type:u8  length:u32le  body[length]
///
///   'W'  wire bytes — a slice of a binary trace stream (WireFormat.h).
///        Slicing is arbitrary: the session reassembles file/chunk
///        headers and only ever feeds whole chunks to its decoder.
///   'D'  die notices — length/4 object ids (u32le each), the client's
///        signal that those objects are dead (paper §5.3) so per-object
///        detector state can be reclaimed.
///   'E'  end of trace (empty body). A shutdown(SHUT_WR) half-close is
///        accepted as an implicit 'E'.
///
/// Replies are line-delimited JSON on the same socket: a `hello` line
/// acknowledging the handshake, a `race`/`violation` line per finding as
/// it is detected, and a final `summary` (or `error`) line, after which
/// the server closes the connection. The race text is the same rendering
/// `crd check` prints, so byte-comparing reply lines against batch output
/// is the cross-session-interference test.
///
//===----------------------------------------------------------------------===//

#ifndef CRD_SERVE_PROTOCOL_H
#define CRD_SERVE_PROTOCOL_H

#include "wire/StreamPipeline.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace crd {
namespace serve {

/// First token of every handshake line; bump the suffix on breaking
/// protocol changes.
inline constexpr char ProtocolTag[] = "crd-serve/1";

/// Envelope frame types ('W'/'D'/'E' above).
enum class FrameType : uint8_t {
  Wire = 'W',
  Died = 'D',
  End = 'E',
};

/// type:u8 + length:u32le.
inline constexpr size_t FrameHeaderSize = 5;

/// Upper bound on one frame body; matches the wire format's chunk payload
/// ceiling so a maximal chunk still fits one frame. Larger lengths are
/// malformed (they would commit the session to unbounded buffering).
inline constexpr uint32_t MaxFrameBody = 64u << 20;

/// Everything a handshake line can say.
struct Handshake {
  /// `crd-serve/1 status`: no detection session — the server replies with
  /// the aggregate + per-session metrics document and closes.
  bool Status = false;
  wire::Backend TheBackend = wire::Backend::Sequential;
  wire::MemoMode Memo = wire::MemoMode::Off;
};

/// Parses `crd-serve/1 [status] [detector=seq|fasttrack|atomicity]
/// [memo=off|full]` (tokens space-separated, any order after the
/// tag, \p Line without the trailing newline). Returns false with a
/// one-line reason in \p Error on any unknown token or value — a strict
/// grammar keeps version skew loud.
bool parseHandshake(std::string_view Line, Handshake &H, std::string &Error);

/// Client side: renders \p H as a handshake line (no trailing newline).
std::string renderHandshake(const Handshake &H);

/// Appends a frame header for a \p BodySize-byte body of type \p T.
void appendFrameHeader(std::string &Out, FrameType T, uint32_t BodySize);

/// The `error` reply line (no trailing newline) for \p Reason, naming
/// the session when there is one; a connection refused before it had a
/// session gets the line without a session id.
std::string errorLine(std::string_view Reason,
                      std::optional<uint64_t> Session = std::nullopt);

/// JSON-escapes \p Out's tail from byte \p From in place: text rendered
/// straight into a reply line is escaped only when it holds a character
/// JSON must escape.
void escapeJsonFrom(std::string &Out, size_t From);

/// Canonical spellings shared with the `crd` CLI surface.
const char *backendToken(wire::Backend B);
const char *memoToken(wire::MemoMode M);

/// Inverse of backendToken(): the backend spelled \p Token, if any.
std::optional<wire::Backend> parseBackendToken(std::string_view Token);

} // namespace serve
} // namespace crd

#endif // CRD_SERVE_PROTOCOL_H
