//===--- Wire.h - Length-prefixed framing and wire primitives ---*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte layer of the work-server protocol (docs/DISTRIBUTED.md):
///
///  - *primitives*: fixed-width little-endian integers, IEEE-754 doubles
///    (bit-cast to u64) and u32-length-prefixed strings, written by
///    WireBuffer and read back by WireCursor. Decoding never trusts the
///    peer: every read is bounds-checked and element counts are capped
///    by the bytes actually present, so a malformed or malicious frame
///    fails decode instead of triggering a huge allocation.
///
///  - *frames*: one message = u32 payload length, u8 message type,
///    payload bytes. sendFrame/recvFrame are the blocking pair used by
///    workers; FrameSplitter incrementally reassembles frames from the
///    nonblocking reads of the poll-based server.
///
/// Wire compatibility is guarded by the Hello handshake (magic +
/// version, see Protocol.h), not by per-frame self-description: within
/// one protocol version, both ends agree on every payload layout.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_WIRE_H
#define TELECHAT_DIST_WIRE_H

#include "dist/Socket.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace telechat {

/// Frames larger than this are a protocol violation (the largest honest
/// payload -- a Work batch of litmus tests or a Result with campaign
/// outcome sets -- stays far below; a 4 GiB length prefix from a confused
/// peer must not become an allocation).
constexpr uint32_t MaxFramePayload = 64u << 20;

/// An append-only encode buffer.
class WireBuffer {
public:
  void appendU8(uint8_t V) { Bytes.push_back(V); }
  void appendU16(uint16_t V) { appendLE(V); }
  void appendU32(uint32_t V) { appendLE(V); }
  void appendU64(uint64_t V) { appendLE(V); }
  void appendF64(double V) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V));
    std::memcpy(&Bits, &V, sizeof(Bits));
    appendU64(Bits);
  }
  void appendBool(bool V) { appendU8(V ? 1 : 0); }
  void appendString(std::string_view S);
  /// Raw byte block, no length prefix: the relay forwards payloads it
  /// already validated verbatim instead of re-encoding them.
  void appendBytes(const uint8_t *Data, size_t Len) {
    Bytes.insert(Bytes.end(), Data, Data + Len);
  }

  const uint8_t *data() const { return Bytes.data(); }
  size_t size() const { return Bytes.size(); }
  void clear() { Bytes.clear(); }

private:
  template <typename T> void appendLE(T V) {
    for (size_t I = 0; I != sizeof(T); ++I)
      Bytes.push_back(uint8_t(V >> (8 * I)));
  }
  std::vector<uint8_t> Bytes;
};

/// A bounds-checked decode cursor over one frame payload. After any
/// failed read, ok() is false and every further read yields zeros;
/// decoders check ok() once at the end.
class WireCursor {
public:
  WireCursor(const uint8_t *Data, size_t Len) : P(Data), End(Data + Len) {}
  explicit WireCursor(const std::vector<uint8_t> &Payload)
      : WireCursor(Payload.data(), Payload.size()) {}

  bool ok() const { return !Failed; }
  size_t remaining() const { return size_t(End - P); }
  /// Fails the cursor for a reason beyond framing (a well-formed value
  /// the decoder refuses); the first reason given sticks.
  void fail(std::string Why) {
    Failed = true;
    if (Reason.empty())
      Reason = std::move(Why);
  }
  /// What fail() was told, or "" (truncation, a hostile count, ...).
  const std::string &why() const { return Reason; }

  uint8_t readU8() { return readLE<uint8_t>(); }
  uint16_t readU16() { return readLE<uint16_t>(); }
  uint32_t readU32() { return readLE<uint32_t>(); }
  uint64_t readU64() { return readLE<uint64_t>(); }
  double readF64() {
    uint64_t Bits = readU64();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  bool readBool() { return readU8() != 0; }
  std::string readString() {
    uint32_t Len = readU32();
    if (Failed || Len > remaining()) {
      Failed = true;
      return {};
    }
    std::string S(reinterpret_cast<const char *>(P), Len);
    P += Len;
    return S;
  }

  /// Reads an element count that the remaining bytes must plausibly
  /// cover (each element needs at least \p MinElemBytes): defends
  /// against count-driven allocations.
  uint32_t readCount(size_t MinElemBytes) {
    uint32_t N = readU32();
    size_t Min = MinElemBytes == 0 ? 1 : MinElemBytes;
    if (Failed || size_t(N) > remaining() / Min + 1) {
      Failed = true;
      return 0;
    }
    return N;
  }

private:
  template <typename T> T readLE() {
    if (Failed || remaining() < sizeof(T)) {
      Failed = true;
      return T(0);
    }
    uint64_t V = 0;
    for (size_t I = 0; I != sizeof(T); ++I)
      V |= uint64_t(P[I]) << (8 * I);
    P += sizeof(T);
    return T(V);
  }
  const uint8_t *P;
  const uint8_t *End;
  bool Failed = false;
  std::string Reason;
};

/// One protocol frame.
struct Frame {
  uint8_t Type = 0;
  std::vector<uint8_t> Payload;
};

/// Sends [u32 len][u8 type][payload] in one buffer (one syscall for the
/// small frames that dominate the protocol).
bool sendFrame(TcpSocket &S, uint8_t Type, const WireBuffer &Payload);

/// Blocking receive of exactly one frame. Error string on EOF,
/// truncation or an oversized length prefix.
ErrorOr<Frame> recvFrame(TcpSocket &S);

/// Incremental frame reassembly for nonblocking readers: feed() the
/// bytes recv() produced, then pop() complete frames until it returns
/// false. corrupted() latches when a length prefix exceeds
/// MaxFramePayload -- the caller must drop the connection.
class FrameSplitter {
public:
  void feed(const uint8_t *Data, size_t Len);
  bool corrupted() const { return Corrupted; }
  bool pop(Frame &Out);

private:
  std::vector<uint8_t> Buf;
  size_t Pos = 0; ///< Consumed prefix; compacted between frames.
  bool Corrupted = false;
};

} // namespace telechat

#endif // TELECHAT_DIST_WIRE_H
