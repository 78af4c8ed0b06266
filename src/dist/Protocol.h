//===--- Protocol.h - Work-server message vocabulary ------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Message types and handshake constants of the distributed campaign
/// protocol. The full conversation (see docs/DISTRIBUTED.md):
///
///   worker                         server
///   ------                         ------
///   Hello {magic, version, jobs} ->
///                               <- HelloAck {version, config table}
///   GetWork {max}                ->
///                               <- Work {units} | Wait {retry} | Done {}
///   Result {id, result}          ->   (one per finished unit)
///   ... GetWork/Result until Done ...
///
/// Either side may send Error {text} and close. The server leases every
/// unit it puts in a Work frame; a lease is returned to the queue when
/// its worker disconnects or exceeds the lease timeout, which is the
/// entire fault model -- workers are stateless and interchangeable.
///
/// The unit total in HelloAck is the *planned* campaign size: exact for
/// a fixed corpus, an upper bound when the server streams units off a
/// generator (the stream may stop short). Done carries the final count.
/// Workers never see the difference otherwise -- generation is entirely
/// server-side, and so is the campaign journal that makes a served
/// campaign resumable (dist/Journal.h).
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_PROTOCOL_H
#define TELECHAT_DIST_PROTOCOL_H

#include <cstdint>

namespace telechat {

/// "TLCT", little-endian, leading every Hello: rejects strays that
/// connected to the wrong port before any length-prefixed parsing.
constexpr uint32_t WireMagic = 0x54434C54;

/// Bumped on any payload layout change; the server refuses mismatched
/// workers during the handshake (campaigns want bit-identical results,
/// so "best effort" cross-version compatibility would be a bug).
constexpr uint16_t WireVersion = 6;

/// Frame type tags.
enum class Msg : uint8_t {
  Hello = 1,    ///< worker->server: magic, version, worker jobs.
  HelloAck = 2, ///< server->worker: version, campaign config table.
  Error = 3,    ///< either: string reason; sender closes after.
  GetWork = 4,  ///< worker->server: max units wanted.
  Work = 5,     ///< server->worker: a batch of leased units.
  Wait = 6,     ///< server->worker: nothing leasable now; retry in N ms.
  Done = 7,     ///< server->worker: campaign complete, disconnect.
  Result = 8,   ///< worker->server: one unit's result.
};

} // namespace telechat

#endif // TELECHAT_DIST_PROTOCOL_H
