//===--- Session.h - Transport/session layer of the campaign service -*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transport tier of the campaign service (docs/DISTRIBUTED.md):
/// everything about *connections* -- accepting them, splitting their
/// byte streams into frames, noticing they died -- with no knowledge of
/// units, leases or results. The lease server (WorkServer.h) sits on top
/// as the one SessionHost::Handler, in both of its roles (work server
/// and relay); the scheduling tier (LeaseScheduler.h) is a sibling, not
/// a client.
///
/// The poll discipline is the one the monolithic server grew in PRs 3-9
/// and the fault drills pin: the peer list is snapshotted before poll()
/// so the fd-to-slot mapping cannot shift when accept() appends, and
/// only the peer currently being dispatched may be closed mid-walk.
/// Frame corruption is checked after draining complete frames, so a bad
/// length prefix behind valid frames still drops the peer immediately
/// instead of lingering until a lease timeout.
///
/// StatusEndpoint is the observability half of the tier: a deliberately
/// tiny HTTP/1.0 responder (GET /status -> one JSON document) that rides
/// the same poll loop via the aux-fd hooks, so a lease server exports
/// live metrics, in either role, without a second thread.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_SESSION_H
#define TELECHAT_DIST_SESSION_H

#include "dist/Socket.h"
#include "dist/Wire.h"

#include <chrono>
#include <functional>
#include <poll.h>
#include <string>
#include <vector>

namespace telechat {

/// One connected peer: the socket, its incremental frame reassembly, and
/// the protocol phase flags every frame dispatcher needs. The slot index
/// is stable for the lifetime of the host (dead peers keep their slot
/// with an invalid socket) and slots are handed out in connect order, so
/// upper tiers key per-peer state by slot: the lease server's telemetry
/// row of a connection, and its lease-scheduler peer, share its slot.
struct PeerSession {
  TcpSocket Sock;
  FrameSplitter Frames;
  bool Handshook = false;
  bool DoneSent = false;
  std::chrono::steady_clock::time_point ConnectedAt;
};

/// Owns a listener plus its accepted peers and runs one poll cycle at a
/// time. The handler supplies all protocol behaviour; the host never
/// interprets payloads.
class SessionHost {
public:
  /// Upper-tier hooks, called from cycle(). Any hook may close the
  /// peer's socket (via the host's drop()); the cycle survives that for
  /// the peer being dispatched only -- exactly the discipline the old
  /// monolithic loop enforced.
  struct Handler {
    virtual ~Handler() = default;
    /// A new peer landed in \p Slot (socket valid, send timeout set).
    virtual void onAccept(size_t Slot) = 0;
    /// One complete frame from \p Slot. Return false to stop
    /// dispatching this peer's remaining buffered frames this cycle
    /// (the peer was dropped or told to go away).
    virtual bool onFrame(size_t Slot, const Frame &F) = 0;
    /// recv() returned EOF or error: the peer is gone. The socket is
    /// still valid when this runs; the handler requeues leases and
    /// closes it.
    virtual void onHangup(size_t Slot) = 0;
    /// The peer's byte stream failed framing (oversized/zero length
    /// prefix). The handler should error the peer out and close it.
    virtual void onCorrupt(size_t Slot) = 0;
    /// Extra fds to poll this cycle (upstream links, status sockets).
    virtual void collectAuxFds(std::vector<pollfd> &Fds) {}
    /// One aux fd reported readiness.
    virtual void onAuxReady(const pollfd &PF) {}
  };

  /// Binds and listens. Empty string on success.
  std::string listen(uint16_t Port, const std::string &BindAddress);
  uint16_t port() const { return Listener.port(); }
  bool listening() const { return Listener.valid(); }

  std::vector<PeerSession> &peers() { return Peers; }
  PeerSession &peer(size_t Slot) { return Peers[Slot]; }

  /// One poll cycle: wait up to \p TimeoutMs for the listener, the
  /// peers, and the handler's aux fds; accept, read, split and dispatch.
  /// Returns normally on EINTR (the caller just re-loops).
  void cycle(Handler &H, int TimeoutMs);

  /// Closes every peer socket and the listener (end of campaign).
  void closeAll();

private:
  TcpListener Listener;
  std::vector<PeerSession> Peers;
  std::vector<pollfd> Fds; ///< Reused across cycles.
};

/// GET /status -> one JSON document, over the host poll loop. Not a web
/// server: one route, HTTP/1.0 semantics, connection closed after every
/// response -- enough for `curl`, dashboards and the CI gate, with no
/// second thread and no dependency.
class StatusEndpoint {
public:
  /// Binds the status listener (Port 0 = ephemeral, for tests). Empty
  /// string on success.
  std::string listen(uint16_t Port, const std::string &BindAddress);
  bool active() const { return Listener.valid(); }
  uint16_t port() const { return Listener.port(); }

  /// Appends the listener and client fds to \p Fds (POLLIN).
  void collectFds(std::vector<pollfd> &Fds) const;

  /// True when \p PF belongs to this endpoint; accepts/reads/responds
  /// as needed. \p Render produces the JSON body on demand, so the
  /// snapshot is taken at request time.
  bool onReady(const pollfd &PF, const std::function<std::string()> &Render);

  void close();

private:
  struct Client {
    TcpSocket Sock;
    std::string Buf; ///< Request bytes until the blank line.
  };
  TcpListener Listener;
  std::vector<Client> Clients;
};

} // namespace telechat

#endif // TELECHAT_DIST_SESSION_H
