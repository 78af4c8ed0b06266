//===--- LeaseScheduler.h - Lease/requeue tier of the campaign service -*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduling tier of the campaign service: who holds which unit,
/// for how long, and how many to hand out next. It owns the pending
/// queue, the lease table, the completion bitmap and the per-peer
/// anti-fabrication set, and it is deliberately ignorant of sockets,
/// frames and results -- the lease server (WorkServer.h) feeds it slot
/// numbers and dense local unit ids and acts on what it returns. Ids
/// are dense in both roles: stream positions for the work server,
/// arrival positions for a relay (never its upstream's wire ids, which
/// a hostile upstream could pick to size the completion bitmap).
///
/// Fault discipline (unchanged from the monolithic server, pinned by the
/// kill/stall drills): a dropped or expired lease re-enters the queue
/// *front* in ascending id order, first result wins, and a result is
/// only acceptable from a peer that once held the unit's lease.
///
/// Backpressure-aware lease sizing is new in this tier: each peer's
/// batch cap starts at the server-wide maximum (so small campaigns and
/// the existing drills behave exactly as before) and then tracks the
/// peer's observed completion rate -- a peer delivering a result every
/// `dt` seconds is sized to hold about TargetLeaseSeconds/dt units, so
/// thousands of slow workers cannot convoy the poll loop behind huge
/// stale batches, while fast workers keep deep pipelines. The sizing
/// trajectory (min/max/final batch) is exported through sizing() into
/// the engine JSON and the fig11 bench.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_LEASESCHEDULER_H
#define TELECHAT_DIST_LEASESCHEDULER_H

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

namespace telechat {

/// Lease-size trajectory of one campaign, for the engine JSON.
struct LeaseSizing {
  uint64_t Min = 0;   ///< Smallest nonempty batch issued.
  uint64_t Max = 0;   ///< Largest batch issued.
  uint64_t Final = 0; ///< Size of the last batch issued.
};

class LeaseScheduler {
public:
  LeaseScheduler(unsigned MaxUnitsPerRequest, double LeaseTimeoutSeconds,
                 double TargetLeaseSeconds = 1.0)
      : MaxPerRequest(MaxUnitsPerRequest ? MaxUnitsPerRequest : 1),
        LeaseTimeout(LeaseTimeoutSeconds), TargetSeconds(TargetLeaseSeconds) {}

  /// Registers \p Slot (idempotent); slots are the session tier's peer
  /// indices.
  void addPeer(size_t Slot);

  /// Requeues everything \p Slot still holds (descending id, so the
  /// queue front ends up ascending -- corpus order). Returns the ids
  /// actually requeued, for the caller's fault telemetry.
  std::vector<uint64_t> dropPeer(size_t Slot);

  /// Appends \p Id to the back of the pending queue.
  void addPending(uint64_t Id);
  size_t pendingCount() const { return Pending.size(); }
  /// The queue itself: the dedupe-aware server reorders it (serve the
  /// representative with the most parked duplicates first) before
  /// leasing. Order is a latency heuristic only; the merge is id-keyed.
  std::deque<uint64_t> &pending() { return Pending; }

  /// Hands \p Slot up to min(Requested, the peer's adaptive cap) units
  /// off the queue front, skipping ids completed since they queued.
  /// Records the lease clock and the anti-fabrication set.
  std::vector<uint64_t> lease(size_t Slot, uint32_t Requested);

  /// True iff \p Id was ever leased to \p Slot (results from anyone
  /// else are fabrications and must be refused before decode).
  bool everLeased(size_t Slot, uint64_t Id) const;

  bool completed(uint64_t Id) const {
    return Id < Completed.size() && Completed[Id];
  }
  /// Marks \p Id complete. The bitmap grows to the largest id marked,
  /// which is why callers hand out dense ids.
  void markCompleted(uint64_t Id);

  /// Forgets \p Slot's lease entry for \p Id without requeueing: the
  /// duplicate-result drop path.
  void releaseLease(size_t Slot, uint64_t Id);

  /// A result from \p Slot for \p Id was accepted: clears the lease,
  /// restarts the lease clock on the peer's remaining units (a
  /// delivered result is proof of life), and feeds the completion-rate
  /// estimate behind the peer's adaptive batch cap.
  void resultDelivered(size_t Slot, uint64_t Id);

  /// Expires overdue leases: each one is requeued (front, ascending)
  /// and returned as (id, slot) for the caller's telemetry.
  std::vector<std::pair<uint64_t, size_t>> expire();

  /// How long the poll loop may sleep: the time to the earliest lease
  /// deadline, clamped to [0, IdleMs]; IdleMs when nothing is leased.
  int pollTimeoutMs(int IdleMs) const;

  size_t leasedCount() const { return Leases.size(); }
  /// Units currently leased to \p Slot (status export).
  size_t outstanding(size_t Slot) const;

  LeaseSizing sizing() const { return Sizing; }

private:
  using Clock = std::chrono::steady_clock;

  struct Lease {
    size_t Slot;
    Clock::time_point IssuedAt;
  };

  struct Peer {
    std::vector<uint64_t> Held; ///< Unit ids currently leased here.
    /// Every id ever leased to this peer; results are accepted only for
    /// these.
    std::set<uint64_t> EverLeased;
    unsigned Cap;          ///< Adaptive batch cap.
    double AvgDt = 0.0;    ///< EWMA of inter-result seconds.
    Clock::time_point LastResultAt;
    bool HasLast = false;
  };

  void noteBatch(size_t N);

  unsigned MaxPerRequest;
  double LeaseTimeout;
  double TargetSeconds;

  std::deque<uint64_t> Pending;
  std::map<uint64_t, Lease> Leases;
  std::vector<bool> Completed;
  std::map<size_t, Peer> Peers;
  LeaseSizing Sizing;
};

} // namespace telechat

#endif // TELECHAT_DIST_LEASESCHEDULER_H
