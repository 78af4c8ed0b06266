//===--- WorkServer.h - The campaign lease server, in two roles -*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The downstream half of the campaign service: one lease server that
/// accepts workers, leases them batches over TCP (Protocol.h), re-issues
/// the leases of dead or stalled workers, and exports live status. It
/// runs in one of two roles, which differ only in where units come from
/// and where results go (its *feed*):
///
///  - WorkServer, the local feed: units are pulled off a UnitSource (a
///    fixed corpus, or a generator streaming diy tests on demand) and
///    results merge by corpus index -- so the merged campaign is
///    bit-identical to the single-process batch drivers no matter how
///    many workers served it, in which order they pulled, or how many of
///    them died along the way. Units are pulled lazily (a Work frame's
///    worth at a time) and their bodies are dropped once merged, so a
///    streamed campaign never materialises the whole corpus.
///
///  - Relay, the upstream feed: units are pulled from another lease
///    server (the root, or another relay) over a worker-style link, and
///    results are forwarded back to it. Unit bodies and result payloads
///    cross byte-verbatim after bounds-checked validation, so a relayed
///    campaign merges byte-identically to a flat one. One relay fronts
///    any number of workers; its upstream sees one well-behaved worker.
///
/// Fault model: a lease is returned to the pending queue when its
/// connection drops or its deadline passes (LeaseScheduler.h). Units are
/// idempotent (pure simulation), so double execution after a requeue is
/// harmless; the first result accepted for a unit wins and duplicates
/// are counted and dropped. A dead worker behind a relay requeues at the
/// relay; a dead relay is one dead worker to its upstream. A relay
/// treats an upstream disconnect before Done as fatal.
///
/// Durability and dedupe (local feed): the feed pulls units off a
/// CampaignLedger (CampaignLedger.h), the one the local campaign driver
/// uses too. With a journal attached (setJournal), every accepted
/// result is appended and flushed before it is merged; preloadResults
/// seeds a restarted server with the journal's replayed results, which
/// merge without being re-served -- the resume path of
/// docs/DISTRIBUTED.md. A resumed campaign's report, and its replayed,
/// deduped and stale counts, are the same as a local resume's; its
/// report is byte-identical to an uninterrupted run over the same spec.
///
/// Threading: a lease server is single-threaded (one poll loop); it is
/// the *workers* that bring parallelism. run() blocks until the campaign
/// is over and can be driven from a std::thread when embedded (tests,
/// benches, the loopback sweep).
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_DIST_WORKSERVER_H
#define TELECHAT_DIST_WORKSERVER_H

#include "core/Campaign.h"
#include "dist/LeaseScheduler.h"
#include "dist/Socket.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace telechat {

/// Knobs of the downstream half, shared by both roles.
struct LeaseServerOptions {
  /// Listen port; 0 asks the kernel for a free one (see port()).
  uint16_t Port = 0;
  /// Loopback by default: exposing a campaign to a network is an
  /// explicit deployment decision (--bind 0.0.0.0).
  std::string BindAddress = "127.0.0.1";
  /// A lease older than this is re-issued even if its worker is still
  /// connected (covers stalls, not just crashes). Campaign units are
  /// sub-second; minutes of slack only delays fault recovery.
  double LeaseTimeoutSeconds = 120.0;
  /// Cap on units per Work frame regardless of what a worker asks for;
  /// a relay also pulls this many per upstream GetWork and refills when
  /// its queue drops below it.
  unsigned MaxUnitsPerRequest = 64;
  /// Retry hint carried by Wait frames.
  unsigned WaitRetryMs = 50;
  /// HTTP status endpoint (`GET /status` -> live JSON): -1 disables, 0
  /// binds an ephemeral port (see statusPort()), otherwise the given
  /// port. Bound on BindAddress, like the campaign port.
  int StatusPort = -1;
  /// Backpressure target for adaptive lease sizing: each worker's batch
  /// cap tracks roughly this many seconds of work at its observed
  /// completion rate (never above MaxUnitsPerRequest; the first batch
  /// is always the full cap, so small campaigns are unaffected).
  double TargetLeaseSeconds = 1.0;
  /// Progress lines on stderr.
  bool Verbose = false;
};

/// WorkServer knobs.
struct WorkServerOptions : LeaseServerOptions {
  /// Canonical corpus dedupe (litmus/Canon.h): serve one unit per
  /// canonical equivalence class and config, answer the others by
  /// renaming the representative's result into their vocabulary. The
  /// merged Results are byte-identical to executing every unit (modulo
  /// per-unit stats, which mirror the representative's); strictly fewer
  /// units hit the wire. Duplicates arriving as journal replays merge
  /// directly and are never re-served (the resume path).
  bool Dedupe = false;
};

/// Relay knobs: where the upstream lease server is.
struct RelayOptions : LeaseServerOptions {
  std::string UpstreamHost = "127.0.0.1";
  uint16_t UpstreamPort = 0;
  /// How long start() retries the upstream connect (the relay usually
  /// races the server's bind in deployment scripts).
  double ConnectRetrySeconds = 10.0;
};

/// Per-connection telemetry, reported in connect order. One worker
/// process = one connection; a reconnecting worker is a new entry.
struct WorkerTelemetry {
  std::string Peer;     ///< "address:port" as accepted.
  uint32_t Jobs = 0;    ///< Pool width announced in Hello.
  uint64_t UnitsLeased = 0;
  uint64_t UnitsCompleted = 0;
  /// Leases taken from this worker by disconnect or timeout.
  uint64_t Requeued = 0;
  double ConnectedSeconds = 0.0;
};

/// What the downstream half did, in either role.
struct LeaseReport {
  uint64_t Requeues = 0;          ///< Leases re-issued (faults observed).
  uint64_t DuplicateResults = 0;  ///< Late results dropped after requeue.
  /// Poll-loop iterations of run(): with the earliest-deadline timer
  /// this tracks actual work (frames, accepts, expiries), not a fixed
  /// tick rate.
  uint64_t PollWakeups = 0;
  /// Adaptive lease-size trajectory (LeaseScheduler.h).
  LeaseSizing Sizing;
  std::vector<WorkerTelemetry> Workers;
  double Seconds = 0.0;           ///< Wall clock of run().
  /// Nonempty when the campaign broke a promise. Work server: the unit
  /// source misbehaved (ids out of stream order) or the journal stopped
  /// accepting appends; the merge covers only the units streamed before
  /// the fault. Relay: it died rather than finished (upstream
  /// disconnected before Done, or its frame stream went corrupt).
  std::string Error;
};

/// Everything one served campaign produced.
struct CampaignReport : LeaseReport {
  /// Results in corpus order (index = unit id); the deterministic merge.
  std::vector<TelechatResult> Results;
  /// Name/config of every unit in corpus order: what summaries and the
  /// results JSON need after streamed unit bodies are dropped.
  std::vector<CampaignUnitMeta> UnitsMeta;
  uint64_t Units = 0;             ///< Corpus size (survives moving Results).
  /// Results merged from a journal replay instead of execution (resume).
  uint64_t ReplayedResults = 0;
  /// Units answered by canonical dedupe (Options::Dedupe) instead of
  /// execution this run. Duplicates resumed from a journal count as
  /// ReplayedResults, not here (their results never needed a rename);
  /// the local driver counts the same way (CampaignLedger.h).
  uint64_t DedupedUnits = 0;
  /// Replayed results whose unit ids the stream never produced (a
  /// journal replayed against the wrong spec); dropped from the merge.
  uint64_t StaleReplays = 0;
};

/// What one relayed campaign did (telemetry only; results live at the
/// root server).
struct RelayReport : LeaseReport {
  uint64_t UnitsRelayed = 0;     ///< Distinct units pulled from upstream.
  uint64_t ResultsForwarded = 0; ///< Results shipped upstream.
};

class JournalWriter;

/// The lease server with the local feed.
class WorkServer {
public:
  /// A materialised corpus. \p Units must satisfy Units[i].Id == i (what
  /// makeCampaignUnits produces): the id is the merge key AND the corpus
  /// position. start() refuses corpora that violate it.
  WorkServer(std::vector<CampaignUnit> Units,
             std::vector<CampaignConfig> Configs,
             WorkServerOptions Options = WorkServerOptions());

  /// A streamed corpus: units are pulled off \p Source on demand (a Work
  /// frame's worth at a time) and must arrive in id order starting at 0
  /// -- what every UnitSource in the tree produces. A violation aborts
  /// the stream and surfaces in CampaignReport::Error.
  WorkServer(std::unique_ptr<UnitSource> Source,
             std::vector<CampaignConfig> Configs,
             WorkServerOptions Options = WorkServerOptions());
  ~WorkServer();
  WorkServer(const WorkServer &) = delete;
  WorkServer &operator=(const WorkServer &) = delete;

  /// Attaches a campaign journal: every accepted result is appended (and
  /// flushed) before it merges. \p J must be open and outlive run().
  /// Call before run().
  void setJournal(JournalWriter *J);

  /// Seeds results replayed from a journal: matching units merge as
  /// completed without being served, and are not re-journaled. Call
  /// before run().
  void preloadResults(std::vector<std::pair<uint64_t, TelechatResult>> R);

  /// Binds and listens. Empty string on success, error text otherwise.
  std::string start();

  /// The bound port; valid after a successful start().
  uint16_t port() const;

  /// The bound status port (Options::StatusPort), 0 when the endpoint
  /// is off; valid after a successful start().
  uint16_t statusPort() const;

  /// Serves until every unit has a result (immediately for an empty or
  /// fully-replayed corpus), then disconnects workers and returns the
  /// merged report.
  CampaignReport run();

private:
  struct Impl;
  Impl *P;
};

/// The lease server with the upstream feed: a tier coordinator.
class Relay {
public:
  explicit Relay(RelayOptions Options);
  ~Relay();
  Relay(const Relay &) = delete;
  Relay &operator=(const Relay &) = delete;

  /// Connects upstream (with retry), handshakes, and binds the
  /// downstream listener (and status endpoint). Empty string on success.
  std::string start();

  /// The downstream port; valid after a successful start().
  uint16_t port() const;

  /// The bound status port, 0 when the endpoint is off.
  uint16_t statusPort() const;

  /// Relays until the upstream campaign completes (Done) or a fatal
  /// fault (RelayReport::Error).
  RelayReport run();

private:
  struct Impl;
  Impl *P;
};

} // namespace telechat

#endif // TELECHAT_DIST_WORKSERVER_H
