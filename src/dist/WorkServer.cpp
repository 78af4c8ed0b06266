//===--- WorkServer.cpp - The campaign lease server, in two roles ---------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
//
// The lease server is the thinnest of the service tiers: Session.h owns
// the sockets and frames, LeaseScheduler.h owns the queue and the fault
// discipline, and LeaseServer below owns the downstream protocol and its
// telemetry. What differs by role is a LeaseFeed -- where units come
// from and where results go:
//
//  - WorkServer::Impl, the local feed: the unit bodies in flight, over
//    a CampaignLedger that owns the merge, journal replay, canonical
//    dedupe and journal-before-merge (the local campaign's ledger too).
//  - Relay::Impl, the upstream feed: the upstream link riding the poll
//    loop as an aux fd, the prefetch watermark, the verbatim splice of
//    unit bytes and the forwarding of result payloads.
//
// Both feeds give the scheduler dense local ids: stream positions for
// the local feed, arrival positions for the upstream feed. The wire ids
// a relay's upstream chose never index anything here, so a hostile
// upstream cannot size the relay's bookkeeping.
//
//===----------------------------------------------------------------------===//

#include "dist/WorkServer.h"

#include "dist/CampaignJson.h"
#include "dist/CampaignLedger.h"
#include "dist/Protocol.h"
#include "dist/Serialize.h"
#include "dist/Session.h"
#include "dist/Worker.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>
#include <vector>

using namespace telechat;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Idle poll bound: with no leases outstanding the loop still wakes a
/// couple of times a second to notice a drained stream. Lease deadlines
/// shorten it (LeaseScheduler::pollTimeoutMs).
constexpr int IdlePollMs = 500;

/// What a lease server's role decides: where units come from and where
/// results go. Every id here is a dense local id.
struct LeaseFeed {
  virtual ~LeaseFeed() = default;
  /// The HelloAck payload every worker receives.
  virtual void appendHelloAck(WireBuffer &B) = 0;
  /// Tops up the pending queue toward \p Want units.
  virtual void refill(size_t Want) = 0;
  /// Once per poll-loop iteration, before the loop decides to go on.
  virtual void tick() = 0;
  /// No unit will be pending again: workers get Done(finalCount()).
  virtual bool done() const = 0;
  virtual uint64_t finalCount() const = 0;
  /// False ends the poll loop: done, or a fatal fault.
  virtual bool running() const { return !done(); }
  /// A chance to reorder the pending queue before a lease.
  virtual void beforeLease() {}
  /// Appends unit \p Id's wire bytes to a Work frame.
  virtual void appendUnit(WireBuffer &B, uint64_t Id) = 0;
  /// Maps a Result frame's unit id to a local id; false = malformed.
  virtual bool localId(uint64_t WireId, uint64_t &Id) const = 0;
  /// Takes a validated result (\p Payload is the Result frame's, verbatim).
  /// False = a fatal fault; the result was not taken.
  virtual bool accept(uint64_t Id, const std::vector<uint8_t> &Payload,
                      TelechatResult R) = 0;
  /// The role's part of the /status document: units generated and
  /// completed, planned size, and so on.
  virtual void status(ServiceStatus &S) const = 0;
  /// Extra fds on the poll loop, and their readiness.
  virtual void collectFds(std::vector<pollfd> &) {}
  virtual void onReady(const pollfd &) {}
  virtual int pollTimeoutMs(int Ms) const { return Ms; }
};

LeaseServerOptions sanitized(LeaseServerOptions O) {
  // A zero batch cap would answer every GetWork with Wait forever: the
  // campaign hangs with no diagnostic. The CLIs refuse --batch 0; floor
  // it for API callers.
  if (O.MaxUnitsPerRequest == 0)
    O.MaxUnitsPerRequest = 1;
  if (O.WaitRetryMs == 0)
    O.WaitRetryMs = 50;
  if (O.TargetLeaseSeconds <= 0.0)
    O.TargetLeaseSeconds = 1.0;
  return O;
}

/// The downstream half: sessions, status endpoint, scheduler, telemetry
/// (one WorkerTelemetry row per session slot) and the protocol.
class LeaseServer final : public SessionHost::Handler {
public:
  LeaseServer(LeaseFeed &F, LeaseReport &R, const LeaseServerOptions &O,
              const char *Role, const char *LogTag)
      : Opts(sanitized(O)),
        Sched(Opts.MaxUnitsPerRequest, Opts.LeaseTimeoutSeconds,
              Opts.TargetLeaseSeconds),
        Feed(F), Report(R), Role(Role), LogTag(LogTag) {}

  const LeaseServerOptions Opts;
  LeaseScheduler Sched;
  SessionHost Host;
  StatusEndpoint Status;

  void log(const char *Fmt, ...) const;
  std::string listen();
  uint16_t statusPort() const { return Status.active() ? Status.port() : 0; }
  /// Serves until the feed stops running, then tells the workers and
  /// hangs up.
  void run();

private:
  LeaseFeed &Feed;
  LeaseReport &Report;
  const char *Role;   ///< "server" or "relay": /status and refusals.
  const char *LogTag; ///< Prefix of the Verbose lines.
  Clock::time_point StartedAt;

  void dropConn(size_t Slot);
  void expireLeases();
  void sendError(size_t Slot, const std::string &Reason);
  void handleHello(size_t Slot, const Frame &F);
  void handleGetWork(size_t Slot, const Frame &F);
  void handleResult(size_t Slot, const Frame &F);
  std::string statusJson();

  // SessionHost::Handler.
  void onAccept(size_t Slot) override;
  bool onFrame(size_t Slot, const Frame &F) override;
  void onHangup(size_t Slot) override { dropConn(Slot); }
  void onCorrupt(size_t Slot) override {
    sendError(Slot, "corrupt frame stream");
  }
  void collectAuxFds(std::vector<pollfd> &Fds) override {
    Feed.collectFds(Fds);
    Status.collectFds(Fds);
  }
  void onAuxReady(const pollfd &PF) override {
    if (!Status.onReady(PF, [this] { return statusJson(); }))
      Feed.onReady(PF);
  }
};

void LeaseServer::log(const char *Fmt, ...) const {
  if (!Opts.Verbose)
    return;
  va_list Args;
  va_start(Args, Fmt);
  fprintf(stderr, "[%s] ", LogTag);
  vfprintf(stderr, Fmt, Args);
  fprintf(stderr, "\n");
  va_end(Args);
}

std::string LeaseServer::listen() {
  std::string Err = Host.listen(Opts.Port, Opts.BindAddress);
  if (!Err.empty())
    return Err;
  if (Opts.StatusPort >= 0) {
    Err = Status.listen(uint16_t(Opts.StatusPort), Opts.BindAddress);
    if (!Err.empty())
      return "status endpoint: " + Err;
  }
  return "";
}

void LeaseServer::dropConn(size_t Slot) {
  PeerSession &C = Host.peer(Slot);
  if (!C.Sock.valid())
    return;
  std::vector<uint64_t> Requeued = Sched.dropPeer(Slot);
  Report.Requeues += Requeued.size();
  Report.Workers[Slot].Requeued += Requeued.size();
  Report.Workers[Slot].ConnectedSeconds = secondsSince(C.ConnectedAt);
  C.Sock.close();
  log("worker %s disconnected", Report.Workers[Slot].Peer.c_str());
}

void LeaseServer::expireLeases() {
  for (const auto &[Id, Slot] : Sched.expire()) {
    ++Report.Requeues;
    ++Report.Workers[Slot].Requeued;
    log("lease on unit %llu expired, requeued",
        static_cast<unsigned long long>(Id));
  }
}

void LeaseServer::sendError(size_t Slot, const std::string &Reason) {
  WireBuffer B;
  B.appendString(Reason);
  sendFrame(Host.peer(Slot).Sock, uint8_t(Msg::Error), B);
  dropConn(Slot);
}

void LeaseServer::onAccept(size_t Slot) {
  WorkerTelemetry T;
  T.Peer = Host.peer(Slot).Sock.peerName();
  Report.Workers.push_back(T);
  Sched.addPeer(Slot);
}

void LeaseServer::handleHello(size_t Slot, const Frame &F) {
  WireCursor C(F.Payload);
  uint32_t Magic = C.readU32();
  uint16_t Version = C.readU16();
  uint32_t Jobs = C.readU32();
  if (!C.ok() || Magic != WireMagic) {
    sendError(Slot, "bad magic");
    return;
  }
  if (Version != WireVersion) {
    sendError(Slot, strFormat("protocol version mismatch: %s %u, worker %u",
                              Role, unsigned(WireVersion),
                              unsigned(Version)));
    return;
  }
  PeerSession &Peer = Host.peer(Slot);
  Peer.Handshook = true;
  Report.Workers[Slot].Jobs = Jobs;
  WireBuffer B;
  Feed.appendHelloAck(B);
  if (!sendFrame(Peer.Sock, uint8_t(Msg::HelloAck), B)) {
    dropConn(Slot);
    return;
  }
  log("worker %s joined (jobs=%u)", Report.Workers[Slot].Peer.c_str(), Jobs);
}

void LeaseServer::handleGetWork(size_t Slot, const Frame &F) {
  WireCursor C(F.Payload);
  uint32_t Max = C.readU32();
  if (!C.ok()) {
    sendError(Slot, "malformed GetWork");
    return;
  }
  Max = std::min(Max, Opts.MaxUnitsPerRequest);
  // Top up the queue: this is where a generative campaign actually
  // generates, one Work frame's worth at a time, and where a relay asks
  // its upstream for more.
  Feed.refill(Max);
  PeerSession &Peer = Host.peer(Slot);
  WireBuffer B;
  if (Feed.done()) {
    B.appendU64(Feed.finalCount());
    if (sendFrame(Peer.Sock, uint8_t(Msg::Done), B))
      Peer.DoneSent = true;
    else
      dropConn(Slot);
    return;
  }
  Feed.beforeLease();
  std::vector<uint64_t> Batch = Sched.lease(Slot, Max);
  if (Batch.empty()) {
    // Everything is leased out (or the corpus is smaller than the
    // worker count): the worker naps and asks again.
    B.appendU32(Opts.WaitRetryMs);
    if (!sendFrame(Peer.Sock, uint8_t(Msg::Wait), B))
      dropConn(Slot);
    return;
  }
  B.appendU32(uint32_t(Batch.size()));
  for (uint64_t Id : Batch)
    Feed.appendUnit(B, Id);
  Report.Workers[Slot].UnitsLeased += Batch.size();
  if (!sendFrame(Peer.Sock, uint8_t(Msg::Work), B))
    dropConn(Slot); // The just-taken leases requeue right here.
}

void LeaseServer::handleResult(size_t Slot, const Frame &F) {
  WireCursor C(F.Payload);
  uint64_t WireId = C.readU64();
  uint64_t Id = 0;
  if (!C.ok() || !Feed.localId(WireId, Id)) {
    sendError(Slot, "malformed Result");
    return;
  }
  if (!Sched.everLeased(Slot, Id)) {
    // This connection never held the unit: reject before decoding.
    // Accepting would let a peer fabricate results and force decodes
    // (which intern outcome keys process-wide) at will.
    sendError(Slot, "result for a unit not leased here");
    return;
  }
  if (Sched.completed(Id)) {
    // Duplicate (the unit was requeued and someone else won): drop it
    // before decoding, for the same interning reason as above.
    Sched.releaseLease(Slot, Id);
    ++Report.DuplicateResults;
    return;
  }
  TelechatResult R;
  if (!decodeTelechatResult(C, R)) {
    // Keep the lease entries intact: sendError's dropConn requeues the
    // unit immediately instead of waiting out the lease timeout. (This
    // is also why a relay validates before forwarding: a malformed
    // result shipped upstream would get the relay itself erred out.)
    sendError(Slot, "malformed Result");
    return;
  }
  // The result may come from a worker whose lease was already reassigned
  // (a slow worker beaten by the timeout): still accept it -- execution
  // is deterministic, so whichever copy lands first is *the* result.
  if (!Feed.accept(Id, F.Payload, std::move(R)))
    return;
  // A delivered result also restarts the lease clock on the worker's
  // remaining units (proof of life) and feeds its adaptive batch cap.
  Sched.resultDelivered(Slot, Id);
  ++Report.Workers[Slot].UnitsCompleted;
}

bool LeaseServer::onFrame(size_t Slot, const Frame &F) {
  PeerSession &C = Host.peer(Slot);
  if (!C.Handshook) {
    if (F.Type != uint8_t(Msg::Hello)) {
      sendError(Slot, "expected Hello");
      return false;
    }
    handleHello(Slot, F);
    return C.Sock.valid();
  }
  switch (Msg(F.Type)) {
  case Msg::GetWork:
    handleGetWork(Slot, F);
    return C.Sock.valid();
  case Msg::Result:
    handleResult(Slot, F);
    return C.Sock.valid();
  case Msg::Error: {
    WireCursor Cur(F.Payload);
    log("worker error: %s", Cur.readString().c_str());
    dropConn(Slot);
    return false;
  }
  default:
    sendError(Slot, strFormat("unexpected message type %u",
                              unsigned(F.Type)));
    return false;
  }
}

std::string LeaseServer::statusJson() {
  ServiceStatus S;
  S.Role = Role;
  S.Pending = Sched.pendingCount();
  S.Leased = Sched.leasedCount();
  S.Requeues = Report.Requeues;
  S.DuplicateResults = Report.DuplicateResults;
  S.PollWakeups = Report.PollWakeups;
  S.Sizing = Sched.sizing();
  S.Seconds = secondsSince(StartedAt);
  Feed.status(S);
  S.Workers = Report.Workers;
  std::vector<PeerSession> &Peers = Host.peers();
  for (size_t Slot = 0; Slot != Peers.size(); ++Slot) {
    S.Outstanding.push_back(Sched.outstanding(Slot));
    if (Peers[Slot].Sock.valid())
      S.Workers[Slot].ConnectedSeconds = secondsSince(Peers[Slot].ConnectedAt);
  }
  return serviceStatusJson(S);
}

void LeaseServer::run() {
  StartedAt = Clock::now();
  while (true) {
    expireLeases();
    Feed.tick();
    if (!Feed.running())
      break;
    ++Report.PollWakeups;
    // Sleep until the earliest lease deadline (or the idle bound):
    // expiry-driven requeue fires when it is due, not at the next fixed
    // tick, and an idle server costs ~2 wakeups/s instead of 20.
    Host.cycle(*this, Feed.pollTimeoutMs(Sched.pollTimeoutMs(IdlePollMs)));
  }

  // Campaign over (or fatal): tell everyone still connected, then hang up.
  WireBuffer DoneB;
  DoneB.appendU64(Feed.finalCount());
  std::vector<PeerSession> &Peers = Host.peers();
  for (size_t Slot = 0; Slot != Peers.size(); ++Slot) {
    PeerSession &C = Peers[Slot];
    if (!C.Sock.valid())
      continue;
    if (Feed.done() && !C.DoneSent)
      sendFrame(C.Sock, uint8_t(Msg::Done), DoneB);
    Report.Workers[Slot].ConnectedSeconds = secondsSince(C.ConnectedAt);
    C.Sock.close();
  }
  Host.closeAll();
  Status.close();
  Report.Sizing = Sched.sizing();
  Report.Seconds = secondsSince(StartedAt);
}

} // namespace

//===----------------------------------------------------------------------===//
// The local feed: WorkServer
//===----------------------------------------------------------------------===//

struct WorkServer::Impl final : LeaseFeed {
  Impl(std::unique_ptr<UnitSource> Src, std::vector<CampaignConfig> Cfgs,
       const WorkServerOptions &O)
      : Source(std::move(Src)), Configs(std::move(Cfgs)), Dedupe(O.Dedupe),
        Ledger(*Source, O.Dedupe, Report),
        Server(*this, Report, O, "server", "serve") {
    // Collected executions are not part of the wire result (Serialize.h);
    // force the option off so the distributed run and a local run of the
    // *sanitized* configs remain bit-identical. Jobs=1 restates what the
    // unit executor enforces anyway.
    for (CampaignConfig &C : Configs) {
      C.Opts.Sim.CollectExecutions = false;
      C.Opts.Sim.Jobs = 1;
    }
  }

  std::unique_ptr<UnitSource> Source;
  /// Set by the vector constructor for a corpus whose ids are not its
  /// positions; start() refuses to serve it.
  std::string CorpusError;
  std::vector<CampaignConfig> Configs;
  bool Dedupe;
  /// Bodies of pulled-but-uncompleted units (pending or leased); erased
  /// on completion, so a streamed campaign's memory tracks the in-flight
  /// window, not the corpus.
  std::map<uint64_t, CampaignUnit> Live;

  CampaignReport Report;
  CampaignLedger Ledger;
  LeaseServer Server;

  /// Planned campaign size: exact for a fixed corpus, the generator's
  /// upper bound for a streamed one (advisory; Done carries the final
  /// count).
  uint64_t planned() const {
    return Ledger.drained() ? Ledger.generated() : Source->sizeHint();
  }
  std::string start();
  CampaignReport run();

  // LeaseFeed.
  void appendHelloAck(WireBuffer &B) override {
    B.appendU16(WireVersion);
    B.appendU64(planned());
    B.appendU32(uint32_t(Configs.size()));
    for (const CampaignConfig &Config : Configs)
      encodeCampaignConfig(B, Config);
  }
  void refill(size_t Want) override {
    CampaignUnit U;
    while (Server.Sched.pendingCount() < Want && Ledger.pull(U)) {
      Server.Sched.addPending(U.Id);
      Live.emplace(U.Id, std::move(U));
    }
  }
  void tick() override {
    // Every pulled unit is done but the source may have more: find out
    // *now*, not at the next GetWork -- the last worker may have died
    // right after its final result, and waiting for a request that never
    // comes would hang a finished campaign. (On the first iteration this
    // also applies a replayed journal prefix, so a fully-replayed
    // campaign completes with no worker at all.)
    if (Live.empty())
      refill(1);
  }
  bool done() const override { return Ledger.done(); }
  uint64_t finalCount() const override { return Ledger.generated(); }
  void beforeLease() override;
  void appendUnit(WireBuffer &B, uint64_t Id) override {
    encodeCampaignUnit(B, Live.at(Id));
  }
  bool localId(uint64_t WireId, uint64_t &Id) const override {
    Id = WireId;
    return WireId < Ledger.generated();
  }
  bool accept(uint64_t Id, const std::vector<uint8_t> &,
              TelechatResult R) override {
    Ledger.complete(Id, std::move(R));
    Server.Sched.markCompleted(Id);
    Live.erase(Id);
    return true;
  }
  void status(ServiceStatus &S) const override {
    S.Generated = Ledger.generated();
    S.Completed = Ledger.completed();
    S.Planned = planned();
    S.ReplayedResults = Report.ReplayedResults;
    S.DedupedUnits = Report.DedupedUnits;
  }
};

void WorkServer::Impl::beforeLease() {
  // Canonical-class-aware scheduling: under --dedupe only class
  // representatives reach the queue, and completing one synthesizes
  // every duplicate parked behind it. Leasing the representatives with
  // the most parked duplicates first turns each completion into the
  // largest possible batch of synthesized results early in the
  // campaign. The merge is keyed by unit id, so serve order is a
  // latency heuristic only -- results stay byte-identical to FIFO order.
  if (!Dedupe || Server.Sched.pendingCount() < 2)
    return;
  std::deque<uint64_t> &Pending = Server.Sched.pending();
  std::sort(Pending.begin(), Pending.end(), [this](uint64_t A, uint64_t B) {
    size_t NA = Ledger.parkedBehind(A), NB = Ledger.parkedBehind(B);
    if (NA != NB)
      return NA > NB;
    return A < B; // Corpus order within a class-size tier.
  });
}

std::string WorkServer::Impl::start() {
  if (!CorpusError.empty())
    return CorpusError;
  return Server.listen();
}

CampaignReport WorkServer::Impl::run() {
  Server.run();
  Ledger.finish();
  if (!Report.Error.empty())
    Server.log("%s", Report.Error.c_str());
  if (Report.StaleReplays)
    Server.log("%llu replayed results matched no streamed unit "
               "(journal/spec mismatch?)",
               static_cast<unsigned long long>(Report.StaleReplays));
  Server.log("campaign done: %llu units, %llu requeues, %llu duplicates, "
             "%llu replayed, %llu deduped, %llu wakeups",
             static_cast<unsigned long long>(Report.Units),
             static_cast<unsigned long long>(Report.Requeues),
             static_cast<unsigned long long>(Report.DuplicateResults),
             static_cast<unsigned long long>(Report.ReplayedResults),
             static_cast<unsigned long long>(Report.DedupedUnits),
             static_cast<unsigned long long>(Report.PollWakeups));
  return std::move(Report);
}

WorkServer::WorkServer(std::vector<CampaignUnit> Units,
                       std::vector<CampaignConfig> Configs,
                       WorkServerOptions Options) {
  // The whole merge is keyed on "unit id == corpus position". Refuse a
  // corpus that breaks the invariant up front rather than serving the
  // prefix before the first stray id.
  std::string Error;
  for (size_t I = 0; I != Units.size() && Error.empty(); ++I)
    if (Units[I].Id != I)
      Error = strFormat("campaign unit at position %zu has id %llu; "
                        "WorkServer requires id == corpus index",
                        I, static_cast<unsigned long long>(Units[I].Id));
  P = new Impl(std::make_unique<VectorUnitSource>(std::move(Units)),
               std::move(Configs), Options);
  P->CorpusError = std::move(Error);
}

WorkServer::WorkServer(std::unique_ptr<UnitSource> Source,
                       std::vector<CampaignConfig> Configs,
                       WorkServerOptions Options) {
  bool Missing = !Source;
  if (Missing)
    Source = std::make_unique<VectorUnitSource>(std::vector<CampaignUnit>());
  P = new Impl(std::move(Source), std::move(Configs), Options);
  if (Missing)
    P->CorpusError = "WorkServer has no unit source";
}

WorkServer::~WorkServer() { delete P; }

void WorkServer::setJournal(JournalWriter *J) { P->Ledger.setJournal(J); }

void WorkServer::preloadResults(
    std::vector<std::pair<uint64_t, TelechatResult>> R) {
  P->Ledger.preload(std::move(R));
}

std::string WorkServer::start() { return P->start(); }

uint16_t WorkServer::port() const { return P->Server.Host.port(); }

uint16_t WorkServer::statusPort() const { return P->Server.statusPort(); }

CampaignReport WorkServer::run() { return P->run(); }

//===----------------------------------------------------------------------===//
// The upstream feed: Relay
//===----------------------------------------------------------------------===//

struct Relay::Impl final : LeaseFeed {
  explicit Impl(const RelayOptions &O)
      : UpstreamHost(O.UpstreamHost), UpstreamPort(O.UpstreamPort),
        ConnectRetrySeconds(O.ConnectRetrySeconds),
        Server(*this, Report, O, "relay", "relay") {}

  // Upstream link: the relay is a worker here.
  std::string UpstreamHost;
  uint16_t UpstreamPort;
  double ConnectRetrySeconds;
  TcpSocket Up;
  FrameSplitter UpFrames;
  /// The upstream HelloAck payload, replayed byte-verbatim to every
  /// downstream worker: the config table must cross the relay unchanged
  /// or results would stop being comparable across topologies.
  std::vector<uint8_t> HelloAckPayload;
  uint64_t UpstreamPlanned = 0;
  bool UpstreamDone = false;
  uint64_t FinalCount = 0;
  /// One GetWork in flight at a time: the upstream answers requests in
  /// order, so a second request before the first answer only buys
  /// double-buffering the queue watermark already provides.
  bool RequestInFlight = false;
  Clock::time_point UpstreamRetryAt; ///< Earliest next GetWork (Wait).

  /// Upstream unit id -> local id (its arrival position here).
  std::map<uint64_t, uint64_t> LocalIdOf;
  /// Units pulled from upstream; local ids are [0, Generated).
  uint64_t Generated = 0;
  /// Local id -> the unit's encoded bytes exactly as the upstream Work
  /// frame carried them (wire id included); spliced verbatim into
  /// downstream Work frames.
  std::map<uint64_t, std::vector<uint8_t>> LiveRaw;

  RelayReport Report;
  LeaseServer Server;

  void fatal(const std::string &Reason);
  void handleUpstreamFrame(const Frame &F);
  void readUpstream();
  std::string start();
  RelayReport run();

  // LeaseFeed.
  void appendHelloAck(WireBuffer &B) override {
    // The upstream ack, byte-verbatim: version, planned total and config
    // table exactly as the root server stated them.
    B.appendBytes(HelloAckPayload.data(), HelloAckPayload.size());
  }
  void refill(size_t) override;
  void tick() override { refill(0); }
  bool done() const override { return UpstreamDone; }
  bool running() const override {
    return Report.Error.empty() && !UpstreamDone;
  }
  uint64_t finalCount() const override { return FinalCount; }
  void appendUnit(WireBuffer &B, uint64_t Id) override {
    const std::vector<uint8_t> &Raw = LiveRaw.at(Id);
    B.appendBytes(Raw.data(), Raw.size());
  }
  bool localId(uint64_t WireId, uint64_t &Id) const override {
    // An id the upstream never sent maps to the next, unissued position,
    // which no connection ever leased: refused as "not leased here".
    auto It = LocalIdOf.find(WireId);
    Id = It == LocalIdOf.end() ? Generated : It->second;
    return true;
  }
  bool accept(uint64_t Id, const std::vector<uint8_t> &Payload,
              TelechatResult) override;
  void status(ServiceStatus &S) const override {
    S.Generated = Generated;
    S.Completed = Report.ResultsForwarded;
    S.Planned = UpstreamPlanned;
  }
  void collectFds(std::vector<pollfd> &Fds) override {
    if (Up.valid())
      Fds.push_back(pollfd{Up.fd(), POLLIN, 0});
  }
  void onReady(const pollfd &PF) override {
    if (Up.valid() && PF.fd == Up.fd())
      readUpstream();
  }
  int pollTimeoutMs(int Ms) const override {
    // Also wake when the upstream Wait hint elapses, or a queue of
    // napping workers would stay empty until the idle tick.
    if (!Up.valid() || UpstreamDone || RequestInFlight)
      return Ms;
    double Left =
        std::chrono::duration<double>(UpstreamRetryAt - Clock::now()).count();
    if (Left <= 0.0)
      return Ms;
    return std::min(Ms, int(std::min(std::ceil(Left * 1e3) + 1.0,
                                     double(IdlePollMs))));
  }
};

void Relay::Impl::fatal(const std::string &Reason) {
  if (Report.Error.empty())
    Report.Error = Reason;
  Server.log("fatal: %s", Reason.c_str());
  Up.close();
}

void Relay::Impl::refill(size_t) {
  // The watermark is the batch cap, whatever one worker asks for.
  if (!Up.valid() || UpstreamDone || RequestInFlight)
    return;
  // No workers, no prefetch: units pulled early would sit here eating
  // their upstream lease while some other relay's workers starve.
  std::vector<PeerSession> &Peers = Server.Host.peers();
  if (std::none_of(Peers.begin(), Peers.end(), [](const PeerSession &C) {
        return C.Sock.valid() && C.Handshook;
      }))
    return;
  if (Server.Sched.pendingCount() >= Server.Opts.MaxUnitsPerRequest)
    return;
  if (Clock::now() < UpstreamRetryAt)
    return;
  WireBuffer B;
  B.appendU32(Server.Opts.MaxUnitsPerRequest);
  if (!sendFrame(Up, uint8_t(Msg::GetWork), B)) {
    fatal("upstream disconnected (GetWork send failed)");
    return;
  }
  RequestInFlight = true;
}

void Relay::Impl::handleUpstreamFrame(const Frame &F) {
  switch (Msg(F.Type)) {
  case Msg::Work: {
    RequestInFlight = false;
    WireCursor C(F.Payload);
    uint32_t N = C.readCount(16);
    for (uint32_t I = 0; I != N; ++I) {
      size_t Before = C.remaining();
      CampaignUnit U; // Decoded for the id and as validation only.
      if (!decodeCampaignUnit(C, U) || !C.ok()) {
        fatal("malformed upstream Work frame");
        return;
      }
      // A unit the upstream re-leases (its lease on this relay expired)
      // keeps its first position: it is already queued, leased or
      // forwarded here.
      if (!LocalIdOf.emplace(U.Id, Generated).second)
        continue;
      size_t Off = F.Payload.size() - Before;
      size_t Len = Before - C.remaining();
      LiveRaw.emplace(Generated,
                      std::vector<uint8_t>(F.Payload.begin() + Off,
                                           F.Payload.begin() + Off + Len));
      Server.Sched.addPending(Generated++);
    }
    Server.log("pulled %u units from upstream (%llu total)", N,
               static_cast<unsigned long long>(Generated));
    return;
  }
  case Msg::Wait: {
    RequestInFlight = false;
    WireCursor C(F.Payload);
    uint32_t RetryMs = C.readU32();
    UpstreamRetryAt =
        Clock::now() +
        std::chrono::milliseconds(C.ok() && RetryMs ? RetryMs : 50);
    return;
  }
  case Msg::Done: {
    RequestInFlight = false;
    WireCursor C(F.Payload);
    FinalCount = C.readU64();
    UpstreamDone = true;
    Server.log("upstream done: %llu units total",
               static_cast<unsigned long long>(FinalCount));
    return;
  }
  case Msg::Error: {
    WireCursor C(F.Payload);
    fatal("upstream error: " + C.readString());
    return;
  }
  default:
    fatal(strFormat("unexpected upstream message type %u",
                    unsigned(F.Type)));
  }
}

void Relay::Impl::readUpstream() {
  uint8_t Buf[64 * 1024];
  long N = Up.recvSome(Buf, sizeof(Buf));
  if (N <= 0) {
    // EOF after Done is the server hanging up on a finished campaign;
    // before Done it means the campaign root died under us.
    if (!UpstreamDone)
      fatal("upstream disconnected mid-campaign");
    else
      Up.close();
    return;
  }
  UpFrames.feed(Buf, size_t(N));
  Frame F;
  while (Up.valid() && UpFrames.pop(F)) {
    handleUpstreamFrame(F);
    if (UpstreamDone)
      break;
  }
  if (Up.valid() && UpFrames.corrupted())
    fatal("corrupt upstream frame stream");
}

bool Relay::Impl::accept(uint64_t Id, const std::vector<uint8_t> &Payload,
                         TelechatResult) {
  // The decoded copy is discarded: the payload crosses byte-verbatim.
  WireBuffer B;
  B.appendBytes(Payload.data(), Payload.size());
  if (!sendFrame(Up, uint8_t(Msg::Result), B)) {
    fatal("upstream disconnected (Result send failed)");
    return false;
  }
  Server.Sched.markCompleted(Id);
  LiveRaw.erase(Id);
  ++Report.ResultsForwarded;
  return true;
}

std::string Relay::Impl::start() {
  ErrorOr<TcpSocket> Connected =
      tcpConnect(UpstreamHost, UpstreamPort, ConnectRetrySeconds);
  if (!Connected)
    return "upstream connect: " + Connected.error();
  Up = std::move(*Connected);
  Up.setSendTimeout(30.0);
  // Handshake upstream as a worker. Jobs=0: the relay's own pool width
  // is "whatever joins downstream", unknown at handshake time. The ack
  // is fully validated before the relay promises to replay it.
  ErrorOr<CampaignHello> Ack = clientHandshake(Up, 0);
  if (!Ack)
    return "upstream " + Ack.error();
  UpstreamPlanned = Ack->Planned;
  HelloAckPayload = std::move(Ack->Payload);
  return Server.listen();
}

RelayReport Relay::Impl::run() {
  Server.run();
  Up.close();
  Report.UnitsRelayed = Generated;
  Server.log("relay done: %llu units, %llu results forwarded, %llu "
             "requeues, %llu duplicates, %llu wakeups",
             static_cast<unsigned long long>(Report.UnitsRelayed),
             static_cast<unsigned long long>(Report.ResultsForwarded),
             static_cast<unsigned long long>(Report.Requeues),
             static_cast<unsigned long long>(Report.DuplicateResults),
             static_cast<unsigned long long>(Report.PollWakeups));
  return std::move(Report);
}

Relay::Relay(RelayOptions Options) : P(new Impl(Options)) {}

Relay::~Relay() { delete P; }

std::string Relay::start() { return P->start(); }

uint16_t Relay::port() const { return P->Server.Host.port(); }

uint16_t Relay::statusPort() const { return P->Server.statusPort(); }

RelayReport Relay::run() { return P->run(); }
