//===--- Relay.cpp - Tier coordinator of the campaign service -------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
//
// Built from the same two lower tiers as the server -- SessionHost for
// the downstream connections, LeaseScheduler for the downstream fault
// discipline -- with the upstream link riding the poll loop as an aux
// fd. Unit and result payloads cross the relay byte-verbatim; the only
// decoding is bounds-checked validation, so nothing downstream can make
// the relay ship a frame upstream that the server would kill it for.
//
//===----------------------------------------------------------------------===//

#include "dist/Relay.h"

#include "dist/CampaignJson.h"
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
#include <cstdlib>
#include <map>
#include <optional>
#include <vector>

using namespace telechat;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

constexpr int IdlePollMs = 500;

} // namespace

struct Relay::Impl : SessionHost::Handler {
  RelayOptions Opts;

  // Upstream link: the relay is a worker here.
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

  // Downstream: the relay is a server here.
  SessionHost Host;
  StatusEndpoint Status;
  std::optional<LeaseScheduler> Sched;
  /// Unit id -> the unit's encoded bytes exactly as the upstream Work
  /// frame carried them; spliced verbatim into downstream Work frames.
  std::map<uint64_t, std::vector<uint8_t>> LiveRaw;
  std::vector<WorkerTelemetry> Workers;

  uint64_t ReceivedUnits = 0;
  uint64_t CompletedCount = 0;
  RelayReport Report;
  Clock::time_point StartedAt;

  void log(const char *Fmt, ...) const;
  void fatal(const std::string &Reason);
  void sanitizeOptions();
  void dropConn(size_t Slot);
  void expireLeases();
  bool anyWorker() const;
  void maybeRequestUpstream();
  void handleUpstreamFrame(const Frame &F);
  void readUpstream();
  void handleHello(size_t Slot, const Frame &F);
  void handleGetWork(size_t Slot, const Frame &F);
  void handleResult(size_t Slot, const Frame &F);
  void sendError(size_t Slot, const std::string &Reason);
  std::string statusJson();
  std::string start();
  RelayReport run();

  // SessionHost::Handler.
  void onAccept(size_t Slot) override;
  bool onFrame(size_t Slot, const Frame &F) override;
  void onHangup(size_t Slot) override { dropConn(Slot); }
  void onCorrupt(size_t Slot) override {
    sendError(Slot, "corrupt frame stream");
  }
  void collectAuxFds(std::vector<pollfd> &Fds) override {
    if (Up.valid())
      Fds.push_back(pollfd{Up.fd(), POLLIN, 0});
    Status.collectFds(Fds);
  }
  void onAuxReady(const pollfd &PF) override {
    if (Status.onReady(PF, [this] { return statusJson(); }))
      return;
    if (Up.valid() && PF.fd == Up.fd())
      readUpstream();
  }
};

void Relay::Impl::log(const char *Fmt, ...) const {
  if (!Opts.Verbose)
    return;
  va_list Args;
  va_start(Args, Fmt);
  fprintf(stderr, "[relay] ");
  vfprintf(stderr, Fmt, Args);
  fprintf(stderr, "\n");
  va_end(Args);
}

void Relay::Impl::fatal(const std::string &Reason) {
  if (Report.Error.empty())
    Report.Error = Reason;
  log("fatal: %s", Reason.c_str());
  Up.close();
}

void Relay::Impl::sanitizeOptions() {
  if (Opts.MaxUnitsPerRequest == 0)
    Opts.MaxUnitsPerRequest = 1;
  if (Opts.WaitRetryMs == 0)
    Opts.WaitRetryMs = 50;
  if (Opts.TargetLeaseSeconds <= 0.0)
    Opts.TargetLeaseSeconds = 1.0;
}

void Relay::Impl::dropConn(size_t Slot) {
  PeerSession &C = Host.peer(Slot);
  if (!C.Sock.valid())
    return;
  std::vector<uint64_t> Requeued = Sched->dropPeer(Slot);
  Report.Requeues += Requeued.size();
  Workers[C.Telemetry].Requeued += Requeued.size();
  Workers[C.Telemetry].ConnectedSeconds = secondsSince(C.ConnectedAt);
  C.Sock.close();
  log("worker %s disconnected", Workers[C.Telemetry].Peer.c_str());
}

void Relay::Impl::expireLeases() {
  for (const auto &[Id, Slot] : Sched->expire()) {
    ++Report.Requeues;
    ++Workers[Host.peer(Slot).Telemetry].Requeued;
    log("lease on unit %llu expired, requeued",
        static_cast<unsigned long long>(Id));
  }
}

bool Relay::Impl::anyWorker() const {
  for (const PeerSession &C :
       const_cast<SessionHost &>(Host).peers())
    if (C.Sock.valid() && C.Handshook)
      return true;
  return false;
}

void Relay::Impl::maybeRequestUpstream() {
  if (!Up.valid() || UpstreamDone || RequestInFlight)
    return;
  // No workers, no prefetch: units pulled early would sit here eating
  // their upstream lease while some other relay's workers starve.
  if (!anyWorker())
    return;
  if (Sched->pendingCount() >= Opts.MaxUnitsPerRequest)
    return;
  if (Clock::now() < UpstreamRetryAt)
    return;
  WireBuffer B;
  B.appendU32(Opts.MaxUnitsPerRequest);
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
      size_t Off = F.Payload.size() - Before;
      size_t Len = Before - C.remaining();
      LiveRaw.emplace(U.Id,
                      std::vector<uint8_t>(F.Payload.begin() + Off,
                                           F.Payload.begin() + Off + Len));
      Sched->addPending(U.Id);
      ++ReceivedUnits;
      ++Report.UnitsRelayed;
    }
    log("pulled %u units from upstream (%llu total)", N,
        static_cast<unsigned long long>(ReceivedUnits));
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
    log("upstream done: %llu units total",
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

void Relay::Impl::sendError(size_t Slot, const std::string &Reason) {
  WireBuffer B;
  B.appendString(Reason);
  sendFrame(Host.peer(Slot).Sock, uint8_t(Msg::Error), B);
  dropConn(Slot);
}

void Relay::Impl::onAccept(size_t Slot) {
  PeerSession &C = Host.peer(Slot);
  C.Telemetry = Workers.size();
  WorkerTelemetry T;
  T.Peer = C.Sock.peerName();
  Workers.push_back(T);
  Sched->addPeer(Slot);
}

void Relay::Impl::handleHello(size_t Slot, const Frame &F) {
  WireCursor C(F.Payload);
  uint32_t Magic = C.readU32();
  uint16_t Version = C.readU16();
  uint32_t Jobs = C.readU32();
  if (!C.ok() || Magic != WireMagic) {
    sendError(Slot, "bad magic");
    return;
  }
  if (Version != WireVersion) {
    sendError(Slot, strFormat("protocol version mismatch: relay %u, "
                              "worker %u",
                              unsigned(WireVersion), unsigned(Version)));
    return;
  }
  PeerSession &Peer = Host.peer(Slot);
  Peer.Handshook = true;
  Workers[Peer.Telemetry].Jobs = Jobs;
  // The upstream ack, byte-verbatim: version, planned total and config
  // table exactly as the root server stated them.
  WireBuffer B;
  B.appendBytes(HelloAckPayload.data(), HelloAckPayload.size());
  if (!sendFrame(Peer.Sock, uint8_t(Msg::HelloAck), B)) {
    dropConn(Slot);
    return;
  }
  log("worker %s joined (jobs=%u)", Workers[Peer.Telemetry].Peer.c_str(),
      Jobs);
}

void Relay::Impl::handleGetWork(size_t Slot, const Frame &F) {
  WireCursor C(F.Payload);
  uint32_t Max = C.readU32();
  if (!C.ok()) {
    sendError(Slot, "malformed GetWork");
    return;
  }
  Max = std::min(Max, Opts.MaxUnitsPerRequest);
  if (UpstreamDone) {
    WireBuffer B;
    B.appendU64(FinalCount);
    if (sendFrame(Host.peer(Slot).Sock, uint8_t(Msg::Done), B))
      Host.peer(Slot).DoneSent = true;
    else
      dropConn(Slot);
    return;
  }
  maybeRequestUpstream();
  std::vector<uint64_t> Batch = Sched->lease(Slot, Max);
  if (Batch.empty()) {
    WireBuffer B;
    B.appendU32(Opts.WaitRetryMs);
    if (!sendFrame(Host.peer(Slot).Sock, uint8_t(Msg::Wait), B))
      dropConn(Slot);
    return;
  }
  WireBuffer B;
  B.appendU32(uint32_t(Batch.size()));
  for (uint64_t Id : Batch) {
    const std::vector<uint8_t> &Raw = LiveRaw.at(Id);
    B.appendBytes(Raw.data(), Raw.size());
  }
  Workers[Host.peer(Slot).Telemetry].UnitsLeased += Batch.size();
  if (!sendFrame(Host.peer(Slot).Sock, uint8_t(Msg::Work), B))
    dropConn(Slot);
}

void Relay::Impl::handleResult(size_t Slot, const Frame &F) {
  WireCursor C(F.Payload);
  uint64_t Id = C.readU64();
  if (!C.ok()) {
    sendError(Slot, "malformed Result");
    return;
  }
  if (!Sched->everLeased(Slot, Id)) {
    sendError(Slot, "result for a unit not leased here");
    return;
  }
  if (Sched->completed(Id)) {
    // A sibling behind this relay already answered (requeue race); the
    // upstream has the result, so drop this copy locally.
    Sched->releaseLease(Slot, Id);
    ++Report.DuplicateResults;
    return;
  }
  // Validate before forwarding: a malformed result shipped upstream
  // would get the *relay* erred out, taking every worker behind it. The
  // decoded copy is discarded -- the payload crosses byte-verbatim.
  TelechatResult R;
  if (!decodeTelechatResult(C, R)) {
    sendError(Slot, "malformed Result");
    return;
  }
  WireBuffer B;
  B.appendBytes(F.Payload.data(), F.Payload.size());
  if (!sendFrame(Up, uint8_t(Msg::Result), B)) {
    fatal("upstream disconnected (Result send failed)");
    return;
  }
  Sched->resultDelivered(Slot, Id);
  Sched->markCompleted(Id);
  LiveRaw.erase(Id);
  ++CompletedCount;
  ++Report.ResultsForwarded;
  ++Workers[Host.peer(Slot).Telemetry].UnitsCompleted;
}

bool Relay::Impl::onFrame(size_t Slot, const Frame &F) {
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

std::string Relay::Impl::statusJson() {
  ServiceStatus S;
  S.Role = "relay";
  S.Planned = UpstreamPlanned;
  S.Generated = ReceivedUnits;
  S.Completed = CompletedCount;
  S.Pending = Sched->pendingCount();
  S.Leased = Sched->leasedCount();
  S.Requeues = Report.Requeues;
  S.DuplicateResults = Report.DuplicateResults;
  S.PollWakeups = Report.PollWakeups;
  S.Sizing = Sched->sizing();
  S.Seconds = secondsSince(StartedAt);
  std::vector<PeerSession> &Peers = Host.peers();
  for (size_t Slot = 0; Slot != Peers.size(); ++Slot) {
    const WorkerTelemetry &W = Workers[Peers[Slot].Telemetry];
    ServiceStatus::WorkerRow Row;
    Row.Peer = W.Peer;
    Row.Jobs = W.Jobs;
    Row.UnitsLeased = W.UnitsLeased;
    Row.UnitsCompleted = W.UnitsCompleted;
    Row.Requeued = W.Requeued;
    Row.Outstanding = Sched->outstanding(Slot);
    Row.ConnectedSeconds = Peers[Slot].Sock.valid()
                               ? secondsSince(Peers[Slot].ConnectedAt)
                               : W.ConnectedSeconds;
    S.Workers.push_back(std::move(Row));
  }
  return serviceStatusJson(S);
}

std::string Relay::Impl::start() {
  sanitizeOptions();
  Sched.emplace(Opts.MaxUnitsPerRequest, Opts.LeaseTimeoutSeconds,
                Opts.TargetLeaseSeconds);

  ErrorOr<TcpSocket> Connected = tcpConnect(
      Opts.UpstreamHost, Opts.UpstreamPort, Opts.ConnectRetrySeconds);
  if (!Connected)
    return "upstream connect: " + Connected.error();
  Up = std::move(*Connected);
  Up.setSendTimeout(30.0);

  // Handshake upstream as a worker. Jobs=0: the relay's own pool width
  // is "whatever joins downstream", unknown at handshake time.
  {
    WireBuffer B;
    B.appendU32(WireMagic);
    B.appendU16(WireVersion);
    B.appendU32(0);
    if (!sendFrame(Up, uint8_t(Msg::Hello), B))
      return "upstream handshake send failed";
  }
  ErrorOr<Frame> F = recvFrame(Up);
  if (!F)
    return "upstream handshake: " + F.error();
  if (F->Type == uint8_t(Msg::Error)) {
    WireCursor C(F->Payload);
    return "upstream refused: " + C.readString();
  }
  if (F->Type != uint8_t(Msg::HelloAck))
    return "upstream handshake: unexpected reply";
  {
    // Validate the ack fully before promising to replay it downstream.
    WireCursor C(F->Payload);
    uint16_t Version = C.readU16();
    UpstreamPlanned = C.readU64();
    uint32_t NConfigs = C.readCount(8);
    for (uint32_t I = 0; I != NConfigs; ++I) {
      CampaignConfig Config;
      if (!decodeCampaignConfig(C, Config))
        return "upstream handshake: bad config table";
    }
    if (!C.ok() || Version != WireVersion)
      return "upstream handshake: bad HelloAck";
  }
  HelloAckPayload = std::move(F->Payload);

  std::string Err = Host.listen(Opts.ListenPort, Opts.BindAddress);
  if (!Err.empty())
    return Err;
  if (Opts.StatusPort >= 0) {
    Err = Status.listen(uint16_t(Opts.StatusPort), Opts.BindAddress);
    if (!Err.empty())
      return "status endpoint: " + Err;
  }
  return "";
}

RelayReport Relay::Impl::run() {
  StartedAt = Clock::now();
  while (Report.Error.empty() && !UpstreamDone) {
    expireLeases();
    maybeRequestUpstream();
    ++Report.PollWakeups;
    int TimeoutMs = Sched->pollTimeoutMs(IdlePollMs);
    if (Up.valid() && !UpstreamDone && !RequestInFlight) {
      // Also wake when the upstream Wait hint elapses, or a queue of
      // napping workers would stay empty until the idle tick.
      double Left =
          std::chrono::duration<double>(UpstreamRetryAt - Clock::now())
              .count();
      if (Left > 0.0)
        TimeoutMs = std::min(
            TimeoutMs, int(std::min(std::ceil(Left * 1e3) + 1.0,
                                    double(IdlePollMs))));
    }
    Host.cycle(*this, TimeoutMs);
  }

  // Campaign over (or fatal): pass Done along, then hang up.
  WireBuffer DoneB;
  DoneB.appendU64(FinalCount);
  for (PeerSession &C : Host.peers()) {
    if (!C.Sock.valid())
      continue;
    if (UpstreamDone && !C.DoneSent)
      sendFrame(C.Sock, uint8_t(Msg::Done), DoneB);
    Workers[C.Telemetry].ConnectedSeconds = secondsSince(C.ConnectedAt);
    C.Sock.close();
  }
  Host.closeAll();
  Status.close();
  Up.close();
  Report.Sizing = Sched->sizing();
  Report.Workers = Workers.size();
  Report.Seconds = secondsSince(StartedAt);
  log("relay done: %llu units, %llu results forwarded, %llu requeues, "
      "%llu duplicates, %llu wakeups",
      static_cast<unsigned long long>(Report.UnitsRelayed),
      static_cast<unsigned long long>(Report.ResultsForwarded),
      static_cast<unsigned long long>(Report.Requeues),
      static_cast<unsigned long long>(Report.DuplicateResults),
      static_cast<unsigned long long>(Report.PollWakeups));
  return std::move(Report);
}

Relay::Relay(RelayOptions Options) : P(new Impl) {
  P->Opts = std::move(Options);
}

Relay::~Relay() { delete P; }

std::string Relay::start() { return P->start(); }

uint16_t Relay::port() const { return P->Host.port(); }

uint16_t Relay::statusPort() const {
  return P->Status.active() ? P->Status.port() : 0;
}

RelayReport Relay::run() { return P->run(); }

int telechat::relayToolMain(int argc, char **argv, void (*Usage)()) {
  if (argc < 4) {
    Usage();
    return 1;
  }
  RelayOptions Opts;
  if (!parseFlagNumber("--relay", argv[2], uint16_t(0), uint16_t(65535),
                       Opts.ListenPort))
    return 2;
  if (!splitHostPort(argv[3], Opts.UpstreamHost, Opts.UpstreamPort)) {
    fprintf(stderr, "error: --relay expects <listen-port> <host:port>\n");
    return 1;
  }
  for (int I = 4; I < argc; ++I) {
    std::string Arg = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    if (Arg == "--bind" && V) {
      ++I;
      Opts.BindAddress = V;
    } else if (Arg == "--batch" && V) {
      ++I;
      if (!parseFlagNumber("--batch", V, 0u, UINT32_MAX,
                           Opts.MaxUnitsPerRequest))
        return 2;
    } else if (Arg == "--lease-timeout" && V) {
      ++I;
      if (!parseFlagNumber("--lease-timeout", V, 0.001, 1e9,
                           Opts.LeaseTimeoutSeconds))
        return 2;
    } else if (Arg == "--status-port" && V) {
      ++I;
      if (!parseFlagNumber("--status-port", V, -1, 65535, Opts.StatusPort))
        return 2;
    } else if (Arg == "--verbose") {
      Opts.Verbose = true;
    } else {
      fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      Usage();
      return 1;
    }
  }
  Relay R(Opts);
  std::string Err = R.start();
  if (!Err.empty()) {
    fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  printf("relaying %s:%u on %s:%u\n", Opts.UpstreamHost.c_str(),
         unsigned(Opts.UpstreamPort), Opts.BindAddress.c_str(),
         unsigned(R.port()));
  fflush(stdout);
  RelayReport Report = R.run();
  printf("relayed: %.2f s, %llu units, %llu results forwarded, "
         "%llu requeues, %zu workers\n",
         Report.Seconds,
         static_cast<unsigned long long>(Report.UnitsRelayed),
         static_cast<unsigned long long>(Report.ResultsForwarded),
         static_cast<unsigned long long>(Report.Requeues),
         Report.Workers);
  if (!Report.Error.empty()) {
    fprintf(stderr, "error: %s\n", Report.Error.c_str());
    return 1;
  }
  return 0;
}
