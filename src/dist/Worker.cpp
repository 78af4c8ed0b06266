//===--- Worker.cpp - Distributed campaign worker -------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "dist/Worker.h"

#include "core/Campaign.h"
#include "dist/Protocol.h"
#include "dist/Serialize.h"
#include "dist/Socket.h"
#include "dist/Wire.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <thread>

using namespace telechat;

ErrorOr<CampaignHello> telechat::clientHandshake(TcpSocket &Sock,
                                                 uint32_t Jobs) {
  WireBuffer B;
  B.appendU32(WireMagic);
  B.appendU16(WireVersion);
  B.appendU32(Jobs);
  if (!sendFrame(Sock, uint8_t(Msg::Hello), B))
    return makeError("handshake send failed");
  ErrorOr<Frame> F = recvFrame(Sock);
  if (!F)
    return makeError("handshake: " + F.error());
  WireCursor C(F->Payload);
  if (F->Type == uint8_t(Msg::Error))
    return makeError("server refused: " + C.readString());
  if (F->Type != uint8_t(Msg::HelloAck))
    return makeError("handshake: unexpected reply");
  CampaignHello Hello;
  uint16_t Version = C.readU16();
  Hello.Planned = C.readU64();
  Hello.Configs.resize(C.readCount(8));
  for (CampaignConfig &Config : Hello.Configs)
    if (!decodeCampaignConfig(C, Config))
      return makeError("handshake: bad config table" +
                       (C.why().empty() ? "" : ": " + C.why()));
  if (!C.ok() || Version != WireVersion)
    return makeError("handshake: bad HelloAck");
  Hello.Payload = std::move(F->Payload);
  return Hello;
}

ErrorOr<WorkerRunStats>
telechat::runCampaignWorker(const std::string &Host, uint16_t Port,
                            const WorkerOptions &Options) {
  ErrorOr<TcpSocket> Connected =
      tcpConnect(Host, Port, Options.ConnectRetrySeconds);
  if (!Connected)
    return makeError("connect: " + Connected.error());
  TcpSocket Sock = std::move(*Connected);

  ErrorOr<CampaignHello> Hello =
      clientHandshake(Sock, resolveJobs(Options.Jobs));
  if (!Hello)
    return makeError(Hello.error());
  std::vector<CampaignConfig> Configs = std::move(Hello->Configs);
  uint64_t TotalUnits = Hello->Planned;
  if (Options.Verbose)
    // Planned size only: a generative server may stream fewer (the Done
    // frame carries the final count).
    fprintf(stderr, "[work] joined %s:%u: %llu planned units, %zu configs\n",
            Host.c_str(), unsigned(Port),
            static_cast<unsigned long long>(TotalUnits), Configs.size());

  ThreadPool Pool(resolveJobs(Options.Jobs));
  // The default batch covers whole tests: a test's configs are adjacent
  // in the stream, and they share a source simulation only within one
  // runCampaignUnits call.
  unsigned Width = std::max<unsigned>(1, unsigned(Configs.size()));
  unsigned Batch = Options.BatchSize
                       ? Options.BatchSize
                       : (2 * Pool.size() + Width - 1) / Width * Width;
  WorkerRunStats Stats;
  std::mutex SendM; // Result frames come from pool threads.
  bool KillTripped = false;
  bool SendFailed = false; // Server gone mid-batch: stop wasting compute.

  while (true) {
    {
      WireBuffer B;
      B.appendU32(Batch);
      if (!sendFrame(Sock, uint8_t(Msg::GetWork), B))
        return Stats; // Server gone; leases re-issue without us.
    }
    ErrorOr<Frame> F = recvFrame(Sock);
    if (!F)
      return Stats; // Disconnect while idle: campaign over or server died.
    if (F->Type == uint8_t(Msg::Done)) {
      Stats.CleanDone = true;
      return Stats;
    }
    if (F->Type == uint8_t(Msg::Wait)) {
      WireCursor C(F->Payload);
      uint32_t RetryMs = C.readU32();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(C.ok() && RetryMs ? RetryMs : 50));
      continue;
    }
    if (F->Type == uint8_t(Msg::Error)) {
      WireCursor C(F->Payload);
      return makeError("server error: " + C.readString());
    }
    if (F->Type != uint8_t(Msg::Work))
      return makeError(strFormat("unexpected message type %u",
                                 unsigned(F->Type)));

    WireCursor C(F->Payload);
    uint32_t N = C.readCount(16);
    std::vector<CampaignUnit> Units(N);
    for (CampaignUnit &U : Units)
      if (!decodeCampaignUnit(C, U))
        return makeError("malformed Work frame");
    if (!C.ok())
      return makeError("malformed Work frame");
    ++Stats.Batches;

    // Execute the batch through the shared unit executor; results are
    // streamed back the moment each unit finishes so the server's lease
    // clock measures one unit, not one batch.
    VectorUnitSource Source(std::move(Units));
    runCampaignUnits(Source, Configs, Pool,
                     [&](const CampaignUnit &U, TelechatResult R) {
                       std::lock_guard<std::mutex> Lock(SendM);
                       if (KillTripped || SendFailed)
                         return; // Dead connection: swallow the rest.
                       if (Options.KillAfterResults &&
                           Stats.UnitsCompleted >= Options.KillAfterResults) {
                         KillTripped = true;
                         Sock.close(); // Abrupt: simulates a dead worker.
                         return;
                       }
                       WireBuffer B;
                       B.appendU64(U.Id);
                       encodeTelechatResult(B, R);
                       if (B.size() >= MaxFramePayload) {
                         // sendFrame would refuse it and the server
                         // would requeue the unit forever; ship a
                         // diagnostic the campaign report can surface
                         // instead.
                         TelechatResult Stub;
                         Stub.Error = strFormat(
                             "unit %llu: serialized result exceeds the "
                             "%u MiB frame limit",
                             static_cast<unsigned long long>(U.Id),
                             MaxFramePayload >> 20);
                         B.clear();
                         B.appendU64(U.Id);
                         encodeTelechatResult(B, Stub);
                       }
                       if (sendFrame(Sock, uint8_t(Msg::Result), B))
                         ++Stats.UnitsCompleted;
                       else
                         SendFailed = true; // Leases re-issue without us.
                     });
    if (KillTripped) {
      Stats.Killed = true;
      return Stats;
    }
    if (SendFailed)
      return Stats;
    if (Options.Verbose)
      fprintf(stderr, "[work] batch of %u done (%llu total)\n", N,
              static_cast<unsigned long long>(Stats.UnitsCompleted));
  }
}
