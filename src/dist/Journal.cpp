//===--- Journal.cpp - Append-only campaign journal -----------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "dist/Journal.h"

#include "dist/Serialize.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <unistd.h>

using namespace telechat;

std::unique_ptr<UnitSource> CampaignSourceSpec::makeSource() const {
  if (K == Kind::Generator)
    return std::make_unique<GeneratorUnitSource>(Gen, NumConfigs);
  return std::make_unique<VectorUnitSource>(Units);
}

std::unique_ptr<UnitSource> CampaignSourceSpec::takeSource() {
  if (K == Kind::Generator)
    return std::make_unique<GeneratorUnitSource>(Gen, NumConfigs);
  return std::make_unique<VectorUnitSource>(std::move(Units));
}

void telechat::encodeCampaignSourceSpec(WireBuffer &B,
                                        const CampaignSourceSpec &S) {
  B.appendU8(uint8_t(S.K));
  B.appendU32(S.NumConfigs);
  if (S.K == CampaignSourceSpec::Kind::Generator) {
    encodeRandomGenOptions(B, S.Gen);
    return;
  }
  B.appendU32(uint32_t(S.Units.size()));
  for (const CampaignUnit &U : S.Units)
    encodeCampaignUnit(B, U);
}

bool telechat::decodeCampaignSourceSpec(WireCursor &C,
                                        CampaignSourceSpec &S) {
  uint8_t Kind = C.readU8();
  if (!C.ok() || Kind > uint8_t(CampaignSourceSpec::Kind::Generator))
    return false;
  S.K = CampaignSourceSpec::Kind(Kind);
  S.NumConfigs = C.readU32();
  if (!C.ok() || S.NumConfigs == 0)
    return false; // A zero-wide crossing describes no campaign.
  if (S.K == CampaignSourceSpec::Kind::Generator)
    return decodeRandomGenOptions(C, S.Gen);
  // The smallest honest unit (id + config + an empty test) is well over
  // 13 bytes; the count cap keeps a hostile header from driving a huge
  // allocation.
  uint32_t N = C.readCount(13);
  S.Units.resize(N);
  for (CampaignUnit &U : S.Units)
    if (!decodeCampaignUnit(C, U))
      return false;
  return C.ok();
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::close() {
  if (Out) {
    fclose(Out);
    Out = nullptr;
  }
}

bool JournalWriter::writeRecord(JournalRec Tag, const WireBuffer &Payload) {
  if (!Out || Payload.size() + 1 > MaxFramePayload)
    return false;
  uint32_t Len = uint32_t(Payload.size()) + 1;
  uint8_t Prefix[5] = {uint8_t(Len), uint8_t(Len >> 8), uint8_t(Len >> 16),
                       uint8_t(Len >> 24), uint8_t(Tag)};
  if (fwrite(Prefix, 1, sizeof(Prefix), Out) != sizeof(Prefix))
    return false;
  if (Payload.size() &&
      fwrite(Payload.data(), 1, Payload.size(), Out) != Payload.size())
    return false;
  // Flush to the OS: a SIGKILLed server must lose at most this record.
  return fflush(Out) == 0;
}

std::string JournalWriter::create(const std::string &Path,
                                  const CampaignSourceSpec &Spec,
                                  const std::vector<CampaignConfig> &Configs) {
  close();
  WireBuffer B;
  B.appendU32(JournalMagic);
  B.appendU16(JournalVersion);
  if (Spec.K == CampaignSourceSpec::Kind::Generator) {
    // Write only what readJournal will accept back: a header the reader
    // refuses would strand every result appended after it. Empty order
    // pools mean "relaxed only" to RandomTestStream; normalise them to
    // that spelling. Oversized pools cannot be normalised (draws index
    // them), so refuse up front.
    if (Spec.Gen.LoadOrders.size() > 64 || Spec.Gen.StoreOrders.size() > 64)
      return "generator spec has more than 64 memory orders in a pool";
    if (Spec.Gen.MaxEdges > 64)
      return "generator spec has an edge cap above 64";
    CampaignSourceSpec Norm;
    Norm.K = Spec.K;
    Norm.NumConfigs = Spec.NumConfigs;
    Norm.Gen = Spec.Gen;
    if (Norm.Gen.LoadOrders.empty())
      Norm.Gen.LoadOrders = {MemOrder::Relaxed};
    if (Norm.Gen.StoreOrders.empty())
      Norm.Gen.StoreOrders = {MemOrder::Relaxed};
    encodeCampaignSourceSpec(B, Norm);
  } else {
    encodeCampaignSourceSpec(B, Spec);
  }
  B.appendU32(uint32_t(Configs.size()));
  for (const CampaignConfig &C : Configs)
    encodeCampaignConfig(B, C);
  Out = fopen(Path.c_str(), "wb");
  if (!Out)
    return "cannot create journal " + Path;
  if (!writeRecord(JournalRec::Header, B)) {
    close();
    return "cannot write journal header to " + Path;
  }
  return "";
}

std::string JournalWriter::openAppend(const std::string &Path,
                                      uint64_t TruncateTo) {
  close();
  // Cut off a discarded partial tail before appending: new records
  // landing behind garbage bytes would shift the framing and make the
  // *next* resume fail on a "corrupt" journal.
  if (TruncateTo != ~0ull &&
      truncate(Path.c_str(), off_t(TruncateTo)) != 0)
    return "cannot truncate journal " + Path + " to its valid prefix";
  Out = fopen(Path.c_str(), "ab");
  if (!Out)
    return "cannot open journal " + Path + " for append";
  return "";
}

bool JournalWriter::appendResult(uint64_t Id, const TelechatResult &R) {
  WireBuffer B;
  B.appendU64(Id);
  encodeTelechatResult(B, R);
  return writeRecord(JournalRec::Result, B);
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

ErrorOr<JournalContents> telechat::readJournal(const std::string &Path) {
  // One pre-sized read: a journal of serialized results can be large,
  // and a stringstream round-trip would hold two full copies of it.
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  if (!In)
    return makeError("cannot open journal " + Path);
  std::streamoff Size = In.tellg();
  if (Size < 0)
    return makeError("cannot read journal " + Path);
  std::string Bytes(size_t(Size), '\0');
  In.seekg(0);
  if (Size && !In.read(Bytes.data(), Size))
    return makeError("cannot read journal " + Path);
  const uint8_t *Data = reinterpret_cast<const uint8_t *>(Bytes.data());

  JournalContents J;
  std::set<uint64_t> Seen; // First-result-wins, like the live merge.
  bool SeenHeader = false;
  size_t Pos = 0;
  while (Pos < Bytes.size()) {
    if (Bytes.size() - Pos < 5) {
      J.TruncatedTail = true;
      break;
    }
    uint32_t Len = uint32_t(Data[Pos]) | uint32_t(Data[Pos + 1]) << 8 |
                   uint32_t(Data[Pos + 2]) << 16 |
                   uint32_t(Data[Pos + 3]) << 24;
    if (Len == 0 || Len > MaxFramePayload)
      return makeError(
          strFormat("%s: corrupt record length %u at offset %zu",
                    Path.c_str(), Len, Pos));
    if (Bytes.size() - Pos - 4 < Len) {
      J.TruncatedTail = true; // Killed mid-append: discard the tail.
      break;
    }
    uint8_t Tag = Data[Pos + 4];
    WireCursor C(Data + Pos + 5, Len - 1);
    if (!SeenHeader) {
      if (Tag != uint8_t(JournalRec::Header))
        return makeError(Path + ": first record is not a journal header");
      uint32_t Magic = C.readU32();
      uint16_t Version = C.readU16();
      if (!C.ok() || Magic != JournalMagic)
        return makeError(Path + ": not a campaign journal (bad magic)");
      if (Version != JournalVersion)
        return makeError(strFormat(
            "%s: journal version mismatch: file %u, reader %u",
            Path.c_str(), unsigned(Version), unsigned(JournalVersion)));
      if (!decodeCampaignSourceSpec(C, J.Spec))
        return makeError(Path + ": corrupt campaign source spec");
      uint32_t NConfigs = C.readCount(8);
      J.Configs.resize(NConfigs);
      for (CampaignConfig &Config : J.Configs)
        if (!decodeCampaignConfig(C, Config))
          return makeError(Path + ": corrupt config table" +
                           (C.why().empty() ? "" : ": " + C.why()));
      if (!C.ok() || C.remaining() != 0)
        return makeError(Path + ": corrupt journal header");
      SeenHeader = true;
    } else if (Tag == uint8_t(JournalRec::Result)) {
      uint64_t Id = C.readU64();
      TelechatResult R;
      if (!decodeTelechatResult(C, R) || !C.ok() || C.remaining() != 0)
        return makeError(
            strFormat("%s: corrupt result record at offset %zu",
                      Path.c_str(), Pos));
      if (Seen.insert(Id).second)
        J.Results.emplace_back(Id, std::move(R));
    } else {
      return makeError(strFormat("%s: unknown record tag %u at offset %zu",
                                 Path.c_str(), unsigned(Tag), Pos));
    }
    Pos += 4 + size_t(Len);
    J.ValidBytes = Pos;
  }
  if (!SeenHeader)
    return makeError(Path + ": journal has no complete header record");
  return J;
}

//===----------------------------------------------------------------------===//
// Compaction
//===----------------------------------------------------------------------===//

ErrorOr<CompactStats> telechat::compactJournal(const std::string &Path) {
  CompactStats Stats;
  {
    std::ifstream In(Path, std::ios::binary | std::ios::ate);
    if (!In)
      return makeError("cannot open journal " + Path);
    std::streamoff Size = In.tellg();
    if (Size < 0)
      return makeError("cannot read journal " + Path);
    Stats.BytesBefore = uint64_t(Size);
  }
  ErrorOr<JournalContents> J = readJournal(Path);
  if (!J)
    return makeError(J.error());

  // readJournal already collapsed duplicate ids first-wins; sorting by id
  // turns arrival order into corpus order, so the compacted file reads
  // like the journal of a campaign that finished its prefix in sequence.
  std::sort(J->Results.begin(), J->Results.end(),
            [](const std::pair<uint64_t, TelechatResult> &A,
               const std::pair<uint64_t, TelechatResult> &B) {
              return A.first < B.first;
            });

  // Write the compacted image beside the original and rename it into
  // place: a crash mid-compaction must leave a readable journal either
  // way, and rename within a directory is atomic.
  const std::string Tmp = Path + ".compact";
  JournalWriter W;
  if (std::string Err = W.create(Tmp, J->Spec, J->Configs); !Err.empty())
    return makeError(Err);
  for (const auto &[Id, R] : J->Results)
    if (!W.appendResult(Id, R)) {
      W.close();
      std::remove(Tmp.c_str());
      return makeError("cannot write compacted journal " + Tmp);
    }
  W.close();
  {
    std::ifstream In(Tmp, std::ios::binary | std::ios::ate);
    std::streamoff Size = In ? std::streamoff(In.tellg()) : -1;
    if (Size < 0) {
      std::remove(Tmp.c_str());
      return makeError("cannot stat compacted journal " + Tmp);
    }
    Stats.BytesAfter = uint64_t(Size);
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return makeError("cannot rename " + Tmp + " over " + Path);
  }
  Stats.Results = J->Results.size();
  return Stats;
}
