//===--- Flags.cpp - Declarative command-line flag tables -----------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"

#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>

using namespace telechat;

CliFlag telechat::cliSwitch(const char *Name, bool &Target, bool To,
                            const char *Help) {
  return {Name, nullptr, nullptr, Help, [&Target, To](const char *) {
            Target = To;
            return true;
          }};
}

CliFlag telechat::cliString(const char *Name, const char *Value,
                            std::string &Target, const char *Help) {
  return {Name, nullptr, Value, Help, [&Target](const char *V) {
            Target = V;
            return true;
          }};
}

CliFlag telechat::cliChecked(const char *Name, const char *Value,
                             std::function<std::string(const char *)> Take,
                             const char *Help) {
  return {Name, nullptr, Value, Help,
          [Name, Take = std::move(Take)](const char *V) {
            std::string Expect = Take(V);
            if (Expect.empty())
              return true;
            detail::reportBadValue(Name, V, Expect);
            return false;
          }};
}

CliFlag telechat::cliEnum(const char *Name, const char *Value,
                          std::vector<std::string> Choices,
                          std::function<void(const std::string &)> Store,
                          const char *Help) {
  return {Name, nullptr, Value, Help,
          [Name, Choices = std::move(Choices),
           Store = std::move(Store)](const char *V) {
            for (const std::string &C : Choices)
              if (C == V) {
                Store(C);
                return true;
              }
            detail::reportBadValue(Name, V, joinStrings(Choices, "|"));
            return false;
          }};
}

CliFlag telechat::cliHostPort(const char *Name, std::string &Host,
                              uint16_t &Port, const char *Help) {
  return {Name, nullptr, "<host:port>", Help,
          [Name, &Host, &Port](const char *V) {
            if (splitHostPort(V, Host, Port))
              return true;
            detail::reportBadValue(Name, V, "<host:port>");
            return false;
          }};
}

CliFlag telechat::cliJobs(unsigned &Target, const char *Help) {
  return {"-j", "--jobs", "<n>", Help, [&Target](const char *V) {
            return parseFlagNumber("-j", V, 0u, kMaxJobs, Target);
          }};
}

bool telechat::splitHostPort(const std::string &HostPort, std::string &Host,
                             uint16_t &Port) {
  size_t Colon = HostPort.rfind(':');
  if (Colon == std::string::npos || Colon == 0 ||
      !parseNumber(std::string_view(HostPort).substr(Colon + 1),
                   uint16_t(1), uint16_t(65535), Port))
    return false;
  Host = HostPort.substr(0, Colon);
  return true;
}

void FlagTable::operand(CliFlag Operand) {
  Operands.push_back(std::move(Operand));
}

void FlagTable::add(const char *Title, std::vector<CliFlag> Flags) {
  Groups.push_back({Title, std::move(Flags)});
}

CliFlag *FlagTable::find(std::string_view Arg, const char *&Attached) {
  CliFlag *Short = nullptr;
  for (Group &G : Groups)
    for (CliFlag &F : G.Flags) {
      if (Arg == F.Name || (F.Alias && Arg == F.Alias))
        return &F;
      // A one-letter spelling takes its value attached too: -j4.
      if (F.Value && strlen(F.Name) == 2 && Arg.size() > 2 &&
          Arg.substr(0, 2) == F.Name)
        Short = &F;
    }
  if (Short)
    Attached = Arg.data() + 2;
  return Short;
}

int FlagTable::parse(int argc, char **argv, int First, void (*Usage)()) {
  int I = First;
  for (CliFlag &Op : Operands) {
    if (I >= argc) {
      Usage();
      return 1;
    }
    if (!Op.Set(argv[I++]))
      return 2;
  }
  for (; I < argc; ++I) {
    const char *V = nullptr;
    CliFlag *F = find(argv[I], V);
    if (!F) {
      fprintf(stderr, "unknown option '%s'\n", argv[I]);
      Usage();
      return 1;
    }
    if (F->Value && !V) {
      if (I + 1 == argc) {
        fprintf(stderr, "missing value for '%s'\n", argv[I]);
        Usage();
        return 1;
      }
      V = argv[++I];
    }
    F->Given = true;
    if (!F->Set(V))
      return 2;
  }
  return 0;
}

bool FlagTable::given(std::string_view Name) const {
  for (const Group &G : Groups)
    for (const CliFlag &F : G.Flags)
      if (F.Given && Name == F.Name)
        return true;
  return false;
}

bool FlagTable::groupGiven(std::string_view Title) const {
  for (const Group &G : Groups)
    for (const CliFlag &F : G.Flags)
      if (F.Given && Title == G.Title)
        return true;
  return false;
}

void FlagTable::printHelp(std::set<std::string> &Printed) const {
  for (const Group &G : Groups) {
    if (!Printed.insert(G.Title).second)
      continue;
    fprintf(stderr, "\n%s:\n", G.Title);
    for (const CliFlag &F : G.Flags) {
      std::string Head = F.Name;
      if (F.Alias)
        Head = Head + ", " + F.Alias;
      if (F.Value)
        Head = Head + " " + F.Value;
      if (Head.size() > 22) { // Too wide for the column: help goes below.
        fprintf(stderr, "  %s\n", Head.c_str());
        Head.clear();
      }
      for (const std::string &Line : splitString(F.Help, '\n')) {
        fprintf(stderr, "  %-22s %s\n", Head.c_str(), Line.c_str());
        Head.clear();
      }
    }
  }
}
