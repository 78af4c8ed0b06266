//===--- Flags.h - Declarative command-line flag tables ---------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One flag table and one parse loop for every tool. A table entry names
/// a flag (and an optional second spelling, such as --jobs for -j), says
/// how its value is read -- a switch, a string (free, or checked by a
/// callback), a number in a range, one of a fixed set of names, or a
/// host:port -- and where it goes, and carries the flag's help line, so
/// usage text is generated from the table that parses. Flags come in
/// named groups that several modes share (the pipeline knobs, the
/// simulation knobs, the lease server's downstream knobs, ...).
///
/// One exit rule holds for every tool, before any work starts: an
/// unknown flag, a flag missing its value or a missing operand prints
/// usage and exits 1; a value the flag refuses prints
/// "error: <flag> expects ..., got '<value>'" and exits 2.
///
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SUPPORT_FLAGS_H
#define TELECHAT_SUPPORT_FLAGS_H

#include "support/StringUtils.h"

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace telechat {

/// One flag, or one leading positional operand.
struct CliFlag {
  const char *Name;  ///< "--max-steps"; names the flag in refusals.
  const char *Alias; ///< Second spelling, or nullptr.
  const char *Value; ///< Help placeholder ("<n>"); nullptr for a switch.
  const char *Help;  ///< Help text; each '\n' starts an indented line.
  /// Stores the value (nullptr for a switch) into the target. Returns
  /// false once it has printed the refusal.
  std::function<bool(const char *)> Set;
  bool Given = false; ///< Set by FlagTable::parse.
};

/// Switch: sets \p Target to \p To.
CliFlag cliSwitch(const char *Name, bool &Target, bool To, const char *Help);

/// String: stores the value verbatim.
CliFlag cliString(const char *Name, const char *Value, std::string &Target,
                  const char *Help);

/// Checked string: \p Take stores the value and returns "", or refuses
/// it by returning what the flag expects ("error: <flag> expects
/// <that>, got '<value>'").
CliFlag cliChecked(const char *Name, const char *Value,
                   std::function<std::string(const char *)> Take,
                   const char *Help);

/// Number: parseFlagNumber into \p Target within [Min, Max].
template <typename T>
CliFlag cliNumber(const char *Name, const char *Value, T &Target,
                  std::type_identity_t<T> Min, std::type_identity_t<T> Max,
                  const char *Help) {
  return {Name, nullptr, Value, Help, [Name, &Target, Min, Max](const char *V) {
            return parseFlagNumber(Name, V, Min, Max, Target);
          }};
}

/// Enum: the value must be one of \p Choices; \p Store receives it.
CliFlag cliEnum(const char *Name, const char *Value,
                std::vector<std::string> Choices,
                std::function<void(const std::string &)> Store,
                const char *Help);

/// host:port, split by splitHostPort.
CliFlag cliHostPort(const char *Name, std::string &Host, uint16_t &Port,
                    const char *Help);

/// -j/--jobs: a thread count in [0, kMaxJobs] (0 = all hardware
/// threads). The short spelling also takes its value attached (-j4).
CliFlag cliJobs(unsigned &Target, const char *Help);

/// Splits "host:port" (the last colon wins so bracketless IPv6 still
/// parses). False when there is no host, or the port is not a number in
/// [1, 65535] by parseNumber (no sign, no blanks).
bool splitHostPort(const std::string &HostPort, std::string &Host,
                   uint16_t &Port);

/// A tool mode's operands and flag groups.
class FlagTable {
public:
  /// Appends a positional operand; operands are read in order, first.
  void operand(CliFlag Operand);
  /// Appends a group of flags, printed under \p Title in help.
  void add(const char *Title, std::vector<CliFlag> Flags);

  /// Parses argv[First, argc): the operands, then flags in any order (a
  /// repeated flag keeps its last value). Returns 0, or the exit code
  /// after printing why -- 1 (with \p Usage) for a missing operand, an
  /// unknown flag or a flag missing its value, 2 for a refused value.
  int parse(int argc, char **argv, int First, void (*Usage)());

  /// Whether flag \p Name was given.
  bool given(std::string_view Name) const;
  /// Whether any flag of the group titled \p Title was given.
  bool groupGiven(std::string_view Title) const;

  /// Prints to stderr the help of every group whose title is not in
  /// \p Printed, and adds those titles.
  void printHelp(std::set<std::string> &Printed) const;

private:
  struct Group {
    const char *Title;
    std::vector<CliFlag> Flags;
  };
  CliFlag *find(std::string_view Arg, const char *&Attached);

  std::vector<CliFlag> Operands;
  std::vector<Group> Groups;
};

} // namespace telechat

#endif // TELECHAT_SUPPORT_FLAGS_H
