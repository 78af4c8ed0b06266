//===--- StringUtils.cpp - Small string helpers ---------------------------===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

using namespace telechat;

std::vector<std::string> telechat::splitString(std::string_view Text,
                                               char Sep) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (true) {
    size_t Pos = Text.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Out.emplace_back(Text.substr(Start));
      return Out;
    }
    Out.emplace_back(Text.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::string_view telechat::trim(std::string_view Text) {
  while (!Text.empty() && isspace(static_cast<unsigned char>(Text.front())))
    Text.remove_prefix(1);
  while (!Text.empty() && isspace(static_cast<unsigned char>(Text.back())))
    Text.remove_suffix(1);
  return Text;
}

std::string telechat::joinStrings(const std::vector<std::string> &Parts,
                                  std::string_view Sep) {
  std::string Out;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

std::string telechat::strFormat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Len = vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Out(Len > 0 ? Len : 0, '\0');
  if (Len > 0)
    vsnprintf(Out.data(), Out.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Out;
}

bool telechat::detail::parseIntegerText(std::string_view Text, bool AllowNeg,
                                        bool &Neg, uint64_t &Magnitude) {
  Neg = !Text.empty() && Text.front() == '-';
  if (Neg) {
    if (!AllowNeg)
      return false;
    Text.remove_prefix(1);
  }
  // strtoull would skip whitespace and accept a sign; refuse both.
  if (Text.empty() || Text.front() < '0' || Text.front() > '9')
    return false;
  std::string Buf(Text);
  char *End = nullptr;
  errno = 0;
  unsigned long long V = strtoull(Buf.c_str(), &End, 0);
  if (errno == ERANGE || End != Buf.c_str() + Buf.size())
    return false;
  Magnitude = V;
  return true;
}

bool telechat::detail::parseFiniteText(std::string_view Text, double &Out) {
  if (Text.empty())
    return false;
  char C = Text.front();
  if (!(C == '-' || C == '.' || (C >= '0' && C <= '9')))
    return false;
  std::string Buf(Text);
  char *End = nullptr;
  errno = 0;
  double V = strtod(Buf.c_str(), &End);
  if (errno == ERANGE || End != Buf.c_str() + Buf.size() || !std::isfinite(V))
    return false;
  Out = V;
  return true;
}

void telechat::detail::reportBadValue(const char *Flag, const char *Text,
                                      const std::string &What) {
  fprintf(stderr, "error: %s expects %s, got '%s'\n", Flag, What.c_str(),
          Text);
}
