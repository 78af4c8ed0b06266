//===--- StringUtils.h - Small string helpers -------------------*- C++ -*-===//
//
// Part of the Télétchat reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//

#ifndef TELECHAT_SUPPORT_STRINGUTILS_H
#define TELECHAT_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace telechat {

/// Splits \p Text on \p Sep, keeping empty fields.
std::vector<std::string> splitString(std::string_view Text, char Sep);

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view Text);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Parts,
                        std::string_view Sep);

/// printf-style formatting into a std::string.
std::string strFormat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

namespace detail {
/// Integer syntax of parseNumber: C notation (decimal, 0x hex, leading-0
/// octal), a leading '-' only when \p AllowNeg, nothing else.
bool parseIntegerText(std::string_view Text, bool AllowNeg, bool &Neg,
                      uint64_t &Magnitude);
/// Floating syntax of parseNumber: the whole text, finite.
bool parseFiniteText(std::string_view Text, double &Out);
/// Prints a flag's refusal to stderr: "error: <Flag> expects <What>,
/// got '<Text>'".
void reportBadValue(const char *Flag, const char *Text,
                    const std::string &What);
} // namespace detail

/// Strictly parses a number. The whole of \p Text must be one value of
/// T: an integer in C notation (decimal, 0x hex, leading-0 octal) with a
/// leading '-' only when \p Min is negative, or for floating T a finite
/// decimal; no whitespace, no '+', no trailing characters; and the value
/// must lie in [Min, Max]. Returns false and leaves \p Out untouched
/// otherwise. Unlike strtoul, "abc" is not 0 and "-3" does not wrap.
template <typename T>
bool parseNumber(std::string_view Text, T Min, T Max, T &Out) {
  if constexpr (std::is_floating_point_v<T>) {
    double V = 0;
    if (!detail::parseFiniteText(Text, V) || V < double(Min) ||
        V > double(Max))
      return false;
    Out = T(V);
    return true;
  } else {
    bool AllowNeg = false, Neg = false;
    if constexpr (std::is_signed_v<T>)
      AllowNeg = Min < 0;
    uint64_t Mag = 0;
    if (!detail::parseIntegerText(Text, AllowNeg, Neg, Mag))
      return false;
    if constexpr (std::is_signed_v<T>) {
      if (Mag > uint64_t(INT64_MAX))
        return false;
      int64_t V = Neg ? -int64_t(Mag) : int64_t(Mag);
      if (V < int64_t(Min) || V > int64_t(Max))
        return false;
      Out = T(V);
    } else {
      if (Mag < uint64_t(Min) || Mag > uint64_t(Max))
        return false;
      Out = T(Mag);
    }
    return true;
  }
}

/// parseNumber for the value \p Text of command-line flag \p Flag. On
/// refusal prints "error: <Flag> expects ... in [Min, Max], got '<Text>'"
/// to stderr; the tools then exit with status 2.
template <typename T>
bool parseFlagNumber(const char *Flag, const char *Text, T Min, T Max,
                     T &Out) {
  if (parseNumber(std::string_view(Text), Min, Max, Out))
    return true;
  if constexpr (std::is_floating_point_v<T>)
    detail::reportBadValue(
        Flag, Text,
        strFormat("a finite number in [%g, %g]", double(Min), double(Max)));
  else if constexpr (std::is_signed_v<T>)
    detail::reportBadValue(Flag, Text,
                           strFormat("an integer in [%lld, %lld]",
                                     (long long)Min, (long long)Max));
  else
    detail::reportBadValue(Flag, Text,
                           strFormat("an integer in [%llu, %llu]",
                                     (unsigned long long)Min,
                                     (unsigned long long)Max));
  return false;
}

} // namespace telechat

#endif // TELECHAT_SUPPORT_STRINGUTILS_H
