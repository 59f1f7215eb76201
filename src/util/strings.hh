/**
 * @file
 * Small string utilities used across the library: splitting, trimming,
 * case folding, numeric parsing with error reporting, and printf-style
 * formatting into std::string.
 */

#ifndef SOFTSKU_UTIL_STRINGS_HH
#define SOFTSKU_UTIL_STRINGS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace softsku {

/** Split @p text on @p sep; empty fields are preserved. */
std::vector<std::string> split(std::string_view text, char sep);

/** Remove leading and trailing ASCII whitespace. */
std::string_view trim(std::string_view text);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view text);

/** True if @p text begins with @p prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** True if @p text ends with @p suffix. */
bool endsWith(std::string_view text, std::string_view suffix);

/** Parse a signed integer; nullopt when the whole string is not numeric. */
std::optional<long long> parseInt(std::string_view text);

/** Parse a double; nullopt when the whole string is not numeric. */
std::optional<double> parseDouble(std::string_view text);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Join the elements of @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view sep);

/** Stable 64-bit FNV-1a hash of @p text (same value on every build). */
std::uint64_t fnv1a64(std::string_view text);

/** Stable 64-bit finalizer (MurmurHash3's fmix64): spreads every input
 *  bit over the whole word, the same value on every build.  Inline: the
 *  simulator's per-access paths call it. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
}

} // namespace softsku

#endif // SOFTSKU_UTIL_STRINGS_HH
