/**
 * @file
 * Whole-file artifact writes that readers never see half done.
 */

#ifndef SOFTSKU_UTIL_FILE_HH
#define SOFTSKU_UTIL_FILE_HH

#include <string>
#include <string_view>

namespace softsku {

/**
 * Replace the file at @p path with @p bytes: write a temporary file in
 * the same directory, check every write and the close, then rename it
 * over @p path.  A reader sees the old file or the new one, never a
 * truncated mix.  On failure the temporary is removed, @p path is left
 * as it was, errno says why, and the result is false.  The data is not
 * fsynced: this guards against failed and concurrent writes, not
 * against power loss.
 */
bool writeFileAtomic(const std::string &path, std::string_view bytes);

} // namespace softsku

#endif // SOFTSKU_UTIL_FILE_HH
