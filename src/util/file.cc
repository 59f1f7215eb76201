#include "util/file.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>

#include <unistd.h>

namespace softsku {

bool
writeFileAtomic(const std::string &path, std::string_view bytes)
{
    // Unique per process and per call, so concurrent writers of one
    // path never share a temporary.
    static std::atomic<unsigned> sequence{0};
    const std::string temp = path + ".tmp." + std::to_string(::getpid()) +
                             "." + std::to_string(sequence++);
    std::FILE *file = std::fopen(temp.c_str(), "wbx");
    if (!file)
        return false;
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), file) ==
              bytes.size();
    ok = std::fclose(file) == 0 && ok;
    ok = ok && std::rename(temp.c_str(), path.c_str()) == 0;
    if (!ok) {
        int saved = errno;
        std::remove(temp.c_str());
        errno = saved;
    }
    return ok;
}

} // namespace softsku
