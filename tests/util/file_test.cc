/** @file Unit tests for the atomic whole-file writer. */

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/file.hh"

namespace softsku {
namespace {

namespace fs = std::filesystem;

/** A fresh, empty directory under the test temp dir, removed after. */
struct ScratchDir
{
    fs::path path;

    explicit ScratchDir(const std::string &name)
        : path(fs::path(::testing::TempDir()) / name)
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }

    std::vector<std::string> entries() const
    {
        std::vector<std::string> names;
        for (const auto &entry : fs::directory_iterator(path))
            names.push_back(entry.path().filename().string());
        return names;
    }
};

std::string
readAll(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(WriteFileAtomic, ReplacesTheFileAndLeavesNoTemporary)
{
    ScratchDir dir("softsku_file_test_replace");
    const fs::path target = dir.path / "report.json";
    {
        std::ofstream(target) << "an older, longer body that must not survive";
    }
    ASSERT_TRUE(writeFileAtomic(target.string(), "{\"new\": 1}\n"));
    EXPECT_EQ(readAll(target), "{\"new\": 1}\n");
    EXPECT_EQ(dir.entries(), std::vector<std::string>{"report.json"});
}

TEST(WriteFileAtomic, CreatesAMissingFileWithExactBytes)
{
    ScratchDir dir("softsku_file_test_create");
    const fs::path target = dir.path / "blob.bin";
    std::string bytes(1 << 20, '\0');
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>(i * 131 % 251);
    ASSERT_TRUE(writeFileAtomic(target.string(), bytes));
    EXPECT_EQ(readAll(target), bytes);
    EXPECT_EQ(dir.entries(), std::vector<std::string>{"blob.bin"});
}

TEST(WriteFileAtomic, MissingDirectoryFailsCleanly)
{
    ScratchDir dir("softsku_file_test_missing");
    const fs::path target = dir.path / "no_such_dir" / "out.json";
    errno = 0;
    EXPECT_FALSE(writeFileAtomic(target.string(), "{}\n"));
    EXPECT_EQ(errno, ENOENT);
    EXPECT_FALSE(fs::exists(target.parent_path()));
    EXPECT_TRUE(dir.entries().empty());
}

} // namespace
} // namespace softsku
