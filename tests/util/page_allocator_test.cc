/** @file Unit tests for the mapped-buffer allocator. */

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>

#include "util/page_allocator.hh"

namespace softsku {
namespace {

/** True when every page of [p, p + bytes) is mapped in this process. */
bool
isMapped(const void *p, std::size_t bytes)
{
    unsigned char pages[64];
    std::size_t pageBytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    EXPECT_LE((bytes + pageBytes - 1) / pageBytes, sizeof(pages));
    errno = 0;
    return mincore(const_cast<void *>(p), bytes, pages) == 0;
}

TEST(PageAllocator, LargeBlockIsUnmappedWhenReleased)
{
    const std::size_t n = kPageAllocMinBytes / sizeof(std::uint64_t);
    const void *block = nullptr;
    {
        PageVector<std::uint64_t> v(n);
        block = v.data();
        // Straight from mmap: page-aligned and zero-filled.
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(block) %
                      static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE)),
                  0u);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(v[i], 0u);
        v[n - 1] = 42;
        EXPECT_TRUE(isMapped(block, kPageAllocMinBytes));
    }
    // Nothing in between maps memory, so the range is still free.
    EXPECT_FALSE(isMapped(block, kPageAllocMinBytes));
    EXPECT_EQ(errno, ENOMEM);
}

TEST(PageAllocator, GrowingAcrossTheThresholdKeepsContents)
{
    PageVector<std::uint32_t> v;
    const std::size_t n = 2 * kPageAllocMinBytes / sizeof(std::uint32_t);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(static_cast<std::uint32_t>(i * 7));
    PageVector<std::uint32_t> copy = v;
    ASSERT_EQ(copy.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(copy[i], static_cast<std::uint32_t>(i * 7));
    EXPECT_EQ(copy, v);
}

TEST(PageAllocator, SmallBlocksBehaveLikeStdVector)
{
    PageVector<double> v = {1.0, 2.0, 3.0};
    v.push_back(4.0);
    PageVector<double> moved = std::move(v);
    EXPECT_EQ(moved, (PageVector<double>{1.0, 2.0, 3.0, 4.0}));
}

} // namespace
} // namespace softsku
