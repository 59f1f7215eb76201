/**
 * @file
 * An allocator for the simulator's large per-simulation arrays (cache
 * tag arrays, Zipf CDF tables, the JIT epoch table, the interference
 * ring) that maps blocks of kPageAllocMinBytes or more straight from
 * the kernel and unmaps them when they are released.
 *
 * Through malloc these arrays would not reliably leave the process.
 * glibc maps large blocks itself only until one is freed, then raises
 * its mapping threshold to that block's size, so later simulations
 * take their arrays from the calling thread's arena.  malloc_trim()
 * cannot hand back the top of a worker thread's arena, so a sweep's
 * pool workers each kept up to one simulation's arrays (10–30 MiB)
 * resident after the sweep ended, by an amount that depended on which
 * worker ran which simulation last.  Mapped blocks go back to the
 * kernel the moment a simulation ends, on whatever thread it ran.
 * Smaller blocks go through std::allocator.
 */

#ifndef SOFTSKU_UTIL_PAGE_ALLOCATOR_HH
#define SOFTSKU_UTIL_PAGE_ALLOCATOR_HH

#include <sys/mman.h>

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace softsku {

/** Blocks at least this large are mapped (glibc's initial threshold). */
inline constexpr std::size_t kPageAllocMinBytes = 128 * 1024;

template <class T>
struct PageAllocator
{
    using value_type = T;

    PageAllocator() = default;
    template <class U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n > std::allocator_traits<std::allocator<T>>::max_size(
                    std::allocator<T>()))
            throw std::bad_array_new_length();
        std::size_t bytes = n * sizeof(T);
        if (bytes < kPageAllocMinBytes)
            return std::allocator<T>().allocate(n);
        void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        std::size_t bytes = n * sizeof(T);
        if (bytes < kPageAllocMinBytes)
            std::allocator<T>().deallocate(p, n);
        else
            munmap(p, bytes);
    }

    template <class U>
    bool
    operator==(const PageAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A vector whose large buffers are mapped (see PageAllocator). */
template <class T>
using PageVector = std::vector<T, PageAllocator<T>>;

} // namespace softsku

#endif // SOFTSKU_UTIL_PAGE_ALLOCATOR_HH
