/**
 * @file
 * Bump allocator for the simulated address space.
 */

#ifndef HMTX_RUNTIME_ALLOC_HH
#define HMTX_RUNTIME_ALLOC_HH

#include <cassert>
#include <cstddef>
#include <cstdint>

#include "core/types.hh"

namespace hmtx::runtime
{

/**
 * Carves simulated physical addresses out of a flat heap. Workloads
 * allocate their data structures here during setup; the addresses are
 * then accessed through the coherent cache hierarchy at run time.
 */
class SimAllocator
{
  public:
    /** @param base first heap address (default leaves low memory for
     *              runtime structures) */
    explicit SimAllocator(Addr base = 0x1000000)
        : next_(base)
    {}

    /** Allocates @p bytes with the given power-of-two alignment. */
    Addr
    alloc(std::size_t bytes, std::size_t align = 8)
    {
        assert(align != 0 && (align & (align - 1)) == 0);
        next_ = (next_ + align - 1) & ~static_cast<Addr>(align - 1);
        Addr a = next_;
        next_ += bytes;
        return a;
    }

    /** Allocates @p n full cache lines, line-aligned. */
    Addr
    allocLines(std::size_t n)
    {
        return alloc(n * kLineBytes, kLineBytes);
    }

    /** Allocates an array of @p n 64-bit words. */
    Addr allocWords(std::size_t n) { return alloc(n * 8, 8); }

    /** Total bytes handed out so far. */
    Addr used() const { return next_; }

  private:
    Addr next_;
};

} // namespace hmtx::runtime

#endif // HMTX_RUNTIME_ALLOC_HH
