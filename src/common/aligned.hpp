/**
 * @file
 * Over-aligned allocator for simulator state storage.
 *
 * The vectorized kernels (sim/vec_complex.hpp) issue 256/512-bit loads
 * and stores against the amplitude array. Correctness never depends on
 * alignment (the kernels load and store unaligned), but a
 * 64-byte base keeps every vector access inside one cache line and
 * makes the hot arrays start on an AVX-512-friendly boundary. The
 * allocator rounds every allocation up to the alignment so operator
 * new's size/alignment contract holds for any element count.
 */
#pragma once

#include <cstddef>
#include <new>

namespace elv {

/** Minimal C++17 allocator returning `Align`-byte-aligned storage. */
template <typename T, std::size_t Align = 64>
struct AlignedAllocator
{
    static_assert(Align >= alignof(T), "alignment below the type's own");
    static_assert((Align & (Align - 1)) == 0,
                  "alignment must be a power of two");

    using value_type = T;

    AlignedAllocator() noexcept = default;

    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T *allocate(std::size_t n)
    {
        const std::size_t bytes =
            ((n * sizeof(T) + Align - 1) / Align) * Align;
        return static_cast<T *>(
            ::operator new(bytes, std::align_val_t{Align}));
    }

    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t{Align});
    }

    friend bool operator==(const AlignedAllocator &,
                           const AlignedAllocator &) noexcept
    {
        return true;
    }

    friend bool operator!=(const AlignedAllocator &,
                           const AlignedAllocator &) noexcept
    {
        return false;
    }
};

} // namespace elv
