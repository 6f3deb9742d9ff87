/**
 * @file
 * The lane layer both kernel families are written against: the lane
 * types, their loads, stores and splats, and dispatch(), which runs a
 * kernel in the active tier's entry point.
 *
 * A kernel is a struct with `template <typename V> static void run(...)`
 * written once against a lane type V: double on the baseline tier,
 * Lanes4 (four doubles) on AVX2 and Lanes8 (eight) on AVX-512. It uses
 * plain + - * on V, which compile to one instruction per operation over
 * all of V's lanes, and it is always inlined, so inside dispatch()'s
 * avx2 / avx512f entry points it compiles to that tier's instructions.
 * No V ever crosses a call by value, which would change the calling
 * convention (-Wpsabi); the primitives take V by reference.
 *
 * FP contraction is off in every function this header defines. A
 * kernel inlined into an entry point is compiled under the entry
 * point's flags, so its multiply/add pairs never fuse into FMAs (the
 * avx512f target contracts them otherwise), which would round once
 * instead of twice and break the tiers' bit-identity.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "sim/cpu_features.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define ELV_VEC_X86 1
#else
#define ELV_VEC_X86 0
#endif

#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
#endif

namespace elv::sim::vec {

typedef double Lanes2 __attribute__((vector_size(16)));
typedef double Lanes4 __attribute__((vector_size(32)));
typedef double Lanes8 __attribute__((vector_size(64)));

template <typename V>
inline constexpr std::size_t kWidth = sizeof(V) / sizeof(double);

/** The unsigned integer lanes of V's width, for sign-bit operations. */
template <typename V>
struct LaneBits
{
    typedef std::uint64_t type __attribute__((vector_size(sizeof(V))));
};
template <>
struct LaneBits<double>
{
    using type = std::uint64_t;
};

/**
 * v = the kWidth<V> doubles at p, and back. Both copy through a local
 * the compiler keeps in a register: a memcpy straight between memory
 * and an element of a stack array of V compiles to 16-byte pieces, and
 * a 32- or 64-byte load of those pieces cannot be store-forwarded.
 */
template <typename V>
[[gnu::always_inline]] inline void
load(V &v, const double *p)
{
    V t;
    std::memcpy(&t, p, sizeof t);
    v = t;
}

template <typename V>
[[gnu::always_inline]] inline void
store(double *p, const V &v)
{
    const V t = v;
    std::memcpy(p, &t, sizeof t);
}

/**
 * Every lane of v set to x. -0 + x is x exactly for every x (signed
 * zeros and NaN included) and compiles to one broadcast, where a brace
 * list of x compiles to one masked insert per lane.
 */
template <typename V>
[[gnu::always_inline]] inline void
splat(V &v, double x)
{
    v = -V{};
    v += x;
}

/** Insert a zero bit at the position of `mask`: bits >= mask shift up. */
inline std::size_t
insert_zero_bit(std::size_t v, std::size_t mask)
{
    return ((v & ~(mask - 1)) << 1) | (v & (mask - 1));
}

// ---------------------------------------------------------------------
// Tier dispatch: Kernel::run<V> with the active tier's lane type.

#if ELV_VEC_X86
template <typename Kernel, typename... Args>
__attribute__((target("avx512f"))) void
run_avx512(Args... args)
{
    Kernel::template run<Lanes8>(args...);
}

template <typename Kernel, typename... Args>
__attribute__((target("avx2"))) void
run_avx2(Args... args)
{
    Kernel::template run<Lanes4>(args...);
}
#endif

template <typename Kernel, typename... Args>
inline void
dispatch(Args... args)
{
#if ELV_VEC_X86
    switch (active_tier()) {
      case KernelTier::AVX512:
        run_avx512<Kernel>(args...);
        return;
      case KernelTier::AVX2:
        run_avx2<Kernel>(args...);
        return;
      case KernelTier::Baseline:
        break;
    }
#endif
    Kernel::template run<double>(args...);
}

} // namespace elv::sim::vec

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif
