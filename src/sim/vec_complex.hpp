/**
 * @file
 * Interleaved complex kernels for the state-vector hot loops, which
 * also replay density matrices (DensityMatrix is a 2n-qubit vector).
 *
 * Amplitudes are interleaved (re, im) pairs. Each kernel is written once
 * against a complex lane type C that holds kAmps<C> consecutive
 * amplitudes: Lanes2 (one) on the baseline tier and for leftover
 * groups, Lanes4 (two) on AVX2 and Lanes8 (four) on AVX-512, and runs
 * through vec_lanes.hpp's dispatch(). A lane does the scalar arithmetic
 * on its own amplitude, operation for operation:
 *
 *  - the complex product w*a as std::complex<double> forms it on finite
 *    values, (wr ar - wi ai, wr ai + wi ar), with separate multiplies
 *    and adds (cmul);
 *  - matvec accumulators start from +0 and sum in column order. The
 *    16x16 kernel (apply_4q) and the 16x16 product (matmul16) skip every
 *    coefficient that is exactly zero (both parts +-0), on every tier,
 *    and that changes no bit of a finite result: the skipped product
 *    w*x is +-0 in each part, and adding +-0 leaves an accumulator as
 *    it was unless the accumulator is -0 — which it never is, because
 *    it starts at +0 and an IEEE sum is -0 only when both addends
 *    are -0. The 4x4 kernels stay dense (fused unitaries are dense).
 *
 * Consequence: all tiers produce BIT-IDENTICAL amplitudes on finite
 * states, equal to the std::complex loops of tests/oracles.hpp (the
 * KernelDispatch tests memcmp them), so kernel dispatch never perturbs
 * scores, rankings, thread-count determinism or journal resume.
 *
 * Routing by operand mask: a gathered kernel walks group indices g whose
 * low bits pass through insert_zero_bit unchanged, so W consecutive
 * groups give W consecutive amplitudes whenever W <= lo (the smallest
 * operand mask). AVX-512 runs at its own width when lo >= 4 and at AVX2
 * width otherwise. At AVX2 width a qubit-0 operand (lo == 1, common for
 * density-matrix superoperators) runs a paired variant that regroups the
 * 128-bit halves of two loads, and the diagonal kernel a mixed
 * multiplier. Groups left over run one amplitude at a time.
 */
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "sim/vec_lanes.hpp"

namespace elv::sim::vec {

/** The complex lanes of tier lane type V: one (re, im) pair for the
 *  baseline's double, else V itself. */
template <typename V>
using Amps = std::conditional_t<std::is_same_v<V, double>, Lanes2, V>;

/** Amplitudes per complex lane. */
template <typename C>
inline constexpr std::size_t kAmps = kWidth<C> / 2;

/** out = w * a per amplitude, w's parts splatted in wr and wi:
 *  t1 = a wr, t2 = swap(a) wi, then t1 - t2 on the real lanes and
 *  t1 + t2 on the imaginary ones. The shuffles are the builtin GCC 12+
 *  and clang share (GCC's __builtin_shuffle does not exist in clang). */
template <typename C>
[[gnu::always_inline]] inline void
cmul(C &out, const C &a, const C &wr, const C &wi)
{
    const C t1 = a * wr;
    if constexpr (kAmps<C> == 1) {
        const C t2 = __builtin_shufflevector(a, a, 1, 0) * wi;
        out = __builtin_shufflevector(t1 - t2, t1 + t2, 0, 3);
    } else if constexpr (kAmps<C> == 2) {
        // Spelled as a shuffle of the difference and the sum, this
        // compiles to vaddsubpd.
        const C t2 = __builtin_shufflevector(a, a, 1, 0, 3, 2) * wi;
        out = __builtin_shufflevector(t1 - t2, t1 + t2, 0, 5, 2, 7);
    } else {
        // AVX-512 has no addsub: negate the real lanes of t2 and add,
        // which is IEEE-identical to the subtraction (a - b == a + (-b)).
        C t2 = __builtin_shufflevector(a, a, 1, 0, 3, 2, 5, 4, 7, 6) * wi;
        typedef typename LaneBits<C>::type Bits;
        constexpr std::uint64_t s = std::uint64_t{1} << 63;
        Bits bits;
        std::memcpy(&bits, &t2, sizeof t2);
        bits ^= Bits{s, 0, s, 0, s, 0, s, 0};
        std::memcpy(&t2, &bits, sizeof t2);
        out = t1 + t2;
    }
}

/** out = w * a for the coefficient w = (u[0], u[1]). */
template <typename C>
[[gnu::always_inline]] inline void
cmul(C &out, const C &a, const double *u)
{
    C wr, wi;
    splat(wr, u[0]);
    splat(wi, u[1]);
    cmul(out, a, wr, wi);
}

/** (r0, r1) = u (a0, a1) for a row-major 2x2 u: u00 a0 + u01 a1, the
 *  scalar sum of two products. */
template <typename C>
[[gnu::always_inline]] inline void
mat2(C &r0, C &r1, const C &a0, const C &a1, const double *u)
{
    C p, q;
    cmul(p, a0, u);
    cmul(q, a1, u + 2);
    r0 = p + q;
    cmul(p, a0, u + 4);
    cmul(q, a1, u + 6);
    r1 = p + q;
}

/** out[r] = sum_c u[r][c] in[c] for a row-major n x n u, accumulated
 *  from +0 in column order. */
template <typename C>
[[gnu::always_inline]] inline void
matvec(const double *u, std::size_t n, const C *in, C *out)
{
    for (std::size_t r = 0; r < n; ++r) {
        C acc = {};
        for (std::size_t c = 0; c < n; ++c) {
            C p;
            cmul(p, in[c], u + 2 * (n * r + c));
            acc += p;
        }
        out[r] = acc;
    }
}

/**
 * The nonzero coefficients of a row-major 16x16 matrix, row by row in
 * column order: row r's terms are [start[r], start[r + 1]). A dense
 * matrix has 256 terms, so the row starts are 16-bit.
 */
struct Nonzeros16
{
    std::uint16_t start[17];
    std::uint8_t col[256];
};

inline void
list_nonzeros16(const std::complex<double> *u, Nonzeros16 &nz)
{
    std::uint16_t n = 0;
    for (std::size_t r = 0; r < 16; ++r) {
        nz.start[r] = n;
        for (std::size_t c = 0; c < 16; ++c)
            if (u[16 * r + c] != std::complex<double>(0))
                nz.col[n++] = static_cast<std::uint8_t>(c);
    }
    nz.start[16] = n;
}

/** matvec over a 16x16 u's nonzeros: row r sums only its listed
 *  columns, from +0 in column order. */
template <typename C>
[[gnu::always_inline]] inline void
matvec16(const double *u, const Nonzeros16 &nz, const C *in, C *out)
{
    for (std::size_t r = 0; r < 16; ++r) {
        C acc = {};
        for (std::size_t t = nz.start[r]; t < nz.start[r + 1]; ++t) {
            const std::size_t c = nz.col[t];
            C p;
            cmul(p, in[c], u + 2 * (16 * r + c));
            acc += p;
        }
        out[r] = acc;
    }
}

/** x = (a's first amplitude, b's first), y = (a's second, b's second):
 *  the 128-bit halves of two 2-amplitude lanes regrouped. Applied to
 *  its own outputs it gives back a and b. */
[[gnu::always_inline]] inline void
halves(Lanes4 &x, Lanes4 &y, const Lanes4 &a, const Lanes4 &b)
{
    x = __builtin_shufflevector(a, b, 0, 1, 4, 5);
    y = __builtin_shufflevector(a, b, 2, 3, 6, 7);
}

// ---------------------------------------------------------------------
// Kernels: run<V> routes by the lowest operand mask, then walks the
// groups W at a time and the leftover ones one at a time.

/** Dense 1-qubit gate u (row-major 2x2) on the qubit of mask `stride`. */
struct Apply1q
{
    template <typename V>
    [[gnu::always_inline]] static void
    run(double *__restrict amps, std::size_t dim, std::size_t stride,
        const double *u)
    {
        using C = Amps<V>;
        if constexpr (kAmps<C> == 4) {
            if (stride < 4)
                return run<Lanes4>(amps, dim, stride, u);
        } else if constexpr (kAmps<C> == 2) {
            if (stride == 1)
                return dim >= 4 ? paired(amps, dim, u)
                                : run<double>(amps, dim, stride, u);
        }
        // Both loops run at least once (stride >= kAmps<C>, dim >= 2
        // stride) and u cannot alias the restrict amps, so the splats of
        // u are hoisted out of both.
        std::size_t base = 0;
        do {
            std::size_t off = 0;
            do {
                double *p0 = amps + 2 * (base + off);
                double *p1 = p0 + 2 * stride;
                C a0, a1, r0, r1;
                load(a0, p0);
                load(a1, p1);
                mat2(r0, r1, a0, a1, u);
                store(p0, r0);
                store(p1, r1);
                off += kAmps<C>;
            } while (off < stride);
            base += 2 * stride;
        } while (base < dim);
    }

    /** Stride 1: each (a0, a1) pair is adjacent; two pairs per step.
     *  dim >= 4. */
    [[gnu::always_inline]] static void
    paired(double *__restrict amps, std::size_t dim, const double *u)
    {
        std::size_t i = 0;
        do {
            Lanes4 lo, hi, a0, a1, r0, r1;
            load(lo, amps + 2 * i);
            load(hi, amps + 2 * i + 4);
            halves(a0, a1, lo, hi);
            mat2(r0, r1, a0, a1, u);
            halves(lo, hi, r0, r1);
            store(amps + 2 * i, lo);
            store(amps + 2 * i + 4, hi);
            i += 4;
        } while (i < dim);
    }
};

/** Diagonal 1-qubit gate diag(d0, d1), d = (d0 re, d0 im, d1 re, d1 im),
 *  on the qubit of mask `stride`. */
struct ApplyDiag1q
{
    template <typename V>
    [[gnu::always_inline]] static void
    run(double *__restrict amps, std::size_t dim, std::size_t stride,
        const double *d)
    {
        using C = Amps<V>;
        if constexpr (kAmps<C> == 4) {
            if (stride < 4)
                return run<Lanes4>(amps, dim, stride, d);
        } else if constexpr (kAmps<C> == 2) {
            if (stride == 1)
                return mixed(amps, dim, d);
        }
        // As in Apply1q: both loops run at least once.
        std::size_t base = 0;
        do {
            std::size_t off = 0;
            do {
                double *p0 = amps + 2 * (base + off);
                double *p1 = p0 + 2 * stride;
                C a0, a1, r0, r1;
                load(a0, p0);
                load(a1, p1);
                cmul(r0, a0, d);
                cmul(r1, a1, d + 2);
                store(p0, r0);
                store(p1, r1);
                off += kAmps<C>;
            } while (off < stride);
            base += 2 * stride;
        } while (base < dim);
    }

    /** Stride 1: the two amplitudes of a lane take d0 and d1, so one
     *  mixed multiplier serves every step. dim is even. */
    [[gnu::always_inline]] static void
    mixed(double *amps, std::size_t dim, const double *d)
    {
        const Lanes4 dr = {d[0], d[0], d[2], d[2]};
        const Lanes4 di = {d[1], d[1], d[3], d[3]};
        for (std::size_t i = 0; i + 2 <= dim; i += 2) {
            Lanes4 a, r;
            load(a, amps + 2 * i);
            cmul(r, a, dr, di);
            store(amps + 2 * i, r);
        }
    }
};

/** Dense 2-qubit gate u (row-major 4x4) in the local basis |q0 q1>,
 *  q0 and q1 the qubits of masks m0 and m1. */
struct Apply2q
{
    template <typename V>
    [[gnu::always_inline]] static void
    run(double *amps, std::size_t dim, std::size_t m0, std::size_t m1,
        const double *u)
    {
        using C = Amps<V>;
        const std::size_t lo = m0 < m1 ? m0 : m1;
        const std::size_t hi = m0 < m1 ? m1 : m0;
        if constexpr (kAmps<C> == 4) {
            if (lo < 4)
                return run<Lanes4>(amps, dim, m0, m1, u);
        } else if constexpr (kAmps<C> == 2) {
            if (lo == 1)
                return paired(amps, dim, m0, m1, u);
        }
        const std::size_t groups = dim >> 2;
        const std::size_t full = groups - groups % kAmps<C>;
        for (std::size_t g = 0; g < full; g += kAmps<C>)
            group<C>(amps, row(g, lo, hi), m0, m1, u);
        for (std::size_t g = full; g < groups; ++g)
            group<Lanes2>(amps, row(g, lo, hi), m0, m1, u);
    }

    static std::size_t
    row(std::size_t g, std::size_t lo, std::size_t hi)
    {
        return insert_zero_bit(insert_zero_bit(g, lo), hi);
    }

    /** u on the group(s) whose first row is i. */
    template <typename C>
    [[gnu::always_inline]] static void
    group(double *amps, std::size_t i, std::size_t m0, std::size_t m1,
          const double *u)
    {
        const std::size_t idx[4] = {i, i | m1, i | m0, i | m0 | m1};
        C in[4], out[4];
        for (std::size_t k = 0; k < 4; ++k)
            load(in[k], amps + 2 * idx[k]);
        matvec(u, 4, in, out);
        for (std::size_t r = 0; r < 4; ++r)
            store(amps + 2 * idx[r], out[r]);
    }

    /** A qubit-0 operand (lo == 1): the local slots split by the low
     *  mask are adjacent in memory, so two groups share each load. */
    [[gnu::always_inline]] static void
    paired(double *amps, std::size_t dim, std::size_t m0, std::size_t m1,
           const double *u)
    {
        const std::size_t other = m0 == 1 ? m1 : m0;
        const std::size_t sx = m0 == 1 ? 2 : 1; // slot adjacent to slot 0
        const std::size_t sy = m0 == 1 ? 1 : 2; // slot adjacent to slot 3
        const std::size_t groups = dim >> 2;
        std::size_t g = 0;
        for (; g + 2 <= groups; g += 2) {
            const std::size_t ia = row(g, 1, other);
            const std::size_t ib = row(g + 1, 1, other);
            Lanes4 a0, b0, a1, b1, in[4], out[4];
            load(a0, amps + 2 * ia);
            load(b0, amps + 2 * ib);
            load(a1, amps + 2 * (ia | other));
            load(b1, amps + 2 * (ib | other));
            halves(in[0], in[sx], a0, b0);
            halves(in[sy], in[3], a1, b1);
            matvec(u, 4, in, out);
            halves(a0, b0, out[0], out[sx]);
            halves(a1, b1, out[sy], out[3]);
            store(amps + 2 * ia, a0);
            store(amps + 2 * ib, b0);
            store(amps + 2 * (ia | other), a1);
            store(amps + 2 * (ib | other), b1);
        }
        for (; g < groups; ++g)
            group<Lanes2>(amps, row(g, 1, other), m0, m1, u);
    }
};

/** 16x16 u in the local basis |q0 q1 q2 q3>, summing only the nonzeros
 *  nz lists. `sorted` holds the four masks ascending; offset[k] is the
 *  row offset of local basis state k. */
struct Apply4q
{
    template <typename V>
    [[gnu::always_inline]] static void
    run(double *amps, std::size_t dim, const std::size_t *sorted,
        const std::size_t *offset, const double *u, const Nonzeros16 *nz)
    {
        using C = Amps<V>;
        if constexpr (kAmps<C> == 4) {
            if (sorted[0] < 4)
                return run<Lanes4>(amps, dim, sorted, offset, u, nz);
        } else if constexpr (kAmps<C> == 2) {
            if (sorted[0] == 1)
                return paired(amps, dim, sorted, offset, u, *nz);
        }
        const std::size_t groups = dim >> 4;
        const std::size_t full = groups - groups % kAmps<C>;
        for (std::size_t g = 0; g < full; g += kAmps<C>)
            group<C>(amps, row(g, sorted), offset, u, *nz);
        for (std::size_t g = full; g < groups; ++g)
            group<Lanes2>(amps, row(g, sorted), offset, u, *nz);
    }

    static std::size_t
    row(std::size_t g, const std::size_t *sorted)
    {
        for (int a = 0; a < 4; ++a)
            g = insert_zero_bit(g, sorted[a]);
        return g;
    }

    template <typename C>
    [[gnu::always_inline]] static void
    group(double *amps, std::size_t i, const std::size_t *offset,
          const double *u, const Nonzeros16 &nz)
    {
        C in[16], out[16];
        for (std::size_t k = 0; k < 16; ++k)
            load(in[k], amps + 2 * (i | offset[k]));
        matvec16(u, nz, in, out);
        for (std::size_t r = 0; r < 16; ++r)
            store(amps + 2 * (i | offset[r]), out[r]);
    }

    /** sorted[0] == 1: each slot pairs with its low-mask partner, whose
     *  offset differs by exactly 1 (memory-adjacent). */
    [[gnu::always_inline]] static void
    paired(double *amps, std::size_t dim, const std::size_t *sorted,
           const std::size_t *offset, const double *u, const Nonzeros16 &nz)
    {
        std::size_t pair_bit = 0;
        for (std::size_t k = 1; k < 16; ++k)
            if (offset[k] == 1)
                pair_bit = k;
        const std::size_t groups = dim >> 4;
        std::size_t g = 0;
        for (; g + 2 <= groups; g += 2) {
            const std::size_t ia = row(g, sorted);
            const std::size_t ib = row(g + 1, sorted);
            Lanes4 in[16], out[16];
            for (std::size_t k = 0; k < 16; ++k) {
                if (k & pair_bit)
                    continue;
                Lanes4 a, b;
                load(a, amps + 2 * (ia | offset[k]));
                load(b, amps + 2 * (ib | offset[k]));
                halves(in[k], in[k | pair_bit], a, b);
            }
            matvec16(u, nz, in, out);
            for (std::size_t k = 0; k < 16; ++k) {
                if (k & pair_bit)
                    continue;
                Lanes4 a, b;
                halves(a, b, out[k], out[k | pair_bit]);
                store(amps + 2 * (ia | offset[k]), a);
                store(amps + 2 * (ib | offset[k]), b);
            }
        }
        for (; g < groups; ++g)
            group<Lanes2>(amps, row(g, sorted), offset, u, nz);
    }
};

/** out += a * b over row-major 16x16 matrices, skipping zero a[i][k]
 *  (superoperators are sparse); each out[i][j] sums in k order. The
 *  skip is exact for finite b when `out` holds no -0, as sim::matmul's
 *  zero-initialized product does not (see the file comment). Lanes run
 *  across j, a row of `out` in 16 / kAmps accumulators. */
struct Matmul16
{
    template <typename V>
    [[gnu::always_inline]] static void
    run(const double *a, const double *b, double *out)
    {
        using C = Amps<V>;
        if constexpr (kAmps<C> == 4) {
            // Both vector tiers run the product at AVX2 width.
            run<Lanes4>(a, b, out);
        } else {
            constexpr std::size_t n = 16 / kAmps<C>;
            constexpr std::size_t step = 2 * kAmps<C>;
            for (std::size_t i = 0; i < 16; ++i) {
                C acc[n];
                for (std::size_t jj = 0; jj < n; ++jj)
                    load(acc[jj], out + 32 * i + step * jj);
                for (std::size_t k = 0; k < 16; ++k) {
                    const double ar = a[2 * (16 * i + k)];
                    const double ai = a[2 * (16 * i + k) + 1];
                    if (ar == 0.0 && ai == 0.0)
                        continue;
                    C wr, wi;
                    splat(wr, ar);
                    splat(wi, ai);
                    for (std::size_t jj = 0; jj < n; ++jj) {
                        C x, p;
                        load(x, b + 32 * k + step * jj);
                        cmul(p, x, wr, wi);
                        acc[jj] += p;
                    }
                }
                for (std::size_t jj = 0; jj < n; ++jj)
                    store(out + 32 * i + step * jj, acc[jj]);
            }
        }
    }
};

// ---------------------------------------------------------------------
// Entry points.

inline void
apply_1q(std::complex<double> *amps, std::size_t dim, std::size_t stride,
         const std::complex<double> *u)
{
    dispatch<Apply1q>(reinterpret_cast<double *>(amps), dim, stride,
                      reinterpret_cast<const double *>(u));
}

inline void
apply_diag_1q(std::complex<double> *amps, std::size_t dim, std::size_t stride,
              std::complex<double> d0, std::complex<double> d1)
{
    const double d[4] = {d0.real(), d0.imag(), d1.real(), d1.imag()};
    dispatch<ApplyDiag1q>(reinterpret_cast<double *>(amps), dim, stride, d);
}

inline void
apply_2q(std::complex<double> *amps, std::size_t dim, std::size_t m0,
         std::size_t m1, const std::complex<double> *u)
{
    dispatch<Apply2q>(reinterpret_cast<double *>(amps), dim, m0, m1,
                      reinterpret_cast<const double *>(u));
}

inline void
apply_4q(std::complex<double> *amps, std::size_t dim, std::size_t m0,
         std::size_t m1, std::size_t m2, std::size_t m3,
         const std::complex<double> *u)
{
    // Gather needs the insertion masks in ascending order; the local
    // basis order stays |q0 q1 q2 q3> via the offset table.
    std::size_t sorted[4] = {m0, m1, m2, m3};
    for (int a = 0; a < 4; ++a)
        for (int b = a + 1; b < 4; ++b)
            if (sorted[b] < sorted[a])
                std::swap(sorted[a], sorted[b]);
    std::size_t offset[16];
    for (std::size_t k = 0; k < 16; ++k)
        offset[k] = ((k & 8) ? m0 : 0) | ((k & 4) ? m1 : 0) |
                    ((k & 2) ? m2 : 0) | ((k & 1) ? m3 : 0);
    // Superoperators are sparse: every tier sums only the nonzeros.
    Nonzeros16 nz;
    list_nonzeros16(u, nz);
    dispatch<Apply4q>(reinterpret_cast<double *>(amps), dim,
                      static_cast<const std::size_t *>(sorted),
                      static_cast<const std::size_t *>(offset),
                      reinterpret_cast<const double *>(u),
                      static_cast<const Nonzeros16 *>(&nz));
}

/** out += a * b for row-major 16x16 matrices (see Matmul16). */
inline void
matmul16(const std::complex<double> *a, const std::complex<double> *b,
         std::complex<double> *out)
{
    dispatch<Matmul16>(reinterpret_cast<const double *>(a),
                       reinterpret_cast<const double *>(b),
                       reinterpret_cast<double *>(out));
}

} // namespace elv::sim::vec
